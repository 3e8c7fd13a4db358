"""Rank-correlation harness with significance testing and ROUGE baselines.

Scorer outputs are compared against per-summary human ratings along four
dimensions. Correlations are Spearman (average ranks, then Pearson) and
Kendall tau-b; averaged human ratings are heavily tied, so both handle
ties explicitly. Significance between two scorers uses a two-tailed
paired t-test whose p-value comes from the regularized incomplete beta
function, implemented here from scratch.

The significance test's per-document correlations come from one grouped
pass over every document rather than one ``spearman()`` call each, with
the same bits. A document's average ranks sum to exactly n(n+1)/2, so
their mean is exactly (n+1)/2 and every centred rank is a multiple of 0.5.
Every product of two is then a multiple of 0.25 and every sum of those is
exact, in any order, so the grouped sums equal ``spearman()``'s dot
products and ``sxy / sqrt(sxx * syy)`` is the expression it evaluates.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import check_new_pair, read_jsonl, text_field, write_jsonl

DIMENSIONS = ("coherence", "consistency", "fluency", "relevance")


def _rank_average(values: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks within each group, all values one group if ``groups``
    is None; a run of equal values in a group gets the mean of its span.

    One lexsort by (group, value) and binary searches, O(n log n): each
    sorted value finds its group's first sorted position and its run's
    first and last, and the run gets ``(first + last) / 2.0 + 1.0`` on
    positions counted from the group's start. That is the same float
    expression on the same integers as a loop over one group's runs would
    use, so every rank keeps its bits, grouped or ranked alone.
    """
    n = len(values)
    if groups is None:
        groups = np.zeros(n, dtype=np.int64)
    order = np.lexsort((values, groups))
    ordered, owners = values[order], groups[order]
    # run ids along the sorted order: a new run wherever value or group changes
    run = np.zeros(n, dtype=np.int64)
    run[1:] = np.cumsum((ordered[1:] != ordered[:-1]) | (owners[1:] != owners[:-1]))
    start = np.searchsorted(owners, owners, "left")
    first = np.searchsorted(run, run, "left") - start
    last = np.searchsorted(run, run, "right") - 1 - start
    ranks = np.empty(n)
    ranks[order] = (first + last) / 2.0 + 1.0
    return ranks


def _check_vectors(xs, ys, min_n: int):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    if len(x) < min_n:
        raise ValueError(f"need at least {min_n} observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("undefined correlation for constant input")
    return x, y


def spearman(xs, ys) -> float:
    x, y = _check_vectors(xs, ys, min_n=3)
    rx = _rank_average(x)
    ry = _rank_average(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def _tied_pairs(new_run: np.ndarray) -> int:
    """Pairs within runs of a sorted sequence; ``new_run[k]`` says whether
    element k + 1 starts a new run."""
    bounds = np.flatnonzero(np.r_[True, new_run, True])
    lengths = np.diff(bounds)
    return int((lengths * (lengths - 1) // 2).sum())


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merge sort.

    At each level the sequence is sorted within blocks of ``width``; each
    right block counts, for each of its elements, the left-block elements
    above it, then the two merge. Tagging each value with its merged block,
    ``block * span + rank``, lets one searchsorted and one sort handle every
    block of a level at once. The sort is a stable one of presorted runs,
    so it merges them; log2(n) levels of O(n) work each.
    """
    n = len(ranks)
    span = int(ranks.max()) + 1
    pos = np.arange(n)
    values = ranks.astype(np.int64)
    inversions = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        keys = block * span + values
        is_left = pos % (2 * width) < width
        left_keys = keys[is_left]
        right = ~is_left
        # a block with a right half has a full left half, so the left
        # halves of blocks 0..b end at (b + 1) * width in left_keys
        left_end = (block[right] + 1) * width
        inversions += int((left_end - np.searchsorted(left_keys, keys[right], "right")).sum())
        values = np.sort(keys, kind="stable") - block * span
        width *= 2
    return inversions


def kendall_tau(xs, ys) -> float:
    """tau-b over all pairs: (C - D) / sqrt((C+D+Tx)(C+D+Ty)), where Tx
    counts pairs tied in x but not y and Ty the reverse.

    Knight's O(n log n) algorithm (Knight 1966, JASA 61:436), in O(n)
    memory. After sorting the pairs by (x, y), runs give n1 pairs tied in
    x and n3 tied in both; a pair i < j is discordant exactly when y falls,
    so D is the number of inversions of y, counted by merge sort; runs in
    sorted y give n2. Then C + D = n0 - n1 - n2 + n3, Tx = n1 - n3 and
    Ty = n2 - n3. All counts are exact Python ints, equal to the ones an
    enumeration of all pairs gives, so the closing float expression and
    its result keep their bits; Python ints also keep the product under
    the square root exact past the int64 range (n above about 77,000).
    """
    x, y = _check_vectors(xs, ys, min_n=3)
    n = len(x)
    order = np.lexsort((y, x))
    x = x[order]
    y = y[order]
    new_x = x[1:] != x[:-1]
    tied_x = _tied_pairs(new_x)
    tied_both = _tied_pairs(new_x | (y[1:] != y[:-1]))
    y_sorted = np.sort(y)
    new_y = y_sorted[1:] != y_sorted[:-1]
    tied_y = _tied_pairs(new_y)
    # dense ranks of y, so that equal values never count as an inversion
    y_ranks = np.searchsorted(y_sorted[np.r_[True, new_y]], y)
    discordant = _count_inversions(y_ranks)
    concordant = n * (n - 1) // 2 - tied_x - tied_y + tied_both - discordant
    tied_x_only = tied_x - tied_both
    tied_y_only = tied_y - tied_both
    denom = math.sqrt(
        (concordant + discordant + tied_x_only)
        * (concordant + discordant + tied_y_only)
    )
    if denom == 0.0:
        raise ValueError("undefined correlation for constant input")
    return (concordant - discordant) / denom


_BETA_EPS = 1.0e-15
_BETA_FPMIN = 1.0e-300
_BETA_MAX_ITER = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ValueError("incomplete beta did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b). The continued fraction converges fast only for
    x < (a+1)/(a+b+2); above that the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    moves the evaluation into the fast region."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def paired_t_test(a, b) -> tuple[float, float]:
    """(t, two-tailed p) for paired samples; p via the t CDF expressed
    through the regularized incomplete beta."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("zero-variance differences")
    t = float(d.mean() * math.sqrt(n) / sd)
    dof = n - 1
    p = regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    return t, min(max(p, 0.0), 1.0)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ngram_counts(tokens, n: int) -> Counter:
    """Multiset of the n-grams of ``tokens``, each an n-tuple."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(
    candidate, reference, n: int, ref_counts: Counter | None = None
) -> tuple[float, float, float]:
    """Clipped n-gram multiset overlap; returns (precision, recall, f1).
    ``ref_counts``, if given, is ``ngram_counts(reference, n)``, built once
    by a caller that scores many candidates against one reference."""
    if n < 1:
        raise ValueError("n must be >= 1")
    n_cand = len(candidate) - n + 1
    n_ref = len(reference) - n + 1
    if n_cand < 1 or n_ref < 1:
        return 0.0, 0.0, 0.0
    if ref_counts is None:
        ref_counts = ngram_counts(reference, n)
    overlap = sum(min(c, ref_counts[g]) for g, c in ngram_counts(candidate, n).items())
    precision = overlap / n_cand
    recall = overlap / n_ref
    return precision, recall, _f1(precision, recall)


def lcs_table(reference) -> dict:
    """Bit mask of each token's positions in ``reference``: bit k of
    ``table[token]`` is set where ``reference[k] == token``. Tokens must be
    hashable."""
    table: dict = {}
    for k, token in enumerate(reference):
        table[token] = table.get(token, 0) | (1 << k)
    return table


def _lcs_length(a, b, b_table: dict | None = None) -> int:
    """Length of a longest common subsequence, by the bit-parallel method
    of Allison and Dix (1986, IPL 23:305).

    Bit k of ``v`` stands for position k of ``b``, whose ``lcs_table`` is
    ``b_table``; one big-int step per token of ``a``, O(mn / w) word
    operations for machine words of w bits. The count of zero bits left in
    ``v`` is the exact LCS length, the same integer the O(mn) table gives,
    and LCS length is symmetric, so either sequence may take the bit side.
    """
    if b_table is None:
        b_table = lcs_table(b)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        bits = b_table.get(token)
        if bits:
            u = v & bits
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate, reference, ref_table: dict | None = None) -> tuple[float, float, float]:
    """Longest-common-subsequence overlap; returns (precision, recall, f1).
    ``ref_table``, if given, is ``lcs_table(reference)``, built once by a
    caller that scores many candidates against one reference."""
    if not candidate or not reference:
        return 0.0, 0.0, 0.0
    lcs = _lcs_length(candidate, reference, ref_table)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return precision, recall, _f1(precision, recall)


@dataclass(frozen=True)
class HumanAnnotation:
    doc_id: str
    system_id: str
    summary: str
    ratings: dict[str, float]

    def __post_init__(self) -> None:
        missing = [d for d in DIMENSIONS if d not in self.ratings]
        if missing:
            raise ValueError(f"annotation missing dimensions: {', '.join(missing)}")


@dataclass(frozen=True)
class DimensionResult:
    dimension: str
    spearman_rho: float
    kendall_tau: float
    n: int


@dataclass(frozen=True)
class SignificanceEntry:
    dimension: str
    baseline: str
    t: float
    p: float


@dataclass
class CorrelationReport:
    aggregation: str
    results: list[DimensionResult] = field(default_factory=list)
    significance: list[SignificanceEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class JoinedRatings:
    """One scorer's rows beside the human ratings of the same (doc_id,
    system_id), in score order, with every dimension's ratings."""

    doc_ids: list[str]
    system_ids: list[str]
    values: np.ndarray
    ratings: dict[str, np.ndarray]


def join_ratings(
    scores: list[tuple[str, str, float]], annotations: list[HumanAnnotation]
) -> JoinedRatings:
    """Join ``(doc_id, system_id, score)`` rows to their annotations once,
    for every dimension; a score with no annotation for its (doc_id,
    system_id) raises."""
    lookup = {(ann.doc_id, ann.system_id): ann for ann in annotations}
    matched = []
    for doc_id, system_id, _ in scores:
        ann = lookup.get((doc_id, system_id))
        if ann is None:
            raise ValueError(f"no annotation for doc_id={doc_id!r} system_id={system_id!r}")
        matched.append(ann)
    return JoinedRatings(
        doc_ids=[doc_id for doc_id, _, _ in scores],
        system_ids=[system_id for _, system_id, _ in scores],
        values=np.array([value for _, _, value in scores], dtype=float),
        ratings={
            dim: np.array([ann.ratings[dim] for ann in matched], dtype=float)
            for dim in DIMENSIONS
        },
    )


def evaluate(
    joined: JoinedRatings, dimension: str, system_level: bool = False
) -> DimensionResult:
    """Correlate a joined scorer with one rating dimension. Default pools
    every (doc, system) summary into one pair list; system_level averages
    per system first and correlates the per-system means."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension: {dimension}")
    xs, ys = joined.values, joined.ratings[dimension]
    if system_level:
        by_system: dict[str, list[tuple[float, float]]] = {}
        for system_id, value, rating in zip(joined.system_ids, xs, ys):
            by_system.setdefault(system_id, []).append((value, rating))
        systems = sorted(by_system)
        xs = [float(np.mean([v for v, _ in by_system[s]])) for s in systems]
        ys = [float(np.mean([r for _, r in by_system[s]])) for s in systems]
    return DimensionResult(
        dimension=dimension,
        spearman_rho=spearman(xs, ys),
        kendall_tau=kendall_tau(xs, ys),
        n=len(xs),
    )


def _per_document_spearman(joined: JoinedRatings, dimension: str) -> dict[str, float]:
    """``spearman()`` of each document's scores against its ratings, for
    the documents where it is defined: at least 3 rows, finite values, and
    neither scores nor ratings constant. All documents are ranked in one
    grouped pass and summed with ``np.bincount``; see the module docstring
    for why each rho keeps ``spearman()``'s bits."""
    doc_of: dict[str, int] = {}
    groups = np.array(
        [doc_of.setdefault(doc_id, len(doc_of)) for doc_id in joined.doc_ids], dtype=np.int64
    )
    x, y = joined.values, joined.ratings[dimension]
    n_docs = len(doc_of)
    count = np.bincount(groups, minlength=n_docs)
    finite = np.bincount(groups, ~(np.isfinite(x) & np.isfinite(y)), n_docs) == 0
    mean_rank = (count[groups] + 1) / 2.0
    rx = _rank_average(x, groups) - mean_rank
    ry = _rank_average(y, groups) - mean_rank
    sxy = np.bincount(groups, rx * ry, n_docs)
    sxx = np.bincount(groups, rx * rx, n_docs)
    syy = np.bincount(groups, ry * ry, n_docs)
    # a group's centred ranks are all 0 exactly when its values are equal
    keep = np.flatnonzero((count >= 3) & finite & (sxx > 0.0) & (syy > 0.0))
    rho = sxy[keep] / np.sqrt(sxx[keep] * syy[keep])
    doc_ids = list(doc_of)
    return {doc_ids[k]: r for k, r in zip(keep.tolist(), rho.tolist())}


def paired_significance(
    joined: JoinedRatings, baseline: JoinedRatings, dimension: str
) -> tuple[float, float, int]:
    """Paired t-test between two joined scorers on one dimension. The
    paired samples are per-document Spearman correlations against the
    ratings, computed across systems within each document; documents where
    either correlation is undefined drop out of the pairing. Returns
    (t, p, n) with n the number of paired documents."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension: {dimension}")
    main = _per_document_spearman(joined, dimension)
    base = _per_document_spearman(baseline, dimension)
    docs = sorted(set(main) & set(base))
    if len(docs) < 2:
        raise ValueError("need at least 2 documents with defined correlations")
    t, p = paired_t_test([main[d] for d in docs], [base[d] for d in docs])
    return t, p, len(docs)


def significance_against_baseline(
    scores: list[tuple[str, str, float]],
    baseline_scores: list[tuple[str, str, float]],
    annotations: list[HumanAnnotation],
    dimension: str,
) -> tuple[float, float, int]:
    """``paired_significance`` on fresh joins of both scorers."""
    return paired_significance(
        join_ratings(scores, annotations), join_ratings(baseline_scores, annotations), dimension
    )


def write_annotations_jsonl(
    annotations: list[HumanAnnotation],
    path: str | Path,
    scale: tuple[float, float] = (1.0, 5.0),
) -> None:
    """First line is a header object declaring the rating scale."""
    low, high = scale
    rows = (
        {
            "doc_id": ann.doc_id,
            "system_id": ann.system_id,
            "summary": ann.summary,
            "ratings": {d: ann.ratings[d] for d in DIMENSIONS},
        }
        for ann in annotations
    )
    write_jsonl(chain([{"rating_scale": [low, high]}], rows), path)


def finite_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number. Booleans,
    strings, lists, null, the NaN and Infinity that Python's json module
    accepts, and integers too large for a float raise
    ``ValueError("<what> must be a finite number, got …")``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def read_annotations_jsonl(
    path: str | Path,
) -> tuple[list[HumanAnnotation], tuple[float, float]]:
    """Read a file written by ``write_annotations_jsonl``. Its first
    non-blank line is the header; a malformed row, a rating outside the
    header's scale, or a repeated (doc_id, system_id) raises ``ValueError``
    starting ``malformed annotation line N:``."""
    rows = read_jsonl(path, "annotation")
    _, header = next(rows, (0, {}))
    try:
        low, high = (finite_number(v, "rating_scale bound") for v in header["rating_scale"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed annotation header: {exc}") from exc
    out: list[HumanAnnotation] = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, row in rows:
        where = f"malformed annotation line {lineno}"
        texts = [text_field(row, name, where) for name in ("doc_id", "system_id", "summary")]
        if "ratings" not in row:
            raise ValueError(f"{where}: missing field 'ratings'")
        if not isinstance(row["ratings"], dict):
            raise ValueError(f"{where}: field 'ratings' must be an object")
        try:
            ratings = {k: finite_number(v, f"{k} rating") for k, v in row["ratings"].items()}
            ann = HumanAnnotation(*texts, ratings)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        for dim, value in ann.ratings.items():
            if not low <= value <= high:
                raise ValueError(f"{where}: {dim} rating {value} outside scale [{low}, {high}]")
        check_new_pair(first_line, (ann.doc_id, ann.system_id), lineno, "malformed annotation")
        out.append(ann)
    return out, (low, high)

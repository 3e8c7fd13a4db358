"""Self-supervised training-pair construction.

Two dataset kinds are built from a corpus and its BM25 index:

* summary matching: positive pairs a document's reference summary with its
  lead-3 pseudo-summary; the negative takes the nearest neighbor's reference
  and swaps one random sentence for a random lead-3 sentence, giving a
  topically close but unfaithful candidate.
* document matching: positive pairs a document with its own reference; the
  negative swaps one random sentence of that reference for a random sentence
  of the neighbor's reference.

Examples stay text until the model needs them: ``to_scenario_examples``
tokenizes each candidate, reference and source document once and derives
the scenario-tagged examples for the three input templates: SR and SDR from
summary matching (SDR attaches the source document), SD from document
matching. Deriving SDR from document matching would be degenerate there
because the positive candidate is the reference itself.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import Corpus, Document, Vocabulary, read_jsonl, tokenize, write_jsonl
from .retrieval import Bm25Index, most_similar

SUMMARY_MATCHING = "summary_matching"
DOCUMENT_MATCHING = "document_matching"

_NEIGHBOR_ATTEMPTS = 5

# each index's top-_NEIGHBOR_ATTEMPTS ranking per document, filled on first
# use; keyed by the index object (compared by identity), and an entry goes
# when its index does
_RANKINGS: weakref.WeakKeyDictionary[Bm25Index, dict[int, list[int]]] = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class LabeledExample:
    """One training instance, as text. Its fields are the dataset file's
    keys, in file order; ``doc_id`` names the source document."""

    kind: str
    label: int
    candidate: str
    reference: str | None
    doc_id: str
    negative_strategy: str | None = None

    def __post_init__(self) -> None:
        if self.kind == SUMMARY_MATCHING:
            if self.reference is None:
                raise ValueError("summary_matching needs a reference")
        elif self.kind == DOCUMENT_MATCHING:
            if self.reference is not None:
                raise ValueError("document_matching takes no reference")
        else:
            raise ValueError(f"unknown dataset kind: {self.kind}")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        for name, optional in (
            ("candidate", False),
            ("reference", True),
            ("doc_id", False),
            ("negative_strategy", True),
        ):
            value = getattr(self, name)
            if not isinstance(value, str) and not (optional and value is None):
                raise ValueError(f"{name} must be a string, got {value!r}")


# the dataset file's keys, in file order
_FIELD_NAMES = tuple(f.name for f in fields(LabeledExample))


@dataclass(frozen=True)
class ScenarioExample:
    """Model-ready instance for one input template; fields are token ids."""

    scenario: str
    label: int
    candidate: tuple[int, ...]
    reference: tuple[int, ...] | None = None
    document: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name, value, needed in (
            ("reference", self.reference, self.scenario in ("SR", "SDR")),
            ("document", self.document, self.scenario in ("SD", "SDR")),
        ):
            if (value is not None) != needed:
                need = "needs a" if needed else "takes no"
                raise ValueError(f"scenario {self.scenario} {need} {name}")


def lead3(doc: Document) -> str:
    """First min(3, n) sentences of the document, original order."""
    if not doc.sentences:
        raise ValueError(f"document {doc.id} has no sentences")
    return " ".join(doc.sentences[:3])


def _pick_neighbor(corpus: Corpus, index: Bm25Index, ordinal: int) -> Document | None:
    """Nearest neighbor whose reference is non-empty and differs from ours;
    falls back down the ranking, giving up after a few tries. Each
    document's ranking is queried once per index and then read back."""
    rankings = _RANKINGS.setdefault(index, {})
    if ordinal not in rankings:
        rankings[ordinal] = most_similar(index, ordinal, k=_NEIGHBOR_ATTEMPTS)
    own_ref = corpus[ordinal].reference_summary
    for neighbor in rankings[ordinal]:
        candidate = corpus[neighbor]
        if candidate.reference_sentences and candidate.reference_summary != own_ref:
            return candidate
    return None


def _swap_one(
    base: list[str],
    pool: tuple[str, ...] | list[str],
    rng: random.Random,
    forbid: str,
) -> str:
    """Replace one uniformly chosen slot of ``base`` with one uniformly
    chosen sentence from ``pool``. Draws where the replacement equals the
    replaced sentence, or where the result equals ``forbid`` (the paired
    positive candidate), are rejected and redrawn; corpora whose sentences
    repeat across documents could otherwise yield a no-op swap."""
    for _ in range(8):
        slot = rng.randrange(len(base))
        replacement = pool[rng.randrange(len(pool))]
        if replacement == base[slot]:
            continue
        corrupted = " ".join(base[:slot] + [replacement] + base[slot + 1 :])
        if corrupted != forbid:
            return corrupted
    raise ValueError("could not build a corrupted candidate distinct from the positive")


def make_summary_matching_pair(
    corpus: Corpus,
    index: Bm25Index,
    ordinal: int,
    rng: random.Random,
) -> tuple[LabeledExample, LabeledExample]:
    """(positive, negative) for the summary-matching task, or raises if no
    usable neighbor exists."""
    doc = corpus[ordinal]
    lead = lead3(doc)
    neighbor = _pick_neighbor(corpus, index, ordinal)
    if neighbor is None:
        raise ValueError(f"no usable neighbor for document {doc.id}")
    corrupted = _swap_one(
        list(neighbor.reference_sentences), doc.sentences[:3], rng, forbid=lead
    )
    return (
        LabeledExample(SUMMARY_MATCHING, 1, lead, doc.reference_summary, doc.id),
        LabeledExample(
            SUMMARY_MATCHING, 0, corrupted, doc.reference_summary, doc.id, "bm25_swap"
        ),
    )


def make_document_matching_pair(
    corpus: Corpus,
    index: Bm25Index,
    ordinal: int,
    rng: random.Random,
) -> tuple[LabeledExample, LabeledExample]:
    """(positive, negative) for the document-matching task."""
    doc = corpus[ordinal]
    if not doc.reference_sentences:
        raise ValueError(f"document {doc.id} has an empty reference")
    neighbor = _pick_neighbor(corpus, index, ordinal)
    if neighbor is None:
        raise ValueError(f"no usable neighbor for document {doc.id}")
    corrupted = _swap_one(
        list(doc.reference_sentences),
        neighbor.reference_sentences,
        rng,
        forbid=doc.reference_summary,
    )
    return (
        LabeledExample(DOCUMENT_MATCHING, 1, doc.reference_summary, None, doc.id),
        LabeledExample(DOCUMENT_MATCHING, 0, corrupted, None, doc.id, "bm25_swap"),
    )


def generate_dataset(
    corpus: Corpus,
    index: Bm25Index,
    kind: str,
    n_pairs: int,
    rng_seed: int,
) -> list[LabeledExample]:
    """Exactly ``n_pairs`` positives and ``n_pairs`` negatives, interleaved
    positive/negative. Source documents are sampled without replacement while
    they last, with replacement beyond that. Documents with no usable
    neighbor are skipped and redrawn. The index must list the corpus's
    documents in corpus order."""
    if kind not in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
        raise ValueError(f"unknown dataset kind: {kind}")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if index.doc_ids != [doc.id for doc in corpus.documents]:
        raise ValueError(
            f"the index was built from another corpus ({len(index.doc_ids)} indexed "
            f"documents, {len(corpus)} in the corpus)"
        )
    if len(corpus) < 2:
        raise ValueError("corpus too small: need at least 2 documents")
    make_pair = (
        make_summary_matching_pair if kind == SUMMARY_MATCHING else make_document_matching_pair
    )
    rng = random.Random(rng_seed)
    ordinals = list(range(len(corpus)))
    rng.shuffle(ordinals)
    if n_pairs > len(ordinals):
        ordinals.extend(rng.randrange(len(corpus)) for _ in range(n_pairs - len(ordinals)))
    else:
        ordinals = ordinals[:n_pairs]

    out: list[LabeledExample] = []
    queue = list(ordinals)
    pos = 0
    failures = 0
    while len(out) < 2 * n_pairs:
        if pos >= len(queue):
            raise ValueError("corpus too small: no document has a usable neighbor")
        ordinal = queue[pos]
        pos += 1
        try:
            positive, negative = make_pair(corpus, index, ordinal, rng)
        except ValueError:
            failures += 1
            if failures > len(corpus) + n_pairs:
                raise
            queue.append(rng.randrange(len(corpus)))
            continue
        out.append(positive)
        out.append(negative)
    return out


def to_scenario_examples(
    dataset: list[LabeledExample], corpus: Corpus, vocab: Vocabulary
) -> list[ScenarioExample]:
    """summary_matching -> one SR plus one SDR example (source document
    attached); document_matching -> one SD example. Labels carry over. The
    candidate and reference are tokenized once per example, and each source
    document once per call."""
    doc_tokens: dict[str, tuple[int, ...]] = {}

    def tokens_of(doc_id: str) -> tuple[int, ...]:
        if doc_id not in doc_tokens:
            ordinal = corpus.ordinal_of(doc_id)
            doc_tokens[doc_id] = tuple(tokenize(corpus[ordinal].text, vocab))
        return doc_tokens[doc_id]

    out: list[ScenarioExample] = []
    for ex in dataset:
        candidate = tuple(tokenize(ex.candidate, vocab))
        document = tokens_of(ex.doc_id)
        if ex.kind == SUMMARY_MATCHING:
            reference = tuple(tokenize(ex.reference, vocab))
            out.append(ScenarioExample("SR", ex.label, candidate, reference=reference))
            out.append(
                ScenarioExample(
                    "SDR", ex.label, candidate, reference=reference, document=document
                )
            )
        else:
            out.append(ScenarioExample("SD", ex.label, candidate, document=document))
    return out


def write_dataset_jsonl(dataset: list[LabeledExample], path: str | Path) -> None:
    """One JSON object per example, keyed by its field names in field order."""
    write_jsonl(({name: getattr(ex, name) for name in _FIELD_NAMES} for ex in dataset), path)


def read_dataset_jsonl(path: str | Path) -> list[LabeledExample]:
    """Read a file written by write_dataset_jsonl; keys that are not fields
    are ignored. A line that is not such an object, misses a field, or
    fails the example's checks raises ``ValueError`` with its number."""
    out: list[LabeledExample] = []
    for lineno, row in read_jsonl(path, "dataset"):
        try:
            out.append(LabeledExample(**{name: row[name] for name in _FIELD_NAMES}))
        except KeyError as exc:
            raise ValueError(
                f"malformed dataset line {lineno}: missing field {exc.args[0]!r}"
            ) from None
        except ValueError as exc:
            raise ValueError(f"malformed dataset line {lineno}: {exc}") from exc
    return out

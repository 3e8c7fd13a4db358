"""Self-supervised training-pair construction.

Two dataset kinds are built from a corpus and its BM25 index:

* summary matching: positive pairs a document's reference summary with its
  lead-3 pseudo-summary; the negative takes the nearest neighbor's reference
  and swaps one random sentence for a random lead-3 sentence, giving a
  topically close but unfaithful candidate.
* document matching: positive pairs a document with its own reference; the
  negative swaps one random sentence of that reference for a random sentence
  of the neighbor's reference.

Scenario-tagged examples for the three input templates are derived from
these: SR and SDR from summary matching (SDR attaches the source document),
SD from document matching. Deriving SDR from document matching would be
degenerate there because the positive candidate is the reference itself.
"""

from __future__ import annotations

import json
import random
import weakref
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Document, Vocabulary, atomic_write, tokenize
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
    """One training instance. ``candidate``/``reference`` are token ids;
    the *_text twins keep the detokenized form for the audit trail, and
    ``source_doc_id`` names the source document."""

    kind: str
    label: int
    candidate: tuple[int, ...]
    candidate_text: str
    reference: tuple[int, ...] | None
    reference_text: str | None
    source_doc_id: str
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
    vocab: Vocabulary,
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
    positive = LabeledExample(
        kind=SUMMARY_MATCHING,
        label=1,
        candidate=tuple(tokenize(lead, vocab)),
        candidate_text=lead,
        reference=tuple(tokenize(doc.reference_summary, vocab)),
        reference_text=doc.reference_summary,
        source_doc_id=doc.id,
    )
    corrupted = _swap_one(
        list(neighbor.reference_sentences), doc.sentences[:3], rng, forbid=lead
    )
    negative = LabeledExample(
        kind=SUMMARY_MATCHING,
        label=0,
        candidate=tuple(tokenize(corrupted, vocab)),
        candidate_text=corrupted,
        reference=positive.reference,
        reference_text=doc.reference_summary,
        source_doc_id=doc.id,
        negative_strategy="bm25_swap",
    )
    return positive, negative


def make_document_matching_pair(
    corpus: Corpus,
    index: Bm25Index,
    vocab: Vocabulary,
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
    positive = LabeledExample(
        kind=DOCUMENT_MATCHING,
        label=1,
        candidate=tuple(tokenize(doc.reference_summary, vocab)),
        candidate_text=doc.reference_summary,
        reference=None,
        reference_text=None,
        source_doc_id=doc.id,
    )
    corrupted = _swap_one(
        list(doc.reference_sentences),
        neighbor.reference_sentences,
        rng,
        forbid=doc.reference_summary,
    )
    negative = LabeledExample(
        kind=DOCUMENT_MATCHING,
        label=0,
        candidate=tuple(tokenize(corrupted, vocab)),
        candidate_text=corrupted,
        reference=None,
        reference_text=None,
        source_doc_id=doc.id,
        negative_strategy="bm25_swap",
    )
    return positive, negative


def generate_dataset(
    corpus: Corpus,
    index: Bm25Index,
    vocab: Vocabulary,
    kind: str,
    n_pairs: int,
    rng_seed: int,
) -> list[LabeledExample]:
    """Exactly ``n_pairs`` positives and ``n_pairs`` negatives, interleaved
    positive/negative. Source documents are sampled without replacement while
    they last, with replacement beyond that. Documents with no usable
    neighbor are skipped and redrawn."""
    if kind not in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
        raise ValueError(f"unknown dataset kind: {kind}")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
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
            positive, negative = make_pair(corpus, index, vocab, ordinal, rng)
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
    attached); document_matching -> one SD example. Labels carry over."""
    doc_tokens: dict[str, tuple[int, ...]] = {}

    def tokens_of(doc_id: str) -> tuple[int, ...]:
        if doc_id not in doc_tokens:
            ordinal = corpus.ordinal_of(doc_id)
            doc_tokens[doc_id] = tuple(tokenize(corpus[ordinal].text, vocab))
        return doc_tokens[doc_id]

    out: list[ScenarioExample] = []
    for ex in dataset:
        if ex.kind == SUMMARY_MATCHING:
            out.append(
                ScenarioExample("SR", ex.label, ex.candidate, reference=ex.reference)
            )
            out.append(
                ScenarioExample(
                    "SDR",
                    ex.label,
                    ex.candidate,
                    reference=ex.reference,
                    document=tokens_of(ex.source_doc_id),
                )
            )
        else:
            out.append(
                ScenarioExample(
                    "SD", ex.label, ex.candidate, document=tokens_of(ex.source_doc_id)
                )
            )
    return out


def write_dataset_jsonl(dataset: list[LabeledExample], path: str | Path) -> None:
    """Text is stored detokenized; token ids are recovered at load time."""
    with atomic_write(path) as fh:
        for ex in dataset:
            fh.write(
                json.dumps(
                    {
                        "kind": ex.kind,
                        "label": ex.label,
                        "candidate": ex.candidate_text,
                        "reference": ex.reference_text,
                        "doc_id": ex.source_doc_id,
                        "negative_strategy": ex.negative_strategy,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_dataset_jsonl(path: str | Path, vocab: Vocabulary) -> list[LabeledExample]:
    out: list[LabeledExample] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                kind = row["kind"]
                candidate_text, reference_text = row["candidate"], row["reference"]
                if not isinstance(candidate_text, str):
                    raise ValueError(f"candidate must be a string, got {candidate_text!r}")
                if not isinstance(reference_text, (str, type(None))):
                    raise ValueError(f"reference must be a string, got {reference_text!r}")
                doc_id = row["doc_id"]
                if not isinstance(doc_id, str):
                    raise ValueError(f"doc_id must be a string, got {doc_id!r}")
                out.append(
                    LabeledExample(
                        kind=kind,
                        label=row["label"],
                        candidate=tuple(tokenize(candidate_text, vocab)),
                        candidate_text=candidate_text,
                        reference=(
                            tuple(tokenize(reference_text, vocab))
                            if kind == SUMMARY_MATCHING and reference_text is not None
                            else None
                        ),
                        reference_text=reference_text,
                        source_doc_id=doc_id,
                        negative_strategy=row["negative_strategy"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed dataset line {lineno}: {exc}") from exc
    return out

"""Corpus handling: sentence segmentation, word-level vocabulary, tokenization,
JSONL ingestion, and a deterministic synthetic-corpus generator for desk-scale
experiments.

Everything here is a pure function of its inputs; randomness enters only
through explicit seeds.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

_TERMINALS = ".!?"
_PUNCT = set(string.punctuation)

# Closed guard list: a single period ending one of these chunks never splits.
# Fixed at 25 entries so segmentation stays deterministic and testable.
ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "gen.", "sen.", "rep.",
        "gov.", "capt.", "col.", "lt.", "sgt.", "st.", "mt.", "jr.", "sr.",
        "u.s.", "u.k.", "u.n.", "inc.", "ltd.", "corp.", "vs.",
    }
)


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences.

    A sentence ends at a run of terminal punctuation (``.``, ``!``, ``?``)
    followed by whitespace or end of text. A run consisting of a single
    period is suppressed when the whitespace-delimited chunk ending at it
    (lowercased) is in :data:`ABBREVIATIONS`. Empty segments are dropped;
    text without any terminator comes back as one sentence.
    """
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] not in _TERMINALS:
            i += 1
            continue
        j = i + 1
        while j < n and text[j] in _TERMINALS:
            j += 1
        if j < n and not text[j].isspace():
            i = j
            continue
        if j - i == 1 and text[i] == ".":
            k = i
            while k > start and not text[k - 1].isspace():
                k -= 1
            if text[k:j].lower() in ABBREVIATIONS:
                i = j
                continue
        segment = text[start:j].strip()
        if segment:
            sentences.append(segment)
        start = j
        i = j
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def word_tokens(text: str) -> list[str]:
    """Lowercase, split on whitespace, and peel leading/trailing punctuation
    characters off each chunk as separate tokens. Interior punctuation
    (hyphens, apostrophes, dotted abbreviations) stays inside the token."""
    tokens: list[str] = []
    for chunk in text.lower().split():
        a, b = 0, len(chunk)
        lead: list[str] = []
        while a < b and chunk[a] in _PUNCT:
            lead.append(chunk[a])
            a += 1
        trail: list[str] = []
        while b > a and chunk[b - 1] in _PUNCT:
            trail.append(chunk[b - 1])
            b -= 1
        tokens.extend(lead)
        if b > a:
            tokens.append(chunk[a:b])
        tokens.extend(reversed(trail))
    return tokens


@dataclass(frozen=True)
class Document:
    """A source text with its reference summary, both pre-segmented."""

    id: str
    text: str
    sentences: tuple[str, ...]
    reference_summary: str
    reference_sentences: tuple[str, ...]


def make_document(doc_id: str, text: str, reference_summary: str) -> Document:
    return Document(
        id=doc_id,
        text=text,
        sentences=tuple(segment_sentences(text)),
        reference_summary=reference_summary,
        reference_sentences=tuple(segment_sentences(reference_summary)),
    )


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    provenance: str = "real"
    _ordinals: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordinals = {d.id: i for i, d in enumerate(self.documents)}
        if len(ordinals) != len(self.documents):
            raise ValueError("duplicate document ids in corpus")
        object.__setattr__(self, "_ordinals", ordinals)

    def __len__(self) -> int:
        return len(self.documents)

    def __getitem__(self, ordinal: int) -> Document:
        return self.documents[ordinal]

    def ordinal_of(self, doc_id: str) -> int:
        """Ordinal of the document with this id; KeyError if there is none."""
        return self._ordinals[doc_id]


CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
SPECIAL_TOKENS = (CLS_TOKEN, SEP_TOKEN, PAD_TOKEN, UNK_TOKEN)
CLS_ID, SEP_ID, PAD_ID, UNK_ID = 0, 1, 2, 3


@dataclass(frozen=True)
class Vocabulary:
    """Word-level vocabulary; the four special tokens hold ids 0..3 and real
    tokens get dense ids from 4 upward by (descending frequency, lexicographic)."""

    token_to_id: dict[str, int]
    min_frequency: int
    id_to_token: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        inverse = [""] * len(self.token_to_id)
        for tok, idx in self.token_to_id.items():
            inverse[idx] = tok
        object.__setattr__(self, "id_to_token", tuple(inverse))

    def __len__(self) -> int:
        return len(self.token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path: str | Path) -> None:
        # One non-special token per line; line number = id - 4.
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token[len(SPECIAL_TOKENS):]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str | Path, min_frequency: int = 1) -> "Vocabulary":
        mapping = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        with open(path, encoding="utf-8") as fh:
            for offset, line in enumerate(fh):
                mapping[line.rstrip("\n")] = len(SPECIAL_TOKENS) + offset
        return cls(token_to_id=mapping, min_frequency=min_frequency)


def build_vocab(corpus: Corpus, min_frequency: int = 1) -> Vocabulary:
    """Count word tokens over document bodies and reference summaries, keep
    those seen at least ``min_frequency`` times, and assign dense ids."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    if min_frequency < 1:
        raise ValueError("min_frequency must be >= 1")
    counts: Counter[str] = Counter()
    for doc in corpus.documents:
        counts.update(word_tokens(doc.text))
        counts.update(word_tokens(doc.reference_summary))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_frequency),
        key=lambda tok: (-counts[tok], tok),
    )
    mapping = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for tok in kept:
        mapping[tok] = len(mapping)
    return Vocabulary(token_to_id=mapping, min_frequency=min_frequency)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    return [vocab.id_of(tok) for tok in word_tokens(text)]


def detokenize(ids: list[int], vocab: Vocabulary) -> str:
    return " ".join(vocab.id_to_token[i] for i in ids)


def write_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            fh.write(
                json.dumps(
                    {"id": doc.id, "text": doc.text, "summary": doc.reference_summary},
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_corpus_jsonl(path: str | Path, provenance: str = "real") -> Corpus:
    docs: list[Document] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                docs.append(make_document(row["id"], row["text"], row["summary"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed corpus line {lineno}: {exc}") from exc
    return Corpus(documents=tuple(docs), provenance=provenance)


# --- synthetic corpus -------------------------------------------------------
#
# Template-generated documents. Each topic owns a disjoint scaffold
# vocabulary that the filler sentences draw from, so BM25 neighbors land
# inside the topic; each document coins its own entity, attribute and value
# words, so matching a summary to its document is decidable from lexical
# evidence. References extract fact sentences verbatim, which keeps every
# candidate a summary-matching or document-matching task can see inside one
# template family: positives and corrupted negatives then differ only in
# which coined words they carry, never in surface wording, so no
# per-sentence style cue separates the labels.

_CONSONANTS = "bdfglmnprstvz"
_VOWELS = "aeiou"

_FACT_TEMPLATES = (
    "the {entity} set its {attr} to {value}.",
    "the {entity} lists the {attr} as {value}.",
    "the {attr} of the {entity} is {value}.",
)
_FILLER_TEMPLATES = (
    "the {a} near the {b} stayed busy.",
    "people from the {a} visited the {b} often.",
    "a new {a} plan changed the {b} schedule.",
    "the {b} crew praised the {a} effort.",
)


def _coin_word(rng: random.Random, used: set[str], syllables: int) -> str:
    for _ in range(64):
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if w not in used:
            used.add(w)
            return w
    # Namespace at this length is nearly exhausted; widen rather than spin.
    return _coin_word(rng, used, syllables + 1)


def gen_synthetic_corpus(n_docs: int, topic_count: int, rng_seed: int) -> Corpus:
    """Generate a deterministic topical corpus.

    Documents have 6-12 sentences: 3-4 fact sentences up front, then
    shuffled topical fillers, so the lead always consists of fact
    sentences. The reference summary extracts 2-3 of the fact sentences
    verbatim. Same-topic documents share scaffold vocabulary.
    """
    if n_docs < 2 or topic_count < 2:
        raise ValueError("invalid sizes: need n_docs >= 2 and topic_count >= 2")
    rng = random.Random(rng_seed)
    used: set[str] = set()

    topics = []
    for _ in range(topic_count):
        name = _coin_word(rng, used, 2)
        topics.append({"scaffold": [name] + [_coin_word(rng, used, 2) for _ in range(6)]})

    docs: list[Document] = []
    for i in range(n_docs):
        topic = topics[i % topic_count]
        entity = f"{_coin_word(rng, used, 3)} {_coin_word(rng, used, 3)}"
        n_sentences = rng.randint(6, 12)
        n_facts = rng.randint(3, 4)
        facts = [
            (_coin_word(rng, used, 3), f"{_coin_word(rng, used, 3)} {_coin_word(rng, used, 3)}")
            for _ in range(n_facts)
        ]
        fact_sentences = [
            rng.choice(_FACT_TEMPLATES).format(entity=entity, attr=attr, value=value)
            for attr, value in facts
        ]

        sentences = fact_sentences[:3]
        tail = fact_sentences[3:]
        while len(sentences) + len(tail) < n_sentences:
            a, b = rng.sample(topic["scaffold"], 2)
            filler = rng.choice(_FILLER_TEMPLATES).format(a=a, b=b)
            if filler not in tail and filler not in sentences:
                tail.append(filler)
        rng.shuffle(tail)
        sentences.extend(tail)

        reference = rng.sample(fact_sentences, rng.randint(2, min(3, n_facts)))
        docs.append(
            make_document(f"doc-{i:05d}", " ".join(sentences), " ".join(reference))
        )
    return Corpus(documents=tuple(docs), provenance="synthetic")

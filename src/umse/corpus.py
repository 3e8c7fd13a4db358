"""Corpus handling: sentence segmentation, word-level vocabulary, tokenization,
a deterministic synthetic-corpus generator for desk-scale experiments, the
atomic file write every artifact writer uses, and the JSONL reader, writer
and field checks that every text artifact goes through.

Everything here is a pure function of its inputs; randomness enters only
through explicit seeds.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import string
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

_PUNCT = string.punctuation

# Closed guard list: a single period ending one of these chunks never splits.
# Fixed at 25 entries so segmentation stays deterministic and testable.
ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "gen.", "sen.", "rep.",
        "gov.", "capt.", "col.", "lt.", "sgt.", "st.", "mt.", "jr.", "sr.",
        "u.s.", "u.k.", "u.n.", "inc.", "ltd.", "corp.", "vs.",
    }
)
_LONGEST_ABBREVIATION = max(map(len, ABBREVIATIONS))

# A maximal run of terminals followed by whitespace or the end of the text.
# ``\s`` matches exactly the characters for which ``str.isspace()`` is true.
_SENTENCE_END = re.compile(r"[.!?]+(?=\s|\Z)")


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
    for end in _SENTENCE_END.finditer(text):
        i, j = end.span()
        if j - i == 1 and text[i] == ".":
            # lowercasing never shortens a string, so a chunk longer than
            # the longest abbreviation cannot be one: look back one further
            # character than that and take the last whitespace-free piece
            chunk = text[max(start, j - _LONGEST_ABBREVIATION - 1) : j].rsplit(None, 1)[-1]
            if chunk.lower() in ABBREVIATIONS:
                continue
        segment = text[start:j].strip()
        if segment:
            sentences.append(segment)
        start = j
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
        core = chunk.strip(_PUNCT)
        if len(core) == len(chunk):
            tokens.append(chunk)
        elif not core:
            tokens.extend(chunk)
        else:
            lead = len(chunk) - len(chunk.lstrip(_PUNCT))
            tokens.extend(chunk[:lead])
            tokens.append(core)
            tokens.extend(chunk[lead + len(core) :])
    return tokens


@dataclass(frozen=True)
class Document:
    """A source text with its reference summary. Each is segmented into
    sentences on first read, which only pair generation does."""

    id: str
    text: str
    reference_summary: str

    @functools.cached_property
    def sentences(self) -> tuple[str, ...]:
        return tuple(segment_sentences(self.text))

    @functools.cached_property
    def reference_sentences(self) -> tuple[str, ...]:
        return tuple(segment_sentences(self.reference_summary))


def make_document(doc_id: str, text: str, reference_summary: str) -> Document:
    return Document(id=doc_id, text=text, reference_summary=reference_summary)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
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
        """Ordinal of the document with this id; ValueError if there is none."""
        try:
            return self._ordinals[doc_id]
        except KeyError:
            raise ValueError(f"unknown document id: {doc_id}") from None


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

    def save(self, path: str | Path) -> None:
        # One non-special token per line; line number = id - 4.
        with atomic_write(path) as fh:
            for tok in self.id_to_token[len(SPECIAL_TOKENS):]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by ``save``. A line naming a special token or
        a token of an earlier line raises ``ValueError``."""
        mapping = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        with open(path, encoding="utf-8") as fh:
            for offset, line in enumerate(fh):
                tok = line.rstrip("\n")
                if tok in mapping:
                    what = "special" if tok in SPECIAL_TOKENS else "repeated"
                    raise ValueError(f"vocab {path} line {offset + 1}: {what} token {tok!r}")
                mapping[tok] = len(SPECIAL_TOKENS) + offset
        return cls(token_to_id=mapping)


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
    return Vocabulary(token_to_id=mapping)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    id_of = vocab.token_to_id.get
    return [id_of(word, UNK_ID) for word in word_tokens(text)]


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside ``path`` (UTF-8 text, or binary with
    ``mode="wb"``) and move it over ``path`` with ``os.replace`` once the
    block ends. A write that fails partway removes the temporary file, so
    ``path`` holds either its old bytes or all of the new ones. A symlink
    is written through; a device or pipe such as ``/dev/stdout`` cannot be
    replaced and is written to directly."""
    encoding = None if "b" in mode else "utf-8"
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps(row, ensure_ascii=False), without building an encoder per row
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """Write each row as one line of JSON, non-ASCII characters as they
    are, through ``atomic_write``."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(_encode_line(row) + "\n")


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of the JSONL
    file at ``path``, counting lines from 1. A line that is not a JSON
    object raises ``ValueError("malformed <what> line N: ...")``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed {what} line {lineno}: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"malformed {what} line {lineno}: not a JSON object")
            yield lineno, row


def text_field(row: dict, name: str, where: str) -> str:
    """``row[name]`` if it is a string. Otherwise raise ``ValueError`` that
    starts with ``where``: "missing field" if the key is absent, "must be a
    string" for any other value, null included."""
    if name not in row:
        raise ValueError(f"{where}: missing field {name!r}")
    value = row[name]
    if not isinstance(value, str):
        raise ValueError(f"{where}: field {name!r} must be a string")
    return value


def check_new_pair(
    first_line: dict[tuple[str, str], int], key: tuple[str, str], lineno: int, what: str
) -> None:
    """Record that line ``lineno`` holds the ``(doc_id, system_id)`` pair
    ``key``; raise ``ValueError("<what> line N: repeated ...")`` if an
    earlier line of ``first_line`` held it."""
    first = first_line.setdefault(key, lineno)
    if first != lineno:
        raise ValueError(
            f"{what} line {lineno}: repeated (doc_id, system_id) {key!r}, first on line {first}"
        )


def write_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(
        ({"id": d.id, "text": d.text, "summary": d.reference_summary} for d in corpus.documents),
        path,
    )


def read_corpus_jsonl(path: str | Path) -> Corpus:
    docs = []
    for lineno, row in read_jsonl(path, "corpus"):
        where = f"malformed corpus line {lineno}"
        docs.append(make_document(*(text_field(row, k, where) for k in ("id", "text", "summary"))))
    return Corpus(documents=tuple(docs))


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
    return Corpus(documents=tuple(docs))

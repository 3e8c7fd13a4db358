"""Okapi BM25 inverted index over tokenized document bodies.

Used to find each document's most similar neighbor when building hard
negatives. k1=1.2, b=0.75 and the +1-smoothed idf are the canonical
defaults.

The postings are held once, as compressed sparse rows over the distinct
tokens in ascending id order: ``terms[i]`` is a token id, and its postings
are ``ordinals[offsets[i]:offsets[i + 1]]`` (document ordinals, ascending)
with the term frequencies ``tfs`` at the same positions. The idf of every
term and the length norm of every document are computed once, when the
index is made, and so is a doc-major view of the postings: ``by_doc`` lists
the posting positions in (ordinal, token) order, and a document's own
postings are ``by_doc[doc_offsets[doc]:doc_offsets[doc + 1]]``.

Summation order is part of the contract. A document's score adds one
contribution per distinct query term, in ascending token order, starting
from 0.0, each computed left to right as
``qtf * idf * tf * (k1 + 1) / (tf + norm)``. Scoring every document gathers
the query terms' postings term by term, in that order, and sums them with
``np.bincount``, which adds each document's contributions in the order they
arrive. So a one-document score summed that way, the all-document scores, a
fresh index and a deserialized one agree bit for bit, and so do the
rankings and the datasets built from them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, Vocabulary, atomic_write, tokenize

INDEX_MAGIC = b"UMSEIDX1"


def _idf(n_docs: int, df: int) -> float:
    # math.log, not np.log: numpy's vectorized log need not round the same way
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(s, s + n)`` for each ``(s, n)`` pair, concatenated."""
    first = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - first, lengths)


@dataclass(eq=False)
class Bm25Index:
    doc_ids: list[str]
    doc_len: list[int]
    avg_doc_len: float
    terms: np.ndarray  # (n_terms,) distinct token ids, ascending
    offsets: np.ndarray  # (n_terms + 1,) where each term's postings start
    ordinals: np.ndarray  # (n_postings,) document ordinals, ascending per term
    tfs: np.ndarray  # (n_postings,) term frequencies
    k1: float = 1.2
    b: float = 0.75
    term_idf: np.ndarray = field(init=False, repr=False)
    norm: np.ndarray = field(init=False, repr=False)
    denom: np.ndarray = field(init=False, repr=False)  # tf + norm[ordinal], per posting
    by_doc: np.ndarray = field(init=False, repr=False)  # posting positions, doc-major
    doc_offsets: np.ndarray = field(init=False, repr=False)  # (n_docs + 1,)

    def __post_init__(self) -> None:
        dfs = np.diff(self.offsets).tolist()
        self.term_idf = np.array([_idf(self.n_docs, df) for df in dfs], dtype=np.float64)
        dl = np.asarray(self.doc_len, dtype=np.float64)
        # all documents empty: avg_doc_len is 0, and with no postings the
        # NaN norms are never read
        with np.errstate(invalid="ignore"):
            self.norm = self.k1 * (1.0 - self.b + self.b * dl / self.avg_doc_len)
        self.denom = self.tfs + self.norm[self.ordinals]
        # stable, so each document's postings stay in ascending token order
        self.by_doc = np.argsort(self.ordinals, kind="stable")
        per_doc = np.bincount(self.ordinals, minlength=self.n_docs)
        self.doc_offsets = np.concatenate(([0], np.cumsum(per_doc)))

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def build_index(corpus: Corpus, vocab: Vocabulary) -> Bm25Index:
    """Index document bodies (not summaries). Deterministic."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    token_lists = [tokenize(doc.text, vocab) for doc in corpus.documents]
    doc_len = [len(ids) for ids in token_lists]
    n_docs = len(corpus)
    tokens = np.fromiter(chain.from_iterable(token_lists), dtype=np.int64, count=sum(doc_len))
    owners = np.repeat(np.arange(n_docs), doc_len)
    # one key per token occurrence; the sorted distinct keys are the
    # postings in (token, ordinal) order, and their counts the frequencies
    keys, tfs = np.unique(tokens * n_docs + owners, return_counts=True)
    terms, starts = np.unique(keys // n_docs, return_index=True)
    return Bm25Index(
        doc_ids=[d.id for d in corpus.documents],
        doc_len=doc_len,
        avg_doc_len=sum(doc_len) / len(doc_len),
        terms=terms,
        offsets=np.append(starts, len(keys)),
        ordinals=keys % n_docs,
        tfs=tfs,
    )


def _self_scores(index: Bm25Index, doc: int) -> np.ndarray:
    """Scores of every document for a query made of ``doc``'s own tokens.

    The query terms are the rows whose postings hold ``doc``, read from the
    doc-major view in ascending token order, and the gather keeps that order.
    """
    own = index.by_doc[index.doc_offsets[doc] : index.doc_offsets[doc + 1]]
    rows = np.searchsorted(index.offsets, own, side="right") - 1
    starts = index.offsets[rows]
    counts = index.offsets[rows + 1] - starts
    postings = _concat_ranges(starts, counts)
    contrib = np.repeat(index.tfs[own] * index.term_idf[rows], counts)
    contrib *= index.tfs[postings]
    contrib *= index.k1 + 1.0
    contrib /= index.denom[postings]
    return np.bincount(index.ordinals[postings], weights=contrib, minlength=index.n_docs)


def most_similar(index: Bm25Index, doc: int, k: int = 1) -> list[int]:
    """Top-k neighbors of a document, querying with its own token sequence.

    The document itself is excluded; ties break by ascending ordinal.

    Only a prefix of the full stable ranking is sorted: every document
    scoring at least the (k + 1)-th best score, found by a partition. Those
    survivors are in ascending ordinal order, so their stable sort is the
    ranking's first entries, ties and signed zeros ordered as a full stable
    argsort orders them.
    """
    if index.n_docs < 2:
        raise ValueError("no neighbor exists")
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = -_self_scores(index, doc)
    kth = min(k, index.n_docs - 1)  # k + 1 places, counted from 0, hold k neighbours
    survivors = np.flatnonzero(neg <= np.partition(neg, kth)[kth])
    ranked = survivors[np.argsort(neg[survivors], kind="stable")]
    return ranked[ranked != doc][:k].tolist()


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Versioned binary layout (all little-endian):

    magic 8s | k1 f8 | b f8 | avg_doc_len f8 | n_docs u32
    per doc: id_len u16, id utf-8, doc_len u32
    n_tokens u32; per token (ascending id): token u32, n_postings u32,
    then (ordinal u32, tf u32) pairs in ascending ordinal order.
    """
    head = INDEX_MAGIC + struct.pack("<dddI", index.k1, index.b, index.avg_doc_len, index.n_docs)
    docs = b"".join(
        struct.pack("<H", len(raw)) + raw + struct.pack("<I", dl)
        for raw, dl in zip((d.encode("utf-8") for d in index.doc_ids), index.doc_len)
    )
    # the token section as u32 words: the term count, then per term two
    # header words followed by two words per posting
    n_terms, counts = len(index.terms), np.diff(index.offsets)
    words = np.empty(1 + 2 * n_terms + 2 * len(index.ordinals), dtype="<u4")
    words[0] = n_terms
    heads = 1 + 2 * np.arange(n_terms) + 2 * index.offsets[:-1]
    words[heads] = index.terms
    words[heads + 1] = counts
    pairs = np.column_stack((index.ordinals, index.tfs))
    words[_concat_ranges(heads + 2, 2 * counts)] = pairs.ravel()
    with atomic_write(path, "wb") as fh:
        fh.write(head + docs + words.tobytes())


def load_index(path: str | Path) -> Bm25Index:
    """Read a file written by save_index. A file that ends early raises
    ``ValueError("truncated index file …")``. One with no documents, a
    ``k1`` or ``b`` out of range, postings out of order or naming a
    document past the last, or document lengths that are not what
    build_index writes raises ``ValueError("corrupt index file …")``."""
    data = Path(path).read_bytes()
    if data[:8] != INDEX_MAGIC:
        raise ValueError(f"not an index file (bad magic): {path}")
    truncated = ValueError(f"truncated index file: {path}")

    def corrupt(what: str) -> ValueError:
        return ValueError(f"corrupt index file ({what}): {path}")

    def unpack(fmt: str, off: int) -> tuple[tuple, int]:
        end = off + struct.calcsize(fmt)
        if end > len(data):
            raise truncated
        return struct.unpack_from(fmt, data, off), end

    (k1, b, avg_doc_len, n_docs), off = unpack("<dddI", 8)
    # written so that NaN fails each check
    if not (math.isfinite(k1) and k1 > 0.0):
        raise corrupt(f"k1 {k1} is not finite and positive")
    if not 0.0 <= b <= 1.0:
        raise corrupt(f"b {b} is outside [0, 1]")
    if n_docs == 0:
        raise corrupt("no documents")
    doc_ids: list[str] = []
    doc_len: list[int] = []
    for _ in range(n_docs):
        (id_len,), start = unpack("<H", off)
        (dl,), off = unpack("<I", start + id_len)
        doc_ids.append(data[start : start + id_len].decode("utf-8"))
        doc_len.append(dl)
    # build_index writes the mean exactly, so any other bits are corruption
    if struct.pack("<d", avg_doc_len) != struct.pack("<d", sum(doc_len) / n_docs):
        raise corrupt(f"avg_doc_len {avg_doc_len} is not the mean document length")
    (n_terms,), off = unpack("<I", off)
    words = np.frombuffer(data, dtype="<u4", count=(len(data) - off) // 4, offset=off)
    if 2 * n_terms > len(words):
        raise truncated
    # each term's header follows the previous term's postings, so finding
    # the headers takes one step per term
    heads = np.empty(n_terms, dtype=np.int64)
    at = 0
    for i in range(n_terms):
        if at + 2 > len(words):
            raise truncated
        heads[i] = at
        at += 2 + 2 * int(words[at + 1])
    if at > len(words):
        raise truncated
    terms = words[heads].astype(np.int64)
    counts = words[heads + 1].astype(np.int64)
    pairs = words[_concat_ranges(heads + 2, 2 * counts)].reshape(-1, 2)
    ordinals, tfs = pairs.T.astype(np.int64)
    # the binary searches and np.bincount in scoring rely on this order
    keys = np.repeat(terms, counts) * n_docs + ordinals
    if (ordinals >= n_docs).any() or (np.diff(terms) <= 0).any() or (np.diff(keys) <= 0).any():
        raise corrupt("postings out of order or range")
    if (np.bincount(ordinals, weights=tfs, minlength=n_docs) != doc_len).any():
        raise corrupt("a document length is not the sum of its term frequencies")
    return Bm25Index(
        doc_ids=doc_ids,
        doc_len=doc_len,
        avg_doc_len=avg_doc_len,
        terms=terms,
        offsets=np.concatenate(([0], np.cumsum(counts))),
        ordinals=ordinals,
        tfs=tfs,
        k1=k1,
        b=b,
    )

"""Independent brute-force oracles used by the test suite.

Everything in this file is deliberately written on a different route than
the library code it checks: plain-Python loops, direct formulas from raw
counts, exhaustive pair enumeration, recursive LCS, and high-precision
quadrature. Keep it free of imports from ``umse`` internals beyond plain
data (token lists, corpora) so the two sides stay independent.

The training kernels are checked against their plain dense numpy
expressions instead: the chunked, in-place kernels must reproduce these
bit for bit, because the seeded training trajectory depends on every bit.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import mpmath
import numpy as np


def bm25_score_from_raw_counts(doc_token_lists, query_tokens, doc_index, k1=1.2, b=0.75):
    """Okapi BM25 from raw token lists, one float op chain per query term.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); each occurrence of a
    query term contributes independently.
    """
    n_docs = len(doc_token_lists)
    doc_lens = [len(d) for d in doc_token_lists]
    avgdl = sum(doc_lens) / n_docs
    doc = doc_token_lists[doc_index]
    tf = Counter(doc)
    df = Counter()
    for d in doc_token_lists:
        for t in set(d):
            df[t] += 1
    score = 0.0
    for t in query_tokens:
        f = tf.get(t, 0)
        if f == 0:
            continue
        idf = math.log((n_docs - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
        score += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * doc_lens[doc_index] / avgdl))
    return score


def bm25_rank_all(doc_token_lists, query_tokens, exclude=None, k1=1.2, b=0.75):
    """Full ranking by linear scan; ties broken by ascending index."""
    scored = []
    for i in range(len(doc_token_lists)):
        if i == exclude:
            continue
        s = bm25_score_from_raw_counts(doc_token_lists, query_tokens, i, k1=k1, b=b)
        scored.append((i, s))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return [i for i, _ in scored]


def bm25_index_bytes(doc_ids, doc_token_lists, k1=1.2, b=0.75):
    """The UMSEIDX1 file for a corpus, written field by field with one
    struct call per value, as the layout in ``save_index``'s docstring
    describes it."""
    lens = [len(tokens) for tokens in doc_token_lists]
    out = bytearray(b"UMSEIDX1")
    out += struct.pack("<dddI", k1, b, sum(lens) / len(lens), len(doc_ids))
    for doc_id, n in zip(doc_ids, lens):
        raw = doc_id.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<I", n)
    postings = {}
    for ordinal, tokens in enumerate(doc_token_lists):
        for token, tf in sorted(Counter(tokens).items()):
            postings.setdefault(token, []).append((ordinal, tf))
    out += struct.pack("<I", len(postings))
    for token in sorted(postings):
        out += struct.pack("<II", token, len(postings[token]))
        for ordinal, tf in postings[token]:
            out += struct.pack("<II", ordinal, tf)
    return bytes(out)


def average_ranks(values):
    """Rank transform with tied values sharing the mean of their rank span."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def spearman_bruteforce(xs, ys):
    return pearson(average_ranks(xs), average_ranks(ys))


def kendall_tau_b_bruteforce(xs, ys):
    """Exhaustive pair enumeration with tau-b tie correction."""
    n = len(xs)
    concordant = discordant = tied_x_only = tied_y_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tied_x_only += 1
            elif dy == 0:
                tied_y_only += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + tied_x_only)
        * (concordant + discordant + tied_y_only)
    )
    return (concordant - discordant) / denom


def t_two_tailed_p_quadrature(t, dof, dps=40):
    """Two-tailed p from direct quadrature of the t density (no beta funcs)."""
    with mpmath.workdps(dps):
        v = mpmath.mpf(dof)
        const = mpmath.gamma((v + 1) / 2) / (mpmath.sqrt(v * mpmath.pi) * mpmath.gamma(v / 2))

        def pdf(x):
            return const * (1 + x * x / v) ** (-(v + 1) / 2)

        tail = mpmath.quad(pdf, [abs(mpmath.mpf(t)), mpmath.inf])
        return float(2 * tail)


def lcs_length_recursive(a, b):
    """Memoized recursion, independent of the iterative table in the library."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def ngram_clipped_overlap(candidate, reference, n):
    """Clipped n-gram overlap plus both n-gram totals, by direct counting."""
    cand = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
    ref = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    cc = Counter(cand)
    rc = Counter(ref)
    overlap = sum(min(cc[g], rc[g]) for g in cc)
    return overlap, len(cand), len(ref)


GELU_C = np.sqrt(2.0 / np.pi)


def softmax_last_dense(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_dense(probs, dprobs):
    return probs * (dprobs - (probs * dprobs).sum(axis=-1, keepdims=True))


def gelu_parts_dense(x):
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad_dense(x, t=None):
    xx = x * x
    if t is None:
        t = np.tanh(GELU_C * (x + 0.044715 * (xx * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3 * 0.044715 * xx)


def adamw_step_dense(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1.0e-8,
                     weight_decay=0.01):
    """One AdamW step over every array in ``params``, in place; ``t`` is
    the 1-based step number."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in params:
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        step = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        params[name] -= lr * (step + weight_decay * params[name])

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
import string
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


def _bm25_term_row(index, token):
    """Row of ``token`` in the index's ``terms``, or None if no document
    holds it."""
    i = int(np.searchsorted(index.terms, token))
    return i if i < len(index.terms) and index.terms[i] == token else None


def bm25_idf(index, token):
    """The +1-smoothed idf of ``token`` from its document frequency in the
    index, 0 if no document holds it."""
    i = _bm25_term_row(index, token)
    df = 0 if i is None else int(index.offsets[i + 1] - index.offsets[i])
    return math.log((index.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_score(index, query, doc):
    """Okapi score of one document for a query token sequence, read from
    the index's plain arrays one posting at a time.

    Each occurrence of a query term contributes independently; distinct
    terms are accumulated in ascending token-id order, the order in which
    the index sums a document's score.
    """
    if not 0 <= doc < index.n_docs:
        raise IndexError(f"doc ordinal {doc} out of range")
    score = 0.0
    for token, qtf in sorted(Counter(query).items()):
        i = _bm25_term_row(index, token)
        if i is None:
            continue
        start, stop = index.offsets[i], index.offsets[i + 1]
        at = start + np.searchsorted(index.ordinals[start:stop], doc)
        if at == stop or index.ordinals[at] != doc:
            continue
        tf = index.tfs[at]
        score += qtf * index.term_idf[i] * tf * (index.k1 + 1.0) / (tf + index.norm[doc])
    return float(score)


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


def most_similar_scan_full_sort(index, doc, k):
    """Top-k self-query neighbours the way the index first ranked them:
    find the document's postings by scanning every posting, score every
    document with the per-posting expression, fully stable-argsort the
    negated scores and drop the document itself. Reads only the index's
    plain arrays."""
    own = np.flatnonzero(index.ordinals == doc)
    rows = np.searchsorted(index.offsets, own, side="right") - 1
    starts = index.offsets[rows]
    counts = index.offsets[rows + 1] - starts
    postings = np.array(
        [p for s, c in zip(starts, counts) for p in range(s, s + c)], dtype=np.int64
    )
    ordinals = index.ordinals[postings]
    tf = index.tfs[postings]
    contrib = np.repeat(index.tfs[own] * index.term_idf[rows], counts)
    contrib *= tf
    contrib *= index.k1 + 1.0
    contrib /= tf + index.norm[ordinals]
    scores = np.bincount(ordinals, weights=contrib, minlength=len(index.doc_ids))
    ranked = np.argsort(-scores, kind="stable")
    return ranked[ranked != doc][:k].tolist()


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


def kendall_tau_sign_matrix(xs, ys):
    """tau-b from full n x n sign matrices: O(n^2) time and memory. The
    exact counts and closing expression the library's kernel must match
    to the last bit."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    iu = np.triu_indices(len(x), k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    prod = sx * sy
    concordant = int((prod > 0).sum())
    discordant = int((prod < 0).sum())
    tied_x_only = int(((sx == 0) & (sy != 0)).sum())
    tied_y_only = int(((sy == 0) & (sx != 0)).sum())
    denom = math.sqrt(
        (concordant + discordant + tied_x_only)
        * (concordant + discordant + tied_y_only)
    )
    return (concordant - discordant) / denom


def kendall_tau_rowwise(xs, ys):
    """The same counts one row of the pair matrix at a time: O(n^2) time
    but O(n) memory, so it reaches sizes the sign matrices cannot."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    concordant = discordant = tied_x_only = tied_y_only = 0
    for i in range(len(x) - 1):
        sx = np.sign(x[i + 1 :] - x[i])
        sy = np.sign(y[i + 1 :] - y[i])
        prod = sx * sy
        concordant += int((prod > 0).sum())
        discordant += int((prod < 0).sum())
        tied_x_only += int(((sx == 0) & (sy != 0)).sum())
        tied_y_only += int(((sy == 0) & (sx != 0)).sum())
    denom = math.sqrt(
        (concordant + discordant + tied_x_only)
        * (concordant + discordant + tied_y_only)
    )
    return (concordant - discordant) / denom


def rank_average_loop(values):
    """Average ranks of a numpy vector by a loop over the runs of its
    stable sort, with the library's float expression for each run."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def lcs_length_table(a, b):
    """LCS length from the O(mn) dynamic-programming table, row by row."""
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


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


SENTENCE_TERMINALS = ".!?"
ASCII_PUNCTUATION = set(string.punctuation)


def segment_sentences_loop(text, abbreviations):
    """Sentence split by a character-by-character scan.

    A maximal run of terminals (``.``, ``!``, ``?``) followed by whitespace
    or the end of the text ends a sentence, unless the run is one period
    and the whitespace-delimited chunk ending at it, lowercased, is in
    ``abbreviations``. Segments are stripped and empty ones dropped.
    """
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] not in SENTENCE_TERMINALS:
            i += 1
            continue
        j = i + 1
        while j < n and text[j] in SENTENCE_TERMINALS:
            j += 1
        if j < n and not text[j].isspace():
            i = j
            continue
        if j - i == 1 and text[i] == ".":
            k = i
            while k > start and not text[k - 1].isspace():
                k -= 1
            if text[k:j].lower() in abbreviations:
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


def word_tokens_loop(text):
    """Lowercase, split on whitespace, and peel ASCII punctuation off each
    chunk's ends one character at a time, each as its own token."""
    tokens = []
    for chunk in text.lower().split():
        a, b = 0, len(chunk)
        lead = []
        while a < b and chunk[a] in ASCII_PUNCTUATION:
            lead.append(chunk[a])
            a += 1
        trail = []
        while b > a and chunk[b - 1] in ASCII_PUNCTUATION:
            trail.append(chunk[b - 1])
            b -= 1
        tokens.extend(lead)
        if b > a:
            tokens.append(chunk[a:b])
        tokens.extend(reversed(trail))
    return tokens


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


def _layer_norm_dense(x, gamma, beta, eps=1.0e-5):
    invstd = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    return (x - x.mean(axis=-1, keepdims=True)) * invstd * gamma + beta


def _prefix_order(n, scenario):
    """The documented prefix orders: SD identity, SDR even then odd bank
    rows, SR reversed."""
    if scenario == "SD":
        return list(range(n))
    if scenario == "SDR":
        return list(range(0, n, 2)) + list(range(1, n, 2))
    return list(range(n - 1, -1, -1))


def forward_padded(params, layouts, n_heads, pad_id=2):
    """Class probabilities of a batch computed the way the encoder did before
    it packed its batches: every example padded to the longest with the
    [PAD] embedding, a -1e30 key bias keeping padding out of attention, and
    mean pooling under a (B, T) mask of the real non-prefix positions.
    Dense numpy expressions throughout. ``layouts`` need ``ids`` (-1 on the
    prefix slots), ``n_prefix`` and ``scenario``; ``params`` is the model's
    parameter dictionary."""
    n = len(layouts)
    t = max(len(layout.ids) for layout in layouts)
    z = params["tok_emb"].shape[1]
    dh = z // n_heads
    n_layers = sum(1 for name in params if name.endswith(".attn.wq"))
    tok_emb, prefix_base = params["tok_emb"], params["prefix_base"]

    emb = np.empty((n, t, z))
    mask = np.zeros((n, t), dtype=bool)
    bias = np.zeros((n, 1, 1, t))
    for i, layout in enumerate(layouts):
        row = np.asarray(layout.ids)
        length = len(row)
        emb[i, :length] = tok_emb[np.where(row < 0, 0, row)]
        if layout.n_prefix:
            order = _prefix_order(len(prefix_base), layout.scenario)
            emb[i, 1 : 1 + layout.n_prefix] = prefix_base[order]
        emb[i, length:] = tok_emb[pad_id]
        mask[i, :length] = row >= 0
        bias[i, ..., length:] = -1.0e30
    h = emb + params["pos_emb"][:t]

    def split(x):
        return x.reshape(n, t, n_heads, dh).transpose(0, 2, 1, 3)

    for l in range(n_layers):
        p = lambda s: params[f"layer{l}.{s}"]  # noqa: E731
        a = _layer_norm_dense(h, p("attn_ln.gamma"), p("attn_ln.beta")).reshape(n * t, z)
        q = split(a @ p("attn.wq") + p("attn.bq"))
        k = split(a @ p("attn.wk"))
        v = split(a @ p("attn.wv") + p("attn.bv"))
        attn = softmax_last_dense(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + bias)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n * t, z)
        h = h + (ctx @ p("attn.wo") + p("attn.bo")).reshape(n, t, z)
        f = _layer_norm_dense(h, p("ffn_ln.gamma"), p("ffn_ln.beta")).reshape(n * t, z)
        act = gelu_parts_dense(f @ p("ffn.w1") + p("ffn.b1"))[0]
        h = h + (act @ p("ffn.w2") + p("ffn.b2")).reshape(n, t, z)
    h = _layer_norm_dense(h, params["final_ln.gamma"], params["final_ln.beta"])

    pooled = (h * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1).astype(float)[:, None]
    a1 = np.tanh(pooled @ params["head.w1"] + params["head.b1"])
    a2 = np.tanh(a1 @ params["head.w2"] + params["head.b2"])
    return softmax_last_dense(a2 @ params["head.w3"] + params["head.b3"])

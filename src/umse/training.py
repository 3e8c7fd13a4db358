"""Optimization with hand-written reverse-mode gradients.

The backward pass mirrors forward_batch exactly, block by block, on the
recorded cache. Prefix gradients flow through each example's scenario
permutation back into the shared base rows, which is the entire
knowledge-sharing mechanism: an update on one scenario's batch moves rows
every scenario reads.

``TrainConfig.scenario`` None trains all three scenario streams, one
scenario trains that stream alone; the no-prefix ablation is a model with
``prefix_len`` 0, whose empty bank gives its inputs no prefix slots.
Streams are interleaved round-robin; the loss is the summed binary
cross-entropy over each batch.

A batch's gradient is the left-to-right sum, in example order, of each
example's own gradient. ``train`` splits every batch by example over one
forked worker per usable core, the workers sharing parameters, moments and
gradients through one shared mapping, and the sum makes the result the
same bits for any number of workers.

A training step computes in float32 and keeps its master copy in float64,
as in mixed-precision training (Micikevicius et al. 2018): the workers run
the forward and backward on a float32 image of the parameters into float32
gradient slots, while the parameters, the summed and clipped gradient, the
AdamW moments and the checkpoint stay float64. ``backward`` runs the same
code on float64 parameters and is the reference ``grad_check`` checks.

AdamW has one path: ``_adamw_task`` updates a contiguous share of the job's
flat parameter and moment buffers in place, the token table row-sparse and
every other trained range densely, one share per worker. Each element's
update reads only that element, so the split changes no bit.

A token-table row is in one of three classes at a step. A row the batch
touched gets the full update. A row an earlier step touched, and so
``seen``, gets the decay-only update, which still shrinks its moments. A
row never seen has moments that are exactly +0.0, so its decay-only update
leaves them +0.0 and adds a step term of +0.0: it reduces, bit for bit, to
the p-only pass ``p -= lr * (weight_decay * p + 0.0)``, which reads and
writes ``p`` alone. Early in training most of the table has never been
seen, and the p-only pass saves most of the decay-only work there.
"""

from __future__ import annotations

import json
import math
import mmap
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import ScenarioExample
from .model import (
    SCENARIOS,
    InputLayout,
    ModelConfig,
    _gelu_grad,
    _heads,
    _row_chunks,
    _rows,
    _rows_per_chunk,
    assemble_input,
    forward_batch,
    init_parameters,
    param_shapes,
    param_views,
    prefix_permutation,
    save_checkpoint,
    score,
    worker_pool,
)

_CLAMP = 1.0e-12

# AdamW moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1.0e-8

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3.0e-5
    epochs: int = 10
    batch_size: int = 8
    seed: int = 12
    scenario: str | None = None  # None trains every scenario's stream
    weight_decay: float = 0.01
    clip_norm: float | None = 1.0  # None switches clipping off
    holdout_fraction: float = 0.1
    target_accuracy: float | None = None  # early stop once every stream reaches it

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.clip_norm is not None and not (
            math.isfinite(self.clip_norm) and self.clip_norm > 0
        ):
            raise ValueError(
                f"clip_norm must be positive and finite, or None, got {self.clip_norm}"
            )
        if self.target_accuracy is not None and not 0.0 <= self.target_accuracy <= 1.0:
            raise ValueError(f"target_accuracy must be in [0, 1], got {self.target_accuracy}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.epochs <= 10:
            raise ValueError("epochs must be in 1..10")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {self.scenario}")
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise ValueError("holdout_fraction must be in [0, 0.5]")

    def active_scenarios(self) -> tuple[str, ...]:
        return SCENARIOS if self.scenario is None else (self.scenario,)


@dataclass
class TrainReport:
    epochs_run: int = 0
    total_steps: int = 0
    initial_loss: float | None = None
    epoch_losses: list[float] = field(default_factory=list)
    holdout_accuracy: list[dict[str, float]] = field(default_factory=list)
    best_epoch: int | None = None
    wall_clock_seconds: float = 0.0
    diverged: bool = False
    checkpoint_path: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def cross_entropy_loss(scores, labels) -> float:
    """Summed over the batch, not averaged: -sum c*ln(p) + (1-c)*ln(1-p)."""
    p = np.asarray(scores, dtype=float)
    c = np.asarray(labels, dtype=float)
    if p.shape != c.shape:
        raise ValueError("scores and labels differ in length")
    p = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-(c * np.log(p) + (1.0 - c) * np.log(1.0 - p)).sum())


def example_layout(ex: ScenarioExample, config: ModelConfig) -> InputLayout:
    return assemble_input(ex.scenario, ex.candidate, ex.reference, ex.document, config)


def _ln_backward(dy, xhat, invstd, gamma, colsum, prefix: str):
    """Layer-norm gradients over packed rows. Each example's ``gamma`` and
    ``beta`` gradients go to ``colsum``; the input gradient is
    ``invstd * (dxhat - m1 - xhat * m2)``, evaluated in place and returned."""
    prod = dy * xhat
    colsum(prefix + "gamma", prod)
    colsum(prefix + "beta", dy)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dxhat, xhat, out=prod).mean(axis=-1, keepdims=True)
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=prod)
    dxhat *= invstd
    return dxhat


class Gradients(dict):
    """Parameter name to gradient array, as ``backward`` returns it.

    ``rows`` maps the token embedding table to the sorted rows the batch
    touched; every other row of its gradient is exactly zero. Clipping
    reads and rescales only those rows, ``_adamw_task`` gives the others
    the decay-only update (the p-only pass to rows no step has touched, whose
    moments are still +0.0), and ``_sum_examples`` re-zeroes only those
    rows when it reuses the arrays; none of this changes a bit of the
    result. ``flat`` is the one buffer that every array views, in
    the order of ``arrays``.
    """

    def __init__(self, arrays: dict[str, np.ndarray], flat: np.ndarray) -> None:
        super().__init__(arrays)
        self.rows: dict[str, np.ndarray] = {}
        self.flat = flat


def _softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax, written over ``dprobs``: the
    operation order of ``probs * (dprobs - (probs * dprobs).sum(-1))``, in
    cache-sized chunks of rows."""
    pr, dr = _rows(probs), _rows(dprobs)
    scratch = np.empty_like(pr[: _rows_per_chunk(pr.shape[1])])
    for rows in _row_chunks(*pr.shape):
        pc, dc = pr[rows], dr[rows]
        prod = np.multiply(pc, dc, out=scratch[: len(pc)])
        dc -= prod.sum(axis=-1, keepdims=True)
        dc *= pc
    return dprobs


# an example's gradient of these tables is scattered from its
# embedding-input rows instead of being kept in its slot
_EMBEDDINGS = ("tok_emb", "pos_emb", "prefix_base")


def _slot_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """What one example's gradient slot holds: its two probabilities, the
    gradient of its embedding-input rows, and its own gradient of every
    other parameter. Those parameters come last in ``param_shapes`` order,
    so the tail of a slot lines up with the tail of a ``Gradients.flat``."""
    dense = {n: s for n, s in param_shapes(config).items() if n not in _EMBEDDINGS}
    return {"probs": (2,), "emb_rows": (config.max_len, config.hidden_dim), **dense}


def _slot_size(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in _slot_shapes(config).values())


class _Slots:
    """One gradient slot per example of a batch: the rows of ``flat``, and
    their parts by name in ``views``; ``dense`` is the length of the tail
    that holds the per-example parameter gradients."""

    def __init__(self, config: ModelConfig, flat: np.ndarray) -> None:
        shapes = _slot_shapes(config)
        self.flat = flat
        self.views = [param_views(row, shapes) for row in flat]
        self.dense = flat.shape[1] - math.prod(shapes["probs"]) - math.prod(shapes["emb_rows"])


def _example_gradients(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    layouts: list[InputLayout],
    labels: list[int],
    slots: list[dict[str, np.ndarray]],
) -> None:
    """One packed forward and backward over ``layouts``, writing each
    example's probabilities, embedding-input gradient and own gradient of
    every other parameter into its slot: a weight's is ``X_i.T @ dY_i`` over
    the example's rows, a bias's or norm's the sum over them. Every row
    operation is batch-invariant and the head runs one example at a time,
    so a slot's bits do not depend on which other examples share the call.
    """
    cache = forward_batch(params, config, layouts)
    n = len(layouts)
    z = config.hidden_dim
    heads = config.n_heads
    segments = [cache.segment(i) for i in range(n)]

    def outer(name: str, x: np.ndarray, dy: np.ndarray) -> None:
        for slot, rows in zip(slots, segments):
            np.matmul(x[rows].T, dy[rows], out=slot[name])

    def colsum(name: str, dy: np.ndarray) -> None:
        for slot, rows in zip(slots, segments):
            np.sum(dy[rows], axis=0, out=slot[name])

    def back(dy: np.ndarray, name: str) -> np.ndarray:
        """``dy @ W.T`` against a row-major copy of ``W.T``: OpenBLAS gives
        a row of a product the same bits for any other rows only when the
        right operand is row-major, not a transposed view."""
        return dy @ np.ascontiguousarray(params[name].T)

    # softmax cross-entropy collapses to probs minus one-hot targets; the
    # head runs on one pooled row at a time, as in the forward
    dpooled = np.empty((n, z), cache.pooled.dtype)
    for i, slot in enumerate(slots):
        slot["probs"][...] = cache.probs[i]
        dlogits = cache.probs[i : i + 1].copy()
        dlogits[0, labels[i]] -= 1.0
        a1, a2 = cache.head_a1[i : i + 1], cache.head_a2[i : i + 1]
        np.matmul(a2.T, dlogits, out=slot["head.w3"])
        np.sum(dlogits, axis=0, out=slot["head.b3"])
        du2 = back(dlogits, "head.w3")
        du2 *= 1.0 - a2**2
        np.matmul(a1.T, du2, out=slot["head.w2"])
        np.sum(du2, axis=0, out=slot["head.b2"])
        du1 = back(du2, "head.w2")
        du1 *= 1.0 - a1**2
        np.matmul(cache.pooled[i : i + 1].T, du1, out=slot["head.w1"])
        np.sum(du1, axis=0, out=slot["head.b1"])
        dpooled[i : i + 1] = back(du1, "head.w1")

    # every pooled (non-prefix) row of an example gets its share of the
    # pooled gradient
    content = cache.ids >= 0
    dh_enc = np.repeat(dpooled / cache.pool_counts[:, None], np.diff(cache.offsets), axis=0)
    dh_enc *= content[:, None]
    dh = _ln_backward(
        dh_enc, cache.final_xhat, cache.final_invstd, params["final_ln.gamma"], colsum,
        "final_ln.",
    )

    scale = 1.0 / math.sqrt(z // heads)  # a Python float keeps float32 float32
    for l in reversed(range(config.n_layers)):
        lc = cache.layers[l]
        pre = f"layer{l}."

        dh_mid = dh.copy()
        outer(pre + "ffn.w2", lc.act, dh)
        colsum(pre + "ffn.b2", dh)
        du = _gelu_grad(lc.u1, lc.gelu_t, back(dh, pre + "ffn.w2"))
        outer(pre + "ffn.w1", lc.f_in, du)
        colsum(pre + "ffn.b1", du)
        dh_mid += _ln_backward(
            back(du, pre + "ffn.w1"), lc.ln2_xhat, lc.ln2_invstd,
            params[pre + "ffn_ln.gamma"], colsum, pre + "ffn_ln.",
        )

        dh = dh_mid.copy()  # residual into the block input
        outer(pre + "attn.wo", lc.ctx, dh_mid)
        colsum(pre + "attn.bo", dh_mid)
        dctx = back(dh_mid, pre + "attn.wo")
        dq, dk, dv = np.empty_like(dctx), np.empty_like(dctx), np.empty_like(dctx)
        for rows, attn in zip(segments, lc.attn):
            q, k, v, dc = (_heads(x, rows, heads) for x in (lc.q, lc.k, lc.v, dctx))
            dscores = _softmax_backward(attn, dc @ v.transpose(0, 1, 3, 2))
            np.matmul(attn.transpose(0, 1, 3, 2), dc, out=_heads(dv, rows, heads))
            np.matmul(dscores, k, out=_heads(dq, rows, heads))
            np.matmul(dscores.transpose(0, 1, 3, 2), q, out=_heads(dk, rows, heads))
        dq *= scale
        dk *= scale
        outer(pre + "attn.wq", lc.a_in, dq)
        colsum(pre + "attn.bq", dq)
        outer(pre + "attn.wk", lc.a_in, dk)
        outer(pre + "attn.wv", lc.a_in, dv)
        colsum(pre + "attn.bv", dv)
        da_in = back(dq, pre + "attn.wq")
        da_in += back(dk, pre + "attn.wk")
        da_in += back(dv, pre + "attn.wv")
        dh += _ln_backward(
            da_in, lc.ln1_xhat, lc.ln1_invstd, params[pre + "attn_ln.gamma"], colsum,
            pre + "attn_ln.",
        )

    for slot, rows in zip(slots, segments):
        slot["emb_rows"][: rows.stop - rows.start] = dh[rows]


def _sum_examples(
    slots: _Slots, layouts: list[InputLayout], labels: list[int], grads: Gradients
) -> float:
    """The batch's summed loss; overwrites ``grads`` with the left-to-right
    sum, in example order, of the examples' own gradients. Those of the
    dense parameters are the slots' tails; those of the embedding tables
    are scattered from each slot's embedding-input rows, a token's rows
    summed in position order within the example."""
    n = len(layouts)
    dense = grads.flat[grads.flat.size - slots.dense :]
    dense.fill(0.0)
    for row in slots.flat[:n]:
        dense += row[row.size - slots.dense :]

    tok, pos, prefix = (grads[name] for name in _EMBEDDINGS)
    if "tok_emb" in grads.rows:
        tok[grads.rows["tok_emb"]] = 0.0
    else:
        tok.fill(0.0)
    pos.fill(0.0)
    prefix.fill(0.0)
    touched = []
    for slot, layout in zip(slots.views, layouts):
        # exact; np.add.at is several times slower on mixed dtypes
        d = slot["emb_rows"][: layout.length].astype(np.float64, copy=False)
        pos[: layout.length] += d
        if layout.n_prefix:
            perm = prefix_permutation(layout.n_prefix, layout.scenario)
            prefix[list(perm)] += d[1 : 1 + layout.n_prefix]
        ids = np.asarray(layout.ids, dtype=np.int64)
        content = ids >= 0
        rows, where = np.unique(ids[content], return_inverse=True)
        own = np.zeros((len(rows), tok.shape[1]))
        np.add.at(own, where, d[content])  # in position order
        tok[rows] += own
        touched.append(rows)
    grads.rows = {"tok_emb": np.unique(np.concatenate(touched))}

    for name, g in grads.items():
        if name in grads.rows:
            g = g[grads.rows[name]]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    probs = np.array([slot["probs"][1] for slot in slots.views[:n]])
    return cross_entropy_loss(probs, labels)


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    batch: list[ScenarioExample],
) -> tuple[float, Gradients]:
    """Summed cross-entropy loss of the batch and its exact gradient for
    every parameter (zero where a parameter is unused): the left-to-right
    sum, in example order, of the examples' own gradients, so the bits do
    not depend on how the batch is split."""
    if not batch:
        raise ValueError("empty batch")
    layouts = [example_layout(ex, config) for ex in batch]
    labels = [ex.label for ex in batch]
    slots = _Slots(config, np.empty((len(batch), _slot_size(config))))
    _example_gradients(params, config, layouts, labels, slots.views)
    shapes = param_shapes(config)
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    grads = Gradients(param_views(flat, shapes), flat)
    return _sum_examples(slots, layouts, labels, grads), grads


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Global-norm clipping, in place; returns the pre-clip norm. A table
    listed in ``Gradients.rows`` is read and rescaled on those rows only,
    since every other row is exactly zero."""
    rows = grads.rows
    total = float(
        np.sqrt(
            sum(
                float(np.square(g[rows[name]] if name in rows else g).sum())
                for name, g in grads.items()
            )
        )
    )
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for name, g in grads.items():
            if name in rows:
                g[rows[name]] *= factor
            else:
                g *= factor
    return total


def _adamw_chunk(pc, mc, vc, gc, a, b, config: TrainConfig, lr: float, bc1: float,
                 bc2: float) -> None:
    """One chunk of ``_adamw_update``, with scratch ``a`` and ``b`` of its
    shape; ``gc=None`` gives the decay-only update."""
    mc *= _BETA1
    vc *= _BETA2
    if gc is not None:
        np.multiply(gc, 1.0 - _BETA1, out=a)
        mc += a
        np.multiply(gc, 1.0 - _BETA2, out=a)
        a *= gc
        vc += a
    np.divide(vc, bc2, out=a)
    np.sqrt(a, out=a)
    a += _EPS
    np.divide(mc, bc1, out=b)
    b /= a
    np.multiply(pc, config.weight_decay, out=a)
    a += b
    a *= lr
    pc -= a


def _adamw_update(p, m, v, g, config: TrainConfig, lr: float, bc1: float, bc2: float) -> None:
    """One AdamW update of ``p`` and its moments, in place, in cache-sized
    chunks of rows. Per element it runs the same operations in the same
    order as

        m = m * beta1 + (1 - beta1) * g
        v = v * beta2 + (1 - beta2) * g * g
        p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)

    so the result is bit-identical to that dense expression.

    ``_adamw_rows`` gives a token-table row the batch did not touch, whose
    gradient is all zero, the decay-only update, which leaves the gradient
    terms out: ``x + 0.0`` is ``x`` up to the sign of a zero moment, which
    leaves every nonzero parameter as it is. A row no step has touched also
    has ``m = v = +0.0``: its moments stay +0.0, the step term
    ``(m / bc1) / (sqrt(v / bc2) + eps)`` is +0.0, and the update is
    exactly the p-only pass ``p -= lr * (weight_decay * p + 0.0)``, which
    ``_decay_chunk`` runs without reading the moments.
    """
    width = max(1, math.prod(p.shape[1:]))
    scratch_a = np.empty_like(p[: _rows_per_chunk(width)])
    scratch_b = np.empty_like(scratch_a)
    for chunk in _row_chunks(p.shape[0], width):
        pc = p[chunk]
        _adamw_chunk(pc, m[chunk], v[chunk], g[chunk], scratch_a[: len(pc)],
                     scratch_b[: len(pc)], config, lr, bc1, bc2)


def _decay_chunk(pc, a, config: TrainConfig, lr: float) -> None:
    """The decay-only update of rows whose moments are +0.0, with scratch
    ``a``. Adding the +0.0 step term turns a -0.0 decay into +0.0, as the
    full update does, so a -0.0 parameter stays -0.0."""
    np.multiply(pc, config.weight_decay, out=a)
    a += 0.0
    a *= lr
    pc -= a


# A chunk of token-table rows at least this share of which has been seen
# runs the decay-only update in place; below it the chunk gets the p-only
# pass and its seen rows, gathered, the decay-only update. On a desk-table
# chunk (512 rows of 64) the two cost the same, about 190 us on a 2-core
# Xeon, at a seen share of about 0.4.
_SEEN_IN_PLACE = 0.4


def _adamw_rows(p, m, v, g, rows, seen, config: TrainConfig, lr: float, bc1: float,
                bc2: float) -> None:
    """One AdamW update of ``p`` and its moments, where ``rows`` are the
    only rows of ``g`` that may be nonzero and only the rows flagged in
    ``seen`` may have nonzero moments: every row gets the decay-only
    update, which is the p-only pass where it is not seen, and then
    ``rows`` the full update, from their values before the step; the
    result equals the dense update bit for bit. Each chunk of rows takes
    the p-only pass if none of its rows is seen, the decay-only update in
    place if at least ``_SEEN_IN_PLACE`` of them are, and otherwise the
    p-only pass with its seen rows gathered for the decay-only update."""
    touched = p[rows], m[rows], v[rows]
    scratch_a = np.empty_like(p[: _rows_per_chunk(p.shape[1])])
    scratch_b = np.empty_like(scratch_a)
    for chunk in _row_chunks(*p.shape):
        pc, mc, vc = p[chunk], m[chunk], v[chunk]
        a, b = scratch_a[: len(pc)], scratch_b[: len(pc)]
        n = int(np.count_nonzero(seen[chunk]))
        if n == 0:
            _decay_chunk(pc, a, config, lr)
        elif n >= _SEEN_IN_PLACE * len(pc):
            _adamw_chunk(pc, mc, vc, None, a, b, config, lr, bc1, bc2)
        else:
            held = np.flatnonzero(seen[chunk])
            kept = pc[held], mc[held], vc[held]
            _decay_chunk(pc, a, config, lr)
            _adamw_chunk(*kept, None, a[:n], b[:n], config, lr, bc1, bc2)
            pc[held], mc[held], vc[held] = kept
    _adamw_update(*touched, g[rows], config, lr, bc1, bc2)
    p[rows], m[rows], v[rows] = touched


def _count_correct(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    examples: list[ScenarioExample],
) -> int:
    """Examples whose score falls on the label's side of 0.5, scored one at
    a time by ``score``, in float32; float32 weights, such as the training
    job's ``params32``, are used without a cast. The packed forward gives
    the same bits in any batch, and a batch of one is the fastest way
    through it: one forward over eight rows took as long on short SR rows
    and up to half as long again on SD and SDR rows, in float32 as in
    float64."""
    correct = 0
    for ex in examples:
        s = score(params, config, ex.scenario, ex.candidate, ex.reference, ex.document)
        correct += int((s.score >= 0.5) == bool(ex.label))
    return correct


def _round_robin(per_stream: list[list]) -> list:
    out = []
    depth = max(len(s) for s in per_stream)
    for i in range(depth):
        for stream in per_stream:
            if i < len(stream):
                out.append(stream[i])
    return out


def _balanced_slices(weights: list[int], parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` non-empty contiguous ``[start, stop)`` ranges of
    the items, each cut where the running weight comes nearest an equal
    share. The cut only balances the work: any split gives the same bits."""
    parts = min(parts, len(weights))
    cumulative = np.cumsum(weights)
    bounds = [0]
    for k in range(1, parts):
        share = cumulative[-1] * k / parts
        cut = int(np.argmin(np.abs(cumulative - share))) + 1
        bounds.append(min(max(cut, bounds[-1] + 1), len(weights) - (parts - k)))
    bounds.append(len(weights))
    return list(zip(bounds[:-1], bounds[1:]))


class _TrainJob:
    """What the training workers share with the process that drives them.

    One anonymous shared mapping holds, in float64, the parameters, the
    AdamW moments ``m`` and ``v`` and the reduced gradient (each one flat
    buffer with per-name views in ``param_shapes`` order); the touched rows
    of the token table; in float32, ``params32``, the image of the
    parameters that the forward and backward run on, and one gradient slot
    per example of a batch; and the token table's ``seen`` flags, set on
    every row that some step has touched. It is made before the pool
    forks, so every worker reads and writes the same memory and a step
    sends a worker only the stream and example indices of its slice.

    Whatever rewrites a range of the parameters rewrites the same range of
    the image through ``write_params32``, so the image is never stale.
    """

    def __init__(
        self,
        config: ModelConfig,
        train_config: TrainConfig,
        train_sets: list[list[ScenarioExample]],
        holdout_sets: list[list[ScenarioExample]],
    ) -> None:
        self.config = config
        self.train_config = train_config
        self.train_sets = train_sets
        self.holdout_sets = holdout_sets
        shapes = param_shapes(config)
        n = sum(math.prod(shape) for shape in shapes.values())
        batch, slot = train_config.batch_size, _slot_size(config)
        n_touched = batch * config.max_len
        singles = n + batch * slot
        region = mmap.mmap(-1, 8 * (4 * n + n_touched) + 4 * singles + config.vocab_size)
        offset = 0

        def take(dtype, count: int) -> np.ndarray:
            nonlocal offset
            arr = np.frombuffer(region, dtype=dtype, count=count, offset=offset)
            offset += arr.nbytes
            return arr

        flat = take(np.float64, 4 * n)
        self.touched = take(np.int64, n_touched)
        flat32 = take(np.float32, singles)
        self.seen = take(np.bool_, config.vocab_size)
        self.flat = [flat[i * n : (i + 1) * n] for i in range(3)]  # params, m, v
        self.params, self.m, self.v = (param_views(f, shapes) for f in self.flat)
        self.grads = Gradients(param_views(flat[3 * n : 4 * n], shapes), flat[3 * n : 4 * n])
        self.flat32 = flat32[:n]
        self.params32 = param_views(self.flat32, shapes)
        self.slots = _Slots(config, flat32[n:].reshape(batch, slot))

    def write_params32(self, lo: int, hi: int) -> None:
        """Casts elements ``lo:hi`` of the flat parameters into the float32
        image. A weight outside the float32 range becomes an infinity there,
        which the forward reports as ``FloatingPointError``."""
        with np.errstate(over="ignore"):
            self.flat32[lo:hi] = self.flat[0][lo:hi]


def _gradient_task(job: _TrainJob, task: tuple[int, tuple[int, ...], int]) -> None:
    """Examples ``indices`` of training stream ``stream`` into the slots
    from ``first`` on, computed in float32 on ``params32``. A non-finite
    forward raises ``FloatingPointError`` and a non-finite gradient fails
    the sum's check, so numpy's warnings are not printed."""
    stream, indices, first = task
    examples = [job.train_sets[stream][i] for i in indices]
    layouts = [example_layout(ex, job.config) for ex in examples]
    slots = job.slots.views[first : first + len(examples)]
    labels = [ex.label for ex in examples]
    with np.errstate(all="ignore"):
        _example_gradients(job.params32, job.config, layouts, labels, slots)


def _adamw_task(job: _TrainJob, task: tuple[int, int, int, int]) -> None:
    """Part ``part`` of ``parts`` of AdamW step ``t``: a contiguous share of
    the token table's rows, with those of the first ``n_touched`` touched
    rows that fall in it, whose ``seen`` flags it then sets, and a share of
    the dense rest of the flat buffers, which follows the token table. Each
    share is then cast into the float32 image: every token row decays at
    every step, so the whole row range is."""
    part, parts, t, n_touched = task
    lr = job.train_config.learning_rate
    bc1, bc2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    p, m, v, g = (x["tok_emb"] for x in (job.params, job.m, job.v, job.grads))
    lo, hi = (len(p) * k // parts for k in (part, part + 1))
    touched = job.touched[:n_touched]
    a, b = np.searchsorted(touched, (lo, hi))
    rows, seen = touched[a:b] - lo, job.seen[lo:hi]
    _adamw_rows(p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], rows, seen,
                job.train_config, lr, bc1, bc2)
    seen[rows] = True
    job.write_params32(lo * p.shape[1], hi * p.shape[1])
    start, stop = p.size, len(job.grads.flat)
    lo, hi = (start + (stop - start) * k // parts for k in (part, part + 1))
    p, m, v, g = (f[lo:hi] for f in (*job.flat, job.grads.flat))
    _adamw_update(p, m, v, g, job.train_config, lr, bc1, bc2)
    job.write_params32(lo, hi)


def _eval_task(job: _TrainJob, task: tuple[int, int, int]) -> int:
    stream, start, stop = task
    return _count_correct(job.params32, job.config, job.holdout_sets[stream][start:stop])


def _train_step(pool, job: _TrainJob, stream: int, indices: np.ndarray, t: int) -> float:
    """One optimizer step on a batch; returns its summed loss. Raises
    ``FloatingPointError`` on a non-finite forward or gradient."""
    examples = [job.train_sets[stream][i] for i in indices]
    layouts = [example_layout(ex, job.config) for ex in examples]
    slices = _balanced_slices([layout.length for layout in layouts], pool.workers)
    tasks = [(stream, tuple(int(i) for i in indices[a:b]), a) for a, b in slices]
    for _ in pool.map(_gradient_task, tasks):
        pass
    loss = _sum_examples(job.slots, layouts, [ex.label for ex in examples], job.grads)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    if job.train_config.clip_norm is not None:
        clip_gradients(job.grads, job.train_config.clip_norm)
    rows = job.grads.rows["tok_emb"]
    job.touched[: len(rows)] = rows
    parts = [(part, pool.workers, t, len(rows)) for part in range(pool.workers)]
    for _ in pool.map(_adamw_task, parts):
        pass
    return loss


def _holdout_accuracy(pool, job: _TrainJob, active: tuple[str, ...]) -> dict[str, float]:
    """Each non-empty holdout stream's accuracy, its examples spread over
    the workers."""
    tasks = [
        (s, a, b)
        for s, held in enumerate(job.holdout_sets)
        if held
        for a, b in _balanced_slices([1] * len(held), pool.workers)
    ]
    correct = [0] * len(active)
    for (s, _a, _b), count in zip(tasks, pool.map(_eval_task, tasks)):
        correct[s] += count
    return {
        sc: correct[s] / len(job.holdout_sets[s])
        for s, sc in enumerate(active)
        if job.holdout_sets[s]
    }


def train(
    init_params: dict[str, np.ndarray],
    model_config: ModelConfig,
    datasets: dict[str, list[ScenarioExample]],
    config: TrainConfig,
    checkpoint_path: str | None = None,
    log_stream=None,
) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Trains on the configured streams and returns the parameters of the
    epoch with the best mean held-out accuracy. One JSON progress line per
    epoch on ``log_stream`` (standard error by default).

    Each batch is split by example over a ``worker_pool``, which then runs
    the AdamW update by row ranges and the holdout scoring. The gradient
    is the in-order sum of the examples' own gradients and every other
    pass is elementwise or per example, so the result is the same bits for
    any number of workers, inline included.
    """
    log = log_stream if log_stream is not None else sys.stderr
    started = time.monotonic()
    active = config.active_scenarios()
    for sc in active:
        if not datasets.get(sc):
            raise ValueError(f"no training examples for scenario {sc}")
    rng = np.random.default_rng(config.seed)

    train_sets: list[list[ScenarioExample]] = []
    holdout_sets: list[list[ScenarioExample]] = []
    for sc in active:
        data = list(datasets[sc])
        order = rng.permutation(len(data))
        data = [data[i] for i in order]
        n_hold = min(int(len(data) * config.holdout_fraction), len(data) - 1)
        holdout_sets.append(data[:n_hold])
        train_sets.append(data[n_hold:])

    job = _TrainJob(model_config, config, train_sets, holdout_sets)
    for name, arr in job.params.items():
        arr[...] = init_params[name]
    job.write_params32(0, len(job.flat32))
    report = TrainReport()
    best_params = None
    best_mean_accuracy = -1.0

    with worker_pool(job, config.batch_size, "training") as pool:
        for epoch in range(1, config.epochs + 1):
            streams = []
            for s, data in enumerate(train_sets):
                order = rng.permutation(len(data))
                streams.append(
                    [(s, order[i : i + config.batch_size])
                     for i in range(0, len(data), config.batch_size)]
                )
            step_losses = []
            for stream, indices in _round_robin(streams):
                try:
                    loss = _train_step(pool, job, stream, indices, report.total_steps + 1)
                except FloatingPointError:
                    report.diverged = True
                    break
                if report.initial_loss is None:
                    report.initial_loss = loss / len(indices)
                report.total_steps += 1
                step_losses.append(loss / len(indices))
            if report.diverged:
                break

            report.epochs_run = epoch
            mean_loss = float(np.mean(step_losses))
            report.epoch_losses.append(mean_loss)
            try:
                accuracy = _holdout_accuracy(pool, job, active)
            except FloatingPointError:  # the float32 holdout forward overflowed
                report.diverged = True
                break
            report.holdout_accuracy.append(accuracy)
            print(
                json.dumps(
                    {
                        "epoch": epoch,
                        "mean_loss": mean_loss,
                        "holdout_accuracy": accuracy,
                        "seconds": round(time.monotonic() - started, 3),
                    },
                    sort_keys=True,
                ),
                file=log,
                flush=True,
            )
            if accuracy:
                mean_accuracy = float(np.mean(list(accuracy.values())))
                if mean_accuracy > best_mean_accuracy:
                    best_mean_accuracy = mean_accuracy
                    best_params = job.flat[0].copy()
                    report.best_epoch = epoch
                if (
                    config.target_accuracy is not None
                    and min(accuracy.values()) >= config.target_accuracy
                ):
                    break

    final = best_params if best_params is not None else job.flat[0].copy()
    params = param_views(final, param_shapes(model_config))
    report.wall_clock_seconds = round(time.monotonic() - started, 3)
    if checkpoint_path is not None and not report.diverged:
        save_checkpoint(params, model_config, checkpoint_path)
        report.checkpoint_path = str(checkpoint_path)
    return params, report


def tiny_config(vocab_size: int = 48, init_seed: int = 12) -> ModelConfig:
    """Smallest config the gradient check runs on."""
    return ModelConfig(
        vocab_size=vocab_size,
        hidden_dim=16,
        n_layers=1,
        n_heads=2,
        ffn_dim=32,
        prefix_len=4,
        max_len=48,
        init_seed=init_seed,
    )


def grad_check(
    config: ModelConfig | None = None, n_coords: int = 200, seed: int = 12
) -> float:
    """Worst relative error between the analytic gradient and a central
    finite difference (h=1e-5) over randomly sampled coordinates, on one
    small batch per scenario."""
    if config is None:
        config = tiny_config()
    rng = np.random.default_rng(seed)
    params = init_parameters(config)

    batches = []
    for scenario in SCENARIOS:
        batch = []
        for j in range(2):
            def draw(k):
                return tuple(int(v) for v in rng.integers(4, config.vocab_size, size=k))
            batch.append(
                ScenarioExample(
                    scenario,
                    j % 2,
                    draw(6),
                    reference=draw(5) if scenario in ("SR", "SDR") else None,
                    document=draw(8) if scenario in ("SD", "SDR") else None,
                )
            )
        batches.append(batch)

    total_grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    for batch in batches:
        _, grads = backward(params, config, batch)
        for name in total_grads:
            total_grads[name] += grads[name]

    def loss_at(p):
        out = 0.0
        for batch in batches:
            layouts = [example_layout(ex, config) for ex in batch]
            cache = forward_batch(p, config, layouts)
            out += cross_entropy_loss(cache.probs[:, 1], [ex.label for ex in batch])
        return out

    h = 1.0e-5
    names = [name for name, shape in param_shapes(config).items() if math.prod(shape)]
    worst = 0.0
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        idx = int(rng.integers(params[name].size))
        flat = params[name].reshape(-1)
        saved = flat[idx]
        flat[idx] = saved + h
        up = loss_at(params)
        flat[idx] = saved - h
        down = loss_at(params)
        flat[idx] = saved
        g_fd = (up - down) / (2.0 * h)
        g_ad = float(total_grads[name].reshape(-1)[idx])
        err = abs(g_ad - g_fd) / max(abs(g_ad), abs(g_fd), 1.0e-8)
        worst = max(worst, err)
    return worst

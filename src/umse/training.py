"""Optimization with hand-written reverse-mode gradients.

The backward pass mirrors forward_batch exactly, block by block, on the
recorded cache. Prefix gradients flow through each example's scenario
permutation back into the shared base rows, which is the entire
knowledge-sharing mechanism: an update on one scenario's batch moves rows
every scenario reads.

Three modes: ``unified`` (all scenario streams, permuted prefix),
``joint_no_prefix`` (same streams, prefix slots removed and the bank left
untouched), ``single_scenario`` (one stream). Streams are interleaved
round-robin; the loss is the summed binary cross-entropy over each batch.
"""

from __future__ import annotations

import json
import math
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
    param_names,
    prefix_permutation,
    save_checkpoint,
    score,
)

_CLAMP = 1.0e-12

# AdamW moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1.0e-8

MODES = ("unified", "joint_no_prefix", "single_scenario")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3.0e-5
    epochs: int = 10
    batch_size: int = 8
    seed: int = 12
    mode: str = "unified"
    scenario: str | None = None  # single_scenario only
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
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode}")
        if self.mode == "single_scenario":
            if self.scenario not in SCENARIOS:
                raise ValueError("single_scenario mode needs scenario SR, SD or SDR")
        elif self.scenario is not None:
            raise ValueError("scenario is only valid with mode single_scenario")
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise ValueError("holdout_fraction must be in [0, 0.5]")

    def active_scenarios(self) -> tuple[str, ...]:
        if self.mode == "single_scenario":
            return (self.scenario,)
        return SCENARIOS


@dataclass
class TrainReport:
    mode: str
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


def example_layout(
    ex: ScenarioExample, config: ModelConfig, use_prefix: bool = True
) -> InputLayout:
    return assemble_input(ex.scenario, ex.candidate, ex.reference, ex.document, config, use_prefix)


def _ln_backward(dy, xhat, invstd, gamma):
    """Layer-norm gradients over packed rows; the input gradient is
    ``invstd * (dxhat - m1 - xhat * m2)``, evaluated in place."""
    prod = dy * xhat
    dgamma = prod.sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dxhat, xhat, out=prod).mean(axis=-1, keepdims=True)
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=prod)
    dxhat *= invstd
    return dxhat, dgamma, dbeta


class Gradients(dict):
    """Parameter name to gradient array, as ``backward`` returns it.

    ``rows`` maps the token embedding table to the sorted rows the batch
    touched; every other row of its gradient is exactly zero. Clipping and
    AdamW use that to skip work on the untouched rows without changing a
    bit of their result, and ``backward(..., out=grads)`` re-zeroes only
    those rows when it reuses the arrays for the next batch.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        super().__init__(arrays)
        self.rows: dict[str, np.ndarray] = {}


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


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    batch: list[ScenarioExample],
    use_prefix: bool = True,
    out: Gradients | None = None,
) -> tuple[float, Gradients]:
    """Summed cross-entropy loss of the batch and its exact gradient for
    every parameter (zero where a parameter is unused). ``out``, the
    gradients of an earlier call, is overwritten and returned instead of
    allocating new arrays."""
    if not batch:
        raise ValueError("empty batch")
    layouts = [example_layout(ex, config, use_prefix) for ex in batch]
    labels = np.array([ex.label for ex in batch], dtype=np.int64)
    cache = forward_batch(params, config, layouts)
    loss = cross_entropy_loss(cache.probs[:, 1], labels)

    if out is None:
        grads = Gradients({name: np.zeros_like(arr) for name, arr in params.items()})
    else:
        grads = out
        for name, g in grads.items():
            if name in grads.rows:
                g[grads.rows[name]] = 0.0
            else:
                g.fill(0.0)
    n = len(batch)
    z = config.hidden_dim
    heads = config.n_heads
    segments = [cache.segment(i) for i in range(n)]

    # softmax cross-entropy collapses to probs minus one-hot targets
    dlogits = cache.probs.copy()
    dlogits[np.arange(n), labels] -= 1.0

    grads["head.w3"] += cache.head_a2.T @ dlogits
    grads["head.b3"] += dlogits.sum(axis=0)
    da2 = dlogits @ params["head.w3"].T
    du2 = da2 * (1.0 - cache.head_a2**2)
    grads["head.w2"] += cache.head_a1.T @ du2
    grads["head.b2"] += du2.sum(axis=0)
    da1 = du2 @ params["head.w2"].T
    du1 = da1 * (1.0 - cache.head_a1**2)
    grads["head.w1"] += cache.pooled.T @ du1
    grads["head.b1"] += du1.sum(axis=0)
    dpooled = du1 @ params["head.w1"].T

    # every pooled (non-prefix) row of an example gets its share of the
    # pooled gradient
    content = cache.ids >= 0
    dh_enc = np.repeat(dpooled / cache.pool_counts[:, None], np.diff(cache.offsets), axis=0)
    dh_enc *= content[:, None]
    dh, dg, db = _ln_backward(
        dh_enc, cache.final_xhat, cache.final_invstd, params["final_ln.gamma"]
    )
    grads["final_ln.gamma"] += dg
    grads["final_ln.beta"] += db

    scale = 1.0 / np.sqrt(z // heads)
    for l in reversed(range(config.n_layers)):
        lc = cache.layers[l]
        pre = f"layer{l}."

        dh_mid = dh.copy()
        grads[pre + "ffn.w2"] += lc.act.T @ dh
        grads[pre + "ffn.b2"] += dh.sum(axis=0)
        du = _gelu_grad(lc.u1, lc.gelu_t, upstream=dh @ params[pre + "ffn.w2"].T)
        grads[pre + "ffn.w1"] += lc.f_in.T @ du
        grads[pre + "ffn.b1"] += du.sum(axis=0)
        dx, dg, db = _ln_backward(
            du @ params[pre + "ffn.w1"].T, lc.ln2_xhat, lc.ln2_invstd, params[pre + "ffn_ln.gamma"]
        )
        grads[pre + "ffn_ln.gamma"] += dg
        grads[pre + "ffn_ln.beta"] += db
        dh_mid += dx

        dh = dh_mid.copy()  # residual into the block input
        grads[pre + "attn.wo"] += lc.ctx.T @ dh_mid
        grads[pre + "attn.bo"] += dh_mid.sum(axis=0)
        dctx = dh_mid @ params[pre + "attn.wo"].T
        dq, dk, dv = np.empty_like(dctx), np.empty_like(dctx), np.empty_like(dctx)
        for rows, attn in zip(segments, lc.attn):
            q, k, v, dc = (_heads(x, rows, heads) for x in (lc.q, lc.k, lc.v, dctx))
            dscores = _softmax_backward(attn, dc @ v.transpose(0, 1, 3, 2))
            np.matmul(attn.transpose(0, 1, 3, 2), dc, out=_heads(dv, rows, heads))
            np.matmul(dscores, k, out=_heads(dq, rows, heads))
            np.matmul(dscores.transpose(0, 1, 3, 2), q, out=_heads(dk, rows, heads))
        dq *= scale
        dk *= scale
        grads[pre + "attn.wq"] += lc.a_in.T @ dq
        grads[pre + "attn.bq"] += dq.sum(axis=0)
        grads[pre + "attn.wk"] += lc.a_in.T @ dk
        grads[pre + "attn.wv"] += lc.a_in.T @ dv
        grads[pre + "attn.bv"] += dv.sum(axis=0)
        da_in = dq @ params[pre + "attn.wq"].T
        da_in += dk @ params[pre + "attn.wk"].T
        da_in += dv @ params[pre + "attn.wv"].T
        dx, dg, db = _ln_backward(da_in, lc.ln1_xhat, lc.ln1_invstd, params[pre + "attn_ln.gamma"])
        grads[pre + "attn_ln.gamma"] += dg
        grads[pre + "attn_ln.beta"] += db
        dh += dx

    for rows, layout in zip(segments, cache.layouts):
        grads["pos_emb"][: layout.length] += dh[rows]
        if layout.n_prefix:
            perm = prefix_permutation(layout.n_prefix, layout.scenario)
            first = rows.start + 1
            grads["prefix_base"][list(perm)] += dh[first : first + layout.n_prefix]
    grads.rows = {"tok_emb": np.unique(cache.ids[content])}
    # one scatter, example by example in position order, as a loop would add
    np.add.at(grads["tok_emb"], cache.ids[content], dh[content])

    for name, g in grads.items():
        if name in grads.rows:
            g = g[grads.rows[name]]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    return loss, grads


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Global-norm clipping, in place; returns the pre-clip norm. A table
    listed in ``Gradients.rows`` is read and rescaled on those rows only,
    since every other row is exactly zero."""
    rows = getattr(grads, "rows", {})
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


class AdamWState:
    def __init__(self, params: dict[str, np.ndarray]) -> None:
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.t = 0


def _adamw_update(p, m, v, g, config: TrainConfig, lr: float, bc1: float, bc2: float) -> None:
    """One AdamW update of ``p`` and its moments, in place, in cache-sized
    chunks of rows. Per element it runs the same operations in the same
    order as

        m = m * beta1 + (1 - beta1) * g
        v = v * beta2 + (1 - beta2) * g * g
        p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)

    so the result is bit-identical to that dense expression. ``g=None``
    stands for an all-zero gradient and leaves its terms out: ``x + 0.0``
    is ``x`` up to the sign of a zero moment, which leaves every nonzero
    parameter as it is.
    """
    width = max(1, p[0].size)
    scratch_a = np.empty_like(p[: _rows_per_chunk(width)])
    scratch_b = np.empty_like(scratch_a)
    for chunk in _row_chunks(p.shape[0], width):
        pc, mc, vc = p[chunk], m[chunk], v[chunk]
        a, b = scratch_a[: len(pc)], scratch_b[: len(pc)]
        mc *= _BETA1
        vc *= _BETA2
        if g is not None:
            gc = g[chunk]
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


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    config: TrainConfig,
    names: list[str] | None = None,
    learning_rate: float | None = None,
) -> None:
    """Decoupled weight decay applied to every updated parameter. A table
    listed in ``Gradients.rows`` gets the decay-only update on every row
    and then the full update on its touched rows, from their values before
    the step; the result equals the dense update bit for bit."""
    lr = config.learning_rate if learning_rate is None else learning_rate
    state.t += 1
    bc1 = 1.0 - _BETA1**state.t
    bc2 = 1.0 - _BETA2**state.t
    sparse = getattr(grads, "rows", {})
    for name in names if names is not None else params:
        p, m, v = params[name], state.m[name], state.v[name]
        rows = sparse.get(name)
        if rows is None:
            _adamw_update(p, m, v, grads[name], config, lr, bc1, bc2)
            continue
        touched = p[rows], m[rows], v[rows]
        _adamw_update(p, m, v, None, config, lr, bc1, bc2)
        _adamw_update(*touched, grads[name][rows], config, lr, bc1, bc2)
        p[rows], m[rows], v[rows] = touched


def evaluate_accuracy(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    examples: list[ScenarioExample],
    use_prefix: bool = True,
) -> float:
    """Fraction of examples whose score falls on the label's side of 0.5.
    Examples are scored one at a time: the packed forward gives the same
    bits in any batch, and a batch of one is the fastest way through it."""
    if not examples:
        raise ValueError("no examples to evaluate")
    correct = 0
    for ex in examples:
        s = score(params, config, ex.scenario, ex.candidate, ex.reference, ex.document, use_prefix)
        correct += int((s.score >= 0.5) == bool(ex.label))
    return correct / len(examples)


def _round_robin(per_stream: list[list[list[ScenarioExample]]]) -> list[list[ScenarioExample]]:
    out = []
    depth = max(len(s) for s in per_stream)
    for i in range(depth):
        for stream in per_stream:
            if i < len(stream):
                out.append(stream[i])
    return out


def train(
    init_params: dict[str, np.ndarray],
    model_config: ModelConfig,
    datasets: dict[str, list[ScenarioExample]],
    config: TrainConfig,
    checkpoint_path: str | None = None,
    log_stream=None,
) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Runs the configured mode and returns the parameters of the epoch
    with the best mean held-out accuracy. One JSON progress line per epoch
    on ``log_stream`` (standard error by default)."""
    log = log_stream if log_stream is not None else sys.stderr
    started = time.monotonic()
    active = config.active_scenarios()
    for sc in active:
        if not datasets.get(sc):
            raise ValueError(f"no training examples for scenario {sc}")
    use_prefix = config.mode != "joint_no_prefix"
    params = {name: arr.copy() for name, arr in init_params.items()}
    rng = np.random.default_rng(config.seed)

    train_sets: dict[str, list[ScenarioExample]] = {}
    holdout_sets: dict[str, list[ScenarioExample]] = {}
    for sc in active:
        data = list(datasets[sc])
        order = rng.permutation(len(data))
        data = [data[i] for i in order]
        n_hold = min(int(len(data) * config.holdout_fraction), len(data) - 1)
        holdout_sets[sc] = data[:n_hold]
        train_sets[sc] = data[n_hold:]

    state = AdamWState(params)
    update_names = [
        name
        for name in params
        if not (config.mode == "joint_no_prefix" and name == "prefix_base")
    ]
    report = TrainReport(mode=config.mode)
    grads = None  # reused by every step
    best_params = None
    best_mean_accuracy = -1.0

    for epoch in range(1, config.epochs + 1):
        streams = []
        for sc in active:
            data = train_sets[sc]
            order = rng.permutation(len(data))
            streams.append(
                [
                    [data[j] for j in order[i : i + config.batch_size]]
                    for i in range(0, len(data), config.batch_size)
                ]
            )
        step_losses = []
        for batch in _round_robin(streams):
            try:
                loss, grads = backward(params, model_config, batch, use_prefix, grads)
            except FloatingPointError:
                report.diverged = True
                break
            if not np.isfinite(loss):
                report.diverged = True
                break
            if report.initial_loss is None:
                report.initial_loss = loss / len(batch)
            if config.clip_norm is not None:
                clip_gradients(grads, config.clip_norm)
            adamw_step(params, grads, state, config, update_names)
            report.total_steps += 1
            step_losses.append(loss / len(batch))
        if report.diverged:
            break

        report.epochs_run = epoch
        mean_loss = float(np.mean(step_losses))
        report.epoch_losses.append(mean_loss)
        accuracy = {
            sc: evaluate_accuracy(params, model_config, holdout_sets[sc], use_prefix)
            for sc in active
            if holdout_sets[sc]
        }
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
                best_params = {name: arr.copy() for name, arr in params.items()}
                report.best_epoch = epoch
            if config.target_accuracy is not None and min(accuracy.values()) >= config.target_accuracy:
                break

    if best_params is not None:
        params = best_params
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
    names = param_names(config)
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

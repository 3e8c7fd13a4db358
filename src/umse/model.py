"""Transformer encoder with permuted-prefix conditioning.

One shared bank of continuous prefix rows conditions a single encoder for
three scoring scenarios. Each scenario sees the same rows in a different
fixed order (SD identity, SDR odd-then-even, SR reversed), so scenario
identity is carried by order alone and every row is trained by all three
streams. A ``prefix_len`` of 0 gives an empty bank and no prefix slots,
the ablation without scenario conditioning.

Input templates, prefix after [CLS]:

    SR   [CLS] P_SR  X [SEP] Y
    SD   [CLS] P_SD  X [SEP] D
    SDR  [CLS] P_SDR X [SEP] D [SEP] Y

The encoder is pre-norm with learned positions; pooling is the mean over
content and special positions (prefix rows excluded); the head is
three affine layers with tanh after the first two, softmax on two logits,
and the positive-class probability is the score.

The forward pass computes in the dtype of the parameters it is given and
records the intermediates needed for the manual reverse pass (see the
training module). Training keeps its parameters, reduced gradient and
optimizer state in float64 and runs each step's forward and backward on a
float32 image of them; scoring runs the same forward on a float32 copy
(``inference_params``). ``worker_pool`` is the fork pool that scoring and
training spread their work over.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CLS_ID, SEP_ID, atomic_write

SCENARIOS = ("SR", "SD", "SDR")
FUSION_METHODS = ("min", "max", "geometric_mean", "arithmetic_mean")
DEFAULT_FUSION = "arithmetic_mean"

# candidate length cap inside the input template; document and reference
# are then truncated from the tail to fit max_len
CANDIDATE_TOKEN_CAP = 128

_PREFIX_SLOT = -1  # layout id marking a continuous prefix row
_LN_EPS = 1.0e-5


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 256
    prefix_len: int = 16
    max_len: int = 512
    mlp_dims: tuple[int, int, int] = ()
    init_seed: int = 12

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the special tokens")
        for name in ("hidden_dim", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")
        # 0 is the no-prefix ablation: an empty bank and no prefix slots
        if self.prefix_len < 0:
            raise ValueError("prefix_len must be >= 0")
        if self.prefix_len + 3 + 1 > self.max_len:
            raise ValueError("max_len too small for prefix plus specials plus content")
        if not self.mlp_dims:
            object.__setattr__(
                self, "mlp_dims", (3 * self.hidden_dim, self.hidden_dim, 2)
            )
        if self.mlp_dims[-1] != 2:
            raise ValueError("classifier head must end in 2 logits")
        if min(self.mlp_dims) < 1:
            raise ValueError(f"mlp_dims widths must be >= 1, got {list(self.mlp_dims)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("model config must be a JSON object")
        # checkpoints written before dropout was removed carry "dropout": 0.0
        if raw.pop("dropout", 0.0) != 0.0:
            raise ValueError("only dropout 0.0 is supported")
        raw["mlp_dims"] = tuple(raw["mlp_dims"])
        return ModelConfig(**raw)


def prefix_permutation(prefix_len: int, scenario: str) -> tuple[int, ...]:
    """Fixed row order per scenario, 0-based into the shared bank."""
    if scenario == "SD":
        return tuple(range(prefix_len))
    if scenario == "SDR":
        return tuple(range(0, prefix_len, 2)) + tuple(range(1, prefix_len, 2))
    if scenario == "SR":
        return tuple(range(prefix_len - 1, -1, -1))
    raise ValueError(f"unknown scenario: {scenario}")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in canonical order; initialization draws
    follow it."""
    z = config.hidden_dim
    d1, d2, d3 = config.mlp_dims
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, z),
        "pos_emb": (config.max_len, z),
        "prefix_base": (config.prefix_len, z),
    }
    for l in range(config.n_layers):
        pre = f"layer{l}."
        # no key bias: it adds a per-row constant to the attention logits,
        # which the softmax cancels, leaving the parameter untrainable
        shapes.update({
            pre + "attn_ln.gamma": (z,),
            pre + "attn_ln.beta": (z,),
            pre + "attn.wq": (z, z),
            pre + "attn.bq": (z,),
            pre + "attn.wk": (z, z),
            pre + "attn.wv": (z, z),
            pre + "attn.bv": (z,),
            pre + "attn.wo": (z, z),
            pre + "attn.bo": (z,),
            pre + "ffn_ln.gamma": (z,),
            pre + "ffn_ln.beta": (z,),
            pre + "ffn.w1": (z, config.ffn_dim),
            pre + "ffn.b1": (config.ffn_dim,),
            pre + "ffn.w2": (config.ffn_dim, z),
            pre + "ffn.b2": (z,),
        })
    shapes.update({
        "final_ln.gamma": (z,),
        "final_ln.beta": (z,),
        "head.w1": (z, d1),
        "head.b1": (d1,),
        "head.w2": (d1, d2),
        "head.b2": (d2,),
        "head.w3": (d2, d3),
        "head.b3": (d3,),
    })
    return shapes


def param_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Each name's array as a view of consecutive elements of ``flat``, in
    the order of ``shapes``."""
    views, off = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[off : off + size].reshape(shape)
        off += size
    return views


def init_parameters(config: ModelConfig) -> dict[str, np.ndarray]:
    """Embeddings and prefix rows uniform in [-0.1, 0.1]; weight matrices
    Xavier-uniform; norms at identity; biases zero. One seeded generator,
    draws in canonical order, so init is a pure function of the config.

    Two departures from plain Xavier bias the encoder toward lexical
    matching from the first step, which is the behavior every scenario
    ultimately needs. Query and key projections start as a shared
    identity map plus small noise, so a token attends most to copies of
    itself elsewhere in the sequence and the query/key gradients stay
    aligned early on. Position rows are damped by 4x so content, not
    position, dominates those early attention patterns. Both matrices
    remain independent parameters and drift apart during training.
    """
    rng = np.random.default_rng(config.init_seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if name in ("tok_emb", "pos_emb", "prefix_base"):
            params[name] = rng.uniform(-0.1, 0.1, size=shape)
        elif leaf == "gamma":
            params[name] = np.ones(shape)
        elif leaf.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            fan_in, fan_out = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-limit, limit, size=shape)
    params["pos_emb"] *= 0.25
    eye = np.eye(config.hidden_dim)
    for i in range(config.n_layers):
        shared = eye + 0.1 * params[f"layer{i}.attn.wq"]
        params[f"layer{i}.attn.wq"] = shared
        params[f"layer{i}.attn.wk"] = shared.copy()
    return params


@dataclass(frozen=True)
class InputLayout:
    """Template-assembled token sequence. ``ids`` holds vocabulary ids with
    -1 marking the prefix slots (positions 1..n_prefix, right after CLS)."""

    scenario: str
    ids: tuple[int, ...]
    n_prefix: int

    @property
    def length(self) -> int:
        return len(self.ids)


def assemble_input(
    scenario: str,
    candidate: tuple[int, ...],
    reference: tuple[int, ...] | None,
    document: tuple[int, ...] | None,
    config: ModelConfig,
) -> InputLayout:
    """Build the scenario template, truncating in the fixed order: candidate
    capped at CANDIDATE_TOKEN_CAP, then document tail, then reference tail;
    pathological configs fall back to shrinking the candidate further."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario}")
    if not candidate:
        raise ValueError("candidate must be non-empty")
    need_ref = scenario in ("SR", "SDR")
    need_doc = scenario in ("SD", "SDR")
    if need_ref and reference is None:
        raise ValueError(f"scenario {scenario} requires a reference")
    if need_doc and document is None:
        raise ValueError(f"scenario {scenario} requires a document")

    n_prefix = config.prefix_len
    x = list(candidate[:CANDIDATE_TOKEN_CAP])
    d = list(document) if need_doc else []
    y = list(reference) if need_ref else []
    n_seps = (1 if need_doc else 0) + (1 if need_ref else 0)
    fixed = 1 + n_prefix + n_seps

    budget = config.max_len - fixed - len(x)
    if need_doc and len(d) + len(y) > budget:
        d = d[: max(0, budget - len(y))]
    if len(d) + len(y) > budget:
        y = y[: max(0, budget - len(d))]
    if len(x) > config.max_len - fixed:
        x = x[: config.max_len - fixed]
        if not x:
            raise ValueError("max_len leaves no room for the candidate")

    ids = [CLS_ID] + [_PREFIX_SLOT] * n_prefix + x
    if need_doc:
        ids += [SEP_ID] + d
    if need_ref:
        ids += [SEP_ID] + y
    return InputLayout(scenario=scenario, ids=tuple(ids), n_prefix=n_prefix)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = x - mu
    xhat *= invstd
    y = xhat * gamma
    y += beta
    return y, xhat, invstd


# Python floats, like every scalar the forward mixes with arrays: numpy
# treats them as weakly typed, so a float32 pass stays float32 under both
# the value-based promotion of numpy 1.x and the NEP 50 rules of 2.x
_GELU_C = math.sqrt(2.0 / math.pi)

# elements per chunk of a chained elementwise pass: a few chunk-sized arrays
# fit a 2 MB L2 cache, so the chain reads a large array from memory once
# instead of once per operation
_CHUNK = 32768


def _rows_per_chunk(width: int) -> int:
    return max(1, _CHUNK // width)


def _row_chunks(n_rows: int, width: int):
    """Row slices of about _CHUNK elements over an (n_rows, width) array.
    Every operation the chunked kernels run is elementwise or reduces
    within one row, so chunking leaves every bit of the result as it is."""
    step = _rows_per_chunk(width)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _rows(x: np.ndarray) -> np.ndarray:
    """``x`` as a 2-D view of its last-axis rows. Only a C-contiguous
    array has one; a copy would drop the writes, and its row sums could
    round differently from the strided original's."""
    if not x.flags.c_contiguous:
        raise ValueError("expected a C-contiguous array")
    return x.reshape(-1, x.shape[-1])


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU (rather than erf, so the derivative stays closed-form)
    plus its inner tanh, which the gradient reuses, in the operation order
    of ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))``. Cubing by
    repeated multiply: the pow ufunc is an order of magnitude slower and
    this runs on every feed-forward activation."""
    x = np.ascontiguousarray(x)
    act, t = np.empty_like(x), np.empty_like(x)
    xr, ar, tr = _rows(x), _rows(act), _rows(t)
    scratch = np.empty_like(xr[: _rows_per_chunk(xr.shape[1])])
    for rows in _row_chunks(*xr.shape):
        xc, ac, tc = xr[rows], ar[rows], tr[rows]
        np.multiply(xc, xc, out=tc)
        tc *= xc
        tc *= 0.044715
        tc += xc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.multiply(xc, 0.5, out=ac)
        one_plus_t = np.add(tc, 1.0, out=scratch[: len(xc)])
        ac *= one_plus_t
    return act, t


def _gelu_grad(x: np.ndarray, t: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-form GELU at ``x``, whose inner tanh is ``t``,
    in the operation order of
    ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x)``,
    times ``upstream`` (the chain rule's product, taken while each chunk is
    in cache)."""
    x, t = np.ascontiguousarray(x), np.ascontiguousarray(t)
    grad = np.empty_like(x)
    xr, tr, gr = _rows(x), _rows(t), _rows(grad)
    ur = _rows(np.ascontiguousarray(upstream))
    xx = np.empty_like(xr[: _rows_per_chunk(xr.shape[1])])
    tail = np.empty_like(xx)
    for rows in _row_chunks(*xr.shape):
        xc, tc, gc = xr[rows], tr[rows], gr[rows]
        xxc, tailc = xx[: len(xc)], tail[: len(xc)]
        np.multiply(xc, xc, out=xxc)
        np.multiply(tc, tc, out=gc)
        np.subtract(1.0, gc, out=gc)
        np.multiply(xc, 0.5, out=tailc)
        tailc *= gc
        tailc *= _GELU_C
        xxc *= 3 * 0.044715
        xxc += 1.0
        tailc *= xxc
        np.add(tc, 1.0, out=gc)
        gc *= 0.5
        gc += tailc
        gc *= ur[rows]
    return grad


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_probs(scores: np.ndarray, scale: float) -> np.ndarray:
    """Softmax over the keys of ``scores / scale``, in place."""
    scores /= scale
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _heads(x: np.ndarray, rows: slice, n_heads: int) -> np.ndarray:
    """One example's rows of a packed ``(ΣL, z)`` array as a
    ``(1, n_heads, L, z // n_heads)`` view, the layout its attention runs on."""
    seg = x[rows]
    return seg.reshape(1, len(seg), n_heads, -1).transpose(0, 2, 1, 3)


def _head_row(params: dict[str, np.ndarray], pooled: np.ndarray):
    """The classifier head on one pooled row, shaped ``(1, z)``."""
    a1 = np.tanh(pooled @ params["head.w1"] + params["head.b1"])
    a2 = np.tanh(a1 @ params["head.w2"] + params["head.b2"])
    return a1, a2, a2 @ params["head.w3"] + params["head.b3"]


@dataclass
class LayerCache:
    ln1_xhat: np.ndarray
    ln1_invstd: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: list[np.ndarray]  # per example, (1, heads, L, L)
    ctx: np.ndarray
    a_in: np.ndarray
    ln2_xhat: np.ndarray
    ln2_invstd: np.ndarray
    f_in: np.ndarray
    u1: np.ndarray
    act: np.ndarray
    gelu_t: np.ndarray


@dataclass
class ForwardCache:
    """Intermediates of ``forward_batch``. Every per-position array is
    packed: it holds the rows of all examples back to back, ``(ΣL, ...)``,
    and example ``i`` owns the rows ``segment(i)``."""

    offsets: np.ndarray  # (B + 1,) first packed row of each example, then ΣL
    ids: np.ndarray  # (ΣL,) vocabulary ids, -1 on prefix slots
    pool_counts: np.ndarray  # (B,) rows pooled per example
    emb: np.ndarray
    layers: list[LayerCache] = field(default_factory=list)
    final_xhat: np.ndarray | None = None
    final_invstd: np.ndarray | None = None
    h_enc: np.ndarray | None = None
    pooled: np.ndarray | None = None
    head_a1: np.ndarray | None = None
    head_a2: np.ndarray | None = None
    probs: np.ndarray | None = None

    def segment(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def pool_mask(self, i: int) -> np.ndarray:
        """True on the rows of example ``i`` that pooling averages."""
        return self.ids[self.segment(i)] != _PREFIX_SLOT


def forward_batch(
    params: dict[str, np.ndarray], config: ModelConfig, layouts: list[InputLayout]
) -> ForwardCache:
    """Encode, pool and classify a batch; returns the full cache.

    The batch is packed without padding: the examples' rows are concatenated
    into one ``(ΣL, z)`` array, so every embedding gather, projection, layer
    norm, GELU and residual runs once over real rows only. Attention runs
    per example on its own rows, so no example sees another. The head runs
    one example at a time.

    An example's probabilities are therefore the same bits alone and in any
    batch, as long as row i of ``A @ W`` does not depend on A's other rows
    for two or more rows (true of OpenBLAS's gemm; a lone row takes gemv,
    which rounds differently, which is why the head is never batched).

    Every array the pass makes, the cache's included, has the dtype of
    ``params``: float32 for a training step and for scoring (see
    ``score``), float64 for the reference ``backward`` and its gradient
    check.
    A non-finite encoding or logit raises ``FloatingPointError``.
    """
    if not layouts:
        raise ValueError("empty batch")
    z = config.hidden_dim
    heads = config.n_heads
    scale = math.sqrt(z // heads)
    dtype = params["tok_emb"].dtype

    offsets = np.zeros(len(layouts) + 1, dtype=np.int64)
    np.cumsum([layout.length for layout in layouts], out=offsets[1:])
    ids = np.concatenate([np.asarray(layout.ids, dtype=np.int64) for layout in layouts])
    prefix_base = params["prefix_base"]
    pos_emb = params["pos_emb"]
    emb = params["tok_emb"][np.where(ids == _PREFIX_SLOT, 0, ids)]
    cache = ForwardCache(
        offsets=offsets, ids=ids, pool_counts=np.empty(len(layouts), dtype), emb=emb
    )
    segments = [cache.segment(i) for i in range(len(layouts))]
    for rows, layout in zip(segments, layouts):
        if layout.n_prefix:
            perm = prefix_permutation(len(prefix_base), layout.scenario)
            emb[rows.start + 1 : rows.start + 1 + layout.n_prefix] = prefix_base[list(perm)]
        emb[rows] += pos_emb[: layout.length]

    h = emb
    for l in range(config.n_layers):
        p = lambda s: params[f"layer{l}.{s}"]  # noqa: E731
        a_in, xhat1, invstd1 = _layer_norm(h, p("attn_ln.gamma"), p("attn_ln.beta"))
        q = a_in @ p("attn.wq")
        q += p("attn.bq")
        k = a_in @ p("attn.wk")
        v = a_in @ p("attn.wv")
        v += p("attn.bv")
        ctx = np.empty_like(a_in)
        attn = []
        for rows in segments:
            kt = _heads(k, rows, heads).transpose(0, 1, 3, 2)
            probs = _attention_probs(_heads(q, rows, heads) @ kt, scale)
            np.matmul(probs, _heads(v, rows, heads), out=_heads(ctx, rows, heads))
            attn.append(probs)
        # x + h is h + x bit for bit, so residuals are added in place
        h_mid = ctx @ p("attn.wo")
        h_mid += p("attn.bo")
        h_mid += h
        f_in, xhat2, invstd2 = _layer_norm(h_mid, p("ffn_ln.gamma"), p("ffn_ln.beta"))
        u1 = f_in @ p("ffn.w1")
        u1 += p("ffn.b1")
        act, gelu_t = _gelu_parts(u1)
        h_out = act @ p("ffn.w2")
        h_out += p("ffn.b2")
        h_out += h_mid
        cache.layers.append(
            LayerCache(
                ln1_xhat=xhat1, ln1_invstd=invstd1, q=q, k=k, v=v,
                attn=attn, ctx=ctx, a_in=a_in, ln2_xhat=xhat2,
                ln2_invstd=invstd2, f_in=f_in, u1=u1, act=act, gelu_t=gelu_t,
            )
        )
        h = h_out

    h_enc, cache.final_xhat, cache.final_invstd = _layer_norm(
        h, params["final_ln.gamma"], params["final_ln.beta"]
    )
    cache.h_enc = h_enc
    if not np.isfinite(h_enc).all():
        raise FloatingPointError("numerical divergence")

    pooled = np.empty((len(layouts), z), dtype)
    for i, rows in enumerate(segments):
        mask = cache.pool_mask(i)
        cache.pool_counts[i] = mask.sum()
        pooled[i] = (h_enc[rows] * mask[:, None]).sum(axis=0) / cache.pool_counts[i]
    cache.pooled = pooled
    heads_out = [_head_row(params, pooled[i : i + 1]) for i in range(len(layouts))]
    a1, a2, logits = (np.concatenate(parts) for parts in zip(*heads_out))
    if not np.isfinite(logits).all():
        raise FloatingPointError("numerical divergence")
    cache.head_a1, cache.head_a2 = a1, a2
    cache.probs = _softmax_last(logits)
    return cache


@dataclass(frozen=True)
class ScoreOutput:
    score: float  # positive-class probability


def inference_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The float32 parameters ``score`` computes with: float32 arrays as
    they are, every other one cast. A value that is finite but outside the
    float32 range raises ``FloatingPointError`` naming its parameter, so it
    cannot reach the forward as an infinity; NaN and infinities pass, and
    the forward reports them."""
    out = {}
    for name, arr in params.items():
        with np.errstate(over="ignore"):
            cast = arr.astype(np.float32, copy=False)
        if cast is not arr and not np.isfinite(cast).all():
            overflow = np.isinf(cast) & np.isfinite(arr)
            if overflow.any():
                raise FloatingPointError(
                    f"parameter {name} holds {arr[overflow][0]:g}, outside the float32 range"
                )
        out[name] = cast
    return out


def score(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    scenario: str,
    candidate: tuple[int, ...],
    reference: tuple[int, ...] | None = None,
    document: tuple[int, ...] | None = None,
) -> ScoreOutput:
    """One example's score, computed in float32 on ``inference_params``.

    Float32 parameters pass through uncopied, so a caller scoring many
    examples casts once and hands the copy in; float64 parameters are cast
    on each call, to the same bits. A non-finite forward raises
    ``FloatingPointError`` without printing numpy's warnings.
    """
    layout = assemble_input(scenario, candidate, reference, document, config)
    with np.errstate(all="ignore"):
        cache = forward_batch(inference_params(params), config, [layout])
    return ScoreOutput(score=float(cache.probs[0, 1]))


def fuse(s_sr: float, s_sd: float, method: str = DEFAULT_FUSION) -> float:
    if method not in FUSION_METHODS:
        raise ValueError(f"unknown fusion method: {method}")
    for value in (s_sr, s_sd):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"score out of range [0, 1]: {value}")
    if method == "min":
        return min(s_sr, s_sd)
    if method == "max":
        return max(s_sr, s_sd)
    if method == "geometric_mean":
        return float(np.sqrt(s_sr * s_sd))
    return (s_sr + s_sd) / 2.0


CHECKPOINT_MAGIC = b"UMSECKPT1"


def save_checkpoint(
    params: dict[str, np.ndarray], config: ModelConfig, path: str | Path
) -> None:
    """Layout, all integers little-endian: magic; u32 config JSON length +
    JSON; u32 parameter count; then per parameter (sorted by name) u16 name
    length + name, u8 ndim, u32 dims, row-major float64 payload."""
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        blob = config.to_json().encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Read a file written by save_checkpoint. Every read is bounds-checked
    against the file size, and each payload is read straight into its own
    array. The parameters must be exactly those of ``param_shapes(config)``:
    a file that ends early, carries an unreadable config, or holds a
    missing, unknown, repeated or misshapen parameter raises ``ValueError``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        off = len(CHECKPOINT_MAGIC)

        def reserve(n: int) -> None:
            nonlocal off
            if off + n > size:
                raise ValueError(f"truncated checkpoint: {path}")
            off += n

        def take(n: int) -> bytes:
            reserve(n)
            raw = fh.read(n)
            if len(raw) != n:  # the file shrank while it was read
                raise ValueError(f"truncated checkpoint: {path}")
            return raw

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        def corrupt(what: str) -> ValueError:
            return ValueError(f"corrupt checkpoint {path}: {what}")

        (config_len,) = unpack("<I")
        blob = take(config_len)
        try:
            config = ModelConfig.from_json(str(blob, "utf-8"))
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            raise corrupt(f"unreadable config ({exc})") from exc
        shapes = param_shapes(config)
        (count,) = unpack("<I")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            raw = take(name_len)
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            name = str(raw, "utf-8", "replace")
            if name not in shapes or name in params:
                raise corrupt(f"unexpected parameter {name!r}")
            if shape != shapes[name]:
                raise corrupt(
                    f"parameter {name} has shape {shape}, the config needs {shapes[name]}"
                )
            reserve(8 * math.prod(shape))  # before allocating: the config may be corrupt
            arr = np.empty(shape, dtype="<f8")
            # cast through a 1-D view: a zero in the shape makes memoryview refuse
            if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != arr.nbytes:
                raise ValueError(f"truncated checkpoint: {path}")
            params[name] = arr
    missing = sorted(set(shapes) - set(params))
    if missing:
        raise corrupt(f"missing parameter {missing[0]!r}")
    if off != size:
        raise corrupt(f"{size - off} bytes after the last parameter")
    return params, config


def _usable_cores() -> int:
    """The CPUs in this process's affinity mask, so taskset limits it; 1
    where the platform does not report one."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


_worker_job = None  # set only inside pool workers


def _adopt_job(job) -> None:
    global _worker_job
    _worker_job = job


def _call_with_job(call):
    fn, arg = call
    return fn(_worker_job, arg)


class WorkerPool:
    """Runs ``fn(job, arg)`` for each of a list of arguments, on ``workers``
    forked processes or, with ``executor`` None, inline."""

    def __init__(self, job, executor=None, workers: int = 1) -> None:
        self.job = job
        self.executor = executor
        self.workers = workers

    def map(self, fn, args):
        """The results in argument order, as an iterator; ``fn`` must be a
        module-level function, which is sent to a worker by name."""
        if self.executor is None:
            return (fn(self.job, arg) for arg in args)
        return self.executor.map(_call_with_job, [(fn, arg) for arg in args])


@contextlib.contextmanager
def worker_pool(job, max_workers: int, what: str):
    """A ``WorkerPool`` of one forked worker per usable core, at most
    ``max_workers``; inline with one worker or where fork is unavailable.

    The workers fork when the first call is submitted and adopt ``job``
    then, so it is never pickled; what they must see change afterwards
    lives in shared memory that ``job`` holds. They inherit the BLAS
    settings too, so a call gives the same bits in any process. A worker
    that dies ends the block with ``OSError``, and every worker has exited
    when it is left.
    """
    workers = min(_usable_cores(), max_workers)
    if workers > 1:
        # imported here: loading the pool machinery would cost every other
        # command about 2 MB of resident memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            executor = ProcessPoolExecutor(workers, context, _adopt_job, (job,))
            try:
                yield WorkerPool(job, executor, workers)
            except BrokenProcessPool as exc:
                raise OSError(f"a {what} worker died: {exc}") from exc
            finally:
                executor.shutdown(cancel_futures=True)
            return
    yield WorkerPool(job)

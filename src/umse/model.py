"""Transformer encoder with permuted-prefix conditioning.

One shared bank of continuous prefix rows conditions a single encoder for
three scoring scenarios. Each scenario sees the same rows in a different
fixed order (SD identity, SDR odd-then-even, SR reversed), so scenario
identity is carried by order alone and every row is trained by all three
streams.

Input templates, prefix after [CLS]:

    SR   [CLS] P_SR  X [SEP] Y
    SD   [CLS] P_SD  X [SEP] D
    SDR  [CLS] P_SDR X [SEP] D [SEP] Y

The encoder is pre-norm with learned positions; pooling is the mean over
content and special positions (prefix and padding excluded); the head is
three affine layers with tanh after the first two, softmax on two logits,
and the positive-class probability is the score.

All math is float64. The forward pass records the intermediates needed for
the manual reverse pass (see the training module).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CLS_ID, PAD_ID, SEP_ID

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
    dropout: float = 0.0
    init_seed: int = 12

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the special tokens")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if self.prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        if self.prefix_len + 3 + 1 > self.max_len:
            raise ValueError("max_len too small for prefix plus specials plus content")
        if not self.mlp_dims:
            object.__setattr__(
                self, "mlp_dims", (3 * self.hidden_dim, self.hidden_dim, 2)
            )
        if self.mlp_dims[-1] != 2:
            raise ValueError("classifier head must end in 2 logits")
        if self.dropout != 0.0:
            raise ValueError("only dropout 0.0 is supported")

    def to_json(self) -> str:
        return json.dumps(
            {
                "vocab_size": self.vocab_size,
                "hidden_dim": self.hidden_dim,
                "n_layers": self.n_layers,
                "n_heads": self.n_heads,
                "ffn_dim": self.ffn_dim,
                "prefix_len": self.prefix_len,
                "max_len": self.max_len,
                "mlp_dims": list(self.mlp_dims),
                "dropout": self.dropout,
                "init_seed": self.init_seed,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        raw = json.loads(text)
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


def param_names(config: ModelConfig) -> list[str]:
    """Canonical parameter order; initialization draws follow it."""
    names = ["tok_emb", "pos_emb", "prefix_base"]
    for l in range(config.n_layers):
        names += [
            f"layer{l}.attn_ln.gamma",
            f"layer{l}.attn_ln.beta",
            f"layer{l}.attn.wq",
            f"layer{l}.attn.bq",
            f"layer{l}.attn.wk",
            f"layer{l}.attn.wv",
            f"layer{l}.attn.bv",
            f"layer{l}.attn.wo",
            f"layer{l}.attn.bo",
            f"layer{l}.ffn_ln.gamma",
            f"layer{l}.ffn_ln.beta",
            f"layer{l}.ffn.w1",
            f"layer{l}.ffn.b1",
            f"layer{l}.ffn.w2",
            f"layer{l}.ffn.b2",
        ]
    names += ["final_ln.gamma", "final_ln.beta"]
    names += ["head.w1", "head.b1", "head.w2", "head.b2", "head.w3", "head.b3"]
    return names


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    z = config.hidden_dim
    d1, d2, d3 = config.mlp_dims
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, z),
        "pos_emb": (config.max_len, z),
        "prefix_base": (config.prefix_len, z),
        "final_ln.gamma": (z,),
        "final_ln.beta": (z,),
        "head.w1": (z, d1),
        "head.b1": (d1,),
        "head.w2": (d1, d2),
        "head.b2": (d2,),
        "head.w3": (d2, d3),
        "head.b3": (d3,),
    }
    for l in range(config.n_layers):
        shapes[f"layer{l}.attn_ln.gamma"] = (z,)
        shapes[f"layer{l}.attn_ln.beta"] = (z,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"layer{l}.attn.{w}"] = (z, z)
        # no key bias: it adds a per-row constant to the attention logits,
        # which the softmax cancels, leaving the parameter untrainable
        for b in ("bq", "bv", "bo"):
            shapes[f"layer{l}.attn.{b}"] = (z,)
        shapes[f"layer{l}.ffn_ln.gamma"] = (z,)
        shapes[f"layer{l}.ffn_ln.beta"] = (z,)
        shapes[f"layer{l}.ffn.w1"] = (z, config.ffn_dim)
        shapes[f"layer{l}.ffn.b1"] = (config.ffn_dim,)
        shapes[f"layer{l}.ffn.w2"] = (config.ffn_dim, z)
        shapes[f"layer{l}.ffn.b2"] = (z,)
    return shapes


def init_parameters(config: ModelConfig) -> dict[str, np.ndarray]:
    """Embeddings and prefix rows uniform in [-0.1, 0.1]; weight matrices
    Xavier-uniform; norms at identity; biases zero. One seeded generator,
    draws in param_names order, so init is a pure function of the config.

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
    shapes = param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for name in param_names(config):
        shape = shapes[name]
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
    use_prefix: bool = True,
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

    n_prefix = config.prefix_len if use_prefix else 0
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


_GELU_C = np.sqrt(2.0 / np.pi)

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
    act, t = np.empty(x.shape), np.empty(x.shape)
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


def _gelu_grad(
    x: np.ndarray, t: np.ndarray | None = None, upstream: np.ndarray | None = None
) -> np.ndarray:
    """Derivative of the tanh-form GELU, in the operation order of
    ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x)``,
    times ``upstream`` when given (the chain rule's product, taken while
    each chunk is in cache)."""
    x = np.ascontiguousarray(x)
    t = _gelu_parts(x)[1] if t is None else np.ascontiguousarray(t)
    grad = np.empty(x.shape)
    xr, tr, gr = _rows(x), _rows(t), _rows(grad)
    ur = None if upstream is None else _rows(np.ascontiguousarray(upstream))
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
        if ur is not None:
            gc *= ur[rows]
    return grad


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_probs(scores: np.ndarray, lengths: list[int], scale: float) -> np.ndarray:
    """Softmax over the keys of ``scores / scale``, in place, where the
    keys of example ``i`` at and past ``lengths[i]`` (its padding) are
    masked out. Bit-identical to ``_softmax_last(scores / scale + bias)``
    with a bias of 0 on real keys and -1e30 on padding: exp underflows to
    exactly 0 on every masked key, so those are set to 0 rather than
    computed, the row maximum always falls on a real key, and adding 0.0
    only flips the sign of a zero, which the exp does not see. Runs one
    example at a time, which keeps its block in cache."""
    for block, length in zip(scores, lengths):
        real = block[..., :length]
        real /= scale
        real -= real.max(axis=-1, keepdims=True)
        np.exp(real, out=real)
        block[..., length:] = 0.0
        block /= block.sum(axis=-1, keepdims=True)
    return scores


@dataclass
class LayerCache:
    h_in: np.ndarray
    ln1_xhat: np.ndarray
    ln1_invstd: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    ctx: np.ndarray
    a_in: np.ndarray
    h_mid: np.ndarray
    ln2_xhat: np.ndarray
    ln2_invstd: np.ndarray
    f_in: np.ndarray
    u1: np.ndarray
    act: np.ndarray
    gelu_t: np.ndarray


@dataclass
class ForwardCache:
    layouts: list[InputLayout]
    ids: np.ndarray  # (B, T) with -1 prefix slots and PAD fill
    pool_mask: np.ndarray  # (B, T) True where pooled
    pool_counts: np.ndarray  # (B,)
    emb: np.ndarray
    layers: list[LayerCache] = field(default_factory=list)
    h_pre_final: np.ndarray | None = None
    final_xhat: np.ndarray | None = None
    final_invstd: np.ndarray | None = None
    h_enc: np.ndarray | None = None
    pooled: np.ndarray | None = None
    head_a1: np.ndarray | None = None
    head_a2: np.ndarray | None = None
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None


def forward_batch(
    params: dict[str, np.ndarray], config: ModelConfig, layouts: list[InputLayout]
) -> ForwardCache:
    """Encode, pool and classify a batch; returns the full cache. Batch
    rows are padded to the longest layout; padding is excluded from both
    attention and pooling, so extra padding never shifts a score."""
    if not layouts:
        raise ValueError("empty batch")
    n = len(layouts)
    t = max(layout.length for layout in layouts)
    z = config.hidden_dim
    heads = config.n_heads
    dh = z // heads

    ids = np.full((n, t), PAD_ID, dtype=np.int64)
    pool_mask = np.zeros((n, t), dtype=bool)
    emb = np.empty((n, t, z))
    tok_emb = params["tok_emb"]
    pos_emb = params["pos_emb"]
    prefix_base = params["prefix_base"]
    for i, layout in enumerate(layouts):
        ln = layout.length
        row = np.asarray(layout.ids, dtype=np.int64)
        ids[i, :ln] = row
        pool_mask[i, :ln] = row != _PREFIX_SLOT
        content = np.where(row == _PREFIX_SLOT, 0, row)
        emb[i, :ln] = tok_emb[content]
        if layout.n_prefix:
            perm = prefix_permutation(len(prefix_base), layout.scenario)
            emb[i, 1 : 1 + layout.n_prefix] = prefix_base[list(perm)]
        emb[i, ln:] = tok_emb[PAD_ID]
    emb = emb + pos_emb[:t]

    cache = ForwardCache(
        layouts=list(layouts),
        ids=ids,
        pool_mask=pool_mask,
        pool_counts=pool_mask.sum(axis=1).astype(float),
        emb=emb,
    )

    lengths = [layout.length for layout in layouts]
    h = emb
    for l in range(config.n_layers):
        p = lambda s: params[f"layer{l}.{s}"]  # noqa: E731
        a_in, xhat1, invstd1 = _layer_norm(h, p("attn_ln.gamma"), p("attn_ln.beta"))
        # (n*t, z) views keep every projection a single GEMM
        a_flat = np.ascontiguousarray(a_in).reshape(n * t, z)
        q = (a_flat @ p("attn.wq") + p("attn.bq")).reshape(n, t, heads, dh).transpose(0, 2, 1, 3)
        k = (a_flat @ p("attn.wk")).reshape(n, t, heads, dh).transpose(0, 2, 1, 3)
        v = (a_flat @ p("attn.wv") + p("attn.bv")).reshape(n, t, heads, dh).transpose(0, 2, 1, 3)
        attn = _attention_probs(q @ k.transpose(0, 1, 3, 2), lengths, np.sqrt(dh))
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n, t, z)
        h_mid = h + (ctx.reshape(n * t, z) @ p("attn.wo") + p("attn.bo")).reshape(n, t, z)
        f_in, xhat2, invstd2 = _layer_norm(h_mid, p("ffn_ln.gamma"), p("ffn_ln.beta"))
        f_flat = np.ascontiguousarray(f_in).reshape(n * t, z)
        u1 = f_flat @ p("ffn.w1")
        u1 += p("ffn.b1")
        u1 = u1.reshape(n, t, config.ffn_dim)
        act, gelu_t = _gelu_parts(u1)
        h_out = h_mid + (
            act.reshape(n * t, config.ffn_dim) @ p("ffn.w2") + p("ffn.b2")
        ).reshape(n, t, z)
        cache.layers.append(
            LayerCache(
                h_in=h, ln1_xhat=xhat1, ln1_invstd=invstd1, q=q, k=k, v=v,
                attn=attn, ctx=ctx, a_in=a_in, h_mid=h_mid, ln2_xhat=xhat2,
                ln2_invstd=invstd2, f_in=f_in, u1=u1, act=act, gelu_t=gelu_t,
            )
        )
        h = h_out

    cache.h_pre_final = h
    h_enc, cache.final_xhat, cache.final_invstd = _layer_norm(
        h, params["final_ln.gamma"], params["final_ln.beta"]
    )
    cache.h_enc = h_enc
    if not np.isfinite(h_enc).all():
        raise FloatingPointError("numerical divergence")

    pooled = (h_enc * pool_mask[:, :, None]).sum(axis=1) / cache.pool_counts[:, None]
    cache.pooled = pooled
    a1 = np.tanh(pooled @ params["head.w1"] + params["head.b1"])
    a2 = np.tanh(a1 @ params["head.w2"] + params["head.b2"])
    logits = a2 @ params["head.w3"] + params["head.b3"]
    if not np.isfinite(logits).all():
        raise FloatingPointError("numerical divergence")
    cache.head_a1, cache.head_a2 = a1, a2
    cache.logits = logits
    cache.probs = _softmax_last(logits)
    return cache


@dataclass(frozen=True)
class ScoreOutput:
    score: float  # positive-class probability
    scenario: str | None = None


def score(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    scenario: str,
    candidate: tuple[int, ...],
    reference: tuple[int, ...] | None = None,
    document: tuple[int, ...] | None = None,
    use_prefix: bool = True,
) -> ScoreOutput:
    layout = assemble_input(scenario, candidate, reference, document, config, use_prefix)
    cache = forward_batch(params, config, [layout])
    return ScoreOutput(score=float(cache.probs[0, 1]), scenario=scenario)


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
    with open(path, "wb") as fh:
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
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        (config_len,) = struct.unpack("<I", fh.read(4))
        config = ModelConfig.from_json(fh.read(config_len).decode("utf-8"))
        (count,) = struct.unpack("<I", fh.read(4))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            n_items = int(np.prod(shape)) if ndim else 1
            payload = fh.read(8 * n_items)
            if len(payload) != 8 * n_items:
                raise ValueError(f"truncated checkpoint: {path}")
            params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return params, config

"""Encoder, prefix conditioning, head, fusion and checkpoint tests."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import oracles
from umse.corpus import CLS_ID, SEP_ID
from umse.datagen import ScenarioExample
from umse.model import (
    _CHUNK,
    CHECKPOINT_MAGIC,
    DEFAULT_FUSION,
    FUSION_METHODS,
    InputLayout,
    ModelConfig,
    _attention_probs,
    _gelu_grad,
    _gelu_parts,
    _softmax_last,
    assemble_input,
    forward_batch,
    fuse,
    inference_params,
    init_parameters,
    load_checkpoint,
    param_shapes,
    prefix_permutation,
    save_checkpoint,
    score,
)
from umse.training import backward


def small_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_size=40,
        hidden_dim=16,
        n_layers=2,
        n_heads=2,
        ffn_dim=24,
        prefix_len=4,
        max_len=64,
        init_seed=12,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _ids(*values):
    return tuple(values)


def _prefix_rows(params, config, scenario):
    """The embedding rows a scenario's prefix slots receive, position rows
    included, from the forward cache."""
    n = config.prefix_len
    layout = InputLayout(scenario, (CLS_ID,) + (-1,) * n + (5,), n)
    cache = forward_batch(params, config, [layout])
    return cache.emb[cache.segment(0)][1 : 1 + n]


class TestModelConfig:
    def test_default_head_dims_scale_with_hidden(self):
        config = ModelConfig(vocab_size=100, hidden_dim=128)
        assert config.mlp_dims == (384, 128, 2)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=16, n_heads=3)

    def test_head_must_end_in_two_logits(self):
        with pytest.raises(ValueError):
            small_config(mlp_dims=(48, 16, 3))

    def test_prefix_must_leave_room(self):
        with pytest.raises(ValueError):
            small_config(prefix_len=61, max_len=64)
        with pytest.raises(ValueError, match="prefix_len must be >= 0"):
            small_config(prefix_len=-1)
        assert param_shapes(small_config(prefix_len=0))["prefix_base"] == (0, 16)

    def test_dropout_not_supported(self):
        # dropout is no longer a field; a config written with it still
        # reads when it is 0.0 and is rejected otherwise
        with pytest.raises(TypeError):
            small_config(dropout=0.0)
        text = small_config().to_json()
        assert ModelConfig.from_json(text[:-1] + ', "dropout": 0.0}') == small_config()
        for value in ("0.1", "null", '"0.0"'):
            with pytest.raises(ValueError, match="only dropout 0.0"):
                ModelConfig.from_json(text[:-1] + f', "dropout": {value}}}')

    def test_json_roundtrip(self):
        config = small_config()
        assert ModelConfig.from_json(config.to_json()) == config

    def test_json_bytes(self):
        # the checkpoint header carries these bytes, so they are pinned
        config = ModelConfig(
            vocab_size=40, hidden_dim=16, n_heads=2, ffn_dim=32, prefix_len=4, max_len=48,
            init_seed=3,
        )
        assert config.to_json() == (
            '{"ffn_dim": 32, "hidden_dim": 16, "init_seed": 3, '
            '"max_len": 48, "mlp_dims": [48, 16, 2], "n_heads": 2, "n_layers": 2, '
            '"prefix_len": 4, "vocab_size": 40}'
        )


class TestPrefixPermutation:
    def test_documented_orders_at_five(self):
        assert prefix_permutation(5, "SD") == (0, 1, 2, 3, 4)
        assert prefix_permutation(5, "SDR") == (0, 2, 4, 1, 3)
        assert prefix_permutation(5, "SR") == (4, 3, 2, 1, 0)

    def test_even_length_odd_then_even(self):
        assert prefix_permutation(6, "SDR") == (0, 2, 4, 1, 3, 5)

    def test_each_is_a_bijection(self):
        for n in (1, 2, 3, 7, 16):
            for scenario in ("SR", "SD", "SDR"):
                assert sorted(prefix_permutation(n, scenario)) == list(range(n))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            prefix_permutation(4, "XX")

    def test_rows_form_identical_multisets(self):
        config = small_config()
        params = init_parameters(config)
        # without position rows the slots hold the bank rows themselves
        params["pos_emb"][:] = 0.0
        base = params["prefix_base"]
        base_sorted = np.array(sorted(map(tuple, base)))
        for scenario in ("SR", "SD", "SDR"):
            rows = _prefix_rows(params, config, scenario)
            assert rows.shape == base.shape
            got = np.array(sorted(map(tuple, rows)))
            assert np.array_equal(got, base_sorted)

    def test_permuted_rows_match_positions(self):
        config = small_config()
        params = init_parameters(config)
        rows = _prefix_rows(params, config, "SDR")
        base, pos_emb = params["prefix_base"], params["pos_emb"]
        for out_pos, base_row in enumerate(prefix_permutation(4, "SDR")):
            assert np.array_equal(rows[out_pos], base[base_row] + pos_emb[1 + out_pos])


class TestAssembleInput:
    def test_sr_template_arithmetic(self):
        config = small_config()
        layout = assemble_input("SR", _ids(5, 6, 7), _ids(8, 9), None, config)
        assert layout.length == 1 + 4 + 3 + 1 + 2
        assert layout.ids == (CLS_ID, -1, -1, -1, -1, 5, 6, 7, SEP_ID, 8, 9)

    def test_sd_template_has_no_reference(self):
        config = small_config()
        layout = assemble_input("SD", _ids(5, 6), None, _ids(10, 11, 12), config)
        assert layout.ids == (CLS_ID, -1, -1, -1, -1, 5, 6, SEP_ID, 10, 11, 12)

    def test_sdr_template_order(self):
        config = small_config()
        layout = assemble_input("SDR", _ids(5,), _ids(8, 9), _ids(10, 11), config)
        assert layout.ids == (CLS_ID, -1, -1, -1, -1, 5, SEP_ID, 10, 11, SEP_ID, 8, 9)

    def test_huge_document_truncated_to_max_len(self):
        config = small_config()
        doc = tuple(range(4, 4 + 300)) * 2
        layout = assemble_input("SDR", _ids(5, 6, 7), _ids(8, 9), doc, config)
        assert layout.length == config.max_len
        # candidate and reference intact at template positions
        assert layout.ids[5:8] == (5, 6, 7)
        assert layout.ids[-2:] == (8, 9)

    def test_candidate_capped(self):
        config = ModelConfig(vocab_size=600, hidden_dim=16, n_heads=2, prefix_len=4, max_len=512)
        candidate = tuple(range(4, 4 + 200))
        layout = assemble_input("SR", candidate, _ids(8, 9), None, config)
        n_candidate = layout.length - 1 - 4 - 1 - 2
        assert n_candidate == 128

    def test_reference_truncated_after_document(self):
        config = small_config(max_len=16)
        # fixed = 1 + 4 + 2 seps = 7, candidate 3 -> 6 slots for doc+ref
        layout = assemble_input(
            "SDR", _ids(5, 6, 7), tuple(range(4, 14)), tuple(range(20, 30)), config
        )
        assert layout.length == 16
        sep_positions = [i for i, v in enumerate(layout.ids) if v == SEP_ID]
        assert len(sep_positions) == 2
        # document dropped entirely before the reference loses its slots
        assert sep_positions[1] - sep_positions[0] == 1

    def test_missing_fields_rejected(self):
        config = small_config()
        with pytest.raises(ValueError, match="reference"):
            assemble_input("SR", _ids(5,), None, None, config)
        with pytest.raises(ValueError, match="document"):
            assemble_input("SD", _ids(5,), None, None, config)
        with pytest.raises(ValueError, match="candidate"):
            assemble_input("SR", (), _ids(8,), None, config)

    def test_no_prefix_variant(self):
        config = small_config(prefix_len=0)
        layout = assemble_input("SR", _ids(5, 6), _ids(8,), None, config)
        assert layout.n_prefix == 0
        assert layout.ids == (CLS_ID, 5, 6, SEP_ID, 8)


@pytest.fixture(scope="module")
def setup():
    config = small_config()
    return config, init_parameters(config)


class TestForward:
    def test_encode_shape(self, setup):
        config, params = setup
        layout = assemble_input("SR", _ids(5, 6, 7), _ids(8, 9), None, config)
        cache = forward_batch(params, config, [layout])
        assert cache.h_enc[cache.segment(0)].shape == (layout.length, config.hidden_dim)
        assert cache.pooled.shape == (1, config.hidden_dim)
        assert cache.probs.shape == (1, 2)

    def test_inference_bit_deterministic(self, setup):
        config, params = setup
        out1 = score(params, config, "SDR", _ids(5, 6), _ids(8, 9), _ids(10, 11))
        out2 = score(params, config, "SDR", _ids(5, 6), _ids(8, 9), _ids(10, 11))
        assert out1.score == out2.score

    def test_prefix_order_changes_representation(self, setup):
        config, params = setup
        ids = (CLS_ID, -1, -1, -1, -1, 5, 6, SEP_ID, 10)
        h_sd = forward_batch(params, config, [InputLayout("SD", ids, 4)]).h_enc
        h_sdr = forward_batch(params, config, [InputLayout("SDR", ids, 4)]).h_enc
        assert not np.allclose(h_sd, h_sdr)

    def test_batch_partner_does_not_leak(self, setup):
        config, params = setup
        a = assemble_input("SR", _ids(5, 6), _ids(8,), None, config)
        b1 = assemble_input("SR", _ids(11, 12, 13, 14), _ids(15, 16), None, config)
        b2 = assemble_input("SR", _ids(21, 22, 23, 24), _ids(25, 26), None, config)
        assert b1.length == b2.length
        probs1 = forward_batch(params, config, [a, b1]).probs
        probs2 = forward_batch(params, config, [a, b2]).probs
        assert np.array_equal(probs1[0], probs2[0])

    def test_padding_does_not_shift_scores(self, setup):
        config, params = setup
        a = assemble_input("SR", _ids(5, 6), _ids(8,), None, config)
        longer = assemble_input("SR", tuple(range(4, 24)), _ids(25, 26), None, config)
        alone = forward_batch(params, config, [a]).probs[0]
        padded = forward_batch(params, config, [a, longer]).probs[0]
        assert np.allclose(alone, padded, atol=1e-12, rtol=0)

    def test_pool_matches_brute_force(self, setup):
        config, params = setup
        layout = assemble_input("SD", _ids(5, 6, 7), None, _ids(10, 11), config)
        longer = assemble_input("SD", _ids(5, 6, 7), None, tuple(range(10, 30)), config)
        cache = forward_batch(params, config, [layout, longer])
        h = cache.h_enc[cache.segment(0)]
        include = [i for i, v in enumerate(layout.ids) if v != -1]
        brute = sum(h[i] for i in include) / len(include)
        assert np.allclose(cache.pooled[0], brute, atol=1e-15)

    def test_pool_of_constant_rows(self, setup):
        config, _ = setup
        params = init_parameters(config)
        # a zero gain leaves every encoder row, prefix rows included, at beta
        params["final_ln.gamma"][:] = 0.0
        params["final_ln.beta"][:] = np.arange(1.0, 1.0 + config.hidden_dim)
        layout = InputLayout("SR", (CLS_ID, -1, -1, -1, -1, 5, SEP_ID, 8), 4)
        longer = assemble_input("SR", tuple(range(4, 24)), _ids(25, 26), None, config)
        cache = forward_batch(params, config, [layout, longer])
        assert cache.pool_mask(0).tolist() == [True] + [False] * 4 + [True] * 3
        assert cache.pool_counts[0] == 4
        assert np.array_equal(cache.pooled[0], params["final_ln.beta"])

    def test_classify_probabilities(self, setup):
        config, params = setup
        layouts = [
            assemble_input("SDR", _ids(5 + i, 6), _ids(8, 9 + i), _ids(10, 11, 12 + i), config)
            for i in range(20)
        ]
        probs = forward_batch(params, config, layouts).probs
        assert probs.shape == (20, 2)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)
        assert np.all((0.0 <= probs) & (probs <= 1.0))

    def test_classify_saturation_and_symmetry(self, setup):
        config, _ = setup
        params = init_parameters(config)
        params["head.w3"][:] = 0.0
        params["head.b3"][:] = 0.0
        layout = assemble_input("SR", _ids(5, 6), _ids(8,), None, config)
        probs = forward_batch(params, config, [layout]).probs
        assert probs[0].tolist() == [0.5, 0.5]
        assert score(params, config, "SR", _ids(5, 6), _ids(8,), None).score == 0.5
        params["head.b3"][:] = (0.0, 20.0)
        assert forward_batch(params, config, [layout]).probs[0, 1] > 0.999

    def test_score_range_and_scenarios(self, setup):
        config, params = setup
        assert 0.0 <= score(params, config, "SR", _ids(5,), _ids(8,), None).score <= 1.0
        assert 0.0 <= score(params, config, "SD", _ids(5,), None, _ids(9,)).score <= 1.0
        assert 0.0 <= score(params, config, "SDR", _ids(5,), _ids(8,), _ids(9,)).score <= 1.0

    def test_nonfinite_raises(self, setup):
        config, _ = setup
        params = init_parameters(config)
        params["tok_emb"][5, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="numerical divergence"):
                score(params, config, "SR", _ids(5, 6), _ids(8,), None)


def _desk_setup(n_rows, seed=5):
    """The default 64-wide, 4-head, 2-layer encoder with perturbed
    parameters, and layouts of every scenario with lengths spread over
    several hundred tokens."""
    config = ModelConfig(vocab_size=500, init_seed=seed)
    params = init_parameters(config)
    rng = np.random.default_rng(seed)
    for name in params:
        params[name] += rng.normal(scale=0.05, size=params[name].shape)

    def draw(lo, hi):
        return tuple(int(v) for v in rng.integers(4, 500, size=int(rng.integers(lo, hi))))

    layouts = [
        assemble_input(sc, draw(1, 140), draw(1, 60), draw(1, 300), config)
        for sc in ("SR", "SD", "SDR") * (n_rows // 3)
    ]
    return config, params, layouts


class TestPacking:
    def test_mixed_length_batches_match_padded_oracle(self):
        config, params, layouts = _desk_setup(24)
        for start in range(0, len(layouts), 8):
            batch = layouts[start : start + 8]
            assert len({layout.length for layout in batch}) == len(batch)
            packed = forward_batch(params, config, batch).probs
            padded = oracles.forward_padded(params, batch, config.n_heads)
            assert np.allclose(packed, padded, rtol=0, atol=1e-12)

    def test_one_row_equals_padded_oracle_exactly(self):
        config, params, layouts = _desk_setup(12)
        for layout in layouts:
            packed = forward_batch(params, config, [layout]).probs
            padded = oracles.forward_padded(params, [layout], config.n_heads)
            assert packed.tobytes() == padded.tobytes()

    def test_probabilities_are_batch_invariant(self):
        """A row's probabilities are the same bytes alone and inside batches
        of any order and size.

        This relies on one property of the BLAS numpy links: row i of
        ``A @ W`` does not depend on A's other rows whenever A has two or
        more rows (OpenBLAS's gemm computes each output row the same way
        wherever it sits). A lone row takes gemv, which rounds differently,
        so the head runs one row at a time in every batch. A BLAS without
        the property fails this test; the test is not to be loosened.
        """
        config, params, layouts = _desk_setup(24)
        alone = [forward_batch(params, config, [layout]).probs.tobytes() for layout in layouts]
        rng = np.random.default_rng(0)
        for size in (2, 3, 5, 8, 13, 24):
            for _ in range(2):
                pick = rng.permutation(len(layouts))[:size]
                probs = forward_batch(params, config, [layouts[j] for j in pick]).probs
                for row, j in zip(probs, pick):
                    assert row[None].tobytes() == alone[j]

    def test_segments_tile_the_packed_rows(self, setup):
        config, params = setup
        layouts = [
            assemble_input("SR", _ids(5, 6), _ids(8,), None, config),
            assemble_input("SDR", tuple(range(4, 24)), _ids(25, 26), _ids(9, 10, 11), config),
            assemble_input("SD", _ids(7,), None, _ids(12,), config),
        ]
        cache = forward_batch(params, config, layouts)
        assert cache.h_enc.shape == (sum(layout.length for layout in layouts), config.hidden_dim)
        for i, layout in enumerate(layouts):
            assert cache.ids[cache.segment(i)].tolist() == list(layout.ids)
            assert cache.pool_counts[i] == layout.length - layout.n_prefix


def _cache_arrays(cache) -> list[np.ndarray]:
    """Every array a ``ForwardCache`` holds, layer caches and per-example
    attention lists included, in field order."""
    out = []
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        for item in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(item):
                out += _cache_arrays(item)
            elif isinstance(item, np.ndarray):
                out.append(item)
    return out


def _small_perturbed_examples():
    """A 16-wide encoder with perturbed parameters and two examples of each
    scenario, labelled 0 and 1 in turn. Its products are small enough that
    the BLAS runs them on one thread, so their bits do not depend on the
    thread count."""
    config = small_config(vocab_size=500, init_seed=5)
    params = init_parameters(config)
    rng = np.random.default_rng(5)
    for name in params:
        params[name] += rng.normal(scale=0.05, size=params[name].shape)

    def draw(lo, hi):
        return tuple(int(v) for v in rng.integers(4, 500, size=int(rng.integers(lo, hi))))

    examples = []
    for i, sc in enumerate(("SR", "SD", "SDR") * 2):
        candidate, reference, document = draw(1, 20), draw(1, 10), draw(1, 30)
        examples.append(ScenarioExample(
            sc, i % 2, candidate,
            reference=reference if sc in ("SR", "SDR") else None,
            document=document if sc in ("SD", "SDR") else None,
        ))
    return config, params, examples


def _small_perturbed_batch():
    """``_small_perturbed_examples`` as input layouts."""
    config, params, examples = _small_perturbed_examples()
    layouts = [
        assemble_input(ex.scenario, ex.candidate, ex.reference, ex.document, config)
        for ex in examples
    ]
    return config, params, layouts


# sha256 over the dtype name and bytes of every array in the float64
# ForwardCache of ``_small_perturbed_batch``, taken from the float64-only
# forward that preceded the dtype-generic one
FLOAT64_CACHE_SHA256 = "c55077a7bd0fbdc480ce57864da7a17670d6d1768c8879a0e01f4213d956e2ed"

# the summed loss, and sha256 over the dtype name and bytes of every
# gradient array, in ``param_shapes`` order, that ``backward`` returns for
# ``_small_perturbed_examples``; taken from the float64-only training step
FLOAT64_BACKWARD_LOSS = 3.875034375906192
FLOAT64_BACKWARD_SHA256 = "df496ff19131bf12f6b14ec88da4a1baafda4d4c42bbe38b2f56a89a667cf2a3"


class TestDtype:
    """The forward computes in the dtype of its parameters; scoring runs it
    in float32 on ``inference_params``."""

    def test_float32_params_give_a_float32_cache(self):
        config, params, layouts = _small_perturbed_batch()
        cache = forward_batch(inference_params(params), config, layouts)
        for arr in _cache_arrays(cache):
            if arr is cache.offsets or arr is cache.ids:
                assert arr.dtype == np.int64
            else:
                assert arr.dtype == np.float32

    def test_float64_cache_keeps_its_bits(self):
        config, params, layouts = _small_perturbed_batch()
        cache = forward_batch(params, config, layouts)
        digest = hashlib.sha256()
        for arr in _cache_arrays(cache):
            assert arr.dtype == (np.int64 if arr is cache.offsets or arr is cache.ids
                                 else np.float64)
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == FLOAT64_CACHE_SHA256

    def test_float64_backward_keeps_its_bits(self):
        """``backward`` and so ``grad_check`` stay the float64 reference
        that the float32 training step is checked against."""
        config, params, examples = _small_perturbed_examples()
        loss, grads = backward(params, config, examples)
        digest = hashlib.sha256()
        for name, arr in grads.items():
            assert arr.dtype == np.float64
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
        assert (loss, digest.hexdigest()) == (FLOAT64_BACKWARD_LOSS, FLOAT64_BACKWARD_SHA256)

    def test_float32_probabilities_near_float64(self):
        config, params, layouts = _small_perturbed_batch()
        p64 = forward_batch(params, config, layouts).probs
        p32 = forward_batch(inference_params(params), config, layouts).probs
        assert np.abs(p32.astype(np.float64) - p64).max() < 1e-5

    def test_score_on_float64_params_casts_like_inference_params(self):
        config, params, _ = _small_perturbed_batch()
        cast = inference_params(params)
        cand, ref, doc = _ids(5, 6, 7), _ids(8, 9), _ids(10, 11, 12, 13)
        for sc in ("SR", "SD", "SDR"):
            got = score(params, config, sc, cand, ref, doc)
            layout = assemble_input(sc, cand, ref, doc, config)
            assert got.score == float(forward_batch(cast, config, [layout]).probs[0, 1])
            assert score(cast, config, sc, cand, ref, doc) == got

    def test_float32_params_pass_uncopied(self):
        config, params, _ = _small_perturbed_batch()
        cast = inference_params(params)
        assert all(cast[name].dtype == np.float32 for name in params)
        again = inference_params(cast)
        assert all(again[name] is cast[name] for name in params)

    def test_value_outside_float32_range_names_its_parameter(self):
        config, params, _ = _small_perturbed_batch()
        params["layer1.ffn.w2"][3, 2] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"^parameter layer1\.ffn\.w2 holds "
                               r"-1e\+39, outside the float32 range$"):
                inference_params(params)
            with pytest.raises(FloatingPointError, match="layer1.ffn.w2"):
                score(params, config, "SR", _ids(5, 6), _ids(8,), None)

    def test_nan_and_infinity_reach_the_forward(self):
        config, params, _ = _small_perturbed_batch()
        params["tok_emb"][5, 0] = np.nan
        params["tok_emb"][6, 0] = -np.inf
        cast = inference_params(params)
        assert np.isnan(cast["tok_emb"][5, 0]) and cast["tok_emb"][6, 0] == -np.inf
        for token in (5, 6):
            with pytest.raises(FloatingPointError, match="numerical divergence"):
                score(params, config, "SR", _ids(token, 7), _ids(8,), None)

    def test_float32_overflow_raises_without_warnings(self):
        """A gain of 3e38 is in float32 range, but the normalized rows it
        scales pass it, so the float32 encoding overflows where the float64
        one does not."""
        config, params, layouts = _small_perturbed_batch()
        params["final_ln.gamma"][:] = 3e38
        assert np.isfinite(forward_batch(params, config, layouts[:1]).probs).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="numerical divergence"):
                score(params, config, "SR", _ids(5, 6), _ids(8,), None)


class TestKernelsMatchDenseExpressions:
    """The chunked, in-place kernels equal their dense expressions bit for
    bit; the seeded training trajectory relies on it."""

    @pytest.mark.parametrize("shape", [(2,), (3, 5), (7, 37, 41)])
    def test_softmax_last(self, shape):
        x = np.random.default_rng(1).normal(scale=4.0, size=shape)
        assert np.array_equal(_softmax_last(x), oracles.softmax_last_dense(x))
        assert np.array_equal(_softmax_last(x.T), oracles.softmax_last_dense(x.T))

    def test_attention_probs_match_dense_softmax(self):
        rng = np.random.default_rng(2)
        scale = np.sqrt(16)
        for t in (1, 17, 91):
            scores = rng.normal(scale=8.0, size=(1, 4, t, t))
            scores[0, 0, 0, :4] = 0.0  # signed zeros after scaling
            scores[0, 1, 0, :4] = -0.0
            expected = oracles.softmax_last_dense(scores / scale)
            got = _attention_probs(scores.copy(), scale)
            assert np.array_equal(got, expected)

    # larger than one chunk, with row widths that do not divide it
    @pytest.mark.parametrize("shape", [(9,), (6, 130, 64), (3, 50, 257)])
    def test_gelu_parts_and_grad(self, shape):
        x = np.random.default_rng(3).normal(scale=3.0, size=shape)
        assert x.size > _CHUNK or len(shape) == 1
        act, t = _gelu_parts(x)
        expected_act, expected_t = oracles.gelu_parts_dense(x)
        assert np.array_equal(act, expected_act)
        assert np.array_equal(t, expected_t)
        expected_grad = oracles.gelu_grad_dense(x, expected_t)
        assert np.array_equal(_gelu_grad(x, t, upstream=np.ones_like(x)), expected_grad)
        upstream = np.random.default_rng(4).normal(size=shape)
        assert np.array_equal(_gelu_grad(x, t, upstream), expected_grad * upstream)


class TestFusion:
    def test_documented_values(self):
        assert fuse(0.4, 0.6, "arithmetic_mean") == pytest.approx(0.5)
        assert fuse(0.25, 1.0, "geometric_mean") == pytest.approx(0.5)
        assert fuse(0.4, 0.6, "min") == 0.4
        assert fuse(0.4, 0.6, "max") == 0.6

    def test_default_is_arithmetic(self):
        assert DEFAULT_FUSION == "arithmetic_mean"
        assert fuse(0.2, 0.4) == pytest.approx(0.3)

    def test_ordering_holds_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a, b = rng.uniform(0, 1, size=2)
            values = [fuse(a, b, m) for m in ("min", "geometric_mean", "arithmetic_mean", "max")]
            assert values == sorted(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fuse(1.2, 0.5)
        with pytest.raises(ValueError):
            fuse(0.5, -0.1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            fuse(0.5, 0.5, "median")

    def test_method_enumeration_closed(self):
        assert set(FUSION_METHODS) == {"min", "max", "geometric_mean", "arithmetic_mean"}


class TestInit:
    def test_shapes_and_determinism(self):
        config = small_config()
        params = init_parameters(config)
        shapes = param_shapes(config)
        assert list(params) == list(shapes)
        for name, arr in params.items():
            assert arr.shape == shapes[name]
            assert arr.dtype == np.float64
        again = init_parameters(config)
        for name in params:
            assert np.array_equal(params[name], again[name])

    def test_seed_changes_weights(self):
        a = init_parameters(small_config(init_seed=1))
        b = init_parameters(small_config(init_seed=2))
        assert not np.array_equal(a["tok_emb"], b["tok_emb"])

    def test_norms_and_biases_start_neutral(self):
        params = init_parameters(small_config())
        assert np.all(params["layer0.attn_ln.gamma"] == 1.0)
        assert np.all(params["layer0.ffn_ln.beta"] == 0.0)
        assert np.all(params["head.b1"] == 0.0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = small_config()
        params = init_parameters(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == np.float64

    def test_resave_is_byte_identical(self, tmp_path):
        config = small_config()
        params = init_parameters(config)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(params, config, first)
        loaded, loaded_config = load_checkpoint(first)
        save_checkpoint(loaded, loaded_config, second)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        config = small_config()
        params = init_parameters(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        before = path.read_bytes()
        broken = dict(params)
        broken[max(params)] = np.array(["not a number"])  # written last
        with pytest.raises(ValueError):
            save_checkpoint(broken, config, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_with_a_dropout_key_loads(self, tmp_path):
        # checkpoints written while ModelConfig had a dropout field
        config = small_config()
        params = init_parameters(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        data = path.read_bytes()
        n = len(CHECKPOINT_MAGIC)
        length = int.from_bytes(data[n : n + 4], "little")
        blob = data[n + 4 : n + 4 + length]
        old = b'{"dropout": 0.0, ' + blob[1:]
        path.write_bytes(
            data[:n] + len(old).to_bytes(4, "little") + old + data[n + 4 + length :]
        )
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name in params:
            assert np.array_equal(loaded[name], params[name])

    def test_huge_table_in_a_short_file_is_truncation(self, tmp_path):
        # a config that declares a 32 GB token table, in a file that holds
        # none of it, is rejected before anything is allocated
        config = ModelConfig(vocab_size=2**31, hidden_dim=2, n_layers=1, n_heads=1,
                             ffn_dim=2, prefix_len=1, max_len=5, mlp_dims=(2, 2, 2))
        blob = config.to_json().encode("utf-8")
        name = b"tok_emb"
        path = tmp_path / "huge.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob
            + (1).to_bytes(4, "little") + len(name).to_bytes(2, "little") + name
            + bytes([2]) + (2**31).to_bytes(4, "little") + (2).to_bytes(4, "little")
        )
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT0" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        config = small_config()
        params = init_parameters(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError):
            load_checkpoint(clipped)

"""Encoder, prefix conditioning, head, fusion and checkpoint tests."""

import numpy as np
import pytest

import oracles
from umse.corpus import CLS_ID, SEP_ID
from umse.model import (
    _CHUNK,
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
    init_parameters,
    load_checkpoint,
    param_names,
    param_shapes,
    prefix_permutation,
    save_checkpoint,
    score,
)


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
    return forward_batch(params, config, [layout]).emb[0, 1 : 1 + n]


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

    def test_dropout_not_supported(self):
        with pytest.raises(ValueError):
            small_config(dropout=0.1)

    def test_json_roundtrip(self):
        config = small_config()
        assert ModelConfig.from_json(config.to_json()) == config


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
        config = small_config()
        layout = assemble_input("SR", _ids(5, 6), _ids(8,), None, config, use_prefix=False)
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
        assert cache.h_enc.shape == (1, layout.length, config.hidden_dim)
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
        h = cache.h_enc[0]
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
        padding = [False] * (longer.length - layout.length)
        assert cache.pool_mask[0].tolist() == [True] + [False] * 4 + [True] * 3 + padding
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
        out = score(params, config, "SDR", _ids(5,), _ids(8,), _ids(9,))
        assert out.scenario == "SDR"

    def test_nonfinite_raises(self, setup):
        config, _ = setup
        params = init_parameters(config)
        params["tok_emb"][5, 0] = np.inf
        with np.errstate(invalid="ignore"):
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

    def test_attention_probs_match_masked_dense_softmax(self):
        rng = np.random.default_rng(2)
        n, heads, t = 5, 4, 91
        lengths = [91, 60, 1, 17, 90]
        scores = rng.normal(scale=8.0, size=(n, heads, t, t))
        scores[0, 0, 0, :4] = 0.0  # signed zeros after scaling
        scores[0, 0, 1, :4] = -0.0
        scale = np.sqrt(16)
        bias = np.zeros((n, 1, 1, t))
        for i, length in enumerate(lengths):
            bias[i, ..., length:] = -1.0e30
        expected = oracles.softmax_last_dense(scores / scale + bias)
        got = _attention_probs(scores.copy(), lengths, scale)
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
        assert np.array_equal(_gelu_grad(x, t), expected_grad)
        assert np.array_equal(_gelu_grad(x), oracles.gelu_grad_dense(x))


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
        assert set(params) == set(param_names(config))
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

"""Loss, manual gradients, optimizer and training-loop tests."""

import dataclasses
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

import oracles
from umse.corpus import build_vocab, gen_synthetic_corpus
from umse.datagen import (
    DOCUMENT_MATCHING,
    SUMMARY_MATCHING,
    ScenarioExample,
    generate_dataset,
    to_scenario_examples,
)
from umse import model, training
from umse.model import (
    ModelConfig,
    WorkerPool,
    forward_batch,
    inference_params,
    init_parameters,
    load_checkpoint,
    param_views,
    score,
)
from umse.retrieval import build_index
from umse.training import (
    Gradients,
    TrainConfig,
    TrainReport,
    _adamw_task,
    _count_correct,
    _softmax_backward,
    _TrainJob,
    backward,
    clip_gradients,
    cross_entropy_loss,
    grad_check,
    tiny_config,
    train,
)


@pytest.fixture(scope="module")
def streams():
    """Tiny synthetic corpus turned into per-scenario example streams."""
    corpus = gen_synthetic_corpus(n_docs=24, topic_count=4, rng_seed=12)
    vocab = build_vocab(corpus, min_frequency=1)
    index = build_index(corpus, vocab)
    sm = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=16, rng_seed=1)
    dm = generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=16, rng_seed=2)
    out = {"SR": [], "SD": [], "SDR": []}
    for ex in to_scenario_examples(sm + dm, corpus, vocab):
        out[ex.scenario].append(ex)
    config = ModelConfig(
        vocab_size=len(vocab.token_to_id),
        hidden_dim=16,
        n_layers=1,
        n_heads=2,
        ffn_dim=32,
        prefix_len=4,
        max_len=128,
        init_seed=12,
    )
    return config, out


class TestCrossEntropy:
    def test_half_probability(self):
        assert cross_entropy_loss([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        assert cross_entropy_loss([1.0 - 1e-12], [1]) < 1e-9
        assert cross_entropy_loss([1e-12], [0]) < 1e-9

    def test_sums_over_batch(self):
        assert cross_entropy_loss([0.5, 0.5], [1, 0]) == pytest.approx(2 * math.log(2.0))

    def test_clamp_keeps_loss_finite(self):
        assert math.isfinite(cross_entropy_loss([0.0], [1]))
        assert math.isfinite(cross_entropy_loss([1.0], [0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss([0.5, 0.5], [1])


def _sr_batch(config, labels=(1, 0)):
    rng = np.random.default_rng(3)
    batch = []
    for c in labels:
        cand = tuple(int(v) for v in rng.integers(4, config.vocab_size, size=6))
        ref = tuple(int(v) for v in rng.integers(4, config.vocab_size, size=5))
        batch.append(ScenarioExample("SR", c, cand, reference=ref))
    return batch


class TestBackward:
    def test_saturated_batch_has_negligible_gradient(self):
        config = tiny_config()
        params = init_parameters(config)
        params["head.b3"][:] = (-25.0, 25.0)
        loss, grads = backward(params, config, _sr_batch(config, labels=(1, 1)))
        assert loss < 1e-9
        total = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert total < 1e-6

    def test_unused_vocabulary_rows_get_zero_gradient(self):
        config = tiny_config()
        params = init_parameters(config)
        batch = [ScenarioExample("SR", 1, (5, 6), reference=(7,))]
        _, grads = backward(params, config, batch)
        used = {0, 1, 5, 6, 7}  # CLS and SEP appear in every layout
        for row in range(config.vocab_size):
            if row not in used:
                assert np.all(grads["tok_emb"][row] == 0.0)

    def test_prefix_gradient_present_per_scenario(self):
        config = tiny_config()
        params = init_parameters(config)
        for scenario in ("SR", "SD", "SDR"):
            ex = ScenarioExample(
                scenario,
                1,
                (5, 6),
                reference=(7,) if scenario in ("SR", "SDR") else None,
                document=(8, 9) if scenario in ("SD", "SDR") else None,
            )
            _, grads = backward(params, config, [ex])
            assert float(np.abs(grads["prefix_base"]).sum()) > 0.0

    def test_no_prefix_batch_leaves_prefix_gradient_zero(self):
        """A prefix_len 0 model has an empty bank, so its gradient is empty
        too, while every other parameter still gets one."""
        config = dataclasses.replace(tiny_config(), prefix_len=0)
        params = init_parameters(config)
        _, grads = backward(params, config, _sr_batch(config))
        assert grads["prefix_base"].shape == (0, config.hidden_dim)
        assert float(np.abs(grads["head.w1"]).sum()) > 0.0

    def test_empty_batch_rejected(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            backward(init_parameters(config), config, [])

    def test_reused_buffers_give_the_fresh_gradient(self):
        """``_sum_examples`` overwrites a ``Gradients`` it reuses, as each
        training step does, re-zeroing only the token rows it touched."""
        config = tiny_config()
        params = init_parameters(config)
        first = [ScenarioExample("SR", 1, (5, 6, 7, 8), reference=(9, 10))]
        second = [ScenarioExample("SD", 0, (11, 12), document=(13, 14, 15))]
        _, reused = backward(params, config, first)
        layouts = [training.example_layout(ex, config) for ex in second]
        labels = [ex.label for ex in second]
        slots = training._Slots(config, np.empty((1, training._slot_size(config))))
        training._example_gradients(params, config, layouts, labels, slots.views)
        training._sum_examples(slots, layouts, labels, reused)
        _, fresh = backward(params, config, second)
        for name in fresh:
            assert np.array_equal(reused[name], fresh[name])
        assert set(reused.rows["tok_emb"]) == {0, 1, 11, 12, 13, 14, 15}
        untouched = np.setdiff1d(np.arange(config.vocab_size), reused.rows["tok_emb"])
        assert np.all(reused["tok_emb"][untouched] == 0.0)

    def test_packed_batch_gradient_is_the_sum_of_its_examples(self):
        """No cross-contamination: a packed batch of mixed scenarios and
        lengths has the summed loss and gradients of its examples run one
        by one."""
        config = tiny_config()
        params = init_parameters(config)
        rng = np.random.default_rng(8)
        params = {name: p + rng.normal(scale=0.05, size=p.shape) for name, p in params.items()}

        def draw(k):
            return tuple(int(v) for v in rng.integers(4, config.vocab_size, size=k))

        batch = [
            ScenarioExample(
                sc, j % 2, draw(int(rng.integers(1, 9))),
                reference=draw(int(rng.integers(1, 12))) if sc in ("SR", "SDR") else None,
                document=draw(int(rng.integers(1, 20))) if sc in ("SD", "SDR") else None,
            )
            for j, sc in enumerate(("SR", "SD", "SDR") * 3)
        ]
        loss, packed = backward(params, config, batch)
        total = 0.0
        summed = {name: np.zeros_like(p) for name, p in params.items()}
        for ex in batch:
            one_loss, grads = backward(params, config, [ex])
            total += one_loss
            for name in summed:
                summed[name] += grads[name]
        assert loss == pytest.approx(total, rel=1e-12)
        for name in summed:
            assert np.allclose(packed[name], summed[name], rtol=0, atol=1e-12), name
        assert float(np.abs(packed["prefix_base"]).sum()) > 0.0

    @pytest.mark.parametrize("with_prefix", [True, False])
    def test_gradient_is_the_in_order_sum_of_its_examples_exactly(self, with_prefix):
        """Every parameter's batch gradient is the left-to-right sum, from
        zero, of the examples' own gradients, bit for bit: with tokens
        repeated within and across examples, and whatever split the
        examples would get over workers; with a prefix bank and with
        none (prefix_len 0)."""
        config = dataclasses.replace(tiny_config(), prefix_len=4 if with_prefix else 0)
        rng = np.random.default_rng(21)
        params = {
            name: p + rng.normal(scale=0.05, size=p.shape)
            for name, p in init_parameters(config).items()
        }

        def draw(k):
            return tuple(int(v) for v in rng.integers(4, 12, size=k))

        batch = [
            ScenarioExample(
                sc, j % 2, draw(int(rng.integers(2, 9))),
                reference=draw(int(rng.integers(2, 12))) if sc in ("SR", "SDR") else None,
                document=draw(int(rng.integers(2, 20))) if sc in ("SD", "SDR") else None,
            )
            for j, sc in enumerate(("SR", "SDR", "SD", "SDR", "SR", "SD", "SR"))
        ]
        _, packed = backward(params, config, batch)
        summed = {name: np.zeros_like(p) for name, p in params.items()}
        for ex in batch:
            _, grads = backward(params, config, [ex])
            for name in summed:
                summed[name] += grads[name]
        for name in summed:
            assert np.array_equal(packed[name], summed[name]), name
        assert float(np.abs(packed["tok_emb"]).sum()) > 0.0

    def test_softmax_backward_matches_dense_expression(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(83), size=(6, 4, 83))
        dprobs = rng.normal(size=probs.shape)
        expected = oracles.softmax_backward_dense(probs, dprobs)
        assert np.array_equal(_softmax_backward(probs, dprobs.copy()), expected)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_float32_example_gradients_near_float64(self, streams, epochs):
        """A training step's float32 gradient of each example, over its
        whole slot (probabilities, embedding-input rows and every other
        parameter), is within 5e-6 of the float64 reference in relative
        norm, at init and after the 12 steps of an epoch; the worst case
        measured is 4.6e-7."""
        config, datasets = streams
        params = init_parameters(config)
        if epochs:
            params, _ = train(
                params, config, datasets, TrainConfig(learning_rate=1e-3, epochs=epochs),
                log_stream=io.StringIO(),
            )
        cast = inference_params(params)
        worst = 0.0
        for ex in (ex for sc in ("SR", "SD", "SDR") for ex in datasets[sc]):
            layouts = [training.example_layout(ex, config)]
            slots = []
            for p, dtype in ((params, np.float64), (cast, np.float32)):
                slot = training._Slots(config, np.zeros((1, training._slot_size(config)), dtype))
                training._example_gradients(p, config, layouts, [ex.label], slot.views)
                slots.append(slot.flat[0])
            g64, g32 = slots
            worst = max(worst, np.linalg.norm(g32 - g64) / np.linalg.norm(g64))
        assert 0.0 < worst < 5e-6

    def test_nonfinite_parameters_raise(self):
        config = tiny_config()
        params = init_parameters(config)
        params["final_ln.gamma"][0] = np.nan
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError):
                backward(params, config, _sr_batch(config))


class TestGradCheck:
    def test_tiny_model_matches_finite_differences(self):
        started = time.monotonic()
        err = grad_check()
        elapsed = time.monotonic() - started
        assert err < 1e-4
        assert elapsed < 60.0

    def test_deterministic_under_seed(self):
        assert grad_check(n_coords=25, seed=5) == grad_check(n_coords=25, seed=5)

    def test_no_prefix_model_matches_finite_differences(self):
        config = dataclasses.replace(tiny_config(), prefix_len=0)
        assert grad_check(config, n_coords=50) < 1e-4

    def test_finite_differences_exact_on_linear_map(self):
        # same h as grad_check; a purely linear loss has no truncation term
        rng = np.random.default_rng(0)
        w = rng.normal(size=12)
        x = rng.normal(size=12)
        h = 1e-5
        for idx in range(12):
            up = w.copy()
            up[idx] += h
            down = w.copy()
            down[idx] -= h
            g_fd = (float(up @ x) - float(down @ x)) / (2 * h)
            assert abs(g_fd - x[idx]) / max(abs(x[idx]), 1e-8) < 1e-9


def _flat_gradients(arrays):
    """Gradients whose arrays view one flat buffer holding copies of
    ``arrays``, in their order, as ``backward`` lays them out."""
    flat = np.concatenate([g.ravel() for g in arrays.values()])
    return Gradients(param_views(flat, {name: g.shape for name, g in arrays.items()}), flat)


def _adamw_job(train_config, prefix_len=4, vocab_size=48):
    """A training job without examples: only its parameter, moment and
    gradient buffers are used."""
    config = dataclasses.replace(tiny_config(vocab_size), prefix_len=prefix_len)
    return _TrainJob(config, train_config, [], [])


def _run_adamw(job, parts, t, rows):
    """AdamW step ``t`` on ``job.grads``, whose token-table rows outside
    the sorted ``rows`` are zero, run as ``_train_step`` runs it, over an
    inline pool of ``parts`` workers."""
    job.touched[: len(rows)] = rows
    pool = WorkerPool(job, workers=parts)
    tasks = [(part, pool.workers, t, len(rows)) for part in range(pool.workers)]
    for _ in pool.map(_adamw_task, tasks):
        pass


def _touch_schedule(rng, vocab):
    """Eight AdamW steps' sorted touched token rows, each with the rows
    among them whose gradient is exactly zero. Rows 0-2099 are touched at
    step 1 and 60% of rows 2100-4999 then too, 10% of rows 5000-8999
    first at step 2 and 20% of rows 9000-9999 first at step 4; each is
    idle for several steps after that but for a few rows again at steps
    3, 5, 7 and 8. Rows from 10000 on stay untouched until step 6 touches
    every row. At step 3 row 9500, not yet seen, and row 100, seen, get a
    zero gradient."""

    def share(lo, hi, fraction):
        return rng.choice(np.arange(lo, hi), int(fraction * (hi - lo)), replace=False)

    def few():
        return rng.integers(0, 9000, size=30)

    zero = [100, 9500]
    steps = [
        (np.arange(2100), share(2100, 5000, 0.6)),
        (share(5000, 9000, 0.1),),
        (few(), zero),
        (share(9000, 10000, 0.2),),
        (few(),),
        (np.arange(vocab),),
        (few(),),
        (few(),),
    ]
    return [
        (np.unique(np.concatenate(parts)), zero if t == 3 else [])
        for t, parts in enumerate(steps, start=1)
    ]


def _decay_paths(job, parts):
    """The decay-only path each chunk of each part's share of the token
    table takes at the next step, from the rows seen so far."""
    width = job.params["tok_emb"].shape[1]
    paths = set()
    for part in range(parts):
        lo, hi = (len(job.seen) * k // parts for k in (part, part + 1))
        for chunk in model._row_chunks(hi - lo, width):
            flags = job.seen[lo:hi][chunk]
            n = np.count_nonzero(flags)
            if n == 0:
                paths.add("p-only")
            elif n >= training._SEEN_IN_PLACE * len(flags):
                paths.add("in place")
            else:
                paths.add("gathered")
    return paths


class TestOptimizer:
    def test_step_opposes_gradient(self):
        job = _adamw_job(TrainConfig(learning_rate=0.1, weight_decay=0.0))
        job.flat[0][:] = 1.0
        job.grads["head.b3"][:] = (1.0, -1.0)
        _run_adamw(job, 2, 1, [])
        assert job.params["head.b3"][0] < 1.0
        assert job.params["head.b3"][1] > 1.0
        assert np.all(job.params["head.w3"] == 1.0)

    def test_decoupled_decay_with_zero_gradient(self):
        config = TrainConfig(learning_rate=0.01)
        job = _adamw_job(config)
        job.flat[0][:] = 2.0
        _run_adamw(job, 3, 1, [])
        decayed = 2.0 * (1.0 - 0.01 * config.weight_decay)
        assert job.flat[0] == pytest.approx(decayed, rel=1e-15, abs=0)

    @pytest.mark.parametrize("with_prefix", [True, False])
    def test_adamw_matches_dense_expression_over_steps(self, with_prefix):
        """Eight steps of the row-split update, over 1, 2 and 3 parts, equal
        the dense AdamW expression bit for bit, signs of zero included, on
        every trained parameter and its moments. The token table gets a
        row-sparse gradient whose untouched rows still decay, and its rows
        take every course: touched and then idle for several steps, first
        touched at a later step, never touched, touched with a gradient of
        exactly zero, and from step 7 all seen. Its chunks take each of the
        three decay-only paths, and each third of the table spans more than
        one chunk. Without a prefix (prefix_len 0) the bank is empty and
        the dense update starts right after the token table."""
        # a batch this large can touch every row of the table
        config = TrainConfig(learning_rate=1.0e-3, batch_size=300)
        vocab = 13000
        for parts in (1, 2, 3):
            rng = np.random.default_rng(4)
            job = _adamw_job(config, 4 if with_prefix else 0, vocab)
            assert job.params["prefix_base"].size == (4 * 16 if with_prefix else 0)
            job.flat[0][:] = rng.uniform(-0.1, 0.1, size=job.flat[0].size)
            job.params["tok_emb"][[9500, 11000, 12999]] = -0.0
            trained = list(job.params)
            expected = {name: job.params[name].copy() for name in trained}
            m = {name: np.zeros_like(p) for name, p in expected.items()}
            v = {name: np.zeros_like(p) for name, p in expected.items()}
            paths = set()
            for t, (rows, zero_rows) in enumerate(_touch_schedule(rng, vocab), start=1):
                paths |= _decay_paths(job, parts)
                job.grads.flat[:] = rng.normal(size=job.grads.flat.size)
                job.grads["tok_emb"][np.setdiff1d(np.arange(vocab), rows)] = 0.0
                job.grads["tok_emb"][zero_rows] = 0.0
                dense = {name: job.grads[name].copy() for name in trained}
                _run_adamw(job, parts, t, rows)
                oracles.adamw_step_dense(expected, dense, m, v, t, 1.0e-3)
                for name in trained:
                    assert job.params[name].tobytes() == expected[name].tobytes(), (parts, t, name)
                    assert job.m[name].tobytes() == m[name].tobytes(), (parts, t, name)
                    assert job.v[name].tobytes() == v[name].tobytes(), (parts, t, name)
            assert paths == {"p-only", "gathered", "in place"}, parts

    def test_clip_of_row_sparse_gradients_matches_dense(self):
        rng = np.random.default_rng(6)
        dense = {"tok_emb": np.zeros((500, 8)), "w": rng.normal(size=(8, 8))}
        rows = np.array([3, 70, 71, 499])
        dense["tok_emb"][rows] = rng.normal(size=(4, 8))
        sparse = _flat_gradients(dense)
        sparse.rows = {"tok_emb": rows}
        dense = _flat_gradients(dense)
        assert clip_gradients(sparse, 1.0) == clip_gradients(dense, 1.0)
        for name in dense:
            assert np.array_equal(sparse[name], dense[name])
        assert np.array_equal(sparse.flat, dense.flat)

    def test_clip_reads_only_touched_rows(self):
        rng = np.random.default_rng(9)
        dense = {"tok_emb": np.zeros((25000, 64)), "w": rng.normal(size=(64, 64))}
        rows = np.unique(rng.integers(0, 25000, size=400))
        dense["tok_emb"][rows] = rng.normal(size=(len(rows), 64))
        sparse = _flat_gradients(dense)
        sparse.rows = {"tok_emb": rows}
        expected = math.sqrt(sum(float((g**2).sum()) for g in dense.values()))
        norm = clip_gradients(sparse, 1.0)
        assert norm == pytest.approx(expected, rel=1e-12, abs=0)
        factor = 1.0 / norm
        for name, g in dense.items():
            assert np.array_equal(sparse[name], g * factor)

    def test_clip_rescales_only_above_threshold(self):
        grads = _flat_gradients({"a": np.array([3.0, 0.0]), "b": np.array([4.0])})
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)
        small = _flat_gradients({"a": np.array([0.3])})
        kept = small["a"].copy()
        clip_gradients(small, max_norm=1.0)
        assert np.array_equal(small["a"], kept)


class TestTrainConfig:
    def test_defaults_match_contract(self):
        config = TrainConfig()
        assert config.learning_rate == pytest.approx(3.0e-5)
        assert config.batch_size == 8
        assert config.seed == 12
        assert config.scenario is None
        assert config.active_scenarios() == ("SR", "SD", "SDR")
        assert len(dataclasses.fields(TrainConfig)) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=11)
        with pytest.raises(ValueError, match="unknown scenario: XY"):
            TrainConfig(scenario="XY")
        with pytest.raises(TypeError):
            TrainConfig(mode="single_scenario")
        assert TrainConfig(scenario="SR").active_scenarios() == ("SR",)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -1.0e-3),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("weight_decay", -0.01),
            ("clip_norm", float("nan")),
            ("clip_norm", float("inf")),
            ("clip_norm", 0.0),
            ("clip_norm", -1.0),
            ("target_accuracy", float("nan")),
            ("target_accuracy", -0.1),
            ("target_accuracy", 1.5),
        ],
    )
    def test_bad_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            TrainConfig(**{field: value})

    def test_float_edges_accepted(self):
        TrainConfig(weight_decay=0.0, clip_norm=None, target_accuracy=0.0)
        TrainConfig(clip_norm=1.0e-9, target_accuracy=1.0)


class TestTrain:
    def test_step_count_arithmetic(self, streams):
        config, datasets = streams
        ten = {"SR": datasets["SR"][:10]}
        tconfig = TrainConfig(
            epochs=1, scenario="SR", holdout_fraction=0.0
        )
        _, report = train(
            init_parameters(config), config, ten, tconfig, log_stream=io.StringIO()
        )
        assert report.total_steps == 2
        assert report.epochs_run == 1

    def test_unified_reports_three_scenario_accuracies(self, streams):
        config, datasets = streams
        tconfig = TrainConfig(epochs=1, holdout_fraction=0.2)
        _, report = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        assert set(report.holdout_accuracy[0]) == {"SR", "SD", "SDR"}
        assert all(0.0 <= v <= 1.0 for v in report.holdout_accuracy[0].values())

    def test_deterministic_under_seed(self, streams):
        config, datasets = streams
        tconfig = TrainConfig(epochs=2, holdout_fraction=0.2)
        params_a, report_a = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        params_b, report_b = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        assert report_a.epoch_losses == report_b.epoch_losses
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_loss_decreases_within_first_epoch(self):
        # long enough an epoch that post-learning steps dominate the mean
        corpus = gen_synthetic_corpus(n_docs=100, topic_count=8, rng_seed=12)
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        sm = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=100, rng_seed=1)
        dm = generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=100, rng_seed=2)
        datasets = {"SR": [], "SD": [], "SDR": []}
        for ex in to_scenario_examples(sm + dm, corpus, vocab):
            datasets[ex.scenario].append(ex)
        config = ModelConfig(
            vocab_size=len(vocab.token_to_id), hidden_dim=16, n_layers=1,
            n_heads=2, ffn_dim=32, prefix_len=4, max_len=128, init_seed=12,
        )
        tconfig = TrainConfig(learning_rate=3e-3, epochs=1, holdout_fraction=0.1)
        _, report = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        assert report.epoch_losses[0] < report.initial_loss

    def test_prefix_len_zero_trains_without_a_bank(self, streams):
        """The no-prefix ablation is a prefix_len 0 model: its bank is
        empty, its inputs have no prefix slots, and all three streams
        train it."""
        config, datasets = streams
        config = dataclasses.replace(config, prefix_len=0)
        init = init_parameters(config)
        tconfig = TrainConfig(learning_rate=1e-3, epochs=1, holdout_fraction=0.2)
        params, report = train(init, config, datasets, tconfig, log_stream=io.StringIO())
        assert params["prefix_base"].shape == (0, config.hidden_dim)
        assert not np.array_equal(params["tok_emb"], init["tok_emb"])
        assert set(report.holdout_accuracy[0]) == {"SR", "SD", "SDR"}

    def test_single_scenario_trains_one_stream(self, streams):
        config, datasets = streams
        tconfig = TrainConfig(
            epochs=1, scenario="SD", holdout_fraction=0.2
        )
        _, report = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        assert set(report.holdout_accuracy[0]) == {"SD"}

    def test_sr_update_moves_sd_scores(self, streams):
        """Training on SR alone moves the shared prefix bank, and with it
        the score of an SD example."""
        config, datasets = streams
        init = init_parameters(config)
        sd_example = datasets["SD"][0]

        def sd_score(params):
            return score(
                params, config, "SD", sd_example.candidate, document=sd_example.document
            ).score

        tconfig = TrainConfig(
            learning_rate=1e-3, epochs=1, scenario="SR"
        )
        params, _ = train(init, config, datasets, tconfig, log_stream=io.StringIO())
        assert not np.array_equal(params["prefix_base"], init["prefix_base"])
        assert sd_score(params) != sd_score(init)

    def test_token_rows_no_batch_touches_split_over_workers(self, streams, monkeypatch):
        """A worker's share of the token table may hold no row a batch
        touched; it still gets the decay-only update, and the result is
        the same bits for any worker count."""
        config, datasets = streams
        wide = dataclasses.replace(config, vocab_size=4 * config.vocab_size)
        tconfig = TrainConfig(epochs=1, holdout_fraction=0.2)
        trained = []
        for workers in (1, 3):
            monkeypatch.setattr(model, "_usable_cores", lambda: workers)
            params, _ = train(
                init_parameters(wide), wide, datasets, tconfig, log_stream=io.StringIO()
            )
            trained.append(params)
        for name in trained[0]:
            assert np.array_equal(trained[0][name], trained[1][name]), name
        unused = slice(config.vocab_size, None)  # rows no example can touch
        initial = init_parameters(wide)["tok_emb"][unused]
        assert not np.array_equal(trained[0]["tok_emb"][unused], initial)

    def test_float32_image_is_never_stale(self, streams, monkeypatch):
        """Before and after every step, on one worker and on two, the job's
        float32 image of the weights is the float32 cast of its float64
        weights, bit for bit: token rows no batch touches decay at every
        step, and their image follows."""
        config, datasets = streams
        wide = dataclasses.replace(config, vocab_size=4 * config.vocab_size)
        unused = slice(config.vocab_size, None)  # rows no example can touch
        initial = inference_params(init_parameters(wide))["tok_emb"][unused]
        step = training._train_step

        def assert_fresh(job):
            expected = inference_params(job.params)
            for name, image in job.params32.items():
                assert image.tobytes() == expected[name].tobytes(), name

        for workers in (1, 2):
            monkeypatch.setattr(model, "_usable_cores", lambda: workers)
            steps = []

            def checked_step(pool, job, *args):
                assert pool.workers == workers
                assert_fresh(job)
                loss = step(pool, job, *args)
                assert_fresh(job)
                steps.append(job.params32["tok_emb"][unused].copy())
                return loss

            monkeypatch.setattr(training, "_train_step", checked_step)
            _, report = train(
                init_parameters(wide), wide, datasets,
                TrainConfig(epochs=1, holdout_fraction=0.2), log_stream=io.StringIO(),
            )
            assert len(steps) == report.total_steps > 1
            assert not np.array_equal(steps[-1], initial)

    def test_missing_stream_rejected(self, streams):
        config, datasets = streams
        partial = {"SR": datasets["SR"]}
        with pytest.raises(ValueError, match="SD"):
            train(init_parameters(config), config, partial, TrainConfig(epochs=1))

    def test_divergence_aborts_with_report(self, streams):
        config, datasets = streams
        params = init_parameters(config)
        params["head.w3"][0, 0] = np.nan
        with np.errstate(all="ignore"):
            _, report = train(
                params, config, datasets, TrainConfig(epochs=2), log_stream=io.StringIO()
            )
        assert report.diverged

    def test_target_accuracy_stops_early(self, streams):
        config, datasets = streams
        tconfig = TrainConfig(epochs=3, holdout_fraction=0.2, target_accuracy=0.0)
        _, report = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        assert report.epochs_run == 1

    def test_checkpoint_written_and_loadable(self, streams, tmp_path):
        config, datasets = streams
        path = tmp_path / "out.ckpt"
        tconfig = TrainConfig(epochs=1, holdout_fraction=0.2)
        params, report = train(
            init_parameters(config), config, datasets, tconfig,
            checkpoint_path=str(path), log_stream=io.StringIO(),
        )
        assert report.checkpoint_path == str(path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name in params:
            assert np.array_equal(loaded[name], params[name])

    def test_epoch_log_lines_are_json(self, streams):
        config, datasets = streams
        log = io.StringIO()
        tconfig = TrainConfig(epochs=2, holdout_fraction=0.2)
        train(init_parameters(config), config, datasets, tconfig, log_stream=log)
        lines = [l for l in log.getvalue().splitlines() if l.strip()]
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            row = json.loads(line)
            assert row["epoch"] == i
            assert "mean_loss" in row and "holdout_accuracy" in row

    def test_report_json_shape(self, streams):
        config, datasets = streams
        tconfig = TrainConfig(epochs=1, holdout_fraction=0.2)
        _, report = train(
            init_parameters(config), config, datasets, tconfig, log_stream=io.StringIO()
        )
        row = json.loads(report.to_json())
        for key in ("epoch_losses", "holdout_accuracy", "best_epoch", "wall_clock_seconds"):
            assert key in row
        assert "mode" not in row

    def test_report_json_bytes(self):
        report = TrainReport(
            epochs_run=2,
            total_steps=14,
            initial_loss=0.6931471805599453,
            epoch_losses=[0.5, 0.25],
            holdout_accuracy=[{"SR": 0.5, "SD": 0.75, "SDR": 1.0}, {"SR": 1.0, "SD": 1.0, "SDR": 1.0}],
            best_epoch=2,
            wall_clock_seconds=1.25,
            checkpoint_path="m.ckpt",
        )
        assert report.to_json() == (
            '{"best_epoch": 2, "checkpoint_path": "m.ckpt", "diverged": false, '
            '"epoch_losses": [0.5, 0.25], "epochs_run": 2, "holdout_accuracy": '
            '[{"SD": 0.75, "SDR": 1.0, "SR": 0.5}, {"SD": 1.0, "SDR": 1.0, "SR": 1.0}], '
            '"initial_loss": 0.6931471805599453, "total_steps": 14, '
            '"wall_clock_seconds": 1.25}'
        )
        assert TrainReport(diverged=True).to_json() == (
            '{"best_epoch": null, "checkpoint_path": null, "diverged": true, '
            '"epoch_losses": [], "epochs_run": 0, "holdout_accuracy": [], '
            '"initial_loss": null, "total_steps": 0, '
            '"wall_clock_seconds": 0.0}'
        )


class TestEvaluateAccuracy:
    def test_matches_manual_count(self, streams):
        config, datasets = streams
        params = init_parameters(config)
        examples = datasets["SR"][:10]
        got = _count_correct(params, config, examples)
        manual = 0
        for ex in examples:
            s = score(params, config, "SR", ex.candidate, reference=ex.reference).score
            manual += int((s >= 0.5) == bool(ex.label))
        assert got == manual
        assert _count_correct(inference_params(params), config, examples) == got

    @pytest.mark.parametrize("gain", [3e38, 1e39])
    def test_float32_overflow_of_the_holdout_is_divergence(self, streams, gain, monkeypatch):
        """Training steps, like the holdout, run in float32. A gain of 3e38
        is in float32 range but overflows the first step's forward; 1e39 is
        an infinity in the float32 image of the weights. Either way training
        reports divergence before its first step, raises nothing and lets
        no numpy warning out, inline or in forked workers."""
        config, datasets = streams
        params = init_parameters(config)
        params["final_ln.gamma"][:] = gain
        for workers in (1, 2):
            monkeypatch.setattr(model, "_usable_cores", lambda: workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # in the workers too, which fork here
                _, report = train(
                    params, config, datasets,
                    TrainConfig(learning_rate=1e-3, epochs=1, seed=12),
                    log_stream=io.StringIO(),
                )
            assert report.diverged
            assert (report.epochs_run, report.total_steps) == (0, 0)
            assert report.initial_loss is None
            assert report.holdout_accuracy == []

    def test_trained_float32_scores_stay_near_float64(self, streams):
        """Holdout accuracy comes from float32 scores of float64 weights.
        On a briefly trained model every example's float32 score is within
        1e-5 (84 float32 steps at 1.0) of the float64 forward's."""
        config, datasets = streams
        params, _ = train(
            init_parameters(config), config, datasets,
            TrainConfig(learning_rate=1e-3, epochs=2, seed=12), log_stream=io.StringIO(),
        )
        cast = inference_params(params)
        worst = 0.0
        for ex in (ex for sc in ("SR", "SD", "SDR") for ex in datasets[sc]):
            layout = training.example_layout(ex, config)
            s64 = float(forward_batch(params, config, [layout]).probs[0, 1])
            s32 = score(cast, config, ex.scenario, ex.candidate, ex.reference, ex.document).score
            worst = max(worst, abs(s32 - s64))
        assert 0.0 < worst < 1e-5

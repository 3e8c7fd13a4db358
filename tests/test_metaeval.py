"""Correlation, significance, and ROUGE tests against brute-force oracles."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from umse.metaeval import (
    DIMENSIONS,
    CorrelationReport,
    DimensionResult,
    HumanAnnotation,
    SignificanceEntry,
    _lcs_length,
    _per_document_spearman,
    _rank_average,
    evaluate,
    join_ratings,
    kendall_tau,
    lcs_table,
    ngram_counts,
    paired_t_test,
    read_annotations_jsonl,
    regularized_incomplete_beta,
    rouge_l,
    rouge_n,
    significance_against_baseline,
    spearman,
    write_annotations_jsonl,
)


def _random_tied_vectors(rng, max_len=30):
    """Integer-valued pair with ties, guaranteed non-constant."""
    while True:
        n = int(rng.integers(3, max_len + 1))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if not np.all(x == x[0]) and not np.all(y == y[0]):
            return x, y


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_example_matches_oracle(self):
        xs = [1.0, 2.0, 2.0, 4.0]
        ys = [1.0, 3.0, 2.0, 4.0]
        want = oracles.spearman_bruteforce(xs, ys)
        assert spearman(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_hundred_random_vectors_match_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, y = _random_tied_vectors(rng)
            want = oracles.spearman_bruteforce(list(x), list(y))
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        x, y = _random_tied_vectors(rng)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 2.0 * y + 3.0) == pytest.approx(base, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="undefined correlation"):
            spearman([1, 2, 3], [5, 5, 5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            spearman([1, 2, 3], [1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman([1, 2], [3, 4])


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0, abs=1e-12)

    def test_one_swap_third(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_antisymmetry_under_value_reversal(self):
        # with ascending xs, reversing the order of the y values flips
        # every pair's relative orientation
        rng = np.random.default_rng(6)
        xs = np.arange(10, dtype=float)
        ys = rng.integers(0, 6, size=10).astype(float)
        assert kendall_tau(xs, ys[::-1]) == pytest.approx(-kendall_tau(xs, ys), abs=1e-12)

    def test_antisymmetry_under_negation(self):
        rng = np.random.default_rng(8)
        x, y = _random_tied_vectors(rng)
        assert kendall_tau(x, -y) == pytest.approx(-kendall_tau(x, y), abs=1e-12)

    def test_hundred_random_vectors_match_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            x, y = _random_tied_vectors(rng)
            want = oracles.kendall_tau_b_bruteforce(x.tolist(), y.tolist())
            assert kendall_tau(x, y) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        x, y = _random_tied_vectors(rng)
        base = kendall_tau(x, y)
        assert kendall_tau(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(x, 0.5 * y + 7.0) == pytest.approx(base, abs=1e-12)

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x, y = _random_tied_vectors(rng)
            assert -1.0 <= kendall_tau(x, y) <= 1.0
            assert -1.0 <= spearman(x, y) <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            kendall_tau([2, 2, 2], [1, 2, 3])


def _heavily_tied_pairs(rng, n):
    """Rating-like vector pairs where ties dominate, one of each kind; the
    first two entries of each vector differ, so none is constant."""

    def thirds():
        v = np.round(rng.uniform(1.0, 5.0, size=n) * 3.0) / 3.0
        v[:2] = (1.0, 5.0)
        return v

    def levels(k):
        v = rng.integers(0, k, size=n).astype(float)
        v[:2] = (0.0, k - 1.0)
        return v

    x = thirds()
    yield x, x + rng.normal(0.0, 0.5, size=n)
    yield thirds(), thirds()
    almost = np.full(n, 2.0)
    almost[int(rng.integers(n))] = 3.0
    yield almost, levels(4)
    yield levels(4), almost[::-1].copy()
    # many duplicate (x, y) pairs drawn from a handful of points
    points = rng.integers(0, 3, size=(4, 2)).astype(float)
    points[:2] = ((0.0, 0.0), (1.0, 1.0))
    picks = points[rng.integers(0, 4, size=n)]
    picks[:2] = points[:2]
    yield picks[:, 0].copy(), picks[:, 1].copy()
    yield rng.normal(size=n), rng.normal(size=n)


class TestExactKernels:
    """The O(n log n) kernels return the very bits of the O(n^2) ones."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 31, 64, 65, 127, 200, 333, 500])
    def test_kendall_equals_sign_matrices_on_tied_vectors(self, n):
        rng = np.random.default_rng(n)
        for x, y in _heavily_tied_pairs(rng, n):
            want = oracles.kendall_tau_sign_matrix(x, y)
            assert kendall_tau(x, y) == want
            assert kendall_tau(y, x) == oracles.kendall_tau_sign_matrix(y, x)

    def test_kendall_equals_exhaustive_pairs(self):
        rng = np.random.default_rng(61)
        for n in range(3, 40):
            for x, y in _heavily_tied_pairs(rng, n):
                assert kendall_tau(x, y) == oracles.kendall_tau_b_bruteforce(x.tolist(), y.tolist())

    def test_kendall_at_scale_in_linear_memory(self):
        # n x n temporaries at this size would take gigabytes
        rng = np.random.default_rng(62)
        n = 20_000
        x = np.round(rng.uniform(1.0, 5.0, size=n) * 3.0) / 3.0
        y = np.round((x + rng.normal(0.0, 1.0, size=n)) * 2.0) / 2.0
        tracemalloc.start()
        try:
            got = kendall_tau(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert got == oracles.kendall_tau_rowwise(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 65, 500])
    def test_rank_average_equals_loop_and_oracle(self, n):
        rng = np.random.default_rng(70 + n)
        vectors = [
            np.round(rng.uniform(1.0, 5.0, size=n) * 3.0) / 3.0,
            rng.integers(0, 3, size=n).astype(float),
            np.full(n, 4.0),
            rng.normal(size=n),
            np.array([0.0, -0.0] * n)[:n],
        ]
        for values in vectors:
            got = _rank_average(values)
            assert np.array_equal(got, oracles.rank_average_loop(values))
            assert np.array_equal(got, np.array(oracles.average_ranks(values.tolist())))

    @pytest.mark.parametrize("seed", range(6))
    def test_grouped_ranks_equal_each_group_ranked_alone(self, seed):
        rng = np.random.default_rng(90 + seed)
        n = int(rng.integers(1, 300))
        groups = rng.integers(0, int(rng.integers(1, 40)), size=n)
        values = np.round(rng.uniform(0.0, 3.0, size=n) * 2.0) / 2.0
        values[rng.integers(0, n, size=n // 7)] = -0.0
        got = _rank_average(values, groups)
        for g in np.unique(groups):
            rows = groups == g
            assert np.array_equal(got[rows], _rank_average(values[rows]))
        assert np.array_equal(_rank_average(values, np.zeros(n, dtype=np.int64)),
                              _rank_average(values))

    def test_lcs_edge_cases(self):
        assert _lcs_length([], []) == 0
        assert _lcs_length([], ["a"]) == 0
        assert _lcs_length(["a", "a", "a"], []) == 0
        assert _lcs_length(["a"] * 100, ["a"] * 70) == 70
        assert _lcs_length([1, 2, 1, 2], [2, 1, 2, 1]) == 3

    def test_lcs_table_marks_each_position(self):
        assert lcs_table([]) == {}
        assert lcs_table(["a", "b", "a", "c", "a"]) == {"a": 0b10101, "b": 0b10, "c": 0b1000}

    def test_lcs_equals_table_and_recursion_past_64_bits(self):
        rng = np.random.default_rng(80)
        for trial in range(60):
            la, lb = (int(v) for v in rng.integers(0, 201, size=2))
            k = int(rng.integers(1, 9))
            a = rng.integers(0, k, size=la).tolist()
            b = rng.integers(0, k, size=lb).tolist()
            if trial % 2:
                a = [f"w{t}" for t in a]
                b = [f"w{t}" for t in b]
            want = oracles.lcs_length_table(a, b)
            assert _lcs_length(a, b) == want
            assert _lcs_length(b, a) == want
            assert _lcs_length(a, b, lcs_table(b)) == want
            assert _lcs_length(b, a, lcs_table(a)) == want
            assert want == oracles.lcs_length_recursive(tuple(a), tuple(b))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        x = [1.0, 2.0, 3.0, bad]
        y = [4.0, 1.0, 2.0, 3.0]
        for fn in (kendall_tau, spearman):
            with pytest.raises(ValueError, match="must be finite"):
                fn(x, y)
            with pytest.raises(ValueError, match="must be finite"):
                fn(y, x)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        for a, b, x in [(0.5, 2.5, 0.3), (4.0, 1.5, 0.8), (10.0, 10.0, 0.5)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_against_mpmath_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for a in (0.5, 1.0, 2.5, 7.0, 50.0):
            for b in (0.5, 1.0, 3.0, 20.0):
                for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                    want = float(mp.betainc(a, b, 0, x, regularized=True))
                    got = regularized_incomplete_beta(a, b, x)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestPairedTTest:
    def test_zero_mean_difference(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 1.0, 4.0, 3.0]
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_zero_variance(self):
        with pytest.raises(ValueError, match="zero-variance"):
            paired_t_test([1.0, 2.0], [0.0, 1.0])

    def test_known_case_matches_quadrature(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [0.0, 0.0, 0.0, 0.0, 0.0]
        t, p = paired_t_test(a, b)
        d = np.array(a) - np.array(b)
        t_want = d.mean() * math.sqrt(5) / d.std(ddof=1)
        assert t == pytest.approx(t_want, abs=1e-12)
        p_want = oracles.t_two_tailed_p_quadrature(t_want, 4)
        assert p == pytest.approx(p_want, abs=1e-10)

    def test_p_matches_quadrature_over_grid(self):
        for dof in (1, 2, 3, 5, 10, 30, 100):
            for t in (0.25, 0.8, 1.5, 2.5, 4.0, 8.0):
                p_got = regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
                p_want = oracles.t_two_tailed_p_quadrature(t, dof)
                assert p_got == pytest.approx(p_want, abs=1e-10)

    def test_random_pairs_match_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n) + 0.3
            t, p = paired_t_test(a, b)
            p_want = oracles.t_two_tailed_p_quadrature(t, n - 1)
            assert p == pytest.approx(p_want, abs=1e-10)

    def test_swap_negates_t_keeps_p(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=12)
        b = rng.normal(size=12) + 0.5
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ba == pytest.approx(-t_ab, abs=1e-12)
        assert p_ba == pytest.approx(p_ab, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test([1.0], [0.0])


class TestRouge:
    def test_unigram_hand_example(self):
        p, r, f = rouge_n("the cat".split(), "the cat sat".split(), 1)
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(2.0 / 3.0)
        assert f == pytest.approx(0.8)

    def test_identical_sequences(self):
        toks = "a b c d".split()
        for n in (1, 2, 3):
            assert rouge_n(toks, toks, n) == pytest.approx((1.0, 1.0, 1.0))
        assert rouge_l(toks, toks) == pytest.approx((1.0, 1.0, 1.0))

    def test_disjoint_vocabularies(self):
        assert rouge_n("a b".split(), "c d".split(), 1) == (0.0, 0.0, 0.0)

    def test_empty_inputs(self):
        assert rouge_n([], ["a"], 1) == (0.0, 0.0, 0.0)
        assert rouge_n(["a"], [], 1) == (0.0, 0.0, 0.0)
        assert rouge_l([], ["a"]) == (0.0, 0.0, 0.0)
        assert rouge_l(["a"], []) == (0.0, 0.0, 0.0)

    def test_clipping_of_repeats(self):
        p, r, f = rouge_n("a a a".split(), "a a".split(), 1)
        assert p == pytest.approx(2.0 / 3.0)
        assert r == pytest.approx(1.0)

    def test_ngram_too_long_for_input(self):
        assert rouge_n(["a"], ["a"], 2) == (0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n must be"):
            rouge_n(["a"], ["a"], 0)

    def test_role_swap_swaps_precision_and_recall(self):
        rng = np.random.default_rng(40)
        vocab = list("abcdef")
        for _ in range(25):
            cand = [vocab[i] for i in rng.integers(0, 6, size=int(rng.integers(1, 12)))]
            ref = [vocab[i] for i in rng.integers(0, 6, size=int(rng.integers(1, 12)))]
            for n in (1, 2):
                p1, r1, f1 = rouge_n(cand, ref, n)
                p2, r2, f2 = rouge_n(ref, cand, n)
                assert p1 == pytest.approx(r2, abs=1e-15)
                assert r1 == pytest.approx(p2, abs=1e-15)
                assert f1 == pytest.approx(f2, abs=1e-15)
            p1, r1, f1 = rouge_l(cand, ref)
            p2, r2, f2 = rouge_l(ref, cand)
            assert p1 == pytest.approx(r2, abs=1e-15)
            assert r1 == pytest.approx(p2, abs=1e-15)

    def test_given_reference_counts_give_the_same_bits(self):
        rng = np.random.default_rng(43)
        vocab = list("abcde")
        for _ in range(30):
            cand = [vocab[i] for i in rng.integers(0, 5, size=int(rng.integers(0, 15)))]
            ref = [vocab[i] for i in rng.integers(0, 5, size=int(rng.integers(0, 15)))]
            for n in (1, 2, 3):
                assert rouge_n(cand, ref, n, ngram_counts(ref, n)) == rouge_n(cand, ref, n)

    def test_rouge_n_matches_overlap_oracle(self):
        rng = np.random.default_rng(41)
        vocab = list("abcde")
        for _ in range(30):
            cand = [vocab[i] for i in rng.integers(0, 5, size=int(rng.integers(2, 15)))]
            ref = [vocab[i] for i in rng.integers(0, 5, size=int(rng.integers(2, 15)))]
            for n in (1, 2, 3):
                overlap, n_cand, n_ref = oracles.ngram_clipped_overlap(cand, ref, n)
                p, r, _ = rouge_n(cand, ref, n)
                if n_cand and n_ref:
                    assert p == pytest.approx(overlap / n_cand, abs=1e-15)
                    assert r == pytest.approx(overlap / n_ref, abs=1e-15)
                else:
                    assert (p, r) == (0.0, 0.0)

    def test_lcs_hand_example(self):
        p, r, f = rouge_l("a x b".split(), "a b".split())
        assert p == pytest.approx(2.0 / 3.0)
        assert r == pytest.approx(1.0)

    def test_rouge_l_matches_recursive_oracle(self):
        rng = np.random.default_rng(42)
        vocab = list("abcd")
        for _ in range(30):
            cand = [vocab[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 14)))]
            ref = [vocab[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 14)))]
            want = oracles.lcs_length_recursive(tuple(cand), tuple(ref))
            p, r, _ = rouge_l(cand, ref)
            assert p == pytest.approx(want / len(cand), abs=1e-15)
            assert r == pytest.approx(want / len(ref), abs=1e-15)

    def test_given_lcs_table_gives_the_same_bits(self):
        rng = np.random.default_rng(43)
        for trial in range(80):
            # lengths on both sides of each other and of 64 bits
            n_cand, n_ref = (int(v) for v in rng.integers(1, 150, size=2))
            cand = [f"w{t}" for t in rng.integers(0, 6, size=n_cand)]
            ref = [f"w{t}" for t in rng.integers(0, 6, size=n_ref)]
            want = oracles.lcs_length_table(cand, ref)
            expected = (want / n_cand, want / n_ref)
            for a, b in ((cand, ref), (ref, cand)):
                plain = rouge_l(a, b)
                assert plain == rouge_l(a, b, lcs_table(b))
                assert plain[:2] == (expected if a is cand else expected[::-1])


def _make_annotation(doc_id, system_id, base):
    return HumanAnnotation(
        doc_id=doc_id,
        system_id=system_id,
        summary=f"summary {doc_id} {system_id}",
        ratings={d: base + 0.1 * i for i, d in enumerate(DIMENSIONS)},
    )


class TestAnnotations:
    def test_all_dimensions_required(self):
        with pytest.raises(ValueError, match="missing dimensions: relevance"):
            HumanAnnotation(
                doc_id="d0",
                system_id="s0",
                summary="x",
                ratings={"coherence": 3.0, "consistency": 3.0, "fluency": 3.0},
            )

    def test_roundtrip(self, tmp_path):
        anns = [_make_annotation(f"d{i}", f"s{j}", 1.0 + i + j) for i in range(3) for j in range(2)]
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl(anns, path, scale=(1.0, 10.0))
        got, scale = read_annotations_jsonl(path)
        assert scale == (1.0, 10.0)
        assert got == anns

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl([_make_annotation("d0", "s0", 2.0)], path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == {"rating_scale": [1.0, 5.0]}

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl([_make_annotation("d0", "s0", 2.0)], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_annotations_jsonl([_make_annotation("d1", "s0", 3.0), object()], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["anns.jsonl"]

    @pytest.mark.parametrize("literal", ['"1"', "true", "NaN", "null"])
    def test_scale_bounds_must_be_finite_numbers(self, tmp_path, literal):
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl([_make_annotation("d0", "s0", 2.0)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = '{"rating_scale": [' + literal + ", 5.0]}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match="malformed annotation header: rating_scale bound must be a finite"
        ):
            read_annotations_jsonl(path)

    def test_rating_outside_scale_rejected(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl([_make_annotation("d0", "s0", 9.0)], path, scale=(1.0, 10.0))
        text = path.read_text(encoding="utf-8").splitlines()
        text[0] = json.dumps({"rating_scale": [1.0, 5.0]})
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_annotations_jsonl(path)
        assert str(info.value) == (
            "malformed annotation line 2: coherence rating 9.0 outside scale [1.0, 5.0]"
        )

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        path.write_text('{"nope": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed annotation header"):
            read_annotations_jsonl(path)

    def test_unparseable_rating_names_line(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl([_make_annotation("d0", "s0", 2.0)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["ratings"]["fluency"] = "abc"
        path.write_text(lines[0] + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed annotation line 2"):
            read_annotations_jsonl(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "anns.jsonl"
        path.write_text('{"rating_scale": [1, 5]}\n{"doc_id": "d0"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed annotation line 2"):
            read_annotations_jsonl(path)

    def test_blank_lines_are_skipped_before_the_header_too(self, tmp_path):
        anns = [_make_annotation("d0", "s0", 2.0), _make_annotation("d0", "s1", 3.0)]
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl(anns, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n \n" + "\n\n".join(lines) + "\n", encoding="utf-8")
        assert read_annotations_jsonl(path) == (anns, (1.0, 5.0))

    def test_repeated_pair_rejected(self, tmp_path):
        """A second annotation of one (doc_id, system_id) would silently
        replace the first when ratings are joined to scores."""
        anns = [_make_annotation("d0", "s0", 2.0), _make_annotation("d0", "s1", 3.0),
                _make_annotation("d0", "s0", 4.0)]
        path = tmp_path / "anns.jsonl"
        write_annotations_jsonl(anns, path)
        with pytest.raises(ValueError) as info:
            read_annotations_jsonl(path)
        assert str(info.value) == (
            "malformed annotation line 4: repeated (doc_id, system_id) ('d0', 's0'), first on line 2"
        )


class TestEvaluate:
    def _fixture(self, n_docs=6, n_systems=3, seed=17):
        rng = np.random.default_rng(seed)
        annotations = []
        scores = []
        for i in range(n_docs):
            for j in range(n_systems):
                ratings = {d: float(rng.integers(1, 6)) for d in DIMENSIONS}
                annotations.append(
                    HumanAnnotation(f"d{i}", f"s{j}", f"sum {i} {j}", ratings)
                )
                scores.append((f"d{i}", f"s{j}", float(rng.normal())))
        return scores, annotations

    def test_scores_equal_ratings_give_unit_correlations(self):
        scores, annotations = self._fixture()
        aligned = [
            (a.doc_id, a.system_id, a.ratings["fluency"]) for a in annotations
        ]
        res = evaluate(join_ratings(aligned, annotations), "fluency")
        assert res.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert res.kendall_tau == pytest.approx(1.0, abs=1e-12)

    def test_pooled_matches_oracles(self):
        scores, annotations = self._fixture()
        res = evaluate(join_ratings(scores, annotations), "coherence")
        lookup = {(a.doc_id, a.system_id): a for a in annotations}
        xs = [v for _, _, v in scores]
        ys = [lookup[(d, s)].ratings["coherence"] for d, s, _ in scores]
        assert res.spearman_rho == pytest.approx(oracles.spearman_bruteforce(xs, ys), abs=1e-12)
        assert res.kendall_tau == pytest.approx(
            oracles.kendall_tau_b_bruteforce([float(v) for v in xs], [float(v) for v in ys]),
            abs=1e-12,
        )
        assert res.n == len(scores)

    def test_hundred_by_sixteen_pools_1600(self):
        scores, annotations = self._fixture(n_docs=100, n_systems=16, seed=3)
        res = evaluate(join_ratings(scores, annotations), "relevance")
        assert res.n == 1600

    def test_system_level_aggregation(self):
        scores, annotations = self._fixture(n_docs=8, n_systems=4, seed=11)
        res = evaluate(join_ratings(scores, annotations), "consistency", system_level=True)
        lookup = {(a.doc_id, a.system_id): a for a in annotations}
        by_system = {}
        for d, s, v in scores:
            by_system.setdefault(s, []).append((v, lookup[(d, s)].ratings["consistency"]))
        systems = sorted(by_system)
        xs = [float(np.mean([v for v, _ in by_system[s]])) for s in systems]
        ys = [float(np.mean([r for _, r in by_system[s]])) for s in systems]
        assert res.n == 4
        assert res.spearman_rho == pytest.approx(oracles.spearman_bruteforce(xs, ys), abs=1e-12)

    def test_missing_annotation_lists_key(self):
        scores, annotations = self._fixture()
        scores.append(("d99", "s0", 0.5))
        with pytest.raises(ValueError, match="doc_id='d99' system_id='s0'"):
            join_ratings(scores, annotations)

    def test_unknown_dimension_rejected(self):
        scores, annotations = self._fixture()
        with pytest.raises(ValueError, match="unknown dimension"):
            evaluate(join_ratings(scores, annotations), "novelty")


class TestSignificance:
    def _fixture(self, n_docs=20, n_systems=8, seed=13):
        """Ratings follow a planted signal; one scorer sees the signal,
        the other is noise."""
        rng = np.random.default_rng(seed)
        annotations = []
        good = []
        noise = []
        for i in range(n_docs):
            for j in range(n_systems):
                q = float(rng.uniform())
                rating = float(np.clip(1.0 + 4.0 * q + rng.normal(0.0, 0.1), 1.0, 5.0))
                ratings = {d: rating for d in DIMENSIONS}
                annotations.append(HumanAnnotation(f"d{i}", f"s{j}", "x", ratings))
                good.append((f"d{i}", f"s{j}", q))
                noise.append((f"d{i}", f"s{j}", float(rng.uniform())))
        return good, noise, annotations

    def test_signal_beats_noise(self):
        good, noise, annotations = self._fixture()
        t, p, n = significance_against_baseline(good, noise, annotations, "coherence")
        assert n == 20
        assert t > 0.0
        assert p < 0.05

    def test_matches_manual_composition(self):
        good, noise, annotations = self._fixture(n_docs=6, n_systems=5, seed=2)
        t, p, n = significance_against_baseline(good, noise, annotations, "fluency")
        lookup = {(a.doc_id, a.system_id): a for a in annotations}

        def per_doc(scores):
            by_doc = {}
            for d, s, v in scores:
                by_doc.setdefault(d, []).append((v, lookup[(d, s)].ratings["fluency"]))
            return {
                d: spearman([v for v, _ in ps], [r for _, r in ps])
                for d, ps in by_doc.items()
            }

        main, base = per_doc(good), per_doc(noise)
        docs = sorted(main)
        t_want, p_want = paired_t_test(
            [main[d] for d in docs], [base[d] for d in docs]
        )
        assert n == len(docs)
        assert t == t_want
        assert p == p_want

    def test_identical_scorers_rejected(self):
        good, _, annotations = self._fixture(n_docs=4, n_systems=4)
        with pytest.raises(ValueError, match="zero-variance"):
            significance_against_baseline(good, list(good), annotations, "coherence")

    def test_small_documents_drop_out(self):
        # two-system documents cannot carry a correlation; only the two
        # larger documents remain paired
        rng = np.random.default_rng(4)
        annotations = []
        a_scores = []
        b_scores = []
        layout = {"d0": 5, "d1": 5, "d2": 2}
        for doc_id, n_sys in layout.items():
            for j in range(n_sys):
                ratings = {d: float(rng.integers(1, 6)) for d in DIMENSIONS}
                annotations.append(HumanAnnotation(doc_id, f"s{j}", "x", ratings))
                a_scores.append((doc_id, f"s{j}", float(rng.uniform())))
                b_scores.append((doc_id, f"s{j}", float(rng.uniform())))
        _, _, n = significance_against_baseline(a_scores, b_scores, annotations, "relevance")
        assert n == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_grouped_rhos_equal_per_document_spearman(self, seed):
        """Documents of 1 to 9 rows with their rows interleaved, heavy ties,
        constant scores or ratings, and non-finite rows: the grouped pass
        keeps exactly the documents ``spearman()`` accepts, with its bits."""
        rng = np.random.default_rng(300 + seed)
        rows = []
        for i in range(40):
            kind = i % 6
            for j in range(int(rng.integers(1, 10))):
                value = round(float(rng.uniform(0.0, 2.0)) * 4.0) / 4.0
                rating = float(rng.integers(3, 16)) / 3.0
                if kind == 1:
                    value = 0.5
                elif kind == 2:
                    rating = 3.0
                elif kind == 3 and j == 1:
                    value = [math.nan, math.inf, -math.inf][i % 3]
                elif kind == 4 and j == 0:
                    rating = math.nan
                elif kind == 5:
                    value = -0.0 if j % 2 else 0.0
                rows.append((f"d{i}", f"s{j}", value, rating))
        rows = [rows[k] for k in rng.permutation(len(rows))]
        scores = [(d, s, v) for d, s, v, _ in rows]
        annotations = [
            HumanAnnotation(d, s, "x", {dim: r for dim in DIMENSIONS}) for d, s, _, r in rows
        ]
        by_doc = {}
        for d, _, v, r in rows:
            by_doc.setdefault(d, []).append((v, r))
        want = {}
        for d, pairs in by_doc.items():
            try:
                want[d] = spearman([v for v, _ in pairs], [r for _, r in pairs])
            except ValueError:
                continue
        got = _per_document_spearman(join_ratings(scores, annotations), "coherence")
        assert got == want
        assert 0 < len(want) < len(by_doc)

    def test_too_few_documents_rejected(self):
        good, noise, annotations = self._fixture(n_docs=1, n_systems=6)
        with pytest.raises(ValueError, match="at least 2 documents"):
            significance_against_baseline(good, noise, annotations, "coherence")


class TestReport:
    def test_json_shape(self):
        report = CorrelationReport(aggregation="pooled")
        report.results.append(DimensionResult("coherence", 0.5, 0.4, 30))
        report.significance.append(SignificanceEntry("coherence", "rouge1", 2.5, 0.02))
        data = json.loads(report.to_json())
        assert data["aggregation"] == "pooled"
        assert data["results"][0] == {
            "dimension": "coherence",
            "spearman_rho": 0.5,
            "kendall_tau": 0.4,
            "n": 30,
        }
        assert data["significance"][0]["baseline"] == "rouge1"

    def test_json_bytes(self):
        report = CorrelationReport(
            aggregation="pooled",
            results=[
                DimensionResult("coherence", 0.1, -0.2, 12),
                DimensionResult("fluency", 1.0, 1.0, 3),
            ],
            significance=[SignificanceEntry("coherence", "rouge1", 2.5, 0.03125)],
        )
        assert report.to_json() == (
            '{"aggregation": "pooled", "results": [{"dimension": "coherence", '
            '"kendall_tau": -0.2, "n": 12, "spearman_rho": 0.1}, {"dimension": "fluency", '
            '"kendall_tau": 1.0, "n": 3, "spearman_rho": 1.0}], "significance": '
            '[{"baseline": "rouge1", "dimension": "coherence", "p": 0.03125, "t": 2.5}]}'
        )
        assert CorrelationReport(aggregation="system").to_json() == (
            '{"aggregation": "system", "results": [], "significance": []}'
        )

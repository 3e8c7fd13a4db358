"""End-to-end acceptance checks, one numbered test per shipped guarantee.

Every test prints a single "criterion N: PASS/FAIL (...)" line with the
measured values, so ``pytest tests/test_acceptance.py -v -s`` doubles as
the acceptance report.  Criteria 4 and 5 run at full desk scale and
dominate the runtime; the whole file takes roughly fifteen minutes on
one CPU core.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import umse
from umse.cli import main as cli_main
from umse.corpus import (
    CLS_ID,
    Corpus,
    build_vocab,
    gen_synthetic_corpus,
    make_document,
    read_corpus_jsonl,
    segment_sentences,
    tokenize,
)
from umse.datagen import (
    DOCUMENT_MATCHING,
    SUMMARY_MATCHING,
    generate_dataset,
    lead3,
    to_scenario_examples,
    write_dataset_jsonl,
)
from umse.metaeval import (
    DIMENSIONS,
    HumanAnnotation,
    evaluate,
    join_ratings,
    kendall_tau,
    rouge_n,
    significance_against_baseline,
    spearman,
)
from umse.model import (
    InputLayout,
    ModelConfig,
    assemble_input,
    forward_batch,
    fuse,
    init_parameters,
    load_checkpoint,
    prefix_permutation,
    save_checkpoint,
    score,
)
from umse.retrieval import build_index, most_similar
from umse.training import TrainConfig, grad_check, train


def _verdict(number: int, failures: list[str], detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    tail = detail if not failures else "; ".join(failures)
    print(f"criterion {number}: {status} ({tail})")
    assert not failures, f"criterion {number}: {tail}"


def _cli(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:  # argparse-level rejection
            rc = exc.code
    assert rc == 0, f"cli {' '.join(argv)} exited {rc}: {err.getvalue()}"
    return out.getvalue()


# --- shared fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def small_training_setup():
    """Small corpus, scenario streams and a narrow model for the
    mechanism-invariant checks."""
    corpus = gen_synthetic_corpus(60, 6, 12)
    vocab = build_vocab(corpus)
    index = build_index(corpus, vocab)
    streams: dict[str, list] = {}
    summary = generate_dataset(corpus, index, SUMMARY_MATCHING, 24, 12)
    document = generate_dataset(corpus, index, DOCUMENT_MATCHING, 24, 13)
    for ex in to_scenario_examples(summary, corpus, vocab) + to_scenario_examples(
        document, corpus, vocab
    ):
        streams.setdefault(ex.scenario, []).append(ex)
    config = ModelConfig(
        vocab_size=len(vocab),
        hidden_dim=32,
        n_layers=2,
        n_heads=2,
        ffn_dim=64,
        prefix_len=8,
        max_len=256,
        init_seed=12,
    )
    return streams, config


_TINY_MODEL_FLAGS = (
    "--hidden-dim", "16", "--n-layers", "1", "--n-heads", "2",
    "--ffn-dim", "32", "--prefix-len", "4", "--max-len", "128",
)

_PIPELINE_FILES = (
    "corpus.jsonl",
    "art/vocab.txt",
    "art/index.bin",
    "data/summary_matching.jsonl",
    "data/document_matching.jsonl",
    "model.ckpt",
    "scores_sr.jsonl",
    "scores_sd.jsonl",
    "scores_fused.jsonl",
)


def _run_pipeline(root: Path) -> None:
    """Corpus synthesis through scoring, all through the command line, with
    every artifact landing under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    corpus_path = root / "corpus.jsonl"
    art, data = root / "art", root / "data"
    _cli("synth", "--out", str(corpus_path),
         "--n-docs", "40", "--topic-count", "5", "--seed", "12")
    _cli("build", "--corpus", str(corpus_path), "--out-dir", str(art))
    _cli("gendata", "--corpus", str(corpus_path), "--vocab", str(art / "vocab.txt"),
         "--index", str(art / "index.bin"), "--out-dir", str(data),
         "--n-pairs", "10", "--seed", "12")
    _cli("train", "--corpus", str(corpus_path), "--vocab", str(art / "vocab.txt"),
         "--summary-matching", str(data / "summary_matching.jsonl"),
         "--document-matching", str(data / "document_matching.jsonl"),
         "--checkpoint-out", str(root / "model.ckpt"),
         *_TINY_MODEL_FLAGS, "--epochs", "1", "--seed", "12")
    corpus = read_corpus_jsonl(corpus_path)
    inputs = root / "inputs.jsonl"
    with open(inputs, "w", encoding="utf-8") as fh:
        for doc in corpus.documents[:8]:
            fh.write(json.dumps({
                "doc_id": doc.id,
                "system_id": "lead3",
                "candidate": lead3(doc),
                "reference": doc.reference_summary,
                "document": doc.text,
            }, ensure_ascii=False) + "\n")
    base = ("score", "--inputs", str(inputs),
            "--checkpoint", str(root / "model.ckpt"), "--vocab", str(art / "vocab.txt"))
    _cli(*base, "--scenario", "SR", "--out", str(root / "scores_sr.jsonl"))
    _cli(*base, "--scenario", "SD", "--out", str(root / "scores_sd.jsonl"))
    _cli(*base, "--scenario", "SDR", "--fusion", "arithmetic_mean",
         "--out", str(root / "scores_fused.jsonl"))


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_pipeline") / "run1"
    _run_pipeline(root)
    return root


def _scores_in_order(path: Path) -> list[float]:
    return [json.loads(line)["score"] for line in path.read_text().splitlines()]


# --- criteria --------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    max_rel_error = grad_check()
    seconds = time.monotonic() - started
    failures = []
    if not max_rel_error < 1.0e-4:
        failures.append(f"max relative error {max_rel_error:.3e} >= 1e-4")
    if not seconds < 60.0:
        failures.append(f"took {seconds:.1f}s >= 60s")
    _verdict(1, failures, f"max_rel_error={max_rel_error:.3e} < 1e-4 in {seconds:.2f}s < 60s")


def test_criterion_2_retrieval_oracle_equivalence():
    rng = random.Random(12)
    words = [f"w{i}" for i in range(30)]
    docs = tuple(
        make_document(f"d{i}", " ".join(rng.choice(words) for _ in range(rng.randint(3, 12))), "")
        for i in range(50)
    )
    corpus = Corpus(documents=docs)
    vocab = build_vocab(corpus)
    index = build_index(corpus, vocab)
    token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
    mismatches = [
        d for d in range(50)
        if most_similar(index, d, k=1)[0]
        != oracles.bm25_rank_all(token_lists, token_lists[d], exclude=d)[0]
    ]

    hand = Corpus(documents=(
        make_document("a", "cat cat dog", ""),
        make_document("b", "bird", ""),
    ))
    hand_index = build_index(hand, build_vocab(hand))
    got = oracles.bm25_score(hand_index, tokenize("cat", build_vocab(hand)), 0)
    want = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2))
    failures = []
    if mismatches:
        failures.append(f"top-1 mismatch on documents {mismatches}")
    if abs(got - want) > 1.0e-6:
        failures.append(f"hand example {got!r} != {want!r}")
    if abs(got - 0.8355) > 1.0e-4:
        failures.append(f"hand example {got:.6f} is not near 0.8355")
    _verdict(2, failures,
             f"top-1 matches brute force on 50/50 docs; hand example {got:.6f} within 1e-6")


def test_criterion_3_correlation_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_spearman = worst_kendall = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        while True:
            xs = [float(v) for v in rng.integers(0, 6, size=n)]
            ys = [float(v) for v in rng.integers(0, 6, size=n)]
            if len(set(xs)) > 1 and len(set(ys)) > 1:
                break
        worst_spearman = max(
            worst_spearman, abs(spearman(xs, ys) - oracles.spearman_bruteforce(xs, ys))
        )
        worst_kendall = max(
            worst_kendall, abs(kendall_tau(xs, ys) - oracles.kendall_tau_b_bruteforce(xs, ys))
        )
    failures = []
    if worst_spearman > 1.0e-12:
        failures.append(f"spearman deviates by {worst_spearman:.3e}")
    if worst_kendall > 1.0e-12:
        failures.append(f"kendall deviates by {worst_kendall:.3e}")
    _verdict(3, failures,
             f"100 tied vectors: spearman dev {worst_spearman:.1e}, "
             f"kendall dev {worst_kendall:.1e}, both <= 1e-12")


def test_criterion_4_data_construction_contract(tmp_path):
    corpus = gen_synthetic_corpus(2000, 50, 12)
    vocab = build_vocab(corpus)
    index = build_index(corpus, vocab)
    failures = []
    sizes = {}
    for kind in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
        first = generate_dataset(corpus, index, kind, 15000, 12)
        sizes[kind] = len(first)
        if len(first) != 30000:
            failures.append(f"{kind}: {len(first)} examples, wanted 30000")
        positives = sum(ex.label for ex in first)
        if positives * 2 != len(first):
            failures.append(f"{kind}: {positives} positives of {len(first)}")
        if kind == SUMMARY_MATCHING:
            lead_sentences: dict[str, set] = {}
            bad = 0
            for ex in first:
                if ex.label == 1:
                    continue
                cached = lead_sentences.get(ex.doc_id)
                if cached is None:
                    doc = corpus[corpus.ordinal_of(ex.doc_id)]
                    cached = set(segment_sentences(lead3(doc)))
                    lead_sentences[ex.doc_id] = cached
                if len(set(segment_sentences(ex.candidate)) & cached) != 1:
                    bad += 1
            if bad:
                failures.append(f"{bad} negatives share != 1 sentence with lead3")
        second = generate_dataset(corpus, index, kind, 15000, 12)
        path_a, path_b = tmp_path / f"{kind}_a.jsonl", tmp_path / f"{kind}_b.jsonl"
        write_dataset_jsonl(first, path_a)
        write_dataset_jsonl(second, path_b)
        if path_a.read_bytes() != path_b.read_bytes():
            failures.append(f"{kind}: regeneration under seed 12 not byte-identical")
    _verdict(4, failures,
             f"30000 examples per kind {tuple(sizes.values())}, exact balance, "
             "negatives share exactly one lead3 sentence, regeneration byte-identical")


def test_criterion_5_desk_scale_learning(tmp_path):
    # the subprocesses run in tmp_path, where a relative PYTHONPATH entry
    # such as "src" no longer points at the package
    src = str(Path(umse.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )

    def run(*argv: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "umse.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=1800,
        )
        assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr[-2000:]}"

    run("synth", "--out", "corpus.jsonl",
        "--n-docs", "2000", "--topic-count", "50", "--seed", "12")
    run("build", "--corpus", "corpus.jsonl", "--out-dir", "art")
    run("gendata", "--corpus", "corpus.jsonl", "--vocab", "art/vocab.txt",
        "--index", "art/index.bin", "--out-dir", "data",
        "--n-pairs", "2000", "--seed", "12")
    run("train", "--corpus", "corpus.jsonl", "--vocab", "art/vocab.txt",
        "--summary-matching", "data/summary_matching.jsonl",
        "--document-matching", "data/document_matching.jsonl",
        "--checkpoint-out", "model.ckpt", "--report-out", "report.json",
        "--target-accuracy", "0.85")

    report = json.loads((tmp_path / "report.json").read_text())
    wall = report["wall_clock_seconds"]
    hits = [
        epoch + 1
        for epoch, acc in enumerate(report["holdout_accuracy"])
        if acc["SR"] >= 0.85 and acc["SD"] >= 0.85
    ]
    best = max(report["holdout_accuracy"], key=lambda acc: acc["SR"] + acc["SD"])
    failures = []
    if report["diverged"]:
        failures.append("training diverged")
    if not hits:
        failures.append(f"no epoch reached SR and SD >= 0.85 (best {best})")
    if not wall < 900.0:
        failures.append(f"training took {wall:.0f}s >= 900s")
    _verdict(5, failures,
             f"epoch {hits[0] if hits else '-'}: SR={best['SR']:.4f} SD={best['SD']:.4f} "
             f">= 0.85, train wall {wall:.0f}s < 900s")


def test_criterion_6_mechanism_invariants(small_training_setup):
    streams, config = small_training_setup
    params = init_parameters(config)
    length = config.prefix_len
    base, positions = params["prefix_base"], params["pos_emb"][1 : 1 + length]
    failures = []

    # the prefix rows each scenario's input receives, read from the forward
    # cache; with position rows zeroed they are the bank rows themselves
    scenarios = ("SR", "SD", "SDR")
    layouts = [InputLayout(sc, (CLS_ID,) + (-1,) * length + (5,), length) for sc in scenarios]
    cache = forward_batch(params, config, layouts)
    unpositioned = dict(params, pos_emb=np.zeros_like(params["pos_emb"]))
    bare = forward_batch(unpositioned, config, layouts)
    for i, scenario in enumerate(scenarios):
        prefix_rows = slice(cache.segment(i).start + 1, cache.segment(i).start + 1 + length)
        if sorted(map(tuple, bare.emb[prefix_rows])) != sorted(map(tuple, base)):
            failures.append(f"{scenario} prefix rows are not the shared multiset")
        expected = base[list(prefix_permutation(length, scenario))] + positions
        if not np.array_equal(cache.emb[prefix_rows], expected):
            failures.append(f"{scenario} rows disagree with the declared permutation")
    if prefix_permutation(length, "SD") != tuple(range(length)):
        failures.append("SD order is not the identity")
    if prefix_permutation(length, "SR") != tuple(reversed(range(length))):
        failures.append("SR order is not the reversal")
    if prefix_permutation(length, "SDR") != tuple(range(0, length, 2)) + tuple(
        range(1, length, 2)
    ):
        failures.append("SDR order is not odd-then-even positions of the SD order")

    # the no-prefix ablation is a prefix_len 0 model: an empty bank, inputs
    # without prefix slots, and every other parameter trained as usual
    bare_config = dataclasses.replace(config, prefix_len=0)
    bare = init_parameters(bare_config)
    if bare["prefix_base"].size:
        failures.append("a prefix_len 0 model holds prefix rows")
    probe = streams["SDR"][0]
    bare_layout = assemble_input("SDR", probe.candidate, probe.reference, probe.document,
                                 bare_config)
    if bare_layout.n_prefix or -1 in bare_layout.ids:
        failures.append("a prefix_len 0 input has prefix slots")
    trained, _ = train(
        {name: arr.copy() for name, arr in bare.items()}, bare_config, streams,
        TrainConfig(learning_rate=1.0e-3, epochs=1, seed=12),
    )
    if all(np.array_equal(trained[name], bare[name]) for name in bare):
        failures.append("a prefix_len 0 model updated no parameters at all")

    sr_only = {name: arr.copy() for name, arr in params.items()}
    sr_trained, _ = train(
        sr_only, config, {"SR": streams["SR"]},
        TrainConfig(learning_rate=1.0e-3, epochs=1, scenario="SR", seed=12),
    )
    probe = streams["SD"][0]
    before = score(params, config, "SD", probe.candidate, document=probe.document).score
    after = score(sr_trained, config, "SD", probe.candidate, document=probe.document).score
    if before == after:
        failures.append("an SR-only update left SD scores untouched")
    _verdict(6, failures,
             "prefix multisets identical, permutations as documented, "
             "a prefix_len 0 model has no prefix slots and still trains, "
             f"SR update moved SD score by {abs(after - before):.2e}")


def test_criterion_7_fusion_properties(pipeline_run):
    rng = np.random.default_rng(7)
    pairs = rng.uniform(0.0, 1.0, size=(10000, 2))
    violations = 0
    for s_sr, s_sd in pairs:
        low = fuse(s_sr, s_sd, "min")
        geo = fuse(s_sr, s_sd, "geometric_mean")
        mean = fuse(s_sr, s_sd, "arithmetic_mean")
        high = fuse(s_sr, s_sd, "max")
        if not low <= geo <= mean <= high:
            violations += 1

    sr = _scores_in_order(pipeline_run / "scores_sr.jsonl")
    sd = _scores_in_order(pipeline_run / "scores_sd.jsonl")
    fused = _scores_in_order(pipeline_run / "scores_fused.jsonl")
    deviation = max(
        abs(f - (a + b) / 2.0) for f, a, b in zip(fused, sr, sd, strict=True)
    )
    failures = []
    if violations:
        failures.append(f"{violations} pairs broke min <= geo <= mean <= max")
    if deviation > 1.0e-12:
        failures.append(f"fused output deviates from the SR/SD mean by {deviation:.3e}")
    _verdict(7, failures,
             f"ordering exact on 10000 pairs; fused run matches separate-run mean "
             f"(max dev {deviation:.1e} <= 1e-12)")


def test_criterion_8_meta_evaluation_pipeline():
    rng = np.random.default_rng(8)
    annotations, planted, lexical = [], [], []
    for d in range(100):
        doc_id = f"doc{d:03d}"
        reference = [f"w{int(v)}" for v in rng.integers(0, 400, size=12)]
        for s in range(16):
            system_id = f"sys{s:02d}"
            quality = float(rng.uniform())
            ratings = {
                dim: float(np.clip(1.0 + 4.0 * quality + rng.normal(0.0, 0.15), 1.0, 5.0))
                for dim in DIMENSIONS
            }
            # word overlap drawn independently of quality, so the lexical
            # baseline carries no signal
            kept = int(rng.integers(2, 11))
            candidate = reference[:kept] + [f"x{d}_{s}_{j}" for j in range(12 - kept)]
            annotations.append(
                HumanAnnotation(doc_id, system_id, " ".join(candidate), ratings)
            )
            planted.append((doc_id, system_id, quality))
            lexical.append((doc_id, system_id, rouge_n(candidate, reference, 1)[2]))

    failures = []
    details = []
    joined_planted, joined_lexical = (join_ratings(s, annotations) for s in (planted, lexical))
    for dim in DIMENSIONS:
        rho_planted = evaluate(joined_planted, dim).spearman_rho
        rho_lexical = evaluate(joined_lexical, dim).spearman_rho
        _, p, _ = significance_against_baseline(planted, lexical, annotations, dim)
        details.append(f"{dim} {rho_planted:.3f}>{rho_lexical:.3f} p={p:.1e}")
        if not rho_planted > 0.95:
            failures.append(f"{dim}: planted rho {rho_planted:.4f} <= 0.95")
        if not rho_lexical < rho_planted:
            failures.append(f"{dim}: lexical rho {rho_lexical:.4f} not strictly lower")
        if not p < 0.05:
            failures.append(f"{dim}: paired t-test p {p:.3g} >= 0.05")
    _verdict(8, failures, "; ".join(details))


def test_criterion_9_determinism_and_round_trips(pipeline_run, tmp_path):
    failures = []
    checkpoint = pipeline_run / "model.ckpt"
    params, config = load_checkpoint(checkpoint)
    copy_path = tmp_path / "copy.ckpt"
    save_checkpoint(params, config, copy_path)
    if copy_path.read_bytes() != checkpoint.read_bytes():
        failures.append("checkpoint round-trip changed bytes")
    reloaded, reloaded_config = load_checkpoint(copy_path)
    if reloaded_config != config or set(reloaded) != set(params) or not all(
        np.array_equal(params[name], reloaded[name]) for name in params
    ):
        failures.append("reloaded checkpoint disagrees with the original")

    second = tmp_path / "run2"
    _run_pipeline(second)
    differing = [
        rel for rel in _PIPELINE_FILES
        if (pipeline_run / rel).read_bytes() != (second / rel).read_bytes()
    ]
    if differing:
        failures.append(f"second seed-12 run differs on {differing}")
    _verdict(9, failures,
             f"checkpoint round-trip bit-exact; {len(_PIPELINE_FILES)} pipeline "
             "artifacts byte-identical across two seed-12 runs")

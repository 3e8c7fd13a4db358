"""End-to-end command-line tests: pipeline wiring, config merging, error
reporting, output determinism, and help snapshots."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from umse.cli import _train_defaults, build_parser, main
from umse.corpus import word_tokens
from umse.metaeval import DIMENSIONS, HumanAnnotation, rouge_n, write_annotations_jsonl
from umse.model import ModelConfig
from umse.training import TrainConfig

SNAPSHOT_DIR = Path(__file__).parent / "data" / "cli_help"

TINY_MODEL_FLAGS = [
    "--hidden-dim", "16",
    "--n-layers", "1",
    "--n-heads", "2",
    "--ffn-dim", "32",
    "--prefix-len", "4",
    "--max-len", "128",
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_ok(argv):
    code, out, err = run_cli(argv)
    assert code == 0, f"exit {code}: {err}"
    return out


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One small pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliws")
    corpus = root / "corpus.jsonl"
    artifacts = root / "artifacts"
    data = root / "data"
    checkpoint = root / "model.ckpt"

    synth_out = run_ok(
        ["synth", "--out", corpus, "--n-docs", "40", "--topic-count", "5", "--seed", "12"]
    )
    build_out = run_ok(["build", "--corpus", corpus, "--out-dir", artifacts])
    gendata_out = run_ok(
        [
            "gendata",
            "--corpus", corpus,
            "--vocab", artifacts / "vocab.txt",
            "--index", artifacts / "index.bin",
            "--out-dir", data,
            "--n-pairs", "12",
            "--seed", "12",
        ]
    )
    train_out = run_ok(
        [
            "train",
            "--corpus", corpus,
            "--vocab", artifacts / "vocab.txt",
            "--summary-matching", data / "summary_matching.jsonl",
            "--document-matching", data / "document_matching.jsonl",
            "--checkpoint-out", checkpoint,
            *TINY_MODEL_FLAGS,
            "--epochs", "2",
            "--learning-rate", "0.001",
        ]
    )

    inputs = root / "inputs.jsonl"
    with open(corpus, encoding="utf-8") as fh, open(inputs, "w", encoding="utf-8") as out:
        for i, line in enumerate(fh):
            if i >= 6:
                break
            doc = json.loads(line)
            out.write(
                json.dumps(
                    {
                        "doc_id": doc["id"],
                        "system_id": "s0",
                        "candidate": doc["summary"],
                        "reference": doc["summary"],
                        "document": doc["text"],
                    }
                )
                + "\n"
            )

    return {
        "root": root,
        "corpus": corpus,
        "vocab": artifacts / "vocab.txt",
        "index": artifacts / "index.bin",
        "artifacts": artifacts,
        "data": data,
        "checkpoint": checkpoint,
        "inputs": inputs,
        "synth_out": synth_out,
        "build_out": build_out,
        "gendata_out": gendata_out,
        "train_report": json.loads(train_out),
    }


def _score_lines(out_text):
    return [json.loads(line) for line in out_text.splitlines()]


class TestSynth:
    def test_prints_document_count(self, tmp_path):
        out = run_ok(
            ["synth", "--out", tmp_path / "c.jsonl", "--n-docs", "10", "--topic-count", "3"]
        )
        assert out == "documents: 10\n"
        assert (tmp_path / "c.jsonl").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["--n-docs", "10", "--topic-count", "3", "--seed", "7"]
        run_ok(["synth", "--out", tmp_path / "a.jsonl", *args])
        run_ok(["synth", "--out", tmp_path / "b.jsonl", *args])
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_config_file_sets_values_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_docs": 8, "topic_count": 4}), encoding="utf-8")
        out = run_ok(["synth", "--out", tmp_path / "a.jsonl", "--config", cfg])
        assert out == "documents: 8\n"
        out = run_ok(
            ["synth", "--out", tmp_path / "b.jsonl", "--config", cfg, "--n-docs", "6"]
        )
        assert out == "documents: 6\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
        code, _, err = run_cli(["synth", "--out", tmp_path / "a.jsonl", "--config", cfg])
        assert code == 1
        assert json.loads(err) == {"error": "unknown config key: bogus_key"}

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json", encoding="utf-8")
        code, _, err = run_cli(["synth", "--out", tmp_path / "a.jsonl", "--config", cfg])
        assert code == 1
        assert "malformed config file" in json.loads(err)["error"]

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(["synth", "--out", tmp_path / "a.jsonl", "--config", cfg])
        assert code == 1
        assert "JSON object" in json.loads(err)["error"]


class TestBuild:
    def test_prints_counts(self, ws):
        lines = ws["build_out"].splitlines()
        assert lines[0] == "documents: 40"
        assert lines[1].startswith("vocabulary: ")

    def test_rebuild_is_byte_identical(self, ws, tmp_path):
        run_ok(["build", "--corpus", ws["corpus"], "--out-dir", tmp_path])
        for name in ("vocab.txt", "index.bin"):
            assert (tmp_path / name).read_bytes() == (ws["artifacts"] / name).read_bytes()

    def test_missing_file_names_path(self, tmp_path):
        code, _, err = run_cli(["build", "--corpus", tmp_path / "nope.jsonl", "--out-dir", tmp_path])
        assert code == 1
        assert "nope.jsonl" in json.loads(err)["error"]

    def test_malformed_corpus_line_numbered(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"id": "a", "text": "x. y.", "summary": "z."}\n{"id": "b"}\n', encoding="utf-8"
        )
        code, _, err = run_cli(["build", "--corpus", bad, "--out-dir", tmp_path])
        assert code == 1
        assert "malformed corpus line 2" in json.loads(err)["error"]


class TestGendata:
    def test_line_counts_and_balance(self, ws):
        assert "summary_matching: 24" in ws["gendata_out"]
        assert "document_matching: 24" in ws["gendata_out"]
        for name in ("summary_matching.jsonl", "document_matching.jsonl"):
            rows = [
                json.loads(line)
                for line in (ws["data"] / name).read_text(encoding="utf-8").splitlines()
            ]
            assert len(rows) == 24
            assert sum(r["label"] for r in rows) == 12

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        run_ok(
            [
                "gendata",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--index", ws["index"],
                "--out-dir", tmp_path,
                "--n-pairs", "12",
                "--seed", "12",
            ]
        )
        for name in ("summary_matching.jsonl", "document_matching.jsonl"):
            assert (tmp_path / name).read_bytes() == (ws["data"] / name).read_bytes()

    def test_truncated_index_is_one_line_json_error(self, ws, tmp_path):
        clipped = tmp_path / "index.bin"
        clipped.write_bytes(ws["index"].read_bytes()[:-7])
        code, out, err = run_cli(
            [
                "gendata",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--index", clipped,
                "--out-dir", tmp_path / "data",
                "--n-pairs", "12",
            ]
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith("truncated index file")


# every train flag that sets a ModelConfig or TrainConfig field
_TRAIN_SETTINGS = {
    "hidden_dim", "n_layers", "n_heads", "ffn_dim", "prefix_len", "max_len", "init_seed",
    "learning_rate", "epochs", "batch_size", "seed", "mode", "scenario", "weight_decay",
    "clip_norm", "holdout_fraction", "target_accuracy",
}


class TestTrainDefaults:
    def test_defaults_are_the_config_dataclass_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c", "--vocab", "v"])
        defaults = _train_defaults(args)
        assert set(defaults) == _TRAIN_SETTINGS
        model, train = ModelConfig(vocab_size=4), TrainConfig()
        for key, value in defaults.items():
            assert value == getattr(model if hasattr(model, key) else train, key), key

    def test_help_documents_the_defaults(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        _, out, _ = run_cli(["train", "--help"])
        text = " ".join(out.split("options:")[1].split())
        documented = re.findall(r"--([\w-]+) \S+ (?:(?!--).)*?\(default ([^)]+)\)", text)
        assert len(documented) == 15
        args = build_parser().parse_args(["train", "--corpus", "c", "--vocab", "v"])
        defaults = _train_defaults(args)
        for flag, value in documented:
            assert str(defaults[flag.replace("-", "_")]) == value, flag

    @pytest.mark.parametrize("key", ["dropout", "beta1", "vocab_size", "corpus"])
    def test_config_keys_without_a_flag_rejected(self, ws, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}), encoding="utf-8")
        code, _, err = run_cli(
            ["train", "--corpus", ws["corpus"], "--vocab", ws["vocab"], "--config", cfg]
        )
        assert code == 1
        assert json.loads(err)["error"] == f"unknown config key: {key}"


class TestTrain:
    def test_unified_report_lists_three_scenarios(self, ws):
        report = ws["train_report"]
        assert report["mode"] == "unified"
        assert report["diverged"] is False
        for epoch_acc in report["holdout_accuracy"]:
            assert sorted(epoch_acc) == ["SD", "SDR", "SR"]
        assert Path(report["checkpoint_path"]).exists()

    def test_single_scenario_sd(self, ws, tmp_path):
        out = run_ok(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--document-matching", ws["data"] / "document_matching.jsonl",
                "--mode", "single",
                "--scenario", "SD",
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
                "--learning-rate", "0.001",
            ]
        )
        report = json.loads(out)
        assert report["mode"] == "single_scenario"
        assert sorted(report["holdout_accuracy"][0]) == ["SD"]

    def test_missing_stream_is_an_error(self, ws):
        code, _, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
            ]
        )
        assert code == 1
        assert "SD" in json.loads(err)["error"]

    def test_unknown_document_id_is_json_error(self, ws, tmp_path):
        rows = (ws["data"] / "summary_matching.jsonl").read_text(encoding="utf-8").splitlines()
        stray = json.loads(rows[0])
        stray["doc_id"] = "no-such-doc"
        bad = tmp_path / "summary_matching.jsonl"
        bad.write_text("\n".join(rows[1:] + [json.dumps(stray)]) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", bad,
                "--document-matching", ws["data"] / "document_matching.jsonl",
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
            ]
        )
        assert code == 1
        assert json.loads(err) == {"error": "unknown document id: no-such-doc"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_nonzero_with_report(self, ws):
        code, out, _ = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                "--document-matching", ws["data"] / "document_matching.jsonl",
                *TINY_MODEL_FLAGS,
                "--epochs", "2",
                "--learning-rate", "1e280",
            ]
        )
        assert code == 1
        assert json.loads(out)["diverged"] is True


class TestScore:
    def test_scores_in_range_with_shape(self, ws):
        out = run_ok(
            [
                "score",
                "--inputs", ws["inputs"],
                "--checkpoint", ws["checkpoint"],
                "--vocab", ws["vocab"],
                "--scenario", "SR",
            ]
        )
        rows = _score_lines(out)
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row["score"] <= 1.0
            assert row["scenario"] == "SR"
            assert row["fusion"] is None
            assert row["doc_id"].startswith("doc-")
            assert row["system_id"] == "s0"

    def _scores(self, ws, *extra):
        out = run_ok(
            [
                "score",
                "--inputs", ws["inputs"],
                "--checkpoint", ws["checkpoint"],
                "--vocab", ws["vocab"],
                *extra,
            ]
        )
        return [row["score"] for row in _score_lines(out)]

    def test_fused_equals_mean_of_separate_runs(self, ws):
        sr = self._scores(ws, "--scenario", "SR")
        sd = self._scores(ws, "--scenario", "SD")
        fused = self._scores(ws, "--scenario", "SDR", "--fusion", "arithmetic_mean")
        for a, b, f in zip(sr, sd, fused):
            assert f == pytest.approx((a + b) / 2.0, abs=1e-12)

    def test_direct_sdr_routes_through_model(self, ws):
        direct = self._scores(ws, "--scenario", "SDR")
        fused = self._scores(ws, "--scenario", "SDR", "--fusion", "arithmetic_mean")
        assert direct != fused
        assert all(0.0 <= s <= 1.0 for s in direct)

    def test_missing_field_names_line_and_field(self, ws, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"candidate": "a b", "document": "c d."}\n{"candidate": "a b"}\n',
            encoding="utf-8",
        )
        code, _, err = run_cli(
            [
                "score",
                "--inputs", bad,
                "--checkpoint", ws["checkpoint"],
                "--vocab", ws["vocab"],
                "--scenario", "SD",
            ]
        )
        assert code == 1
        assert json.loads(err)["error"] == "input line 2: missing field 'document'"

    def test_metric_rouge1_matches_direct_computation(self, ws, tmp_path):
        rows = [
            {"candidate": "the cat", "reference": "the cat sat"},
            {"candidate": "a b c", "reference": "a b c"},
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = run_ok(["score", "--inputs", path, "--metric", "rouge1"])
        got = _score_lines(out)
        for row, parsed in zip(rows, got):
            want = rouge_n(word_tokens(row["candidate"]), word_tokens(row["reference"]), 1)[2]
            assert parsed["score"] == pytest.approx(want, abs=1e-15)
            assert parsed["metric"] == "rouge1"
            assert parsed["scenario"] is None

    def test_metric_requires_reference(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"candidate": "a"}\n', encoding="utf-8")
        code, _, err = run_cli(["score", "--inputs", path, "--metric", "rouge2"])
        assert code == 1
        assert json.loads(err)["error"] == "input line 1: missing field 'reference'"

    def test_needs_model_or_metric(self, ws):
        code, _, err = run_cli(["score", "--inputs", ws["inputs"]])
        assert code == 1
        assert "--metric" in json.loads(err)["error"]

    def test_fusion_limited_to_sdr(self, ws):
        code, _, err = run_cli(
            [
                "score",
                "--inputs", ws["inputs"],
                "--checkpoint", ws["checkpoint"],
                "--vocab", ws["vocab"],
                "--scenario", "SR",
                "--fusion", "min",
            ]
        )
        assert code == 1
        assert json.loads(err)["error"] == "fusion requires scenario SDR"

    def test_out_file_rerun_is_byte_identical(self, ws, tmp_path):
        argv = [
            "score",
            "--inputs", ws["inputs"],
            "--checkpoint", ws["checkpoint"],
            "--vocab", ws["vocab"],
            "--scenario", "SD",
        ]
        run_ok([*argv, "--out", tmp_path / "a.jsonl"])
        run_ok([*argv, "--out", tmp_path / "b.jsonl"])
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert len(a) > 0


def _write_scores(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, system_id, value in triples:
            fh.write(
                json.dumps({"doc_id": doc_id, "system_id": system_id, "score": value}) + "\n"
            )


class TestEvaluate:
    def _perfect_fixture(self, tmp_path):
        values = [0.1 * k + 0.05 for k in range(8)]
        annotations = []
        triples = []
        for k, value in enumerate(values):
            doc_id, system_id = f"d{k % 4}", f"s{k // 4}"
            annotations.append(
                HumanAnnotation(doc_id, system_id, "x", {d: value for d in DIMENSIONS})
            )
            triples.append((doc_id, system_id, value))
        ann_path = tmp_path / "annotations.jsonl"
        write_annotations_jsonl(annotations, ann_path, scale=(0.0, 1.0))
        score_path = tmp_path / "scores.jsonl"
        _write_scores(score_path, triples)
        return score_path, ann_path

    def test_perfect_scores_give_unit_correlations(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        out = run_ok(["evaluate", "--scores", score_path, "--annotations", ann_path])
        report = json.loads(out)
        assert report["aggregation"] == "pooled"
        assert [r["dimension"] for r in report["results"]] == list(DIMENSIONS)
        for res in report["results"]:
            assert res["spearman_rho"] == pytest.approx(1.0, abs=1e-12)
            assert res["kendall_tau"] == pytest.approx(1.0, abs=1e-12)
            assert res["n"] == 8
        assert report["significance"] == []

    def _signal_noise_fixture(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(19)
        annotations = []
        signal = []
        noise = []
        for i in range(6):
            for j in range(5):
                q = float(rng.uniform())
                rating = float(np.clip(1.0 + 4.0 * q + rng.normal(0, 0.1), 1.0, 5.0))
                annotations.append(
                    HumanAnnotation(f"d{i}", f"s{j}", "x", {d: rating for d in DIMENSIONS})
                )
                signal.append((f"d{i}", f"s{j}", q))
                noise.append((f"d{i}", f"s{j}", float(rng.uniform())))
        ann_path = tmp_path / "annotations.jsonl"
        write_annotations_jsonl(annotations, ann_path)
        main_path = tmp_path / "scores.jsonl"
        _write_scores(main_path, signal)
        base_path = tmp_path / "rouge1.jsonl"
        _write_scores(base_path, noise)
        return main_path, base_path, ann_path

    def test_baseline_adds_significance_entries(self, tmp_path):
        main_path, base_path, ann_path = self._signal_noise_fixture(tmp_path)
        out = run_ok(
            [
                "evaluate",
                "--scores", main_path,
                "--annotations", ann_path,
                "--baseline", base_path,
            ]
        )
        report = json.loads(out)
        assert len(report["significance"]) == 4
        for entry in report["significance"]:
            assert entry["baseline"] == "rouge1"
            assert 0.0 <= entry["p"] <= 1.0
            assert entry["t"] > 0.0

    def test_dimension_subset(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        out = run_ok(
            [
                "evaluate",
                "--scores", score_path,
                "--annotations", ann_path,
                "--dimensions", "fluency",
            ]
        )
        report = json.loads(out)
        assert [r["dimension"] for r in report["results"]] == ["fluency"]

    def test_unknown_dimension_rejected(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        code, _, err = run_cli(
            [
                "evaluate",
                "--scores", score_path,
                "--annotations", ann_path,
                "--dimensions", "coherence,novelty",
            ]
        )
        assert code == 1
        assert "unknown dimension: novelty" in json.loads(err)["error"]

    def test_missing_annotation_lists_key(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        with open(score_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doc_id": "d9", "system_id": "s9", "score": 0.5}) + "\n")
        code, _, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert "doc_id='d9' system_id='s9'" in json.loads(err)["error"]

    def test_score_line_missing_field(self, tmp_path):
        _, ann_path = self._perfect_fixture(tmp_path)
        bad = tmp_path / "bad_scores.jsonl"
        bad.write_text('{"doc_id": "d0", "score": 1.0}\n', encoding="utf-8")
        code, _, err = run_cli(["evaluate", "--scores", bad, "--annotations", ann_path])
        assert code == 1
        assert json.loads(err)["error"] == "scores line 1: missing field 'system_id'"

    def test_system_level_aggregation(self, tmp_path):
        main_path, _, ann_path = self._signal_noise_fixture(tmp_path)
        out = run_ok(
            [
                "evaluate",
                "--scores", main_path,
                "--annotations", ann_path,
                "--system-level",
            ]
        )
        report = json.loads(out)
        assert report["aggregation"] == "system"
        assert all(r["n"] == 5 for r in report["results"])


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self):
        code, out, _ = run_cli(["gradcheck"])
        result = json.loads(out)
        assert code == 0
        assert result["pass"] is True
        assert result["max_rel_error"] < 1.0e-4
        assert result["seconds"] < 60.0

    def test_fails_at_unreachable_tolerance(self):
        code, out, _ = run_cli(["gradcheck", "--tolerance", "1e-12"])
        assert code == 1
        assert json.loads(out)["pass"] is False


class TestHelpAndErrors:
    @pytest.mark.parametrize(
        "name", ["main", "synth", "build", "gendata", "train", "score", "evaluate", "gradcheck"]
    )
    def test_help_snapshot(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if name == "main" else [name, "--help"]
        code, out, _ = run_cli(argv)
        assert code == 0
        want = (SNAPSHOT_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert out == want

    def test_unknown_command_is_json_error(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_bad_flag_value_is_json_error(self, tmp_path):
        code, _, err = run_cli(
            ["synth", "--out", tmp_path / "c.jsonl", "--n-docs", "many"]
        )
        assert code == 2
        assert "invalid int value" in json.loads(err)["error"]

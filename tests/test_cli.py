"""End-to-end command-line tests: pipeline wiring, config merging, error
reporting, output determinism, and help snapshots."""

import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import re
import signal
import types
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from umse import cli, model, training
from umse.cli import _train_defaults, build_parser, main
from umse.corpus import Vocabulary, tokenize, word_tokens
from umse.metaeval import DIMENSIONS, HumanAnnotation, rouge_n, write_annotations_jsonl
from umse.model import ModelConfig, fuse, init_parameters, load_checkpoint, save_checkpoint
from umse.retrieval import load_index
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

    @pytest.mark.parametrize(
        "field, value",
        [("text", ["a.", "b."]), ("id", 7), ("text", {"a": 1}), ("summary", None)],
    )
    def test_non_string_corpus_field_is_json_error(self, tmp_path, field, value):
        row = {"id": "a", "text": "x. y.", "summary": "z."}
        row[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"id": "b", "text": "x.", "summary": "y."}\n' + json.dumps(row) + "\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(["build", "--corpus", bad, "--out-dir", tmp_path / "out"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            f"malformed corpus line 2: field {field!r} must be a string"
        )
        assert not (tmp_path / "out").exists()


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


    @pytest.mark.parametrize("n_docs", ["30", "50"])
    def test_index_of_another_corpus_is_json_error(self, ws, tmp_path, n_docs):
        # a smaller and a larger corpus than the one the index was built from
        other = tmp_path / "other.jsonl"
        run_ok(["synth", "--out", other, "--n-docs", n_docs, "--topic-count", "5"])
        run_ok(["build", "--corpus", other, "--out-dir", tmp_path])
        for corpus, artifacts in ((other, ws["artifacts"]), (ws["corpus"], tmp_path)):
            code, out, err = run_cli(
                [
                    "gendata",
                    "--corpus", corpus,
                    "--vocab", artifacts / "vocab.txt",
                    "--index", artifacts / "index.bin",
                    "--out-dir", tmp_path / "data",
                    "--n-pairs", "12",
                ]
            )
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            assert json.loads(err)["error"].startswith("the index was built from another corpus")
            assert not (tmp_path / "data").exists()

    def test_vocab_smaller_than_the_index_is_json_error(self, ws, tmp_path):
        words = ws["vocab"].read_text(encoding="utf-8").splitlines()
        short = tmp_path / "vocab.txt"
        short.write_text("\n".join(words[:10]) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            [
                "gendata",
                "--corpus", ws["corpus"],
                "--vocab", short,
                "--index", ws["index"],
                "--out-dir", tmp_path / "data",
                "--n-pairs", "12",
            ]
        )
        assert (code, out) == (1, "")
        last = load_index(ws["index"]).terms[-1]
        assert json.loads(err) == {
            "error": f"vocab {short} has 14 tokens, but the index names token id {last}"
        }
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "insert, what", [(None, "repeated"), ("[CLS]", "special")]
    )
    def test_vocab_line_naming_a_known_token_is_json_error(self, ws, tmp_path, insert, what):
        words = ws["vocab"].read_text(encoding="utf-8").splitlines()
        token = words[0] if insert is None else insert
        bad = tmp_path / "vocab.txt"
        bad.write_text("\n".join(words[:2] + [token] + words[2:]) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            [
                "gendata",
                "--corpus", ws["corpus"],
                "--vocab", bad,
                "--index", ws["index"],
                "--out-dir", tmp_path / "data",
                "--n-pairs", "12",
            ]
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"vocab {bad} line 3: {what} token {token!r}"}
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("n_pairs", ["0", "-3"])
    def test_non_positive_pair_count_is_json_error(self, ws, tmp_path, n_pairs):
        code, out, err = run_cli(
            [
                "gendata",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--index", ws["index"],
                "--out-dir", tmp_path / "data",
                "--n-pairs", n_pairs,
            ]
        )
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": "n_pairs must be >= 1"}) + "\n"
        assert not (tmp_path / "data").exists()


# every train flag that sets a ModelConfig or TrainConfig field
_TRAIN_SETTINGS = {
    "hidden_dim", "n_layers", "n_heads", "ffn_dim", "prefix_len", "max_len", "init_seed",
    "learning_rate", "epochs", "batch_size", "seed", "scenario", "weight_decay",
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
        assert len(documented) == 14
        args = build_parser().parse_args(["train", "--corpus", "c", "--vocab", "v"])
        defaults = _train_defaults(args)
        for flag, value in documented:
            assert str(defaults[flag.replace("-", "_")]) == value, flag

    @pytest.mark.parametrize("key", ["dropout", "beta1", "vocab_size", "corpus", "mode"])
    def test_config_keys_without_a_flag_rejected(self, ws, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}), encoding="utf-8")
        code, _, err = run_cli(
            ["train", "--corpus", ws["corpus"], "--vocab", ws["vocab"], "--config", cfg]
        )
        assert code == 1
        assert json.loads(err)["error"] == f"unknown config key: {key}"


class TestConfigValues:
    """Config-file values are checked against the declaration of the flag
    of the same name."""

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("synth", {"n_docs": "abc"}, "n_docs must be int, got 'abc'"),
            ("synth", {"seed": None}, "seed must be int, got None"),
            ("gendata", {"n_pairs": 2.5}, "n_pairs must be int, got 2.5"),
            ("train", {"hidden_dim": "64"}, "hidden_dim must be int, got '64'"),
            ("train", {"epochs": True}, "epochs must be int, got True"),
            ("train", {"learning_rate": False}, "learning_rate must be float, got False"),
            ("train", {"clip_norm": None}, "clip_norm must be float, got None"),
            ("train", {"scenario": "XY"}, "scenario must be one of SR, SD, SDR, got 'XY'"),
            ("score", {"scenario": "XY"}, "scenario must be one of SR, SD, SDR, got 'XY'"),
        ],
    )
    def test_mistyped_value_is_json_error(self, tmp_path, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        paths = {
            "synth": ["--out", tmp_path / "c.jsonl"],
            "gendata": ["--corpus", "c", "--vocab", "v", "--index", "i", "--out-dir", tmp_path],
            "train": ["--corpus", "c", "--vocab", "v"],
            "score": ["--inputs", "in.jsonl"],
        }[command]
        code, out, err = run_cli([command, *paths, "--config", cfg])
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": f"malformed config file: {message}"}) + "\n"

    def test_null_where_the_default_is_none_and_int_for_float(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"target_accuracy": None, "weight_decay": 0, "epochs": 1}),
            encoding="utf-8",
        )
        out = run_ok(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--document-matching", ws["data"] / "document_matching.jsonl",
                "--scenario", "SD",
                *TINY_MODEL_FLAGS,
                "--config", cfg,
            ]
        )
        assert json.loads(out)["epochs_run"] == 1


class TestTrain:
    def test_unified_report_lists_three_scenarios(self, ws):
        report = ws["train_report"]
        assert "mode" not in report
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
                "--scenario", "SD",
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
                "--learning-rate", "0.001",
            ]
        )
        report = json.loads(out)
        assert sorted(report["holdout_accuracy"][0]) == ["SD"]

    def test_mode_flag_is_refused(self, ws):
        """``--scenario`` alone picks the streams and ``--prefix-len 0`` is
        the no-prefix ablation; the old ``--mode`` flag is an argument
        error."""
        code, out, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--document-matching", ws["data"] / "document_matching.jsonl",
                "--mode", "single_scenario",
                "--scenario", "SD",
            ]
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "argument error: unrecognized arguments: --mode single_scenario"
        }

    @pytest.mark.parametrize(
        "flag, value",
        [("--hidden-dim", "0"), ("--n-heads", "0"), ("--n-heads", "-2"), ("--ffn-dim", "0")],
    )
    def test_zero_width_is_json_error(self, ws, tmp_path, flag, value):
        code, out, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                "--document-matching", ws["data"] / "document_matching.jsonl",
                "--checkpoint-out", tmp_path / "model.ckpt",
                *TINY_MODEL_FLAGS,
                flag, value,
            ]
        )
        name = flag[2:].replace("-", "_")
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": f"{name} must be >= 1, got {value}"}) + "\n"
        assert not (tmp_path / "model.ckpt").exists()

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

    @pytest.mark.parametrize("field, value", [("label", 2), ("kind", "other")])
    def test_bad_label_or_kind_is_json_error(self, ws, tmp_path, field, value):
        rows = (ws["data"] / "document_matching.jsonl").read_text(encoding="utf-8").splitlines()
        rows[2] = json.dumps({**json.loads(rows[2]), field: value})
        bad = tmp_path / "document_matching.jsonl"
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                "--document-matching", bad,
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
            ]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed dataset line 3: ")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("summary_matching", "candidate", 5),
            ("summary_matching", "candidate", None),
            ("summary_matching", "reference", 5),
            ("summary_matching", "reference", None),
            ("document_matching", "candidate", ["a"]),
            ("document_matching", "reference", 5),
        ],
    )
    def test_non_string_text_is_json_error(self, ws, tmp_path, kind, field, value):
        rows = (ws["data"] / f"{kind}.jsonl").read_text(encoding="utf-8").splitlines()
        rows[2] = json.dumps({**json.loads(rows[2]), field: value})
        paths = {k: ws["data"] / f"{k}.jsonl" for k in ("summary_matching", "document_matching")}
        paths[kind] = tmp_path / f"{kind}.jsonl"
        paths[kind].write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", paths["summary_matching"],
                "--document-matching", paths["document_matching"],
                *TINY_MODEL_FLAGS,
                "--epochs", "1",
            ]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed dataset line 3: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("learning_rate", "nan", "learning_rate must be positive and finite, got nan"),
            ("learning_rate", "inf", "learning_rate must be positive and finite, got inf"),
            ("weight_decay", "-0.5", "weight_decay must be >= 0 and finite, got -0.5"),
            ("clip_norm", "-1", "clip_norm must be positive and finite, or None, got -1.0"),
            ("clip_norm", "inf", "clip_norm must be positive and finite, or None, got inf"),
            ("target_accuracy", "1.5", "target_accuracy must be in [0, 1], got 1.5"),
            ("target_accuracy", "nan", "target_accuracy must be in [0, 1], got nan"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_float_setting_is_json_error(self, ws, tmp_path, key, value, message, source):
        if source == "flag":
            setting = ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}), encoding="utf-8")
            setting = ["--config", cfg]
        code, out, err = run_cli(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                "--checkpoint-out", tmp_path / "model.ckpt",
                *TINY_MODEL_FLAGS,
                *setting,
            ]
        )
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": message}) + "\n"
        assert not (tmp_path / "model.ckpt").exists()

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

    @pytest.mark.parametrize("change", ["grow", "shrink"])
    def test_vocab_must_match_checkpoint(self, ws, tmp_path, change):
        words = ws["vocab"].read_text(encoding="utf-8").splitlines()
        words = words + ["zzextra"] if change == "grow" else words[:-1]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n", encoding="utf-8")
        inputs = tmp_path / "inputs.jsonl"
        inputs.write_text(
            json.dumps({"doc_id": "d0", "system_id": "s0", "candidate": "zzextra the",
                        "reference": "the zzextra"}) + "\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            ["score", "--inputs", inputs, "--checkpoint", ws["checkpoint"],
             "--vocab", vocab, "--scenario", "SR"]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        n = len(words) + 4  # the four special tokens precede the listed words
        assert json.loads(err)["error"].endswith(
            f"has {n} tokens, but the checkpoint was trained on {n + (1 if change == 'shrink' else -1)}"
        )

    def _scores(self, ws, *extra, checkpoint=None):
        out = run_ok(
            [
                "score",
                "--inputs", ws["inputs"],
                "--checkpoint", checkpoint or ws["checkpoint"],
                "--vocab", ws["vocab"],
                *extra,
            ]
        )
        return [row["score"] for row in _score_lines(out)]

    def _assert_model_score_bits(self, ws, checkpoint, flags):
        """``umse score --scenario *flags`` gives each input row exactly
        the score ``model.score`` computes from the loaded checkpoint."""
        params, config = load_checkpoint(checkpoint)
        vocab = Vocabulary.load(ws["vocab"])
        got = self._scores(ws, "--scenario", *flags, checkpoint=checkpoint)
        rows = [json.loads(line) for line in ws["inputs"].read_text("utf-8").splitlines()]
        assert len(got) == len(rows) == 6
        for row, value in zip(rows, got):
            cand, ref, doc = (tuple(tokenize(row[f], vocab))
                              for f in ("candidate", "reference", "document"))

            def direct(sc):
                return model.score(params, config, sc, cand, reference=ref, document=doc).score

            if len(flags) > 1:
                assert value == fuse(direct("SR"), direct("SD"), "arithmetic_mean")
            else:
                assert value == direct(flags[0])

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

    @pytest.mark.parametrize(
        "flags",
        [("SR",), ("SD",), ("SDR",), ("SDR", "--fusion", "arithmetic_mean")],
    )
    def test_output_equals_model_score_on_float64_params(self, ws, flags):
        """``model.score`` casts float64 parameters exactly as the command
        casts its checkpoint, so the two agree to the bit."""
        assert load_checkpoint(ws["checkpoint"])[0]["tok_emb"].dtype == np.float64
        self._assert_model_score_bits(ws, ws["checkpoint"], flags)

    def test_prefix_len_zero_checkpoint_scores_as_model_score(self, ws, tmp_path):
        """A checkpoint trained with ``--prefix-len 0`` records that it has
        no prefix: ``umse score`` gives its inputs no prefix slots and
        returns ``model.score``'s bits for every scenario."""
        checkpoint = tmp_path / "no_prefix.ckpt"
        run_ok(
            [
                "train",
                "--corpus", ws["corpus"],
                "--vocab", ws["vocab"],
                "--summary-matching", ws["data"] / "summary_matching.jsonl",
                "--document-matching", ws["data"] / "document_matching.jsonl",
                "--checkpoint-out", checkpoint,
                *TINY_MODEL_FLAGS, "--prefix-len", "0",
                "--epochs", "1",
                "--learning-rate", "0.001",
            ]
        )
        params, config = load_checkpoint(checkpoint)
        assert config.prefix_len == 0
        assert params["prefix_base"].shape == (0, config.hidden_dim)
        for flags in (("SR",), ("SD",), ("SDR",), ("SDR", "--fusion", "arithmetic_mean")):
            self._assert_model_score_bits(ws, checkpoint, flags)

    def _score_broken_checkpoint(self, ws, tmp_path, name, value):
        params, config = load_checkpoint(ws["checkpoint"])
        params[name].flat[0] = value
        checkpoint = tmp_path / "broken.ckpt"
        save_checkpoint(params, config, checkpoint)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                ["score", "--inputs", ws["inputs"], "--checkpoint", checkpoint,
                 "--vocab", ws["vocab"], "--scenario", "SDR"]
            )
        assert caught == []
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        return json.loads(err)["error"]

    def test_weight_outside_float32_range_is_refused(self, ws, tmp_path):
        """Finite in float64, a 1e39 weight has no float32 value: the
        checkpoint is refused when its copy is cast, naming the weight."""
        error = self._score_broken_checkpoint(ws, tmp_path, "layer0.attn.wv", 1e39)
        assert error == "parameter layer0.attn.wv holds 1e+39, outside the float32 range"

    def test_float32_overflow_is_one_json_line(self, ws, tmp_path):
        """A 3e38 gain is in range, but the normalized values it scales
        overflow float32: the first row reports it, and numpy prints no
        warning."""
        error = self._score_broken_checkpoint(ws, tmp_path, "final_ln.gamma", 3e38)
        assert error == "input line 1: numerical divergence"

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

    @pytest.mark.parametrize("metric, n", [("rouge1", 1), ("rouge2", 2)])
    def test_metric_counts_each_reference_once(self, tmp_path, monkeypatch, metric, n):
        """Candidates that share a reference share its n-gram counts; the
        scores are those of ``rouge_n`` on each row alone."""
        rows = [
            {"candidate": cand, "reference": ref}
            for ref in ("the cat sat on the mat", "a b a b c")
            for cand in ("the cat sat", "a b c", "b a b a", "mat the")
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        built = []
        counts = cli.ngram_counts

        def counting(tokens, k):
            built.append(tuple(tokens))
            return counts(tokens, k)

        monkeypatch.setattr(cli, "ngram_counts", counting)
        got = _score_lines(run_ok(["score", "--inputs", path, "--metric", metric]))
        assert sorted(built) == sorted({tuple(word_tokens(r["reference"])) for r in rows})
        for row, parsed in zip(rows, got):
            want = rouge_n(word_tokens(row["candidate"]), word_tokens(row["reference"]), n)[2]
            assert parsed["score"] == want

    def test_metric_rejects_non_string_text(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(
            '{"candidate": "a", "reference": "a"}\n{"candidate": 5, "reference": "a"}\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(["score", "--inputs", path, "--metric", "rougeL"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "input line 2: field 'candidate' must be a string"

    def test_model_rejects_non_string_text(self, ws, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"candidate": "a b", "reference": ["a"]}\n', encoding="utf-8")
        code, _, err = run_cli(
            [
                "score",
                "--inputs", path,
                "--checkpoint", ws["checkpoint"],
                "--vocab", ws["vocab"],
                "--scenario", "SR",
            ]
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "input line 1: field 'reference' must be a string"

    def test_null_text_is_not_a_missing_field(self, ws, tmp_path):
        """A null field is present and not a string, as in every other
        JSONL reader, with a lexical metric and with the model alike."""
        path = tmp_path / "in.jsonl"
        path.write_text('{"candidate": "a b", "reference": null}\n', encoding="utf-8")
        model = ["--checkpoint", ws["checkpoint"], "--vocab", ws["vocab"], "--scenario", "SR"]
        for flags in (["--metric", "rouge1"], model):
            code, out, err = run_cli(["score", "--inputs", path, *flags])
            assert (code, out) == (1, "")
            message = "input line 1: field 'reference' must be a string"
            assert err == json.dumps({"error": message}) + "\n"

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


class TestParallelScore:
    """Model rows are scored in chunks spread over the usable cores. Every
    worker count gives the same bytes and reports the same first bad row,
    and no child process outlives the call."""

    @pytest.fixture(scope="class")
    def rows(self, ws):
        """Two candidates for every corpus document: 80 rows, ten chunks."""
        rows = []
        for line in ws["corpus"].read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            for system_id, candidate in (("summary", doc["summary"]), ("text", doc["text"])):
                rows.append(
                    {"doc_id": doc["id"], "system_id": system_id, "candidate": candidate,
                     "reference": doc["summary"], "document": doc["text"]}
                )
        assert len(rows) > 4 * cli._SCORE_CHUNK
        return rows

    def _score(self, ws, monkeypatch, tmp_path, rows, workers, *flags):
        """Run ``umse score`` as if ``workers`` cores were usable; returns
        (exit code, stderr, output path, pool sizes started)."""
        monkeypatch.setattr(model, "_usable_cores", lambda: workers)
        pools = []

        def pool(*args):
            pools.append(args[0])
            return ProcessPoolExecutor(*args)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        inputs = tmp_path / f"in_{workers}.jsonl"
        inputs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / f"out_{workers}.jsonl"
        code, stdout, err = run_cli(
            ["score", "--inputs", inputs, "--checkpoint", ws["checkpoint"],
             "--vocab", ws["vocab"], *flags, "--out", out]
        )
        assert stdout == ""
        assert multiprocessing.active_children() == []
        return code, err, out, pools

    @pytest.mark.parametrize(
        "flags",
        [
            ("--scenario", "SR"),
            ("--scenario", "SD"),
            ("--scenario", "SDR"),
            ("--scenario", "SDR", "--fusion", "arithmetic_mean"),
        ],
    )
    def test_any_worker_count_writes_the_same_bytes(
        self, ws, monkeypatch, tmp_path, rows, flags
    ):
        written = []
        for workers, started in ((1, []), (2, [2]), (3, [3])):
            code, err, out, pools = self._score(ws, monkeypatch, tmp_path, rows, workers, *flags)
            assert code == 0, err
            assert pools == started
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        assert len(written[0].splitlines()) == len(rows)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "first, message",
        [
            ("empty", "input line 12: candidate must be non-empty"),
            ("missing", "input line 12: missing field 'reference'"),
        ],
    )
    def test_earliest_bad_row_is_reported(
        self, ws, monkeypatch, tmp_path, rows, workers, first, message
    ):
        # rows 11 and 61 (input lines 12 and 62) lie in different chunks
        rows = [dict(r) for r in rows]
        empty_at, missing_at = (11, 61) if first == "empty" else (61, 11)
        rows[empty_at]["candidate"] = ""
        del rows[missing_at]["reference"]
        code, err, out, _ = self._score(
            ws, monkeypatch, tmp_path, rows, workers, "--scenario", "SR"
        )
        assert code == 1
        assert err == json.dumps({"error": message}) + "\n"
        assert not out.exists()


class TestParallelTrain:
    """Each batch is split by example over the usable cores. Every worker
    count writes the same checkpoint and report, and no child process
    outlives the command, whether it succeeds, diverges or loses a worker."""

    def _train(self, ws, monkeypatch, tmp_path, workers, *flags):
        """Run ``umse train`` as if ``workers`` cores were usable; returns
        (exit code, stdout, stderr, checkpoint path, pool sizes started)."""
        monkeypatch.setattr(model, "_usable_cores", lambda: workers)
        pools = []

        def pool(*args):
            pools.append(args[0])
            return ProcessPoolExecutor(*args)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        checkpoint = tmp_path / "model.ckpt"
        code, out, err = run_cli(
            ["train", "--corpus", ws["corpus"], "--vocab", ws["vocab"],
             "--summary-matching", ws["data"] / "summary_matching.jsonl",
             "--document-matching", ws["data"] / "document_matching.jsonl",
             "--checkpoint-out", checkpoint, *TINY_MODEL_FLAGS, "--epochs", "2",
             "--learning-rate", "0.001", *flags]
        )
        assert multiprocessing.active_children() == []
        return code, out, err, checkpoint, pools

    def test_any_worker_count_writes_the_same_bytes(self, ws, monkeypatch, tmp_path):
        checkpoints, reports, logs = [], [], []
        for workers, started in ((1, []), (2, [2]), (3, [3])):
            code, out, err, checkpoint, pools = self._train(ws, monkeypatch, tmp_path, workers)
            assert code == 0, err
            assert pools == started
            checkpoints.append(checkpoint.read_bytes())
            report = json.loads(out)
            del report["wall_clock_seconds"]
            reports.append(report)
            logs.append([
                {k: v for k, v in json.loads(line).items() if k != "seconds"}
                for line in err.splitlines()
            ])
        assert checkpoints[0] == checkpoints[1] == checkpoints[2]
        assert reports[0] == reports[1] == reports[2]
        assert logs[0] == logs[1] == logs[2]
        assert reports[0]["total_steps"] == 2 * 9  # three streams of 22 in batches of 8

    @pytest.mark.parametrize("gain", [3e38, 1e39])
    def test_float32_overflow_is_one_json_line(self, ws, monkeypatch, tmp_path, gain):
        """Weights that a float32 training step cannot carry end ``umse
        train`` at its first step, on one worker and on two: exit 1, the
        report as the one line of output, no numpy warning, no checkpoint."""

        def overflowing(config):
            params = init_parameters(config)
            params["final_ln.gamma"][:] = gain
            return params

        monkeypatch.setattr(cli, "init_parameters", overflowing)
        for workers, started in ((1, []), (2, [2])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # in the workers too, which fork here
                code, out, err, checkpoint, pools = self._train(
                    ws, monkeypatch, tmp_path, workers
                )
            assert (code, err, pools) == (1, "", started)
            assert len(out.splitlines()) == 1
            report = json.loads(out)
            assert report["diverged"] is True
            assert (report["epochs_run"], report["total_steps"]) == (0, 0)
            assert not checkpoint.exists()

    def test_divergence_leaves_no_child(self, ws, monkeypatch, tmp_path):
        with np.errstate(all="ignore"):
            code, out, err, checkpoint, pools = self._train(
                ws, monkeypatch, tmp_path, 2, "--learning-rate", "1e30"
            )
        assert code == 1
        assert pools == [2]
        assert json.loads(out)["diverged"] is True
        assert not checkpoint.exists()

    def test_killed_worker_is_json_error(self, ws, monkeypatch, tmp_path):
        parent = os.getpid()
        gradients = training._example_gradients

        def die_in_a_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return gradients(*args)

        monkeypatch.setattr(training, "_example_gradients", die_in_a_worker)
        code, out, err, checkpoint, pools = self._train(ws, monkeypatch, tmp_path, 2)
        assert (code, out) == (1, "")
        assert pools == [2]
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("a training worker died")
        assert not checkpoint.exists()


def _write_scores(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, system_id, value in triples:
            fh.write(
                json.dumps({"doc_id": doc_id, "system_id": system_id, "score": value}) + "\n"
            )


class TestCheckpointFile:
    """Every malformed checkpoint ends ``umse score`` with exit 1 and one
    JSON line on standard error, before any row is scored."""

    CONFIG = ModelConfig(
        vocab_size=4, hidden_dim=2, n_layers=1, n_heads=1, ffn_dim=2,
        prefix_len=1, max_len=5, mlp_dims=(2, 2, 2),
    )

    def _error(self, ws, path):
        code, out, err = run_cli(
            ["score", "--inputs", ws["inputs"], "--checkpoint", path,
             "--vocab", ws["vocab"], "--scenario", "SR"]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        return json.loads(err)["error"]

    def _saved(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, self.CONFIG, path)
        return path

    def test_every_truncation_is_json_error(self, ws, tmp_path):
        data = self._saved(tmp_path, init_parameters(self.CONFIG)).read_bytes()
        cut = tmp_path / "cut.ckpt"
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            error = self._error(ws, cut)
            expected = "not a checkpoint file" if end < 9 else "truncated checkpoint"
            assert error.startswith(expected), (end, error)

    def test_missing_parameter(self, ws, tmp_path):
        params = init_parameters(self.CONFIG)
        del params["head.w1"]
        error = self._error(ws, self._saved(tmp_path, params))
        assert error.endswith("missing parameter 'head.w1'")

    def test_extra_parameter(self, ws, tmp_path):
        params = init_parameters(self.CONFIG)
        params["head.w4"] = np.zeros((2, 2))
        error = self._error(ws, self._saved(tmp_path, params))
        assert error.endswith("unexpected parameter 'head.w4'")

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (2, 2, 1), (4,)])
    def test_misshapen_parameter(self, ws, tmp_path, shape):
        params = init_parameters(self.CONFIG)
        params["head.w1"] = np.zeros(shape)
        error = self._error(ws, self._saved(tmp_path, params))
        assert error.endswith(f"parameter head.w1 has shape {shape}, the config needs (2, 2)")

    def test_trailing_bytes(self, ws, tmp_path):
        path = self._saved(tmp_path, init_parameters(self.CONFIG))
        path.write_bytes(path.read_bytes() + b"\x00")
        assert self._error(ws, path).endswith("1 bytes after the last parameter")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ffn_dim": 0}, "ffn_dim must be >= 1, got 0"),
            ({"hidden_dim": 0}, "hidden_dim must be >= 1, got 0"),
            ({"n_heads": 0}, "n_heads must be >= 1, got 0"),
            ({"mlp_dims": [0, 2, 2]}, "mlp_dims widths must be >= 1, got [0, 2, 2]"),
        ],
    )
    def test_zero_width_config(self, ws, tmp_path, change, message):
        """A config with a zero width, written with parameters of the
        shapes it implies, some of them holding no element."""
        raw = {**dataclasses.asdict(self.CONFIG), **change}
        shapes = model.param_shapes(types.SimpleNamespace(**raw))
        header = types.SimpleNamespace(to_json=lambda: json.dumps(raw, sort_keys=True))
        path = tmp_path / "model.ckpt"
        save_checkpoint({name: np.zeros(shape) for name, shape in shapes.items()}, header, path)
        assert self._error(ws, path) == (
            f"corrupt checkpoint {path}: unreadable config ({message})"
        )

    @pytest.mark.parametrize("blob", [b"{", b"[]", b'{"vocab_size": 4}', b"\xff"])
    def test_unreadable_config(self, ws, tmp_path, blob):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"UMSECKPT1" + len(blob).to_bytes(4, "little") + blob)
        assert "unreadable config" in self._error(ws, path)


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

    @pytest.mark.parametrize("flag", ["--scores", "--baseline"])
    @pytest.mark.parametrize("key", ["doc_id", "system_id"])
    @pytest.mark.parametrize("literal", ['["d0"]', '{"a": 1}', "0", "null"])
    def test_score_line_ids_must_be_strings(self, tmp_path, flag, key, literal):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        row = {"doc_id": "d0", "system_id": "s0", "score": 0.5}
        row[key] = "ID"
        bad = tmp_path / "bad.jsonl"
        line = json.dumps(row).replace('"ID"', literal)
        bad.write_text(score_path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        files = {"--scores": score_path, "--baseline": score_path, flag: bad}
        code, out, err = run_cli(
            ["evaluate", "--annotations", ann_path, *(a for kv in files.items() for a in kv)]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == f"scores line 9: field {key!r} must be a string"

    @pytest.mark.parametrize("flag", ["--scores", "--baseline"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "malformed scores line 9: Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "malformed scores line 9: not a JSON object"),
        ],
    )
    def test_score_line_must_be_a_json_object(self, tmp_path, flag, line, message):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(score_path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        files = {"--scores": score_path, "--baseline": score_path, flag: bad}
        code, out, err = run_cli(
            ["evaluate", "--annotations", ann_path, *(a for kv in files.items() for a in kv)]
        )
        assert code == 1
        assert out == ""
        assert err == json.dumps({"error": message}) + "\n"

    @pytest.mark.parametrize("flag", ["--scores", "--baseline"])
    def test_repeated_score_pair_rejected(self, tmp_path, flag):
        """Three pairs and a copy of the first would otherwise be counted
        as four."""
        score_path, ann_path = self._perfect_fixture(tmp_path)
        lines = score_path.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:3] + lines[:1]) + "\n", encoding="utf-8")
        files = {"--scores": score_path, "--baseline": score_path, flag: bad}
        code, out, err = run_cli(
            ["evaluate", "--annotations", ann_path, *(a for kv in files.items() for a in kv)]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            "scores line 4: repeated (doc_id, system_id) ('d0', 's0'), first on line 1"
        )

    def test_repeated_annotation_pair_rejected(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        lines = ann_path.read_text(encoding="utf-8").splitlines()
        ann_path.write_text("\n".join(lines + lines[2:3]) + "\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            "malformed annotation line 10: repeated (doc_id, system_id) ('d1', 's0'), first on line 3"
        )

    @pytest.mark.parametrize(
        "key, literal, message",
        [
            ("doc_id", '["d0"]', "field 'doc_id' must be a string"),
            ("system_id", '["s0"]', "field 'system_id' must be a string"),
            ("doc_id", "3", "field 'doc_id' must be a string"),
            ("summary", "null", "field 'summary' must be a string"),
            ("ratings", "[1, 2, 3, 4]", "field 'ratings' must be an object"),
            ("doc_id", None, "missing field 'doc_id'"),
            ("ratings", None, "missing field 'ratings'"),
        ],
    )
    def test_annotation_fields_must_be_well_typed(self, tmp_path, key, literal, message):
        """A literal of None leaves the key out of the row."""
        score_path, ann_path = self._perfect_fixture(tmp_path)
        lines = ann_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[3])
        row[key] = "VALUE"
        if literal is None:
            del row[key]
        lines[3] = json.dumps(row).replace('"VALUE"', literal or "")
        ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == f"malformed annotation line 4: {message}"

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e400", "[1]", "true", '"0.5"', "null"]
    )
    def test_score_must_be_a_finite_number(self, tmp_path, literal):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        with open(score_path, "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "d0", "system_id": "s0", "score": ' + literal + "}\n")
        code, out, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("scores line 9: score must be a finite number")

    def test_unparseable_rating_names_line(self, tmp_path):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        lines = ann_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[3])
        row["ratings"]["coherence"] = "abc"
        lines[3] = json.dumps(row)
        ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed annotation line 4:")

    @pytest.mark.parametrize("literal", ['"0.5"', "true", "NaN", "Infinity", "1e400", "null", "[1]"])
    def test_rating_must_be_a_finite_number(self, tmp_path, literal):
        score_path, ann_path = self._perfect_fixture(tmp_path)
        lines = ann_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[3])
        row["ratings"]["fluency"] = "RATING"
        lines[3] = json.dumps(row).replace('"RATING"', literal)
        ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--scores", score_path, "--annotations", ann_path])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith(
            "malformed annotation line 4: fluency rating must be a finite number"
        )

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

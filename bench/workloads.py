"""The three benchmark workloads: seeded inputs, timed CLI calls, checks.

Every workload drives ``umse.cli.main`` in-process, one call per pipeline
stage, exactly as a user would type the commands. The benchmark's seed
decides every input; umse itself only sees the generated files and the
seed flags a user would pass. Each CLI call and each correctness check is
one operation; a nonzero exit, an exception or a failed check counts as a
failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from pathlib import Path

import umse.metaeval as metaeval
import umse.model as model
from umse import cli
from umse.corpus import Vocabulary, tokenize

# Sizes per scale. "desk" is what the benchmark measures; "tiny" only
# exercises every code path for the smoke run. datagen_metaeval uses half
# the desk corpus at the same 40 documents per topic, so that a pass is
# short enough to repeat several times in a run while gendata still draws
# more pairs than there are documents.
SCALES = {
    "desk": {
        "n_docs": 2000,
        "topics": 50,
        "train_pairs": 64,
        "score_docs": 64,
        "long_every": 16,
        "long_concat": 6,
        "meta_docs": 1000,
        "meta_topics": 25,
        "gendata_pairs": 1100,
        "ann_docs": 250,
        "ann_systems": 16,
        "min_cycles": 3,
    },
    "tiny": {
        "n_docs": 120,
        "topics": 6,
        "train_pairs": 12,
        "score_docs": 8,
        "long_every": 4,
        "long_concat": 6,
        "meta_docs": 120,
        "meta_topics": 6,
        "gendata_pairs": 130,
        "ann_docs": 12,
        "ann_systems": 5,
        "min_cycles": 2,
    },
}

# The desk model of the ROADMAP's acceptance recipe, pinned by flag so a
# change of built-in defaults does not change the workload.
DESK_MODEL = {
    "hidden_dim": 64,
    "n_layers": 2,
    "n_heads": 4,
    "ffn_dim": 256,
    "prefix_len": 16,
    "max_len": 512,
}
BATCH_SIZE = 8
HOLDOUT_FRACTION = 0.1

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Issues CLI calls and checks, and keeps the operation log."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, int] = {}
        self.phase = "setup"
        self.rep = 0
        self.traced = False

    def call(self, *argv) -> tuple[int | None, str, float]:
        """Run one umse command; returns (exit code, stdout, wall seconds)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        if self.traced:
            self.tracer.op = len(self.ops)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback out of the CLI is a failed operation
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            end = time.perf_counter()
        self.ops.append(
            {"cmd": argv[0], "phase": self.phase, "rep": self.rep,
             "traced": self.traced, "start": start, "end": end, "rc": rc}
        )
        self.attempted += 1
        if rc != 0:
            self.failures.append(f"umse {argv[0]} exited {rc}: {err.getvalue()[-300:]}")
        return rc, out.getvalue(), end - start

    def check(self, name: str, fn) -> None:
        """``fn`` returns None when the check holds, else a description."""
        self.attempted += 1
        self.checks[name] = self.checks.get(name, 0) + 1
        try:
            problem = fn()
        except Exception as exc:  # a check that cannot run has failed
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"check {name}: {problem}")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_END.split(text.strip()) if s]


class Workload:
    name = ""

    def __init__(self, scale: dict, seed: int, work: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.work = work
        self.corpus = work / "corpus.jsonl"
        self.art = work / "art"
        self.vocab = self.art / "vocab.txt"
        self.index = self.art / "index.bin"

    def synth_and_build(self, run: Runner) -> None:
        s = self.scale
        run.call("synth", "--out", self.corpus, "--n-docs", s["n_docs"],
                 "--topic-count", s["topics"], "--seed", self.seed)
        run.call("build", "--corpus", self.corpus, "--out-dir", self.art)

    def setup(self, run: Runner) -> None:
        raise NotImplementedError

    def run_pass(self, run: Runner) -> dict[str, float]:
        """Timed calls of one pass: ``job_s``, ``throughput_per_s`` and the
        per-stage rates."""
        raise NotImplementedError

    def check_pass(self, run: Runner) -> None:
        raise NotImplementedError

    def outputs(self) -> dict[str, Path]:
        raise NotImplementedError


class TrainDesk(Workload):
    """One epoch of ``umse train`` on the desk corpus and model."""

    name = "train_desk"

    def __init__(self, scale, seed, work) -> None:
        super().__init__(scale, seed, work)
        self.data = work / "data"
        self.sm = self.data / "summary_matching.jsonl"
        self.dm = self.data / "document_matching.jsonl"
        self.ckpt = work / "model.ckpt"
        self.report = ""

    def setup(self, run: Runner) -> None:
        self.synth_and_build(run)
        run.call("gendata", "--corpus", self.corpus, "--vocab", self.vocab,
                 "--index", self.index, "--out-dir", self.data,
                 "--n-pairs", self.scale["train_pairs"], "--seed", self.seed)
        # SR and SDR each take every summary-matching example, SD every
        # document-matching one; each stream holds out a fraction
        streams = [len(_read_jsonl(path)) for path in (self.sm, self.sm, self.dm)]
        trained = [n - min(int(n * HOLDOUT_FRACTION), n - 1) for n in streams]
        self.examples = sum(trained)
        self.expected_steps = sum(math.ceil(n / BATCH_SIZE) for n in trained)

    def run_pass(self, run: Runner) -> dict[str, float]:
        flags = [a for key, value in DESK_MODEL.items()
                 for a in (f"--{key.replace('_', '-')}", value)]
        _rc, self.report, wall = run.call(
            "train", "--corpus", self.corpus, "--vocab", self.vocab,
            "--summary-matching", self.sm, "--document-matching", self.dm,
            "--checkpoint-out", self.ckpt, "--epochs", 1, *flags,
            "--batch-size", BATCH_SIZE, "--learning-rate", 3.0e-5,
            "--holdout-fraction", HOLDOUT_FRACTION,
            "--seed", self.seed, "--init-seed", self.seed,
        )
        rate = self.examples / wall
        return {"job_s": wall, "throughput_per_s": rate, "train_examples_per_s": rate}

    def check_pass(self, run: Runner) -> None:
        report = {}

        def parsed():
            nonlocal report
            report = json.loads(self.report.strip().splitlines()[-1])
            if report["diverged"]:
                return "training diverged"

        def steps():
            if report.get("total_steps") != self.expected_steps:
                return f"total_steps {report.get('total_steps')} != {self.expected_steps}"

        def losses():
            values = [report["initial_loss"], *report["epoch_losses"]]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite loss in {values}"

        def checkpoint():
            params, config = model.load_checkpoint(self.ckpt)
            vocab_size = len(Vocabulary.load(self.vocab))
            if config.vocab_size != vocab_size:
                return f"checkpoint vocab_size {config.vocab_size} != {vocab_size}"
            if not all(bool((arr == arr).all()) for arr in params.values()):
                return "checkpoint holds NaN"

        run.check("train_report", parsed)
        run.check("train_total_steps", steps)
        run.check("train_losses_finite", losses)
        run.check("checkpoint_loads", checkpoint)

    def outputs(self) -> dict[str, Path]:
        return {"index": self.index, "vocab": self.vocab, "summary_matching": self.sm,
                "document_matching": self.dm, "checkpoint": self.ckpt}


class ScoreMixed(Workload):
    """``umse score`` four ways on one file of mixed-length rows."""

    name = "score_mixed"
    RUNS = (
        ("SR", ("--scenario", "SR")),
        ("SD", ("--scenario", "SD")),
        ("SDR", ("--scenario", "SDR")),
        ("fused", ("--scenario", "SDR", "--fusion", "arithmetic_mean")),
    )

    def __init__(self, scale, seed, work) -> None:
        super().__init__(scale, seed, work)
        self.ckpt = work / "init.ckpt"
        self.inputs = work / "inputs.jsonl"
        self.scored = {label: work / f"scores_{label}.jsonl" for label, _ in self.RUNS}
        self.reference_checked = False

    def setup(self, run: Runner) -> None:
        self.synth_and_build(run)
        vocab = Vocabulary.load(self.vocab)
        config = model.ModelConfig(vocab_size=len(vocab), init_seed=self.seed, **DESK_MODEL)
        model.save_checkpoint(model.init_parameters(config), config, self.ckpt)
        self.rows = self._rows()
        _write_jsonl(self.inputs, self.rows)

    def _rows(self) -> list[dict]:
        """Four candidates per source document: lead-3, the reference,
        random document sentences and a same-topic neighbour's reference.
        One source document in ``long_every`` carries same-topic documents
        appended to it, which pushes the SD and SDR inputs past the 512
        token cap, so those rows are truncated."""
        s = self.scale
        rng = random.Random(self.seed)
        docs = _read_jsonl(self.corpus)
        n, topics = len(docs), s["topics"]
        rows = []
        for k, d in enumerate(rng.sample(range(n), s["score_docs"])):
            doc = docs[d]
            sentences = _sentences(doc["text"])
            text = doc["text"]
            if k % s["long_every"] == s["long_every"] - 1:
                # n_docs is a multiple of topics, so d + j*topics stays in topic
                text = " ".join(
                    [text] + [docs[(d + j * topics) % n]["text"]
                              for j in range(1, s["long_concat"] + 1)]
                )
            picked = sorted(rng.sample(range(len(sentences)), 3))
            candidates = {
                "lead3": " ".join(sentences[:3]),
                "reference": doc["summary"],
                "random": " ".join(sentences[i] for i in picked),
                "neighbour": docs[(d + topics) % n]["summary"],
            }
            for system_id, candidate in candidates.items():
                rows.append({"doc_id": doc["id"], "system_id": system_id,
                             "candidate": candidate, "reference": doc["summary"],
                             "document": text})
        return rows

    def run_pass(self, run: Runner) -> dict[str, float]:
        out = {}
        total = 0.0
        for label, flags in self.RUNS:
            _rc, _stdout, wall = run.call(
                "score", "--inputs", self.inputs, "--checkpoint", self.ckpt,
                "--vocab", self.vocab, *flags, "--out", self.scored[label],
            )
            out[f"score_{label.lower()}_rows_per_s"] = len(self.rows) / wall
            total += wall
        out["job_s"] = total
        out["throughput_per_s"] = len(self.RUNS) * len(self.rows) / total
        return out

    def check_pass(self, run: Runner) -> None:
        scores: dict[str, list[float]] = {}
        for label, _flags in self.RUNS:
            def lines(label=label):
                got = _read_jsonl(self.scored[label])
                if len(got) != len(self.rows):
                    return f"{label}: {len(got)} lines for {len(self.rows)} rows"
                for row, line in zip(self.rows, got):
                    if (line.get("doc_id"), line.get("system_id")) != (
                        row["doc_id"], row["system_id"]
                    ):
                        return f"{label}: ids not passed through in order"
                    value = line.get("score")
                    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                        return f"{label}: score {value!r} not finite in [0, 1]"
                scores[label] = [line["score"] for line in got]

            run.check(f"score_lines_{label}", lines)

        def fused():
            worst = max(
                abs(f - (a + b) / 2.0)
                for f, a, b in zip(scores["fused"], scores["SR"], scores["SD"])
            )
            if not worst <= 1.0e-12:
                return f"fused differs from (SR+SD)/2 by {worst:.3g}"

        run.check("fused_is_mean", fused)
        if self.reference_checked:
            return
        self.reference_checked = True

        def direct():
            """A fixed sample, with the first truncated row, against
            umse.model.score called directly."""
            params, config = model.load_checkpoint(self.ckpt)
            vocab = Vocabulary.load(self.vocab)
            step = max(1, len(self.rows) // 8)
            long_row = 4 * (self.scale["long_every"] - 1)
            sample = sorted(set(range(0, len(self.rows), step)) | {long_row})
            worst = 0.0
            for i in sample:
                row = self.rows[i]
                cand, ref, doc = (tuple(tokenize(row[f], vocab))
                                  for f in ("candidate", "reference", "document"))
                for sc in ("SR", "SD", "SDR"):
                    got = model.score(params, config, sc, cand,
                                      reference=ref, document=doc).score
                    worst = max(worst, abs(got - scores[sc][i]))
            if not worst <= 1.0e-9:
                return f"CLI and direct scores differ by {worst:.3g}"

        run.check("score_matches_direct", direct)

    def outputs(self) -> dict[str, Path]:
        out = {"index": self.index, "vocab": self.vocab, "checkpoint": self.ckpt}
        out.update({f"scores_{label}": path for label, path in self.scored.items()})
        return out


class DatagenMetaeval(Workload):
    """The non-neural half: build, gendata, two ROUGE baselines, evaluate."""

    name = "datagen_metaeval"

    def __init__(self, scale, seed, work) -> None:
        super().__init__(scale, seed, work)
        self.data = work / "data"
        self.sm = self.data / "summary_matching.jsonl"
        self.dm = self.data / "document_matching.jsonl"
        self.rows = work / "rows.jsonl"
        self.annotations = work / "annotations.jsonl"
        self.planted = work / "planted.jsonl"
        self.rouge = {m: work / f"{m}.jsonl" for m in ("rougeL", "rouge1")}
        self.report = work / "evaluate.json"

    def setup(self, run: Runner) -> None:
        s = self.scale
        run.call("synth", "--out", self.corpus, "--n-docs", s["meta_docs"],
                 "--topic-count", s["meta_topics"], "--seed", self.seed)
        self._annotations()

    def _annotations(self) -> None:
        """Pooled (doc, system) pairs with a planted latent quality. Ratings
        are 1 + 4*quality plus noise, rounded to thirds as a mean of three
        integer judgements would be, so ties are heavy. The scorer under
        test reports quality plus noise; the candidate text, and so ROUGE,
        is drawn independently of quality."""
        s = self.scale
        rng = random.Random(self.seed)
        docs = _read_jsonl(self.corpus)
        n, topics = len(docs), s["meta_topics"]
        rows, annotations, planted = [], [], []
        for d in rng.sample(range(n), s["ann_docs"]):
            doc = docs[d]
            pool = _sentences(doc["text"]) + _sentences(docs[(d + topics) % n]["summary"])
            for j in range(s["ann_systems"]):
                system_id = f"sys{j:02d}"
                candidate = " ".join(rng.sample(pool, rng.randint(1, 4)))
                quality = rng.random()
                ratings = {
                    dim: min(5.0, max(1.0, round(3.0 * (1.0 + 4.0 * quality
                                                        + rng.gauss(0.0, 0.3))) / 3.0))
                    for dim in metaeval.DIMENSIONS
                }
                rows.append({"doc_id": doc["id"], "system_id": system_id,
                             "candidate": candidate, "reference": doc["summary"]})
                annotations.append(metaeval.HumanAnnotation(doc["id"], system_id,
                                                            candidate, ratings))
                planted.append({"doc_id": doc["id"], "system_id": system_id,
                                "score": quality + rng.gauss(0.0, 0.1)})
        _write_jsonl(self.rows, rows)
        metaeval.write_annotations_jsonl(annotations, self.annotations)
        _write_jsonl(self.planted, planted)
        self.n_pairs = len(rows)

    def run_pass(self, run: Runner) -> dict[str, float]:
        s = self.scale
        _rc, _out, build = run.call("build", "--corpus", self.corpus, "--out-dir", self.art)
        _rc, _out, gendata = run.call(
            "gendata", "--corpus", self.corpus, "--vocab", self.vocab, "--index", self.index,
            "--out-dir", self.data, "--n-pairs", s["gendata_pairs"], "--seed", self.seed,
        )
        rouge = 0.0
        for metric, path in self.rouge.items():
            rouge += run.call("score", "--inputs", self.rows, "--metric", metric,
                              "--out", path)[2]
        _rc, report, evaluate = run.call(
            "evaluate", "--scores", self.planted, "--annotations", self.annotations,
            "--baseline", self.rouge["rougeL"],
        )
        self.report.write_text(report, encoding="utf-8")
        examples = 4 * s["gendata_pairs"]  # two kinds, a positive and a negative per pair
        return {
            "job_s": build + gendata + rouge + evaluate,
            "throughput_per_s": examples / gendata,
            "build_docs_per_s": s["meta_docs"] / build,
            "gendata_pairs_per_s": examples / gendata,
            "rouge_rows_per_s": len(self.rouge) * self.n_pairs / rouge,
            "evaluate_pairs_per_s": self.n_pairs / evaluate,
        }

    def check_pass(self, run: Runner) -> None:
        expected = 2 * self.scale["gendata_pairs"]
        for path in (self.sm, self.dm):
            def dataset(path=path):
                labels = [row["label"] for row in _read_jsonl(path)]
                if len(labels) != expected or sum(labels) != expected // 2:
                    return (f"{path.name}: {len(labels)} examples, {sum(labels)} "
                            f"positive; want {expected}, {expected // 2}")

            run.check(f"dataset_{path.stem}", dataset)

        report = {}

        def parsed():
            nonlocal report
            report = json.loads(self.report.read_text(encoding="utf-8"))
            dims = [r["dimension"] for r in report["results"]]
            if dims != list(metaeval.DIMENSIONS) or len(report["significance"]) != len(dims):
                return f"report covers {dims}"
            if any(r["n"] != self.n_pairs for r in report["results"]):
                return "report n differs from the pooled pair count"

        run.check("evaluate_report", parsed)

        def planted_beats_rouge():
            annotations, _scale = metaeval.read_annotations_jsonl(self.annotations)
            lookup = {(a.doc_id, a.system_id): a.ratings for a in annotations}
            rouge = _read_jsonl(self.rouge["rougeL"])
            for result in report["results"]:
                dim = result["dimension"]
                rho = metaeval.spearman([r["score"] for r in rouge],
                                        [lookup[(r["doc_id"], r["system_id"])][dim]
                                         for r in rouge])
                if not result["spearman_rho"] > rho:
                    return f"{dim}: planted rho {result['spearman_rho']:.4f} <= ROUGE-L {rho:.4f}"

        run.check("planted_beats_rouge", planted_beats_rouge)

        def significance_n():
            annotations, _scale = metaeval.read_annotations_jsonl(self.annotations)
            scores = [(r["doc_id"], r["system_id"], r["score"])
                      for r in _read_jsonl(self.planted)]
            base = [(r["doc_id"], r["system_id"], r["score"])
                    for r in _read_jsonl(self.rouge["rougeL"])]
            for dim in metaeval.DIMENSIONS:
                _t, _p, n = metaeval.significance_against_baseline(
                    scores, base, annotations, dim)
                if n != self.scale["ann_docs"]:
                    return f"{dim}: significance pairs {n} documents of {self.scale['ann_docs']}"

        run.check("significance_n", significance_n)

    def outputs(self) -> dict[str, Path]:
        out = {"index": self.index, "vocab": self.vocab, "summary_matching": self.sm,
               "document_matching": self.dm, "evaluate_report": self.report}
        out.update({f"scores_{m}": path for m, path in self.rouge.items()})
        return out


WORKLOADS = {cls.name: cls for cls in (TrainDesk, ScoreMixed, DatagenMetaeval)}

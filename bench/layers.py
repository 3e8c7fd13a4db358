"""Per-layer metrics derived from the spans of a traced run.

Every metric is taken from one phase. The plain names cover the measured
passes only; the ``setup.`` names cover the set-ups only, for the layers
that set-up runs. Totals and counts are means over the traced passes (or
set-ups), so the numbers do not depend on how many cycles fitted into the
run. Percentiles and fractions pool every traced span of the phase. Self
time is a span's duration minus the time its traced children cover. A
metric with nothing measured behind it, because its layer does not run in
that phase of the workload or its function no longer exists, is reported
as 0 and listed as absent.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

SCENARIOS = ("SR", "SD", "SDR")

STAGE_RATES = (
    "train_examples_per_s",
    "score_sr_rows_per_s",
    "score_sd_rows_per_s",
    "score_sdr_rows_per_s",
    "score_fused_rows_per_s",
    "build_docs_per_s",
    "gendata_pairs_per_s",
    "rouge_rows_per_s",
    "evaluate_pairs_per_s",
)


def _per_scenario(stem: str, unit: str) -> list[tuple[str, str]]:
    return [(f"{stem}.{sc}", unit) for sc in SCENARIOS]


# (metric name, unit), in the order the result line lists them.
PER_LAYER = (
    [
        ("cli.train_load_ms", "ms"),
        ("cli.score_self_ms", "ms"),
        ("cli.evaluate_self_ms", "ms"),
    ]
    + [(f"cli.{name}", "1/s") for name in STAGE_RATES]
    + [
        ("corpus.read_corpus_ms", "ms"),
        ("corpus.tokenize_calls", "count"),
        ("corpus.tokenize_ms", "ms"),
        ("corpus.tokens", "count"),
        ("corpus.ordinal_of_calls", "count"),
        ("corpus.ordinal_of_ms", "ms"),
        ("corpus.unk_frac", "ratio"),
        ("retrieval.build_index_ms", "ms"),
        ("retrieval.save_index_ms", "ms"),
        ("retrieval.load_index_ms", "ms"),
        ("retrieval.most_similar_calls", "count"),
        ("retrieval.most_similar_ms", "ms"),
        ("retrieval.most_similar_us_p50", "us"),
        ("retrieval.most_similar_us_p95", "us"),
        ("retrieval.repeat_query_frac", "ratio"),
        ("datagen.pair_attempts", "count"),
        ("datagen.pairs", "count"),
        ("datagen.pair_yield", "ratio"),
        ("datagen.queries_per_pair", "ratio"),
        ("datagen.make_pair_self_ms", "ms"),
        ("datagen.write_ms", "ms"),
        ("datagen.read_dataset_ms", "ms"),
        ("datagen.to_scenario_ms", "ms"),
    ]
    + _per_scenario("model.forward_calls", "count")
    + _per_scenario("model.forward_ms", "ms")
    + [
        ("model.tokens", "count"),
        ("model.pad_frac", "ratio"),
        ("model.tokens_per_s", "1/s"),
    ]
    + _per_scenario("model.score_ms_p50", "ms")
    + _per_scenario("model.score_ms_p95", "ms")
    + [
        ("model.truncated_frac", "ratio"),
        ("model.load_checkpoint_ms", "ms"),
        ("model.save_checkpoint_ms", "ms"),
        ("training.steps", "count"),
    ]
    + _per_scenario("training.step_ms_p50", "ms")
    + _per_scenario("training.step_ms_p95", "ms")
    + _per_scenario("training.backward_self_ms", "ms")
    + [
        ("training.clip_ms_p50", "ms"),
        ("training.adamw_ms_p50", "ms"),
        ("training.eval_ms", "ms"),
        ("training.eval_rows", "count"),
        ("training.clipped_frac", "ratio"),
        ("training.grad_norm_p50", "norm"),
        ("metaeval.kendall_calls", "count"),
        ("metaeval.kendall_ms", "ms"),
        ("metaeval.kendall_n_max", "count"),
        ("metaeval.spearman_ms", "ms"),
        ("metaeval.significance_ms", "ms"),
        ("metaeval.read_annotations_ms", "ms"),
        ("metaeval.sig_docs_paired_frac", "ratio"),
        ("metaeval.rouge_l_calls", "count"),
        ("metaeval.rouge_l_ms", "ms"),
        ("metaeval.rouge_n_ms", "ms"),
        ("trace_overhead_frac", "ratio"),
    ]
)

# Layers that set-up runs, reported again over the set-up phase alone as
# "setup.<name>", with the wall of each set-up CLI call as "setup.cli.<cmd>_ms".
SETUP_LAYER = (
    "corpus.read_corpus_ms",
    "corpus.tokenize_ms",
    "retrieval.build_index_ms",
    "retrieval.save_index_ms",
    "retrieval.most_similar_calls",
    "retrieval.most_similar_ms",
    "retrieval.repeat_query_frac",
    "datagen.make_pair_self_ms",
    "model.save_checkpoint_ms",
)
SETUP_COMMANDS = ("synth", "build", "gendata")
PER_LAYER += [(f"setup.cli.{cmd}_ms", "ms") for cmd in SETUP_COMMANDS]
PER_LAYER += [(f"setup.{name}", unit) for name, unit in PER_LAYER if name in SETUP_LAYER]


def _pct(values: list[float], q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


class _View:
    """Indexes the spans of one phase ("setup" or "pass"; None for both) by
    name and weights each by its share of a traced set-up or pass."""

    def __init__(self, spans: list[list], ops: list[dict], phase: str | None) -> None:
        self.spans = spans
        self.ops = ops
        traced = [o for o, op in enumerate(ops)
                  if op["traced"] and phase in (None, op["phase"])]
        reps: dict[str, set] = defaultdict(set)
        for o in traced:
            reps[ops[o]["phase"]].add(ops[o]["rep"])
        self.weight = {o: 1.0 / len(reps[ops[o]["phase"]]) for o in traced}
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time = [0.0] * len(spans)
        self.top_time: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, op, _attrs) in enumerate(spans):
            if op not in self.weight:
                continue
            self.by_name[name].append(i)
            if parent >= 0:
                self.child_time[parent] += end - start
            else:
                self.top_time[op] += end - start

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.dur(i) - self.child_time[i]

    def attr(self, i: int, key: str, default=None):
        attrs = self.spans[i][5]
        return attrs.get(key, default) if attrs else default

    def w(self, i: int) -> float:
        return self.weight[self.spans[i][4]]

    def total(self, names, fn=None, where=None) -> float:
        fn = fn or (lambda i: 1.0)
        out = 0.0
        for name in (names,) if isinstance(names, str) else names:
            for i in self.by_name[name]:
                if where is None or where(i):
                    out += self.w(i) * fn(i)
        return out

    def ms(self, names, where=None) -> float:
        return 1000.0 * self.total(names, self.dur, where)

    def values(self, name, fn, where=None) -> list[float]:
        return [fn(i) for i in self.by_name[name] if where is None or where(i)]

    def op_ms(self, cmd: str, fn) -> float | None:
        """Total of ``fn(op id)`` over the CLI calls ``cmd`` in this view."""
        ids = [o for o in self.weight if self.ops[o]["cmd"] == cmd]
        if not ids:
            return None
        return 1000.0 * sum(self.weight[o] * fn(o) for o in ids)


def per_layer(
    spans: list[list],
    ops: list[dict],
    stage_rates: dict[str, float],
    overhead: float | None,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every PER_LAYER metric as (value, unit), plus the names of those
    reported as 0 because nothing was measured."""
    out = _values(_View(spans, ops, "pass"))
    for name in STAGE_RATES:
        out[f"cli.{name}"] = stage_rates.get(name)
    out["trace_overhead_frac"] = overhead
    setup_view = _View(spans, ops, "setup")
    setup = _values(setup_view)
    for name in SETUP_LAYER:
        out[f"setup.{name}"] = setup[name]
    for cmd in SETUP_COMMANDS:
        out[f"setup.cli.{cmd}_ms"] = setup_view.op_ms(
            cmd, lambda o: ops[o]["end"] - ops[o]["start"])

    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, unit in PER_LAYER:
        value = out.get(name)
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)
    return metrics, absent


def _values(v: _View) -> dict[str, float | None]:
    """The layer metrics of one view; None where nothing was measured."""
    ops = v.ops
    out: dict[str, float | None] = {}

    def op_cmd(i: int) -> str:
        return ops[v.spans[i][4]]["cmd"]

    load = []
    for o in v.weight:
        if ops[o]["cmd"] != "train":
            continue
        starts = [v.spans[i][1] for i in v.by_name["training.backward"] if v.spans[i][4] == o]
        if starts:
            load.append(1000.0 * (min(starts) - ops[o]["start"]))
    out["cli.train_load_ms"] = float(np.mean(load)) if load else None
    for cmd in ("score", "evaluate"):
        out[f"cli.{cmd}_self_ms"] = v.op_ms(
            cmd, lambda o: ops[o]["end"] - ops[o]["start"] - v.top_time[o])

    def nonzero(x: float) -> float | None:
        return x if x else None

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    tok = "corpus.tokenize"
    out["corpus.read_corpus_ms"] = nonzero(v.ms("corpus.read_corpus_jsonl"))
    out["corpus.tokenize_calls"] = nonzero(v.total(tok))
    out["corpus.tokenize_ms"] = nonzero(v.ms(tok))
    tokens = v.total(tok, lambda i: v.attr(i, "tokens", 0))
    out["corpus.tokens"] = nonzero(tokens)
    counted_unk = any(v.attr(i, "unk") is not None for i in v.by_name[tok])
    out["corpus.unk_frac"] = (ratio(v.total(tok, lambda i: v.attr(i, "unk", 0)), tokens)
                              if counted_unk else None)
    out["corpus.ordinal_of_calls"] = nonzero(v.total("corpus.Corpus.ordinal_of"))
    out["corpus.ordinal_of_ms"] = nonzero(v.ms("corpus.Corpus.ordinal_of"))

    ms_name = "retrieval.most_similar"
    out["retrieval.build_index_ms"] = nonzero(v.ms("retrieval.build_index"))
    out["retrieval.save_index_ms"] = nonzero(v.ms("retrieval.save_index"))
    out["retrieval.load_index_ms"] = nonzero(v.ms("retrieval.load_index"))
    out["retrieval.most_similar_calls"] = nonzero(v.total(ms_name))
    out["retrieval.most_similar_ms"] = nonzero(v.ms(ms_name))
    query_us = v.values(ms_name, lambda i: 1.0e6 * v.dur(i))
    out["retrieval.most_similar_us_p50"] = _pct(query_us, 50)
    out["retrieval.most_similar_us_p95"] = _pct(query_us, 95)
    seen: dict[int, set] = defaultdict(set)
    repeats = 0
    for i in v.by_name[ms_name]:
        doc, op = v.attr(i, "doc"), v.spans[i][4]
        repeats += doc in seen[op]
        seen[op].add(doc)
    out["retrieval.repeat_query_frac"] = ratio(repeats, len(v.by_name[ms_name]))

    makers = ("datagen.make_summary_matching_pair", "datagen.make_document_matching_pair")
    attempts = v.total(makers)
    pairs = v.total(makers, where=lambda i: not v.attr(i, "raised"))
    maker_ids = {i for name in makers for i in v.by_name[name]}
    out["datagen.pair_attempts"] = nonzero(attempts)
    out["datagen.pairs"] = nonzero(pairs)
    out["datagen.pair_yield"] = ratio(pairs, attempts)
    out["datagen.queries_per_pair"] = ratio(
        v.total(ms_name, where=lambda i: v.spans[i][3] in maker_ids), pairs
    )
    out["datagen.make_pair_self_ms"] = nonzero(1000.0 * v.total(makers, v.self_time))
    out["datagen.write_ms"] = nonzero(v.ms("datagen.write_dataset_jsonl"))
    out["datagen.read_dataset_ms"] = nonzero(v.ms("datagen.read_dataset_jsonl"))
    out["datagen.to_scenario_ms"] = nonzero(v.ms("datagen.to_scenario_examples"))

    fwd = "model.forward_batch"
    for sc in SCENARIOS:
        is_sc = lambda i, sc=sc: v.attr(i, "scenario") == sc  # noqa: E731
        out[f"model.forward_calls.{sc}"] = nonzero(v.total(fwd, where=is_sc))
        out[f"model.forward_ms.{sc}"] = nonzero(1000.0 * v.total(fwd, v.self_time, is_sc))
    fwd_tokens = v.total(fwd, lambda i: v.attr(i, "tokens", 0))
    padded = v.total(fwd, lambda i: v.attr(i, "padded", 0))
    fwd_s = v.total(fwd, v.self_time)
    out["model.tokens"] = nonzero(fwd_tokens)
    out["model.pad_frac"] = None if not padded else 1.0 - fwd_tokens / padded
    out["model.tokens_per_s"] = ratio(fwd_tokens, fwd_s)
    for sc in SCENARIOS:
        row_ms = v.values(
            "model.score",
            lambda i: 1000.0 * v.dur(i),
            lambda i, sc=sc: v.attr(i, "scenario") == sc and op_cmd(i) == "score",
        )
        out[f"model.score_ms_p50.{sc}"] = _pct(row_ms, 50)
        out[f"model.score_ms_p95.{sc}"] = _pct(row_ms, 95)
    truncated = v.values("model.assemble_input", lambda i: v.attr(i, "truncated", 0))
    out["model.truncated_frac"] = float(np.mean(truncated)) if truncated else None
    out["model.load_checkpoint_ms"] = nonzero(v.ms("model.load_checkpoint"))
    out["model.save_checkpoint_ms"] = nonzero(v.ms("model.save_checkpoint"))

    # a step is backward + clip + AdamW, in span order within one train call
    steps: dict[str, list[float]] = defaultdict(list)
    pending = None
    step_names = {"training.backward", "training.clip_gradients", "training.adamw_step"}
    for i in sorted(i for name in step_names for i in v.by_name[name]):
        name = v.spans[i][0]
        if name == "training.backward":
            pending = [v.attr(i, "scenario"), v.dur(i)] if not v.attr(i, "raised") else None
        elif pending is not None:
            pending[1] += v.dur(i)
            if name == "training.adamw_step":
                steps[pending[0]].append(1000.0 * pending[1])
                pending = None
    out["training.steps"] = nonzero(v.total("training.adamw_step"))
    for sc in SCENARIOS:
        out[f"training.step_ms_p50.{sc}"] = _pct(steps[sc], 50)
        out[f"training.step_ms_p95.{sc}"] = _pct(steps[sc], 95)
        out[f"training.backward_self_ms.{sc}"] = nonzero(
            1000.0 * v.total(
                "training.backward", v.self_time, lambda i, sc=sc: v.attr(i, "scenario") == sc
            )
        )
    clip = "training.clip_gradients"
    out["training.clip_ms_p50"] = _pct(v.values(clip, lambda i: 1000.0 * v.dur(i)), 50)
    out["training.adamw_ms_p50"] = _pct(
        v.values("training.adamw_step", lambda i: 1000.0 * v.dur(i)), 50
    )
    out["training.eval_ms"] = nonzero(v.ms("training.evaluate_accuracy"))
    out["training.eval_rows"] = nonzero(
        v.total("training.evaluate_accuracy", lambda i: v.attr(i, "rows", 0))
    )
    clipped = v.values(clip, lambda i: v.attr(i, "clipped", 0))
    out["training.clipped_frac"] = float(np.mean(clipped)) if clipped else None
    out["training.grad_norm_p50"] = _pct(v.values(clip, lambda i: v.attr(i, "norm", 0.0)), 50)

    kendall = "metaeval.kendall_tau"
    out["metaeval.kendall_calls"] = nonzero(v.total(kendall))
    out["metaeval.kendall_ms"] = nonzero(v.ms(kendall))
    sizes = v.values(kendall, lambda i: v.attr(i, "n", 0))
    out["metaeval.kendall_n_max"] = float(max(sizes)) if sizes else None
    out["metaeval.spearman_ms"] = nonzero(v.ms("metaeval.spearman"))
    sig = "metaeval.significance_against_baseline"
    out["metaeval.significance_ms"] = nonzero(v.ms(sig))
    out["metaeval.read_annotations_ms"] = nonzero(v.ms("metaeval.read_annotations_jsonl"))
    paired = v.values(sig, lambda i: v.attr(i, "paired", 0) / max(v.attr(i, "docs", 1), 1))
    out["metaeval.sig_docs_paired_frac"] = float(np.mean(paired)) if paired else None
    out["metaeval.rouge_l_calls"] = nonzero(v.total("metaeval.rouge_l"))
    out["metaeval.rouge_l_ms"] = nonzero(v.ms("metaeval.rouge_l"))
    out["metaeval.rouge_n_ms"] = nonzero(v.ms("metaeval.rouge_n"))
    return out


def crosscheck(
    spans: list[list], ops: list[dict], metrics: dict[str, tuple[float, str]]
) -> list[dict]:
    """Traced figures beside the ROADMAP's review measurements, for the
    figures this workload produces, set-up and passes together."""
    v = _View(spans, ops, None)
    rows = []
    backward_ids = set(v.by_name["training.backward"])
    for sc, roadmap, roadmap_len in (("SR", 39.0, 78), ("SD", 79.0, 140), ("SDR", 122.0, 176)):
        fwd_bwd = v.values("training.backward", lambda i: 1000.0 * v.dur(i),
                           lambda i, sc=sc: v.attr(i, "scenario") == sc)
        in_step = lambda i, sc=sc: v.spans[i][3] in backward_ids and v.attr(i, "scenario") == sc  # noqa: E731
        rows_in = v.total("model.forward_batch", lambda i: v.attr(i, "rows", 0), in_step)
        padded = v.total("model.forward_batch", lambda i: v.attr(i, "padded", 0), in_step)
        if fwd_bwd:
            rows.append({"figure": f"forward+backward per step, {sc}", "unit": "ms",
                         "roadmap": roadmap, "measured": _pct(fwd_bwd, 50),
                         "roadmap_mean_len": roadmap_len,
                         "measured_mean_padded_len": padded / rows_in if rows_in else None})
    if metrics["training.adamw_ms_p50"][0]:
        rows.append({"figure": "AdamW per step", "unit": "ms", "roadmap": "23-30",
                     "measured": metrics["training.adamw_ms_p50"][0]})
    gendata_ops = {o for o, op in enumerate(ops) if op["traced"] and op["cmd"] == "gendata"}
    pairs = v.total(("datagen.make_summary_matching_pair",
                     "datagen.make_document_matching_pair"),
                    where=lambda i: v.spans[i][4] in gendata_ops and not v.attr(i, "raised"))
    if gendata_ops and pairs:
        wall = sum(v.weight[o] * (ops[o]["end"] - ops[o]["start"]) for o in gendata_ops)
        query = v.total("retrieval.most_similar", v.dur,
                        lambda i: v.spans[i][4] in gendata_ops)
        rows.append({"figure": "gendata per pair (traced)", "unit": "ms",
                     "roadmap": 2.2, "measured": 1000.0 * wall / pairs})
        rows.append({"figure": "most_similar share of gendata", "unit": "ratio",
                     "roadmap": 0.9, "measured": query / wall})
    calls = metrics["metaeval.kendall_calls"][0]
    if calls:
        rows.append({"figure": f"Kendall tau-b at n={metrics['metaeval.kendall_n_max'][0]:.0f}",
                     "unit": "s", "roadmap": "0.50 at n=4000",
                     "measured": metrics["metaeval.kendall_ms"][0] / calls / 1000.0})
    return rows

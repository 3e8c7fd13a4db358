"""Command-line pipeline driver.

Subcommands cover the full workflow: synthetic corpus generation, vocabulary
and retrieval-index building, training-pair generation, training, scoring
(neural scenarios, fused scores, or lexical overlap baselines), correlation
reports against human annotations, and a finite-difference gradient check.

Settings resolve lowest to highest: built-in defaults, then a flat JSON
config file given with --config, then explicit flags. Unknown config keys
are rejected. Every failure is reported as a one-line JSON object on
standard error with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import platform
import sys
import time
from pathlib import Path

from .corpus import (
    Vocabulary,
    atomic_write,
    build_vocab,
    check_new_pair,
    gen_synthetic_corpus,
    read_corpus_jsonl,
    read_jsonl,
    text_field,
    tokenize,
    word_tokens,
    write_corpus_jsonl,
    write_jsonl,
)
from .datagen import (
    DOCUMENT_MATCHING,
    SUMMARY_MATCHING,
    generate_dataset,
    read_dataset_jsonl,
    to_scenario_examples,
    write_dataset_jsonl,
)
from .metaeval import (
    DIMENSIONS,
    CorrelationReport,
    SignificanceEntry,
    evaluate,
    finite_number,
    lcs_table,
    ngram_counts,
    read_annotations_jsonl,
    rouge_l,
    rouge_n,
    significance_against_baseline,
)
from .model import (
    FUSION_METHODS,
    SCENARIOS,
    ModelConfig,
    fuse,
    init_parameters,
    load_checkpoint,
    score,
    worker_pool,
)
from .retrieval import build_index, load_index, save_index
from .training import MODES, TrainConfig, grad_check, train

VOCAB_FILE = "vocab.txt"
INDEX_FILE = "index.bin"
METRICS = ("rouge1", "rouge2", "rougeL")

SYNTH_DEFAULTS = {"n_docs": 2000, "topic_count": 50, "seed": 12}
GENDATA_DEFAULTS = {"n_pairs": 15000, "seed": 12}
SCORE_DEFAULTS = {"scenario": None, "fusion": None, "metric": None}


class _Parser(argparse.ArgumentParser):
    """Argument errors leave as one-line JSON like every other error."""

    def error(self, message):
        print(json.dumps({"error": f"argument error: {message}"}), file=sys.stderr)
        raise SystemExit(2)


def _check_config_value(flag: argparse.Action, value, default) -> None:
    """A config-file value must be what the flag of the same name accepts:
    an integer for ``type=int``, any number for ``type=float``, a string for
    an untyped flag, one of its choices if it has them, and null only where
    the default is None. Booleans are never numbers."""
    if value is None and default is None:
        return
    kind = flag.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"malformed config file: {flag.dest} must be {kind.__name__}, got {value!r}"
        )
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(
            f"malformed config file: {flag.dest} must be one of "
            f"{', '.join(flag.choices)}, got {value!r}"
        )


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then config-file values, then explicitly passed flags."""
    merged = dict(defaults)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key in sorted(loaded):
            if key not in defaults:
                raise ValueError(f"unknown config key: {key}")
            _check_config_value(args.flags[key], loaded[key], defaults[key])
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _merge(args, SYNTH_DEFAULTS)
    corpus = gen_synthetic_corpus(cfg["n_docs"], cfg["topic_count"], cfg["seed"])
    write_corpus_jsonl(corpus, args.out)
    print(f"documents: {len(corpus)}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    corpus = read_corpus_jsonl(args.corpus)
    vocab = build_vocab(corpus, min_frequency=args.min_frequency)
    index = build_index(corpus, vocab)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / VOCAB_FILE)
    save_index(index, out_dir / INDEX_FILE)
    print(f"documents: {len(corpus)}")
    print(f"vocabulary: {len(vocab)}")
    return 0


def cmd_gendata(args: argparse.Namespace) -> int:
    cfg = _merge(args, GENDATA_DEFAULTS)
    corpus = read_corpus_jsonl(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    index = load_index(args.index)
    if len(index.terms) and index.terms[-1] >= len(vocab):
        raise ValueError(
            f"vocab {args.vocab} has {len(vocab)} tokens, "
            f"but the index names token id {index.terms[-1]}"
        )
    # the document-matching stream gets its own seed so the two files do
    # not sample source documents in lockstep
    datasets = [
        (kind, filename, generate_dataset(corpus, index, kind, cfg["n_pairs"], cfg["seed"] + off))
        for kind, off, filename in (
            (SUMMARY_MATCHING, 0, "summary_matching.jsonl"),
            (DOCUMENT_MATCHING, 1, "document_matching.jsonl"),
        )
    ]
    # created only now, so a rejected run leaves no directory behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, filename, dataset in datasets:
        write_dataset_jsonl(dataset, out_dir / filename)
        print(f"{kind}: {len(dataset)}")
    return 0


# glibc mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let the C allocator reuse the memory each training step or scored
    row frees.

    A step or a row allocates and frees megabytes of arrays. Under glibc's
    default thresholds most of it is unmapped or trimmed when freed and
    faulted back in page by page by the next one, which cost about 15% of
    the step time and about 10% of the scoring time on a 2-core VM.
    Serving arrays of up to 32 MB from the heap and keeping up to 256 MB of
    it free changes where arrays live, never a value. Other C libraries are
    left as they are.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _settings(cls, args: argparse.Namespace) -> list[dataclasses.Field]:
    """The fields of ``cls`` that have a train flag of the same name."""
    return [f for f in dataclasses.fields(cls) if hasattr(args, f.name)]


def _train_defaults(args: argparse.Namespace) -> dict:
    """Defaults of the train settings: the field defaults of ModelConfig and
    TrainConfig that have a flag of the same name."""
    return {f.name: f.default for cls in (ModelConfig, TrainConfig) for f in _settings(cls, args)}


def cmd_train(args: argparse.Namespace) -> int:
    _keep_freed_memory()
    cfg = _merge(args, _train_defaults(args))
    if cfg["clip_norm"] == 0:
        cfg["clip_norm"] = None
    corpus = read_corpus_jsonl(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    datasets: dict[str, list] = {}
    for path in (args.summary_matching, args.document_matching):
        if path is None:
            continue
        for ex in to_scenario_examples(read_dataset_jsonl(path), corpus, vocab):
            datasets.setdefault(ex.scenario, []).append(ex)
    model_config = ModelConfig(
        vocab_size=len(vocab), **{f.name: cfg[f.name] for f in _settings(ModelConfig, args)}
    )
    train_config = TrainConfig(**{f.name: cfg[f.name] for f in _settings(TrainConfig, args)})
    params = init_parameters(model_config)
    params, report = train(
        params, model_config, datasets, train_config, checkpoint_path=args.checkpoint_out
    )
    print(report.to_json())
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(report.to_json() + "\n")
    return 1 if report.diverged else 0


def _score_row(row: dict, value: float, scenario, fusion, metric) -> dict:
    out: dict = {}
    for key in ("doc_id", "system_id"):
        if key in row:
            out[key] = row[key]
    out["score"] = value
    out["scenario"] = scenario
    out["fusion"] = fusion
    if metric is not None:
        out["metric"] = metric
    return out


# Rows per task of the scoring pool. A row truncated at max_len costs
# several short rows, and such rows come in runs (one document's
# candidates), so chunks stay small enough to spread them over the workers.
_SCORE_CHUNK = 8


@dataclasses.dataclass(frozen=True)
class _ScoreJob:
    """Everything a worker needs to score rows: the model, the vocabulary,
    the mode, and the parsed (line number, row) pairs."""

    params: dict
    config: ModelConfig
    vocab: Vocabulary
    scenario: str
    fusion: str | None
    rows: list[tuple[int, dict]]


def _score_chunk(
    job: _ScoreJob, bounds: tuple[int, int]
) -> tuple[list[float], Exception | None]:
    """Tokenize and score the rows ``start:stop`` that ``bounds`` names, in
    order. A failing row ends the chunk: the values before it are returned
    with its error, which names the row's input line."""
    need_ref = job.scenario in ("SR", "SDR")
    need_doc = job.scenario in ("SD", "SDR")
    # a document or reference usually serves several candidates in a row
    ids_of = functools.lru_cache(maxsize=None)(lambda text: tuple(tokenize(text, job.vocab)))
    values: list[float] = []
    start, stop = bounds
    for lineno, row in job.rows[start:stop]:
        where = f"input line {lineno}"
        try:
            cand = tuple(tokenize(text_field(row, "candidate", where), job.vocab))
            ref = ids_of(text_field(row, "reference", where)) if need_ref else None
            doc = ids_of(text_field(row, "document", where)) if need_doc else None
            try:
                if job.fusion is not None:
                    s_sr = score(job.params, job.config, "SR", cand, reference=ref).score
                    s_sd = score(job.params, job.config, "SD", cand, document=doc).score
                    values.append(fuse(s_sr, s_sd, job.fusion))
                else:
                    values.append(
                        score(
                            job.params, job.config, job.scenario, cand, reference=ref,
                            document=doc,
                        ).score
                    )
            except ValueError as exc:  # the row's text does not fit the template
                raise ValueError(f"{where}: {exc}") from None
        except (ValueError, FloatingPointError) as exc:
            return values, exc
    return values, None


def _in_order(chunks) -> list[float]:
    """Concatenate chunk results in input order; raise the first error."""
    values: list[float] = []
    for chunk, error in chunks:
        values.extend(chunk)
        if error is not None:
            raise error
    return values


def _score_rows(job: _ScoreJob) -> list[float]:
    """Score every row in input order, in contiguous chunks spread over
    ``worker_pool``. A row's bytes do not depend on which process scores
    it: the encoder is batch-invariant."""
    n = len(job.rows)
    bounds = [(i, min(i + _SCORE_CHUNK, n)) for i in range(0, n, _SCORE_CHUNK)]
    with worker_pool(job, len(bounds), "scoring") as pool:
        return _in_order(pool.map(_score_chunk, bounds))


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _merge(args, SCORE_DEFAULTS)
    scenario, fusion, metric = cfg["scenario"], cfg["fusion"], cfg["metric"]
    rows = list(read_jsonl(args.inputs, "input"))
    out: list[dict] = []
    if metric is not None:
        n = {"rouge1": 1, "rouge2": 2}.get(metric)

        # references repeat across systems: split each distinct one, and
        # count its n-grams or tabulate its LCS bit masks, once
        @functools.lru_cache(maxsize=None)
        def reference(text: str) -> tuple[list[str], dict]:
            words = word_tokens(text)
            return words, ngram_counts(words, n) if n else lcs_table(words)

        for lineno, row in rows:
            where = f"input line {lineno}"
            cand = word_tokens(text_field(row, "candidate", where))
            ref, table = reference(text_field(row, "reference", where))
            value = rouge_n(cand, ref, n, table)[2] if n else rouge_l(cand, ref, table)[2]
            out.append(_score_row(row, value, None, None, metric))
    else:
        if args.checkpoint is None or args.vocab is None or scenario is None:
            raise ValueError(
                "model scoring needs --checkpoint, --vocab and --scenario (or use --metric)"
            )
        if fusion is not None and scenario != "SDR":
            raise ValueError("fusion requires scenario SDR")
        _keep_freed_memory()
        params, model_config = load_checkpoint(args.checkpoint)
        vocab = Vocabulary.load(args.vocab)
        if len(vocab) != model_config.vocab_size:
            raise ValueError(
                f"vocab {args.vocab} has {len(vocab)} tokens, "
                f"but the checkpoint was trained on {model_config.vocab_size}"
            )
        values = _score_rows(_ScoreJob(params, model_config, vocab, scenario, fusion, rows))
        for (_lineno, row), value in zip(rows, values):
            out.append(_score_row(row, value, scenario, fusion, None))
    if args.out:
        write_jsonl(out, args.out)
    else:
        sys.stdout.write("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in out))
    return 0


def _read_scores_file(path: str) -> list[tuple[str, str, float]]:
    out = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, row in read_jsonl(path, "scores"):
        where = f"scores line {lineno}"
        key = (text_field(row, "doc_id", where), text_field(row, "system_id", where))
        if "score" not in row:
            raise ValueError(f"{where}: missing field 'score'")
        score = finite_number(row["score"], f"{where}: score")
        check_new_pair(first_line, key, lineno, "scores")
        out.append((*key, score))
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    scores = _read_scores_file(args.scores)
    annotations, _scale = read_annotations_jsonl(args.annotations)
    dims = [d.strip() for d in args.dimensions.split(",") if d.strip()]
    if not dims:
        raise ValueError("no dimensions requested")
    for dim in dims:
        if dim not in DIMENSIONS:
            raise ValueError(f"unknown dimension: {dim}")
    report = CorrelationReport(aggregation="system" if args.system_level else "pooled")
    for dim in dims:
        report.results.append(evaluate(scores, annotations, dim, system_level=args.system_level))
    if args.baseline is not None:
        baseline_scores = _read_scores_file(args.baseline)
        name = args.baseline_name or Path(args.baseline).stem
        for dim in dims:
            t, p, _n = significance_against_baseline(scores, baseline_scores, annotations, dim)
            report.significance.append(SignificanceEntry(dim, name, t, p))
    print(report.to_json())
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    worst = grad_check(n_coords=args.n_coords, seed=args.seed)
    seconds = time.perf_counter() - start
    passed = worst < args.tolerance
    print(
        json.dumps(
            {
                "max_rel_error": worst,
                "seconds": seconds,
                "tolerance": args.tolerance,
                "pass": passed,
            }
        )
    )
    return 0 if passed else 1


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    """Add --config after a subcommand's other flags, and keep their
    declarations, which the config file's values are checked against."""
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    parser.set_defaults(flags={action.dest: action for action in parser._actions})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="umse", description="multi-scenario summarization evaluation pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser(
        "synth",
        help="generate a synthetic topical corpus",
        description="Generate a synthetic topical corpus as JSONL.",
    )
    p.add_argument("--out", required=True, help="corpus JSONL output path")
    p.add_argument("--n-docs", type=int, help="number of documents (default 2000)")
    p.add_argument("--topic-count", type=int, help="number of topics (default 50)")
    p.add_argument("--seed", type=int, help="generator seed (default 12)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "build",
        help="build vocabulary and retrieval index",
        description="Build the vocabulary and retrieval index for a corpus.",
    )
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out-dir", required=True, help="directory for vocab.txt and index.bin")
    p.add_argument(
        "--min-frequency", type=int, default=1, help="minimum token count kept (default 1)"
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "gendata",
        help="generate the two training-pair datasets",
        description="Generate summary-matching and document-matching training pairs.",
    )
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--vocab", required=True, help="vocabulary file from build")
    p.add_argument("--index", required=True, help="retrieval index file from build")
    p.add_argument("--out-dir", required=True, help="directory for the two dataset files")
    p.add_argument("--n-pairs", type=int, help="positive pairs per dataset (default 15000)")
    p.add_argument("--seed", type=int, help="sampling seed (default 12)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser(
        "train",
        help="train the scoring model",
        description="Train the scoring model on generated datasets.",
    )
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--vocab", required=True, help="vocabulary file from build")
    p.add_argument("--summary-matching", help="summary-matching dataset JSONL")
    p.add_argument("--document-matching", help="document-matching dataset JSONL")
    p.add_argument("--checkpoint-out", help="checkpoint output path")
    p.add_argument("--report-out", help="also write the JSON report here")
    p.add_argument("--hidden-dim", type=int, help="model width (default 64)")
    p.add_argument("--n-layers", type=int, help="encoder layers (default 2)")
    p.add_argument("--n-heads", type=int, help="attention heads (default 4)")
    p.add_argument("--ffn-dim", type=int, help="feed-forward width (default 256)")
    p.add_argument("--prefix-len", type=int, help="shared prefix length (default 16)")
    p.add_argument("--max-len", type=int, help="input length cap (default 512)")
    p.add_argument("--init-seed", type=int, help="weight init seed (default 12)")
    p.add_argument(
        "--mode",
        choices=MODES,
        help="training mode (default unified); single_scenario trains one scenario",
    )
    p.add_argument("--scenario", choices=SCENARIOS, help="scenario for --mode single_scenario")
    p.add_argument("--learning-rate", type=float, help="step size (default 3e-05)")
    p.add_argument("--epochs", type=int, help="epoch budget, 1..10 (default 10)")
    p.add_argument("--batch-size", type=int, help="examples per step (default 8)")
    p.add_argument("--seed", type=int, help="shuffling seed (default 12)")
    p.add_argument("--weight-decay", type=float, help="decoupled decay (default 0.01)")
    p.add_argument(
        "--clip-norm", type=float, help="global gradient-norm cap, 0 disables (default 1.0)"
    )
    p.add_argument(
        "--holdout-fraction", type=float, help="held-out fraction per stream (default 0.1)"
    )
    p.add_argument(
        "--target-accuracy",
        type=float,
        help="stop once every holdout stream reaches this accuracy",
    )
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "score",
        help="score candidate summaries",
        description=(
            "Score candidate summaries with a trained checkpoint or a lexical "
            "overlap metric. Input JSONL needs a candidate field, plus "
            "reference and document fields as the scenario requires; doc_id "
            "and system_id pass through to the output."
        ),
    )
    p.add_argument("--inputs", required=True, help="input JSONL path")
    p.add_argument("--out", help="output JSONL path (default: standard output)")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--vocab", help="vocabulary file from build")
    p.add_argument("--scenario", choices=SCENARIOS, help="input scenario")
    p.add_argument(
        "--fusion",
        choices=FUSION_METHODS,
        help="with --scenario SDR: fuse separate SR and SD scores instead of "
        "the direct SDR forward pass",
    )
    p.add_argument(
        "--metric", choices=METRICS, help="lexical baseline instead of the model"
    )
    _add_config_flag(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "evaluate",
        help="correlate scores with human annotations",
        description=(
            "Report rank correlations between scores and human annotations per "
            "dimension, optionally with a paired significance test against a "
            "baseline scores file."
        ),
    )
    p.add_argument("--scores", required=True, help="scores JSONL with doc_id and system_id")
    p.add_argument("--annotations", required=True, help="annotation JSONL path")
    p.add_argument(
        "--dimensions",
        default=",".join(DIMENSIONS),
        help="comma-separated rating dimensions (default: all four)",
    )
    p.add_argument("--baseline", help="baseline scores JSONL for the significance test")
    p.add_argument(
        "--baseline-name", help="label for the baseline (default: its file stem)"
    )
    p.add_argument(
        "--system-level",
        action="store_true",
        help="correlate per-system means instead of pooled pairs",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "gradcheck",
        help="finite-difference gradient check",
        description="Compare analytic gradients against central differences on a small model.",
    )
    p.add_argument(
        "--n-coords", type=int, default=200, help="coordinates probed per check (default 200)"
    )
    p.add_argument("--seed", type=int, default=12, help="probe seed (default 12)")
    p.add_argument(
        "--tolerance",
        type=float,
        default=1.0e-4,
        help="maximum accepted relative error (default 1e-04)",
    )
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

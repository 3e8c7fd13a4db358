#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

The workload's inputs are made from ``--seed``. A run is a series of
cycles: each cycle sets the workload up from scratch (inputs and the
artifacts the measured calls need), then runs one pass of the workload's
timed CLI calls and its correctness checks. Cycles repeat until the passes
alone would exceed ``--seconds``; set-up time is measured on every cycle
but not counted against ``--seconds``. With ``--trace 0`` nothing is wrapped
and the last line carries the end-to-end metrics. With ``--trace 1``
untraced and traced cycles alternate; the last line carries the per-layer
metrics, including the tracing overhead between the two kinds of pass.

Earlier lines report the environment, output digests, per-stage rates,
absent per-layer metrics and the ROADMAP cross-check. The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# OpenBLAS and OpenMP read these once, when numpy loads them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOAD_NAMES = ("train_desk", "score_mixed", "datagen_metaeval")


def _import_umse() -> None:
    """Import umse from this checkout's sources and nowhere else."""
    if not (SRC / "umse" / "__init__.py").is_file():
        raise SystemExit(f"umse sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import umse

    if Path(umse.__file__).resolve().parent != (SRC / "umse").resolve():
        raise SystemExit(f"umse imported from {umse.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        blas = {"unknown": type(exc).__name__}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="desk", choices=("desk", "tiny"),
                        help="tiny runs every path at toy sizes (smoke run only)")
    args = parser.parse_args(argv)

    _import_umse()
    from layers import crosscheck, per_layer
    from spans import Tracer
    from workloads import SCALES, WORKLOADS, Runner, sha256

    import_s = time.perf_counter() - _STARTED
    traced_run = bool(args.trace)
    scale = SCALES[args.scale]
    work = WORK / args.workload
    tracer = Tracer() if traced_run else None
    run = Runner(tracer)
    workload = WORKLOADS[args.workload](scale, args.seed, work)
    passes: list[tuple[bool, dict]] = []
    setup_walls: list[float] = []
    durations: list[float] = []
    first_digests: dict[str, str] = {}
    rss_after_setup = None

    def timed(phase: str, traced: bool, fn):
        """Run ``fn(run)`` as one phase of the current cycle; returns its
        result and wall seconds, wrappers excluded."""
        run.phase, run.rep, run.traced = phase, len(passes), traced
        start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            return fn(run), time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
            run.traced = False

    def set_up(r):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.setup(r)

    while True:
        traced = traced_run and len(passes) % 2 == 1
        setup_walls.append(timed("setup", traced, set_up)[1])
        if rss_after_setup is None:
            rss_after_setup = _rss_mb()
        result, wall = timed("pass", traced, workload.run_pass)
        start = time.perf_counter()
        workload.check_pass(run)
        digests = {label: sha256(path) if path.is_file() else "missing"
                   for label, path in workload.outputs().items()}
        if passes:
            changed = sorted(k for k in digests if digests[k] != first_digests.get(k))
            run.check("outputs_identical_across_cycles",
                      lambda changed=changed: f"changed: {changed}" if changed else None)
        else:
            first_digests = digests
        passes.append((traced, result))
        durations.append(wall + time.perf_counter() - start)
        if len(passes) < scale["min_cycles"]:
            continue
        if sum(durations) + statistics.median(durations) > args.seconds:
            break

    untraced = [r for t, r in passes if not t]

    def median(key: str, results=untraced) -> float:
        return statistics.median(r[key] for r in results)

    stages = {k: median(k) for k in untraced[0] if k not in ("job_s", "throughput_per_s")}
    _emit({"environment": environment()})
    _emit({"setup": {"import_s": import_s, "setup_s": setup_walls,
                     "rss_after_first_setup_mb": rss_after_setup, "rss_peak_mb": _rss_mb()}})
    digest_file = WORK / "digests.json"
    stored = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
    key = f"{args.workload}/{args.scale}/seed{args.seed}"
    previous = stored.get(key, {})
    _emit({"digests": first_digests,
           "digests_changed": sorted(k for k in first_digests
                                     if k in previous and previous[k] != first_digests[k])})
    stored[key] = first_digests
    digest_file.write_text(json.dumps(stored, indent=1, sort_keys=True))

    if traced_run:
        overhead = median("job_s", [r for t, r in passes if t]) / median("job_s") - 1.0
        metrics, absent = per_layer(tracer.spans, run.ops, stages, overhead)
        _emit({"absent": {"not_measured_in_this_workload": absent,
                          "missing_functions": tracer.absent}})
        _emit({"baseline_crosscheck": crosscheck(tracer.spans, run.ops, metrics)})
        tracer.write(WORK / f"trace_{args.workload}.jsonl", run.ops)
    else:
        _emit({"stages": {k: {"value": v, "unit": "1/s"} for k, v in stages.items()},
               "pass_job_s": [r["job_s"] for r in untraced]})
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (_rss_mb(), "MB"),
            "job_s": (median("job_s"), "s"),
            "throughput_per_s": (median("throughput_per_s"), "1/s"),
        }
    _emit({"checks": run.checks})
    if run.failures:
        _emit({"failures": run.failures})
    _emit({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

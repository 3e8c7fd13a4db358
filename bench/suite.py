#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json, untraced and traced, each in a
fresh process, print every metric with its unit, and fail unless each run
emits exactly the metrics BENCHMARK.json names, runs every correctness
check of its workload and passes them all.

    python3 bench/suite.py --seed 1         # desk scale, BENCHMARK.json's run length
    python3 bench/suite.py --scale tiny     # smoke run at toy sizes, about a minute

Finally it copies only BENCHMARK.json and bench/ into a scratch directory
inside bench/.work and checks that the benchmark refuses to run there
(nonzero exit, no result line), because the umse sources are missing.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Every check each workload must run at least once per pass.
CHECKS = {
    "train_desk": {"train_report", "train_total_steps", "train_losses_finite",
                   "checkpoint_loads"},
    "score_mixed": {"score_lines_SR", "score_lines_SD", "score_lines_SDR",
                    "score_lines_fused", "fused_is_mean", "score_matches_direct"},
    "datagen_metaeval": {"dataset_summary_matching", "dataset_document_matching",
                         "evaluate_report", "planted_beats_rouge", "significance_n"},
}


def _run(cwd: Path, workload: str, seed: int, seconds, trace: int, scale: str):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def _problems(proc, workload: str, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures = next((line["failures"] for line in lines if "failures" in line), [])
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')} {failures}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    ran = next((set(line["checks"]) for line in lines if "checks" in line), set())
    if not CHECKS[workload] <= ran:
        problems.append(f"checks not run: {sorted(CHECKS[workload] - ran)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="desk", choices=("desk", "tiny"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.scale == "desk" else 1
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, args.seed, seconds, trace, args.scale)
            problems = _problems(proc, workload, expected[trace])
            status = "FAIL" if problems else "ok"
            print(f"== {workload} trace={trace}: {status}", flush=True)
            for problem in problems:
                print(f"   {problem}")
            failed |= bool(problems)
            if proc.returncode == 0:
                for line in proc.stdout.strip().splitlines():
                    obj = json.loads(line)
                    for name, m in sorted(obj.get("metrics", {}).items()):
                        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
                    for name, m in sorted(obj.get("stages", {}).items()):
                        print(f"   (stage) {name:26s} {m['value']:>16.6g} {m['unit']}")

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "train_desk", args.seed, 1, 0, args.scale)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"== without umse sources: {'refused' if refused else 'FAIL: ran'} "
          f"(exit {proc.returncode}: {proc.stderr.strip()[-200:]})")
    shutil.rmtree(bare, ignore_errors=True)
    failed |= not refused
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

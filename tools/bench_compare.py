"""Parent-versus-change medians of the stage timings and the benchmark
workloads, written as one BENCH_<label>.json.

Usage:
    python tools/bench_compare.py PARENT_ROOT CHANGE_ROOT OUT_JSON
        [--repeats 5] [--seed 97] [--seconds 15] [--cases ...] [--workloads ...]

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository. Every
measurement runs in a fresh process, and the two checkouts alternate: each
repeat runs every case and every workload once per checkout, the parent
first on even repeats and the change first on odd ones. Stage timings come
from tools/bench_stages.py (of this checkout, run against each `src`);
workload metrics are the end-to-end metrics that `perfbench/run.py --trace 0`
prints in each checkout. Each entry keeps every run and its median.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = [
    "er-10000", "er-50000", "er-200000",
    "path-2000", "path-4000", "path-8000",
    "grid-100", "grid-200",
    "ratio-0.3-er-30000",
    "eval-3000",
]
WORKLOADS = ["er_coarsen", "tu_many_small", "eval_sweep"]


def host_facts() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
    }


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stage_run(root: Path, case: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_stages.py"), str(root / "src"), case],
        capture_output=True, text=True,
    )
    return last_json(proc)


def workload_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    result = last_json(proc)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--cases", nargs="*", default=CASES)
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {"stages": {}, "workloads": {}}
    for repeat in range(args.repeats):
        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
        for case in args.cases:
            for side in order:
                result = stage_run(sides[side], case)
                entry = runs["stages"].setdefault(case, {})
                for metric, value in result.items():
                    entry.setdefault(metric, {"parent": [], "change": []})[side].append(value)
                print(repeat, case, side, result, flush=True)
        for workload in args.workloads:
            for side in order:
                result = workload_run(sides[side], workload, args.seed, args.seconds)
                entry = runs["workloads"].setdefault(workload, {})
                for metric, value in result.items():
                    entry.setdefault(metric, {"parent": [], "change": []})[side].append(value)
                print(repeat, workload, side, result, flush=True)
    for group in runs.values():
        for entry in group.values():
            for metric, by_side in entry.items():
                entry[metric] = {
                    "parent_median": statistics.median(by_side["parent"]),
                    "change_median": statistics.median(by_side["change"]),
                    "parent_runs": by_side["parent"],
                    "change_runs": by_side["change"],
                }
    out = {
        "host": host_facts(),
        "repeats": args.repeats,
        "workload_seed": args.seed,
        "workload_seconds": args.seconds,
        "method": __doc__.split("\n\n", 2)[2].strip().replace("\n", " "),
        **runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

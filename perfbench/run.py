"""gbgc benchmark: the `gbgc` command line, one fresh process per invocation.

Usage (from the repository root):
    python3 perfbench/run.py --workload {er_coarsen,tu_many_small,eval_sweep}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

--trace 0 times untraced passes and prints the end-to-end metrics. --trace 1
also runs one traced pass (traced_cli.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer
from spawner import Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_SEED = 0
SETUP_REPEATS = 3
MIN_PASSES = 3
ENTRY = "import sys; from gbgc.cli import main; sys.exit(main())"  # what the gbgc script runs

# Exact counts that must repeat on every traced pass of one workload, seed and
# source tree. Bytes written are not among them: elapsed_micros varies in width.
EXACT_COUNTS = ("engine.accept_ratio", *(
    k for k in tracer.PROBED + tracer.COMPUTED if k != "dataio.bytes_written"))


def host_facts() -> dict:
    """Facts the timings depend on: cores, CPU, memory, Python, numpy and its BLAS."""
    import numpy

    def first(path, prefix):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "thread_env": {k: os.environ[k] for k in threads if k in os.environ},
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Starts gbgc processes, one at a time, through the spawner, and measures each one."""

    def __init__(self, spawner: Spawner, logs: Path):
        self.spawner = spawner
        self.logs = logs
        self.env = {k: v for k, v in os.environ.items() if k != "GBGC_JOBS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )

    def spawn(self, command: list[str], log: Path) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB of the process and its reaped children, exit code)."""
        return self.spawner.run(command, log, self.env, ROOT)

    def cli(self, argv: list[str], log: Path) -> int:
        return self.spawn([sys.executable, "-c", ENTRY, *argv], log)[2]

    def run_pass(self, invocations, outputs: Path, spans: Path | None = None):
        """All invocations once, in order. Returns (wall, peak RSS MB, exit codes)."""
        wall, rss, codes = 0.0, 0.0, []
        for inv in invocations:
            out = outputs / inv.label
            if inv.kind == "coarsen":
                shutil.rmtree(out, ignore_errors=True)
            else:
                (out / "report.csv").unlink(missing_ok=True)
            argv = inv.argv(outputs)
            if spans is None:
                command = [sys.executable, "-c", ENTRY, *argv]
            else:
                command = [sys.executable, str(HERE / "traced_cli.py"),
                           str(spans / f"{inv.label}.spans"), *argv]
            w, r, code = self.spawn(command, self.logs / f"{inv.label}.log")
            if code != 0:
                sys.stderr.write((self.logs / f"{inv.label}.log").read_text()[-2000:])
            wall += w
            rss = max(rss, r)
            codes.append(code)
        return wall, rss, codes


class Tally:
    """Correctness over every pass of the run; a failing graph is counted, never dropped."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.records: dict[str, dict] = {}

    def add(self, invocations, outputs: Path, codes: list[int]) -> None:
        from check import check_invocation

        for inv, code in zip(invocations, codes):
            ref = self.reference.get(inv.label) if self.reference is not None else None
            if self.reference is not None and ref is None:
                ref = {"digests": [], "sd": []}  # no reference recorded: every graph fails
            outcome = check_invocation(inv, outputs / inv.label, code, ref)
            first = self.fingerprints.setdefault(inv.label, outcome.fingerprint)
            if outcome.fingerprint is not None and outcome.fingerprint != first:
                outcome.problems.append(f"{inv.label}: output differs from an earlier pass")
                outcome.failed = outcome.attempted
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems.extend(outcome.problems)
            self.records[inv.label] = outcome.records


def check_exact_counts(key: str, metrics: dict) -> list[str]:
    """Compare this traced pass's exact counts with any earlier pass of the same key."""
    path = WORK / "exact_counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    now = {k: metrics[k] for k in EXACT_COUNTS}
    before = known.setdefault(key, now)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return [f"exact count {k} was {before[k]}, now {now[k]}" for k in now if before.get(k) != now[k]]


def traced_metrics(dumps: list[Path], traced_wall: float, walls: list[list[float]]) -> dict:
    """Per-layer metrics of the traced pass, with the tracing overhead against the
    untraced passes of the same configuration (the last list in walls)."""
    metrics, missing = tracer.summarize([p for p in dumps if p.is_file()])
    untraced = statistics.median(walls[-1])
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.unattributed_s"] = traced_wall - layer_self
    # --jobs 1 over --jobs 2; 0 where the run has a single configuration.
    metrics["cli.jobs_speedup"] = untraced / statistics.median(walls[0]) if len(walls) > 1 else 0.0
    if missing:
        print(f"not traced (name not found): {', '.join(missing)}")
    print(f"traced pass {traced_wall:.4f} s; untraced median {untraced:.4f} s "
          f"({spread(walls[-1])}); overhead {traced_wall - untraced:+.4f} s")
    print(f"layer self times add up to {layer_self:.4f} s; unattributed (interpreter "
          f"start-up and exit, span dump) {traced_wall - layer_self:.4f} s")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in sorted(metrics):
        kind = ("computed" if name in tracer.COMPUTED else
                "counted" if name in tracer.COUNTED else "timed")
        print(f"  {name:30s} {metrics[name]:>18.6g} {units.get(name, '?'):6s} {kind}")
    return metrics


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{len(values)} samples, quartiles {q1:.4f}..{q3:.4f}"


def main(spawner: Spawner, argv=None) -> int:
    from workloads import SIZES, WORKLOADS, traced_config

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    size = SIZES[args.size]
    work = WORK / f"{args.workload}-{args.size}-{os.getpid()}"
    inputs, outputs, logs, spans = (work / d for d in ("inputs", "outputs", "logs", "spans"))
    for d in (outputs, logs, spans):
        d.mkdir(parents=True)
    runner = Runner(spawner, logs)
    host = host_facts()
    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")

    reference = None
    if args.seed == REFERENCE_SEED and args.size == "full":
        reference = json.loads(REFERENCE.read_text())["workloads"].get(args.workload, {})
    tally = Tally(reference)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        start = time.perf_counter()
        invocations = WORKLOADS[args.workload](inputs, outputs, args.seed, size, runner.cli)
        setup_times.append(time.perf_counter() - start)

    # Untraced passes. In a traced run whose traced configuration differs (--jobs 1
    # instead of 2), passes alternate between the two so both get an untraced median.
    traced_invocations = traced_config(invocations)
    configs = [invocations]
    if args.trace and traced_invocations != invocations:
        configs.append(traced_invocations)
    walls: list[list[float]] = [[] for _ in configs]
    peak_rss = 0.0
    measured = last_round = 0.0
    # Stop where the measured time lands nearest --seconds, after at least MIN_PASSES.
    while len(walls[0]) < MIN_PASSES or measured + last_round / 2 < args.seconds:
        last_round = 0.0
        for i, config in enumerate(configs):
            wall, rss, codes = runner.run_pass(config, outputs)
            tally.add(config, outputs, codes)
            walls[i].append(wall)
            peak_rss = max(peak_rss, rss)
            print(f"pass {len(walls[i])} config {i}: {wall:.4f} s, peak RSS {rss:.1f} MB")
            last_round += wall
        measured += last_round

    if args.trace:
        traced_wall, _, codes = runner.run_pass(traced_invocations, outputs, spans)
        tally.add(traced_invocations, outputs, codes)
        metrics = traced_metrics(
            [spans / f"{inv.label}.spans" for inv in traced_invocations], traced_wall, walls
        )
        key = f"{args.workload} {args.size} seed={args.seed} src={source_digest()}"
        tally.problems.extend(check_exact_counts(key, metrics))
        result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                  for m in SPEC["per_layer"]}
    else:
        failed_frac = tally.failed / tally.attempted
        result = {
            "wall_s": {"value": statistics.median(walls[0]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "passed_frac": {"value": 1.0 - failed_frac, "unit": "fraction"},
        }
        print(f"wall_s       {result['wall_s']['value']:.4f} s   median over passes "
              f"({spread(walls[0])}); a pass runs {len(invocations)} gbgc process(es)")
        print(f"peak_rss_mb  {peak_rss:.1f} MB  largest of any process, pool workers included")
        print(f"setup_s      {result['setup_s']['value']:.4f} s   median ({spread(setup_times)})")
        print(f"failed_frac  {failed_frac:.6f}    {tally.failed} of {tally.attempted} graphs "
              f"(reported as passed_frac = 1 - failed_frac)")

    for problem in tally.problems[:20]:
        print(f"FAIL {problem}")
    correct = not tally.problems
    if correct:
        shutil.rmtree(work)  # kept otherwise, for inspection
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    if not (SRC / "gbgc" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'gbgc'} not found; run from a gbgc source checkout")
    spawner = Spawner()  # before numpy, gbgc and the inputs enlarge this process
    try:
        sys.path.insert(0, str(SRC))
        code = main(spawner)
    finally:
        spawner.close()
    sys.exit(code)

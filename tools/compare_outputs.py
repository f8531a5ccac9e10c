"""Check that two checkouts of gbgc write the same outputs on the benchmark's inputs.

Usage:
    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--seed 0] [--work DIR]

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository. The inputs
are written once, by the setup functions of this checkout's
perfbench/workloads.py at full size: the two ER(30k) edge lists of
`er_coarsen`, the 5,000-graph dataset of `tu_many_small`, and the ER(3k)
edge list of `eval_sweep` with the mapping its set-up coarsens (made by the
parent). Each checkout then runs, in a fresh process each:
  - `coarsen` on every input in adaptive, `--ablation no-init`,
    `--ablation no-split` and `--mode ratio --ratio 0.3` modes, at
    `--jobs 1` and `--jobs 2` (with `--skip-sd` on the ER(30k) graphs, as
    the benchmark runs them);
  - `coarsen` at `--jobs 1` and `--jobs 2` on a copy of the 5,000-graph
    dataset whose A file has its lines shuffled (by --seed);
  - `evaluate` of the ER(3k) mapping, and of the 5,000-graph dataset's
    mapping (made by the parent's adaptive `coarsen --skip-sd`), in all
    four `--laplacian`/`--sd-mode` pairs.
A run is the same when `mapping.jsonl` and `coarse_edges.txt` are
byte-identical, `report.csv` is identical apart from `elapsed_micros`,
stdout is identical apart from `total_s`, and stderr and the exit code are
equal. Prints one line per run and exits 1 if any run differs.
"""

import argparse
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY = "import sys; from gbgc.cli import main; sys.exit(main())"  # what the gbgc script runs
COARSEN_MODES = {
    "adaptive": (),
    "no-init": ("--ablation", "no-init"),
    "no-split": ("--ablation", "no-split"),
    "ratio-0.3": ("--mode", "ratio", "--ratio", "0.3"),
}
EVAL_PAIRS = [(kind, mode) for kind in ("combinatorial", "normalized")
              for mode in ("projected", "unweighted")]


def gbgc(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "GBGC_JOBS"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                          capture_output=True, text=True)


def outcome(out_dir: Path, proc: subprocess.CompletedProcess) -> dict:
    """What must be the same on both sides, read back from one run."""
    result = {
        "exit code": proc.returncode,
        "stdout": re.sub(r" total_s=\S+", "", proc.stdout),
        "stderr": proc.stderr,
    }
    for name in ("mapping.jsonl", "coarse_edges.txt"):
        path = out_dir / name
        result[name] = path.read_bytes() if path.is_file() else None
    report = out_dir / "report.csv"
    if report.is_file():
        rows = [line.split(",") for line in report.read_text().splitlines()]
        drop = rows[0].index("elapsed_micros")
        result["report.csv"] = [row[:drop] + row[drop + 1:] for row in rows]
    else:
        result["report.csv"] = None
    return result


def runs(inputs: Path, seed: int, parent: Path):
    """(label, gbgc arguments without --output, mapping to start from or None)."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import SIZES, setup_er_coarsen, setup_eval_sweep, setup_tu_many_small

    size = SIZES["full"]
    coarsen_inputs = [
        *setup_er_coarsen(inputs, inputs, seed, size, None),
        *setup_tu_many_small(inputs, inputs, seed, size, None),
    ]
    for inv in coarsen_inputs:
        for mode, flags in COARSEN_MODES.items():
            for jobs in ("1", "2"):
                yield f"{inv.label}-{mode}-jobs{jobs}", [*inv.args, *flags, "--jobs", jobs], None

    tu = next(inv for inv in coarsen_inputs if inv.label == "tu")
    synth = Path(tu.args[tu.args.index("--input") + 1])
    shuffled = inputs / "SHUF"
    shuffled.mkdir()
    shutil.copyfile(synth / f"{synth.name}_graph_indicator.txt",
                    shuffled / "SHUF_graph_indicator.txt")
    lines = (synth / f"{synth.name}_A.txt").read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    (shuffled / "SHUF_A.txt").write_text("".join(lines))
    for jobs in ("1", "2"):
        yield f"tu-shuffled-jobs{jobs}", ["coarsen", "--input", str(shuffled), "--jobs", jobs], None

    def run_cli(argv, log):
        proc = gbgc(parent, argv)
        Path(log).write_text(proc.stdout + proc.stderr)
        return proc.returncode

    tu_mapping = inputs / "tu-coarsened"
    run_cli(["coarsen", "--input", str(synth), "--skip-sd", "--jobs", "2",
             "--output", str(tu_mapping)], inputs / "tu-coarsen.log")
    for kind, mode in EVAL_PAIRS:
        argv = ["evaluate", "--input", str(synth), "--laplacian", kind, "--sd-mode", mode]
        yield f"tu-eval-{kind}-{mode}", argv, tu_mapping / "mapping.jsonl"

    evaluate = setup_eval_sweep(inputs, inputs / "eval-outputs", seed, size, run_cli)[0]
    graph = evaluate.args[evaluate.args.index("--input") + 1]
    mapping = inputs / "coarsened" / "mapping.jsonl"
    for kind, mode in EVAL_PAIRS:
        argv = ["evaluate", "--input", graph, "--format", "edgelist",
                "--laplacian", kind, "--sd-mode", mode]
        yield f"eval-{kind}-{mode}", argv, mapping


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    work = Path(tempfile.mkdtemp(prefix="gbgc-compare-", dir=args.work))
    differing = 0
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        for label, argv, mapping in runs(inputs, args.seed, sides["parent"]):
            seen = {}
            for side, root in sides.items():
                out = work / side / label
                out.mkdir(parents=True)
                if mapping is not None:
                    shutil.copyfile(mapping, out / "mapping.jsonl")
                seen[side] = outcome(out, gbgc(root, [*argv, "--output", str(out)]))
            diff = [key for key in seen["parent"] if seen["parent"][key] != seen["change"][key]]
            differing += bool(diff)
            print(f"{label}: {'differs in ' + ', '.join(diff) if diff else 'same'}", flush=True)
    finally:
        shutil.rmtree(work)
    print(f"{differing} run(s) differ" if differing else "all runs have the same outputs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

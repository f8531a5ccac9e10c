"""Check that two checkouts of gbgc write the same outputs on the benchmark's inputs.

Usage:
    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--seed 0] [--work DIR]

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository. Each
checkout writes the inputs with its own perfbench/workloads.py set-up
functions and its own gbgc, at full size: the two ER(30k) edge lists of
`er_coarsen`, the 5,000-graph dataset of `tu_many_small`, and the ER(3k)
edge list of `eval_sweep` with the mapping its set-up coarsens. The two
sets of input files must be byte-identical (set-up logs aside, and the
timings in that mapping's report.csv); if they are
not, the differing files are printed and nothing else runs, since a change
to the generator or the writer would otherwise go unseen. The parent's
inputs are then used. Each checkout runs, in a fresh process each:
  - `coarsen` on every input in adaptive, `--ablation no-init`,
    `--ablation no-split` and `--mode ratio --ratio 0.3` modes, at
    `--jobs 1` and `--jobs 2` (with `--skip-sd` on the ER(30k) graphs, as
    the benchmark runs them);
  - `coarsen` at `--jobs 1` and `--jobs 2` on a copy of the 5,000-graph
    dataset whose A file has its lines shuffled (by --seed);
  - `coarsen` at `--jobs 2` on copies of the 5,000-graph dataset that take
    the parser's other paths (`parser_variants`): CRLF line ends, one
    whitespace-only line in the A file, a \x1f byte in the A file (an
    error), and one A-file token one beyond int32, 2147483648 (an error);
    and at `--jobs 1` on the first ER(30k) edge list with three
    leading `#` lines and one `#` line halfway;
  - `evaluate` of the ER(3k) mapping, and of the 5,000-graph dataset's
    mapping (made by the parent's adaptive `coarsen --skip-sd`), in all
    four `--laplacian`/`--sd-mode` pairs;
  - `evaluate` of that mapping with three rows spoiled (`with_bad_rows`:
    one left out, one assignment an entry short, one ball index equal to
    its row's `supernode_count`), in the same four pairs, so the failure
    path is compared too.
A run is the same when `mapping.jsonl` and `coarse_edges.txt` are
byte-identical, `report.csv` is identical apart from `elapsed_micros`,
stdout is identical apart from `total_s`, and stderr and the exit code are
equal. Prints one line per run and exits 1 if any run differs.
"""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ENTRY = "import sys; from gbgc.cli import main; sys.exit(main())"  # what the gbgc script runs
COARSEN_MODES = {
    "adaptive": (),
    "no-init": ("--ablation", "no-init"),
    "no-split": ("--ablation", "no-split"),
    "ratio-0.3": ("--mode", "ratio", "--ratio", "0.3"),
}
EVAL_PAIRS = [(kind, mode) for kind in ("combinatorial", "normalized")
              for mode in ("projected", "unweighted")]
# run with a checkout's src and perfbench on the path: writes the inputs
# under argv[1] for seed argv[2] and prints [label, gbgc arguments] of each
# workload invocation as the last line
WRITE_INPUTS = """
import contextlib, json, sys
from pathlib import Path
from gbgc.cli import main
from workloads import SIZES, setup_er_coarsen, setup_eval_sweep, setup_tu_many_small

inputs, seed, size = Path(sys.argv[1]), int(sys.argv[2]), SIZES["full"]

def run_cli(argv, log):
    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        return main(argv)

invocations = [
    *setup_er_coarsen(inputs, inputs, seed, size, run_cli),
    *setup_tu_many_small(inputs, inputs, seed, size, run_cli),
    *setup_eval_sweep(inputs, inputs / "eval-outputs", seed, size, run_cli),
]
print(json.dumps([[inv.label, inv.args] for inv in invocations]))
"""


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
    result["report.csv"] = comparable(report) if report.is_file() else None
    return result


def comparable(path: Path):
    """What must be the same of a file: its bytes, or, for a report.csv,
    its rows without elapsed_micros."""
    if path.name != "report.csv":
        return path.read_bytes()
    rows = [line.split(",") for line in path.read_text().splitlines()]
    drop = rows[0].index("elapsed_micros")
    return [row[:drop] + row[drop + 1:] for row in rows]


def with_bad_rows(mapping: str) -> str:
    """The mapping.jsonl text with three graphs' rows spoiled: graph
    1,000's left out, graph 2,500's assignment one entry short, and graph
    4,000's first node mapped to the ball one past its last."""
    lines = mapping.splitlines(keepends=True)
    missing, short, out_of_range = 1_000, 2_500, 4_000
    rows = {i: json.loads(lines[i]) for i in (short, out_of_range)}
    rows[short]["assignment"].pop()
    rows[out_of_range]["assignment"][0] = rows[out_of_range]["supernode_count"]
    for i, row in rows.items():
        lines[i] = json.dumps(row, separators=(",", ":")) + "\n"
    del lines[missing]
    return "".join(lines)


def parser_variants(synth: Path, edge_list: Path, inputs: Path):
    """(label, input directory or file) of copies of the dataset `synth` and
    of `edge_list` that numpy's reader does not read as a whole: blanks or
    comments where the per-line reader must take the file, a byte the
    grammar rejects, and a node index beyond int32. The CRLF copy stays on
    numpy's reader."""
    a_text = (synth / f"{synth.name}_A.txt").read_text()
    indicator = (synth / f"{synth.name}_graph_indicator.txt").read_text()
    lines = a_text.splitlines(keepends=True)
    half = len(lines) // 2
    datasets = {
        "CRLF": (a_text.replace("\n", "\r\n"), indicator.replace("\n", "\r\n")),
        "BLANK": ("".join([*lines[:half], " \t \n", *lines[half:]]), indicator),
        "BADBYTE": ("".join([*lines[:half], lines[half].replace(",", ",\x1f"), *lines[half + 1:]]),
                    indicator),
        "INT32": ("".join([*lines[:half], "2147483648, 1\n", *lines[half:]]), indicator),
    }
    for name, (a, ind) in datasets.items():
        directory = inputs / name
        directory.mkdir()
        (directory / f"{name}_A.txt").write_bytes(a.encode())
        (directory / f"{name}_graph_indicator.txt").write_bytes(ind.encode())
        yield f"tu-{name.lower()}", directory
    lines = edge_list.read_text().splitlines(keepends=True)
    half = len(lines) // 2
    commented = inputs / "er-commented.txt"
    commented.write_text("".join(["# an edge list\n", "#\n", "  # with comments\n",
                                  *lines[:half], "# halfway\n", *lines[half:]]))
    yield "er-commented", commented


def write_inputs(root: Path, inputs: Path, seed: int) -> dict:
    """Writes the inputs with the set-up functions of the checkout at `root`,
    in a fresh process; returns each workload invocation's gbgc arguments
    (without --output) by label."""
    env = {k: v for k, v in os.environ.items() if k != "GBGC_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", WRITE_INPUTS, str(inputs), str(seed)],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: writing the inputs failed\n{proc.stderr}")
    return dict(json.loads(proc.stdout.splitlines()[-1]))


def differing_inputs(a: Path, b: Path) -> list[str]:
    """Files under `a` and `b`, set-up logs aside, that are not in both or
    differ (the report.csv of the mapping set-up makes apart from its
    timings)."""
    def files(root):
        return {str(p.relative_to(root)) for p in root.rglob("*")
                if p.is_file() and p.suffix != ".log"}

    names = files(a) | files(b)
    return sorted(name for name in names
                  if not ((a / name).is_file() and (b / name).is_file()
                          and comparable(a / name) == comparable(b / name)))


def runs(inputs: Path, seed: int, parent: Path, invocations: dict):
    """(label, gbgc arguments without --output, mapping to start from or None)."""
    for label, args in invocations.items():
        if args[0] != "coarsen":
            continue
        for mode, flags in COARSEN_MODES.items():
            for jobs in ("1", "2"):
                yield f"{label}-{mode}-jobs{jobs}", [*args, *flags, "--jobs", jobs], None

    tu = invocations["tu"]
    synth = Path(tu[tu.index("--input") + 1])
    shuffled = inputs / "SHUF"
    shuffled.mkdir()
    shutil.copyfile(synth / f"{synth.name}_graph_indicator.txt",
                    shuffled / "SHUF_graph_indicator.txt")
    lines = (synth / f"{synth.name}_A.txt").read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    (shuffled / "SHUF_A.txt").write_text("".join(lines))
    for jobs in ("1", "2"):
        yield f"tu-shuffled-jobs{jobs}", ["coarsen", "--input", str(shuffled), "--jobs", jobs], None

    er = list(invocations["er-0"])
    at = er.index("--input") + 1
    for label, path in parser_variants(synth, Path(er[at]), inputs):
        if label.startswith("tu-"):
            yield label, ["coarsen", "--input", str(path), "--jobs", "2"], None
        else:
            er[at] = str(path)
            yield label, [*er, "--jobs", "1"], None

    def run_cli(argv, log):
        proc = gbgc(parent, argv)
        Path(log).write_text(proc.stdout + proc.stderr)
        return proc.returncode

    tu_mapping = inputs / "tu-coarsened"
    run_cli(["coarsen", "--input", str(synth), "--skip-sd", "--jobs", "2",
             "--output", str(tu_mapping)], inputs / "tu-coarsen.log")
    bad_mapping = inputs / "tu-bad-rows.jsonl"
    bad_mapping.write_text(with_bad_rows((tu_mapping / "mapping.jsonl").read_text()))
    for kind, mode in EVAL_PAIRS:
        argv = ["evaluate", "--input", str(synth), "--laplacian", kind, "--sd-mode", mode]
        yield f"tu-eval-{kind}-{mode}", argv, tu_mapping / "mapping.jsonl"
        yield f"tu-eval-bad-rows-{kind}-{mode}", argv, bad_mapping

    evaluate = invocations["eval-comb-proj"]
    graph = evaluate[evaluate.index("--input") + 1]
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
        invocations = write_inputs(sides["parent"], inputs, args.seed)
        change_inputs = work / "change-inputs"
        change_inputs.mkdir()
        write_inputs(sides["change"], change_inputs, args.seed)
        differ = differing_inputs(inputs, change_inputs)
        if differ:
            print(f"the inputs differ in {len(differ)} file(s): {', '.join(differ)}")
            return 1
        print("inputs: byte-identical", flush=True)
        shutil.rmtree(change_inputs)
        for label, argv, mapping in runs(inputs, args.seed, sides["parent"], invocations):
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

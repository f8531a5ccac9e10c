"""The benchmark's workloads: generated inputs and the gbgc invocations run on them.

Each workload writes its inputs from the seed alone, then names the command
lines that make up one pass. The program sees only the files written here.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from gbgc.dataio import write_edge_list
from gbgc.generators import erdos_renyi

ER_MEAN_DEGREE = 4.0

# Input sizes; "tiny" exists for the smoke test only.
SIZES = {
    "full": {"er_nodes": 30_000, "er_graphs": 2, "tu_graphs": 5_000, "eval_nodes": 3_000},
    "tiny": {"er_nodes": 300, "er_graphs": 2, "tu_graphs": 40, "eval_nodes": 60},
}

EVAL_MODES = {
    "eval-comb-proj": ("combinatorial", "projected"),
    "eval-norm-proj": ("normalized", "projected"),
    "eval-comb-unw": ("combinatorial", "unweighted"),
}


@dataclass(frozen=True)
class Invocation:
    """One `gbgc` command line plus what the checker needs to judge its output."""

    label: str  # also the name of its output directory
    args: tuple[str, ...]  # gbgc arguments, without --output and --jobs
    graphs: tuple  # the input graphs, in graph-index order
    kind: str  # "coarsen" or "evaluate"
    skip_sd: bool = False
    jobs: int | None = None  # None: the subcommand takes no meaningful --jobs

    def argv(self, out_root: Path) -> list[str]:
        jobs = [] if self.jobs is None else ["--jobs", str(self.jobs)]
        return [*self.args, *jobs, "--output", str(out_root / self.label)]


def traced_config(invocations: list[Invocation]) -> list[Invocation]:
    """The same pass at --jobs 1, where all work happens in the traced process."""
    return [inv if inv.jobs is None else replace(inv, jobs=1) for inv in invocations]


def write_tud(directory: Path, graphs) -> None:
    """Multi-graph text layout: 1-indexed comma pairs in both directions."""
    directory.mkdir(parents=True, exist_ok=True)
    name = directory.name
    indicator, edges = [], []
    offset = 0
    for i, g in enumerate(graphs, start=1):
        indicator.extend([str(i)] * g.n)
        for u, v in g.edges:
            edges.append(f"{offset + u + 1}, {offset + v + 1}")
            edges.append(f"{offset + v + 1}, {offset + u + 1}")
        offset += g.n
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (directory / f"{name}_A.txt").write_text("\n".join(edges) + "\n")


def setup_er_coarsen(inputs: Path, outputs: Path, seed: int, size: dict, run_cli):
    count = size["er_graphs"]
    invocations = []
    for i in range(count):
        g = erdos_renyi(size["er_nodes"], ER_MEAN_DEGREE, seed=30_000 + count * seed + i)
        path = inputs / f"er-{i}.txt"
        write_edge_list(g, path)
        args = ("coarsen", "--input", str(path), "--format", "edgelist", "--skip-sd")
        invocations.append(Invocation(f"er-{i}", args, (g,), "coarsen", skip_sd=True, jobs=1))
    return invocations


def setup_tu_many_small(inputs: Path, outputs: Path, seed: int, size: dict, run_cli):
    # Same shape as the test suite's synthetic dataset: 10-50 nodes, mean degree 2-6.
    count = size["tu_graphs"]
    graphs = tuple(
        erdos_renyi(10 + (i * 7) % 41, 2.0 + (i % 5), seed=count * seed + i) for i in range(count)
    )
    directory = inputs / "SYNTH"
    write_tud(directory, graphs)
    return [Invocation("tu", ("coarsen", "--input", str(directory)), graphs, "coarsen", jobs=2)]


def setup_eval_sweep(inputs: Path, outputs: Path, seed: int, size: dict, run_cli):
    g = erdos_renyi(size["eval_nodes"], ER_MEAN_DEGREE, seed=3_000 + seed)
    path = inputs / "er.txt"
    write_edge_list(g, path)
    # One-off preparation: the partition every evaluate pass re-reads.
    mapping_dir = inputs / "coarsened"
    run_cli(["coarsen", "--input", str(path), "--format", "edgelist", "--skip-sd",
             "--jobs", "1", "--output", str(mapping_dir)], inputs / "coarsen.log")
    invocations = []
    for label, (kind, mode) in EVAL_MODES.items():
        (outputs / label).mkdir(parents=True, exist_ok=True)
        if (mapping_dir / "mapping.jsonl").is_file():
            shutil.copyfile(mapping_dir / "mapping.jsonl", outputs / label / "mapping.jsonl")
        args = ("evaluate", "--input", str(path), "--format", "edgelist",
                "--laplacian", kind, "--sd-mode", mode)
        invocations.append(Invocation(label, args, (g,), "evaluate"))
    return invocations


WORKLOADS = {
    "er_coarsen": setup_er_coarsen,
    "tu_many_small": setup_tu_many_small,
    "eval_sweep": setup_eval_sweep,
}

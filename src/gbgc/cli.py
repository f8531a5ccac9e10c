"""Command-line front end: coarsen, evaluate, bench.

`coarsen` splits the dataset's block into contiguous row slices. Each slice
is one task for a process pool (`--jobs`, default from GBGC_JOBS), or runs
in-process at `--jobs 1`, and comes back as its output text; the blocks are
written in graph-index order, so output files are byte-identical regardless
of parallel width. A block whose work raises is halved until the failure
is pinned on one graph, and the other graphs are still written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .coarse import block_assignment, build_coarse_graph, check_cover, coarse_block
from .dataio import (
    BlockResults,
    DatasetBundle,
    block_rows,
    parse_edge_list,
    parse_tudataset,
    read_mapping,
    report_rows,
    write_report_csv,
    write_result_blocks,
)
from .engine import CoarsenConfig, Partition, coarsen, coarsen_block
from .errors import GbgcError
from .generators import erdos_renyi, random_partition
from .graph import GraphBlock
from .spectral import EvalConfig, evaluate, evaluate_block

BENCH_SIZES = (1_000, 5_000, 10_000, 50_000)
BENCH_MEAN_DEGREE = 4.0
# nodes one engine call refines at most, unless a single graph is larger
BLOCK_NODES = 1 << 16


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gbgc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        with_input: bool = True,
        with_jobs: bool = True,
        with_skip_sd: bool = True,
    ):
        if with_input:
            p.add_argument("--input", required=True, help="dataset directory or edge-list file")
            p.add_argument(
                "--format",
                choices=["tudataset", "edgelist"],
                default=None,
                help="input format (default: tudataset for directories, edgelist for files)",
            )
        p.add_argument("--output", default="gbgc_out", help="output directory")
        p.add_argument(
            "--laplacian", choices=["combinatorial", "normalized"], default="combinatorial"
        )
        p.add_argument("--sd-mode", choices=["projected", "unweighted"], default="projected")
        if with_jobs:
            # argparse converts a string default with `type`, so a bad
            # GBGC_JOBS fails as the same --jobs value would
            default = os.environ.get("GBGC_JOBS", "1")
            p.add_argument("--jobs", type=int, default=default, help="parallel workers")
        if with_skip_sd:
            p.add_argument("--skip-sd", action="store_true", help="skip spectral evaluation")

    p_coarsen = sub.add_parser("coarsen", help="coarsen every graph in the input")
    add_common(p_coarsen)
    p_coarsen.add_argument("--mode", choices=["adaptive", "ratio"], default="adaptive")
    p_coarsen.add_argument("--ratio", type=float, default=None, help="target ratio in (0,1)")
    p_coarsen.add_argument(
        "--ablation", choices=["none", "no-init", "no-split"], default="none"
    )

    p_eval = sub.add_parser("evaluate", help="re-evaluate an existing mapping.jsonl")
    add_common(p_eval, with_jobs=False, with_skip_sd=False)

    p_bench = sub.add_parser("bench", help="synthetic scaling benchmark")
    add_common(p_bench, with_input=False, with_jobs=False)
    return parser


def _load_bundle(args) -> DatasetBundle:
    path = Path(args.input)
    fmt = args.format or ("tudataset" if path.is_dir() else "edgelist")
    if fmt == "tudataset":
        return parse_tudataset(path, path.name)
    return DatasetBundle(name=path.stem, block=GraphBlock.join([parse_edge_list(path)]))


def _error_text(exc: Exception) -> str:
    """What follows "graph i: " when that graph's work raised `exc`."""
    if isinstance(exc, GbgcError):
        return str(exc)
    if isinstance(exc, MemoryError):
        return "out of memory"
    return f"internal error: {type(exc).__name__}: {exc}"


def _halving(attempt, a: int, b: int, indices, failures) -> None:
    """attempt(a, b) on graphs a..b of a block; if it raises, each half on
    its own, down to a single graph, whose (index, error) goes to
    `failures`: the one place a failure is pinned on its graph."""
    try:
        attempt(a, b)
    except Exception as exc:
        if b - a == 1:
            failures.append((int(indices[a]), _error_text(exc)))
            return
        mid = a + (b - a) // 2
        _halving(attempt, a, mid, indices, failures)
        _halving(attempt, mid, b, indices, failures)


def _results(indices, block: GraphBlock, assign, eval_cfg, skip_sd: bool, done, failures):
    """Coarse graphs and SDs of the graphs of a block, graph i of which has
    index indices[i], appended to `done` as `BlockResults` in index order.

    `assign(indices, block)` gives their block-wide assignment and each
    graph's first ball. Where it raises, its halves are assigned again;
    where the finish (`coarse_block`, `evaluate_block`) raises, its halves
    are cut from the assignment already made. The time of the assignment
    and of the finish is shared out among the graphs' elapsed_micros in
    proportion to n + m.
    """
    bounds = block.bounds
    sizes = np.diff(bounds) + np.diff(block.indptr[bounds]) // 2

    def assigned(a: int, b: int):
        t0 = time.perf_counter()
        assignment, first_ball = assign(indices[a:b], block.slice(a, b))
        spent = time.perf_counter() - t0

        def finished(c: int, d: int):
            t1 = time.perf_counter()
            rows = block.slice(c, d)
            base = first_ball[c - a]
            cut = assignment[bounds[c] - bounds[a] : bounds[d] - bounds[a]] - base
            cut_first_ball = first_ball[c - a : d - a + 1] - base
            cb = coarse_block(rows, cut, cut_first_ball)
            if skip_sd:
                sd, samples = np.full(d - c, np.nan), None
            else:
                sd, samples = evaluate_block(cb, eval_cfg)
            finish = time.perf_counter() - t1
            per_size = spent / max(1, int(sizes[a:b].sum()))
            per_size += finish / max(1, int(sizes[c:d].sum()))
            gaps = None
            if samples is not None:
                gaps = np.array([max((s[2] for s in probes), default=np.nan) for probes in samples])
            done.append(BlockResults(
                indices[c:d], rows.bounds, cut, cut_first_ball, cb.superedges, cb.cuts,
                np.diff(rows.indptr[rows.bounds]) // 2, sd,
                (per_size * sizes[c:d] * 1e6).astype(np.int64), gaps,
            ))

        _halving(finished, a, b, indices, failures)

    _halving(assigned, 0, block.graph_count, indices, failures)


def _engine(cfg: CoarsenConfig, indices, block: GraphBlock):
    """`assign` under coarsen: one engine call on the block. A lone graph
    goes through coarsen, the one-graph entry point that perfbench's traced
    pass counts split decisions through."""
    if block.graph_count > 1:
        return coarsen_block(block, cfg)
    part = coarsen(block, cfg)
    return part.assignment, np.array([0, part.ball_count])


class _Block:
    """One `coarsen` task: graphs `graphs` of `block`, whose graph 0 has
    index `first`, and the settings (cfg, eval_cfg, skip_sd) to coarsen
    them with. It pickles as the row slice of those graphs alone, its
    arrays narrowed (`GraphBlock.__reduce__`), cut only as it is sent to a
    worker."""

    def __init__(self, first: int, block: GraphBlock, graphs: range, settings: tuple):
        self.first, self.block, self.graphs, self.settings = first, block, graphs, settings

    def __reduce__(self):
        return _Block, (self.graphs.start, self.rows(), self.graphs, self.settings)

    def rows(self) -> GraphBlock:
        """The task's graphs as a block of their own: views when the block
        holds them alone, as a worker's does."""
        return self.block.slice(self.graphs.start - self.first, self.graphs.stop - self.first)


def _run_block(task: _Block):
    """The task's output, all a worker sends back: the `block_rows` of its
    graphs, its (index, error) failures, and the r_a and SD of each graph
    written, in index order, as Python floats."""
    done: list[BlockResults] = []
    failures: list[tuple[int, str]] = []
    cfg, eval_cfg, skip_sd = task.settings
    indices = np.arange(task.graphs.start, task.graphs.stop)
    _results(indices, task.rows(), partial(_engine, cfg), eval_cfg, skip_sd, done, failures)
    rows = ([], [], [])
    for res in done:
        for pieces, more in zip(rows, block_rows(res)):
            pieces.extend(more)
    r_a = [x for res in done for x in res.r_a.tolist()]
    sd = [x for res in done for x in res.sd.tolist()]
    return rows, failures, r_a, sd


def _blocks(block: GraphBlock, jobs: int) -> list[range]:
    """Contiguous runs of graph indices, one engine call and one finish
    each: at least 4 * jobs runs when jobs > 1, and no run over BLOCK_NODES
    nodes unless one graph alone is larger."""
    count = block.graph_count
    per_block = max(1, count // (jobs * 4)) if jobs > 1 else count
    blocks = []
    start = nodes = 0
    for i, n in enumerate(np.diff(block.bounds).tolist()):
        if i > start and (i - start >= per_block or nodes + n > BLOCK_NODES):
            blocks.append(range(start, i))
            start = i
            nodes = 0
        nodes += n
    if start < count:
        blocks.append(range(start, count))
    return blocks


def _usable_cpus() -> int:
    """CPUs this process may run on: the cap on --jobs, since a forking
    process pool starts all its workers at once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_coarsen(args) -> int:
    cfg = CoarsenConfig(
        mode=args.mode,
        ratio=args.ratio,
        ablation=args.ablation.replace("-", "_"),
    )
    # coarsen writes only the SD, so no Rayleigh probes are computed
    eval_cfg = EvalConfig(
        laplacian_kind=args.laplacian, sd_mode=args.sd_mode, rayleigh_vectors=0
    )
    jobs = min(args.jobs, _usable_cpus())
    bundle = _load_bundle(args)
    t0 = time.perf_counter()
    settings = (cfg, eval_cfg, args.skip_sd)
    blocks = [_Block(0, bundle.block, graphs, settings) for graphs in _blocks(bundle.block, jobs)]
    r_a: list[float] = []
    sd: list[float] = []
    failures: list[tuple[int, str]] = []

    def rows(outputs):
        """Each block's rows, in block order, as its output arrives; its
        failures are printed and its floats kept on the way."""
        for block_rows, block_failures, block_r_a, block_sd in outputs:
            for index, err in block_failures:
                print(f"graph {index}: {err}", file=sys.stderr)
            failures.extend(block_failures)
            r_a.extend(block_r_a)
            sd.extend(block_sd)
            yield block_rows

    if jobs > 1 and len(blocks) > 1:
        # imported only where a pool runs: it loads multiprocessing, which
        # costs a process that starts no pool about 1.4 MB
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
                # submits every block, so the workers start before any output is opened
                write_result_blocks(rows(pool.map(_run_block, blocks)), args.output)
        except BrokenProcessPool:
            print(
                "error: a worker process died (killed, or out of memory); no output was written",
                file=sys.stderr,
            )
            return 1
    else:
        write_result_blocks(rows(map(_run_block, blocks)), args.output)
    total = time.perf_counter() - t0
    finite_sd = [x for x in sd if not math.isnan(x)]
    mean_ra = sum(r_a) / len(r_a) if r_a else float("nan")
    summary = f"graphs={len(r_a)} mean_r_a={mean_ra:.6f}"
    if finite_sd:
        summary += f" mean_sd={sum(finite_sd) / len(finite_sd):.6f}"
    summary += f" total_s={total:.3f}"
    print(summary)
    return 1 if failures else 0


def run_evaluate(args) -> int:
    """report.csv from mapping.jsonl; as under coarsen, a graph that fails
    is reported and the others are still written."""
    block = _load_bundle(args).block
    out_dir = Path(args.output)
    rows = read_mapping(out_dir / "mapping.jsonl", block.graph_count)
    eval_cfg = EvalConfig(laplacian_kind=args.laplacian, sd_mode=args.sd_mode)
    by_index = {row["graph_index"]: row for row in rows}

    def mapped(indices, block):
        """`assign` under evaluate: the graphs' mapping.jsonl rows, each
        checked against its graph, as one block-wide assignment."""
        parts = []
        for i, n in zip(indices.tolist(), np.diff(block.bounds).tolist()):
            row = by_index.get(i)
            if row is None:
                raise GbgcError("no mapping row")
            part = Partition.from_assignment(row["assignment"], row["supernode_count"])
            check_cover(part, n)
            parts.append(part)
        first_ball, assignment = block_assignment(parts)
        return assignment, first_ball

    done: list[BlockResults] = []
    failures: list[tuple[int, str]] = []
    for run in _blocks(block, 1):
        indices = np.arange(run.start, run.stop)
        _results(indices, block.slice(run.start, run.stop), mapped, eval_cfg, False, done, failures)
    for index, err in failures:
        print(f"graph {index}: {err}", file=sys.stderr)
    write_report_csv((row for res in done for row in report_rows(res)), out_dir / "report.csv")
    sds = [x for res in done for x in res.sd.tolist()]
    gaps = [x for res in done for x in res.rayleigh_gap.tolist() if not math.isnan(x)]
    mean_sd = sum(sds) / len(sds) if sds else float("nan")
    print(f"graphs={len(sds)} mean_sd={mean_sd:.6f} max_rayleigh_gap={max(gaps, default=0.0):.6f}")
    return 1 if failures else 0


def run_bench(args) -> int:
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in BENCH_SIZES:
        g = erdos_renyi(n, BENCH_MEAN_DEGREE, seed=n)
        t0 = time.perf_counter()
        part = coarsen(g, CoarsenConfig())
        elapsed = int((time.perf_counter() - t0) * 1e6)
        r_a = part.ball_count / g.n
        rows.append((n, g.edge_count, part.ball_count, r_a, elapsed))
        print(f"n={n} e={g.edge_count} n_bar={part.ball_count} r_a={r_a:.6f} elapsed_us={elapsed}")
    with open(out_dir / "bench.csv", "w") as fh:
        fh.write("n,e,n_bar,r_a,elapsed_micros\n")
        for n, e, n_bar, r_a, elapsed in rows:
            fh.write(f"{n},{e},{n_bar},{r_a:.6f},{elapsed}\n")

    if not args.skip_sd:
        n = BENCH_SIZES[0]
        g = erdos_renyi(n, BENCH_MEAN_DEGREE, seed=n)
        part = coarsen(g, CoarsenConfig())
        eval_cfg = EvalConfig(
            laplacian_kind=args.laplacian, sd_mode=args.sd_mode, rayleigh_vectors=0
        )
        gbgc_sd = evaluate(build_coarse_graph(g, part), eval_cfg).sd
        control = random_partition(g, part.ball_count, seed=n)
        random_sd = evaluate(build_coarse_graph(g, control), eval_cfg).sd
        with open(out_dir / "bench_sd.csv", "w") as fh:
            fh.write("n,gbgc_sd,random_sd\n")
            fh.write(f"{n},{gbgc_sd:.6f},{random_sd:.6f}\n")
        print(f"sd_control n={n} gbgc_sd={gbgc_sd:.6f} random_sd={random_sd:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    if args.subcommand == "coarsen":
        if args.mode == "ratio":
            if args.ratio is None:
                parser.error("--ratio is required when --mode ratio")
            if not (0.0 < args.ratio < 1.0):
                parser.error("--ratio must be in (0, 1)")
            if args.ablation != "none":
                parser.error("--ablation applies to adaptive mode only")
        elif args.ratio is not None:
            parser.error("--ratio only applies to --mode ratio")
    try:
        if args.subcommand == "coarsen":
            return run_coarsen(args)
        if args.subcommand == "evaluate":
            return run_evaluate(args)
        return run_bench(args)
    except (GbgcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: coarsen, evaluate, bench.

Per-graph work fans out over a process pool (`--jobs`, default from
GBGC_JOBS); results are collected in graph-index order so output files are
byte-identical regardless of parallel width.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .coarse import build_coarse_graph, build_coarse_graphs
from .dataio import (
    CoarsenRecord,
    DatasetBundle,
    parse_edge_list,
    parse_tudataset,
    read_mapping,
    write_report_csv,
    write_results,
)
from .engine import CoarsenConfig, Partition, coarsen, coarsen_many
from .errors import GbgcError
from .generators import erdos_renyi, random_partition
from .graph import Graph
from .spectral import EvalConfig, evaluate, evaluate_many

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
    return DatasetBundle(name=path.stem, graphs=[parse_edge_list(path)])


def _error_text(exc: Exception) -> str:
    """What follows "graph i: " when that graph's work raised `exc`."""
    if isinstance(exc, GbgcError):
        return str(exc)
    if isinstance(exc, MemoryError):
        return "out of memory"
    return f"internal error: {type(exc).__name__}: {exc}"


def _finish_block(indices, graphs, parts, prep_s: float, eval_cfg, skip_sd: bool):
    """(index, record or None, error or None) for each graph of a block, from
    its partition: the block's coarse graphs and SDs are built at once.

    `prep_s`, the time it took to get the partitions, and the finish's own
    time are shared out among the graphs' elapsed_micros in proportion to
    n + m. If the finish fails, each graph is finished alone, so a failure
    is reported for the graph that caused it.
    """
    sizes = [g.n + g.edge_count for g in graphs]
    total = max(1, sum(sizes))
    try:
        t0 = time.perf_counter()
        cgs = build_coarse_graphs(graphs, parts)
        reports = None if skip_sd else evaluate_many(cgs, eval_cfg)
        spent = prep_s + time.perf_counter() - t0
    except Exception as exc:
        if len(graphs) == 1:
            return [(indices[0], None, _error_text(exc))]
        return [
            result
            for i, g, part, size in zip(indices, graphs, parts, sizes)
            for result in _finish_block([i], [g], [part], prep_s * size / total, eval_cfg, skip_sd)
        ]
    results = []
    for k, (index, g, cg, size) in enumerate(zip(indices, graphs, cgs, sizes)):
        if reports is None:
            sd, gap = float("nan"), None
        else:
            sd = reports[k].sd
            gap = max((s[2] for s in reports[k].rayleigh_samples), default=None)
        record = CoarsenRecord(
            graph_index=index,
            assignment=cg.partition.assignment,
            supernode_count=cg.supernode_count,
            superedges=cg.superedges,
            sd=sd,
            elapsed_micros=int(spent * size / total * 1e6),
            edge_count=g.edge_count,
            rayleigh_gap=gap,
        )
        results.append((index, record, None))
    return results


def _coarsen_block(task) -> list[tuple[int, CoarsenRecord | None, str | None]]:
    """(index, record or None, error or None) for each graph of one block.

    One engine call coarsens the whole block, and `_finish_block` builds its
    coarse graphs and SDs. If the engine call fails, each graph is coarsened
    alone, so a failure is reported for the graph that caused it.
    """
    first, graphs, cfg, eval_cfg, skip_sd = task
    try:
        t0 = time.perf_counter()
        # a lone graph goes through coarsen, the one-graph entry point that
        # perfbench's traced pass counts split decisions through
        parts = coarsen_many(graphs, cfg) if len(graphs) > 1 else [coarsen(graphs[0], cfg)]
        engine_s = time.perf_counter() - t0
    except Exception as exc:
        if len(graphs) == 1:
            return [(first, None, _error_text(exc))]
        return [
            result
            for i, g in enumerate(graphs)
            for result in _coarsen_block((first + i, [g], cfg, eval_cfg, skip_sd))
        ]
    indices = range(first, first + len(graphs))
    return _finish_block(indices, graphs, parts, engine_s, eval_cfg, skip_sd)


def _blocks(graphs: list[Graph], jobs: int) -> list[range]:
    """Contiguous runs of graph indices, one engine call and one finish
    each: at least 4 * jobs runs when jobs > 1, and no run over BLOCK_NODES
    nodes unless one graph alone is larger."""
    per_block = max(1, len(graphs) // (jobs * 4)) if jobs > 1 else len(graphs)
    blocks = []
    start = nodes = 0
    for i, g in enumerate(graphs):
        if i > start and (i - start >= per_block or nodes + g.n > BLOCK_NODES):
            blocks.append(range(start, i))
            start = i
            nodes = 0
        nodes += g.n
    if start < len(graphs):
        blocks.append(range(start, len(graphs)))
    return blocks


def _usable_cpus() -> int:
    """CPUs this process may run on: the cap on --jobs, since a forking
    process pool starts all its workers at once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        results = [_coarsen_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_coarsen_block, tasks))
    return [result for block in results for result in block]


def _collect(results) -> tuple[list[CoarsenRecord], int]:
    """The records of (index, record, error) results and the failure count;
    each failure is printed as "graph i: <error>"."""
    records: list[CoarsenRecord] = []
    failures = 0
    for index, record, err in results:
        if err is not None:
            failures += 1
            print(f"graph {index}: {err}", file=sys.stderr)
        else:
            records.append(record)
    return records, failures


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
    graphs = bundle.graphs
    tasks = [
        (block.start, graphs[block.start : block.stop], cfg, eval_cfg, args.skip_sd)
        for block in _blocks(graphs, jobs)
    ]
    records, failures = _collect(_map_tasks(tasks, jobs))
    write_results(records, args.output)
    total = time.perf_counter() - t0
    finite_sd = [r.sd for r in records if not math.isnan(r.sd)]
    mean_ra = sum(r.r_a for r in records) / len(records) if records else float("nan")
    summary = f"graphs={len(records)} mean_r_a={mean_ra:.6f}"
    if finite_sd:
        summary += f" mean_sd={sum(finite_sd) / len(finite_sd):.6f}"
    summary += f" total_s={total:.3f}"
    print(summary)
    return 1 if failures else 0


def _evaluate_block(graphs: list[Graph], block: range, by_index: dict, eval_cfg):
    """(index, record or None, error or None) for each graph of a block, in
    index order, from its mapping.jsonl row; the graphs whose rows give a
    partition are finished together."""
    t0 = time.perf_counter()
    results, indices, parts = [], [], []
    for i in block:
        row = by_index.get(i)
        if row is None:
            results.append((i, None, "no mapping row"))
            continue
        try:
            parts.append(Partition.from_assignment(row["assignment"], row["supernode_count"]))
        except Exception as exc:
            results.append((i, None, _error_text(exc)))
            continue
        indices.append(i)
    prep_s = time.perf_counter() - t0
    finished = [graphs[i] for i in indices]
    results += _finish_block(indices, finished, parts, prep_s, eval_cfg, skip_sd=False)
    return sorted(results, key=lambda result: result[0])


def run_evaluate(args) -> int:
    """report.csv from mapping.jsonl; as under coarsen, a graph that fails
    is reported and the others are still written."""
    bundle = _load_bundle(args)
    out_dir = Path(args.output)
    rows = read_mapping(out_dir / "mapping.jsonl", len(bundle.graphs))
    eval_cfg = EvalConfig(laplacian_kind=args.laplacian, sd_mode=args.sd_mode)
    by_index = {row["graph_index"]: row for row in rows}
    graphs = bundle.graphs
    records, failures = _collect(
        result
        for block in _blocks(graphs, 1)
        for result in _evaluate_block(graphs, block, by_index, eval_cfg)
    )
    write_report_csv(records, out_dir / "report.csv")
    mean_sd = sum(r.sd for r in records) / len(records) if records else float("nan")
    gap_max = max((r.rayleigh_gap for r in records if r.rayleigh_gap is not None), default=0.0)
    print(f"graphs={len(records)} mean_sd={mean_sd:.6f} max_rayleigh_gap={gap_max:.6f}")
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

"""Per-stage timings of one coarsening case, for before/after comparisons.

Usage:
    python tools/bench_stages.py SRC CASE
        SRC   the `src` directory of the gbgc checkout to import
        CASE  er-N | path-N | grid-K | ratio-R-er-N | tu-N   (for example
              er-50000, grid-200, ratio-0.3-er-30000, tu-5000)

Prints one JSON object: the seconds of each stage and the process's peak
RSS. It uses only public API that every checkout has since
`build_coarse_graph` began to take the partition itself, so two such
checkouts can be compared. Every timed call gets a fresh copy of the
graph, so no cache built by one stage helps another. Stages: generate_s
(build the graph), init_s (`init_balls` alone), coarsen_s (the whole
engine: `coarsen`) and coarse_graph_s (`build_coarse_graph`).

tu-N is N graphs of 10-50 nodes shaped like the benchmark's `tu_many_small`
(seed 0), split into the blocks `gbgc coarsen --jobs 1` makes. Its stages
are generate_s, coarsen_s (`coarsen_many` per block), coarse_graph_s,
sd_s (the SD without probes, as `coarsen` computes it) and write_s
(formatting and writing the three output files into a temporary
directory; bytes_written is their size). A checkout with
`build_coarse_graphs` and `evaluate_many` finishes each block with them;
an older one finishes graph by graph. A checkout with
`dataio.write_result_blocks` writes block by block from each block's
`result_rows`; an older one writes all records with `write_results`.
Two more stages time what `gbgc coarsen --jobs 2` does, without the pool:
parse_s (`parse_tudataset` of the N graphs, written as perfbench's
`write_tud` writes them) and blocks_s (the worker function on each of the
`--jobs 2` tasks of the parsed dataset, from its pickle to the pickle of
its output, run in this process one after another); send_s is the time
to make and pickle those tasks, and task_bytes their size. A checkout with
`cli._run_block` sends row slices of the dataset's block; an older one
sends `cli._Block`s of per-graph Graphs to `cli._coarsen_block`.
"""

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def main() -> int:
    src, case = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from gbgc import (
        CoarsenConfig,
        Graph,
        build_coarse_graph,
        coarsen,
        default_init_target,
        erdos_renyi,
        from_edge_list,
        init_balls,
    )

    kind, *rest = case.split("-")
    if kind == "tu":
        return many_small(int(rest[0]))
    cfg = CoarsenConfig()
    if kind == "ratio":
        cfg = CoarsenConfig(mode="ratio", ratio=float(rest[0]))
        kind, rest = rest[1], rest[2:]
    size = int(rest[0])
    times = {}
    t0 = time.perf_counter()
    if kind == "er":
        g = erdos_renyi(size, 4.0, seed=size)
    elif kind == "path":
        g = from_edge_list(size, [(i, i + 1) for i in range(size - 1)])
    elif kind == "grid":
        k = size
        g = from_edge_list(
            k * k,
            [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
            + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)],
        )
    else:
        raise SystemExit(f"unknown case {case!r}")
    times["generate_s"] = time.perf_counter() - t0

    def fresh():
        return Graph(g.n, g.indptr.copy(), g.indices.copy())

    h = fresh()
    t0 = time.perf_counter()
    init_balls(h, default_init_target(h.n))
    times["init_s"] = time.perf_counter() - t0
    h = fresh()
    t0 = time.perf_counter()
    part = coarsen(h, cfg)
    times["coarsen_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cg = build_coarse_graph(h, part)
    times["coarse_graph_s"] = time.perf_counter() - t0
    times["supernodes"] = part.ball_count
    times["superedges"] = len(cg.superedges)
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(times))
    return 0


def many_small(count: int) -> int:
    import gbgc
    from gbgc import CoarsenConfig, EvalConfig, coarsen_many, erdos_renyi
    from gbgc.cli import _blocks

    times = {}
    t0 = time.perf_counter()
    graphs = [erdos_renyi(10 + (i * 7) % 41, 2.0 + (i % 5), seed=i) for i in range(count)]
    times["generate_s"] = time.perf_counter() - t0
    # a checkout with `GraphBlock` cuts the runs from a block of the graphs
    runs = _blocks(gbgc.GraphBlock.join(graphs) if hasattr(gbgc, "GraphBlock") else graphs, 1)
    blocks = [graphs[b.start : b.stop] for b in runs]
    t0 = time.perf_counter()
    parts = [coarsen_many(block, CoarsenConfig()) for block in blocks]
    times["coarsen_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if hasattr(gbgc, "build_coarse_graphs"):
        cgs = [gbgc.build_coarse_graphs(block, ps) for block, ps in zip(blocks, parts)]
    else:
        cgs = [[gbgc.build_coarse_graph(g, p) for g, p in zip(block, ps)]
               for block, ps in zip(blocks, parts)]
    times["coarse_graph_s"] = time.perf_counter() - t0
    cfg = EvalConfig(rayleigh_vectors=0)
    t0 = time.perf_counter()
    if hasattr(gbgc, "evaluate_many"):
        sds = [r.sd for block in cgs for r in gbgc.evaluate_many(block, cfg)]
    else:
        sds = [gbgc.evaluate(cg, cfg).sd for block in cgs for cg in block]
    times["sd_s"] = time.perf_counter() - t0
    sd_of = iter(sds)
    record_blocks = [
        [
            gbgc.CoarsenRecord(
                b.start + k, p.assignment, p.ball_count, cg.superedges, next(sd_of),
                elapsed_micros=0, edge_count=g.edge_count,
            )
            for k, (g, p, cg) in enumerate(zip(block, ps, block_cgs))
        ]
        for b, block, ps, block_cgs in zip(runs, blocks, parts, cgs)
    ]
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        if hasattr(gbgc.dataio, "write_result_blocks"):
            gbgc.dataio.write_result_blocks(map(gbgc.dataio.result_rows, record_blocks), out)
        else:
            gbgc.write_results([r for records in record_blocks for r in records], out)
        times["write_s"] = time.perf_counter() - t0
        times["bytes_written"] = sum(entry.stat().st_size for entry in os.scandir(out))
    times.update(pooled_stages(graphs))
    times["supernodes"] = sum(cg.supernode_count for block in cgs for cg in block)
    times["superedges"] = sum(len(cg.superedges) for block in cgs for cg in block)
    times["sd_sum"] = sum(sds)
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(times))
    return 0


def pooled_stages(graphs) -> dict:
    """parse_s, send_s, task_bytes and blocks_s of `gbgc coarsen --jobs 2`
    on the graphs (see the module docstring)."""
    from multiprocessing.reduction import ForkingPickler

    from gbgc import CoarsenConfig, EvalConfig, cli, parse_tudataset

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import write_tud

    times = {}
    settings = (CoarsenConfig(), EvalConfig(rayleigh_vectors=0), False)
    with tempfile.TemporaryDirectory() as work:
        directory = Path(work) / "SYNTH"
        write_tud(directory, graphs)
        t0 = time.perf_counter()
        bundle = parse_tudataset(directory, "SYNTH")
        times["parse_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if hasattr(cli, "_run_block"):
        worker = cli._run_block
        tasks = [cli._Block(0, bundle.block, run, settings) for run in cli._blocks(bundle.block, 2)]
    else:
        worker = cli._coarsen_block
        tasks = [
            cli._Block(run.start, bundle.graphs[run.start : run.stop], settings)
            for run in cli._blocks(bundle.graphs, 2)
        ]
    sent = [ForkingPickler.dumps(task) for task in tasks]
    times["send_s"] = time.perf_counter() - t0
    times["task_bytes"] = sum(len(data) for data in sent)
    t0 = time.perf_counter()
    for data in sent:
        ForkingPickler.dumps(worker(ForkingPickler.loads(data)))
    times["blocks_s"] = time.perf_counter() - t0
    return times


if __name__ == "__main__":
    sys.exit(main())

"""Per-stage timings of one coarsening case, for before/after comparisons.

Usage:
    python tools/bench_stages.py SRC CASE
        SRC   the `src` directory of the gbgc checkout to import
        CASE  er-N | path-N | grid-K | ratio-R-er-N | tu-N | eval-N   (for
              example er-50000, grid-200, ratio-0.3-er-30000, tu-5000,
              eval-3000)

Prints one JSON object: the seconds of each stage and the process's peak
RSS. It uses only public API that every checkout has since
`build_coarse_graph` began to take the partition itself, so two such
checkouts can be compared. Every timed call gets a fresh copy of the
graph, so no cache built by one stage helps another. Stages: generate_s
(build the graph), init_s (`init_balls` alone), coarsen_s (the whole
engine: `coarsen`) and coarse_graph_s (`build_coarse_graph`).
generate_peak_rss_mb is the process's peak RSS once the graph is built, the
generator's peak; peak_rss_mb is the peak at the end.

tu-N is N graphs of 10-50 nodes shaped like the benchmark's `tu_many_small`
(seed 0), joined into one `GraphBlock` and cut into the row slices
`gbgc coarsen --jobs 1` makes. Its stages time the block functions the CLI
runs on each slice: generate_s, coarsen_s (`engine.coarsen_block`),
coarse_graph_s (`coarse.coarse_block`), sd_s (`spectral.evaluate_block`
without probes, as `coarsen` computes the SD) and write_s (`dataio.block_rows`
of each slice's `BlockResults`, streamed by `dataio.write_result_blocks`
into a temporary directory; bytes_written is the three files' size). Two
more stages time what `gbgc coarsen --jobs 2` does, without the pool:
parse_s (`parse_tudataset` of the N graphs, written as perfbench's
`write_tud` writes them; parse_peak_mb is the traced heap's peak in MiB
in a second parse, run under tracemalloc after the timed one) and
blocks_s (`cli._run_block` on each of the `--jobs 2` tasks of the parsed
dataset, from its pickle to the pickle of its output, run in this process
one after another); send_s is the time
to make and pickle those tasks, and task_bytes their size. Every checkout
whose block is one CSR from the parse to the output text has these
functions.

eval-N is the work of the benchmark's `eval_sweep`, in one process: ER(N,
mean degree 4, seed N) as a `GraphBlock` of one, coarsened by
`engine.coarsen_block` and `coarse.coarse_block` (coarsen_s), then
`spectral.evaluate_block` with its 16 Rayleigh probes in each of the
workload's three modes, timed as comb_proj_sd_s, norm_proj_sd_s and
comb_unw_sd_s, each with its SD. peak_rss_mb is the peak over all three,
set by the largest dense eigensolve.
"""

import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc
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
    if kind == "eval":
        return eval_modes(int(rest[0]))
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
    times["generate_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

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
    import numpy as np

    from gbgc import CoarsenConfig, EvalConfig, GraphBlock, erdos_renyi
    from gbgc.cli import _blocks
    from gbgc.coarse import coarse_block
    from gbgc.dataio import BlockResults, block_rows, write_result_blocks
    from gbgc.engine import coarsen_block
    from gbgc.spectral import evaluate_block

    times = {}
    t0 = time.perf_counter()
    graphs = [erdos_renyi(10 + (i * 7) % 41, 2.0 + (i % 5), seed=i) for i in range(count)]
    times["generate_s"] = time.perf_counter() - t0
    block = GraphBlock.join(graphs)
    runs = _blocks(block, 1)
    slices = [block.slice(run.start, run.stop) for run in runs]
    t0 = time.perf_counter()
    assigned = [coarsen_block(rows, CoarsenConfig()) for rows in slices]
    times["coarsen_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cbs = [coarse_block(rows, *pair) for rows, pair in zip(slices, assigned)]
    times["coarse_graph_s"] = time.perf_counter() - t0
    cfg = EvalConfig(rayleigh_vectors=0)
    t0 = time.perf_counter()
    sds = [evaluate_block(cb, cfg)[0] for cb in cbs]
    times["sd_s"] = time.perf_counter() - t0
    results = [
        BlockResults(
            np.arange(run.start, run.stop), cb.block.bounds, cb.assignment, cb.first_ball,
            cb.superedges, cb.cuts, np.diff(cb.block.indptr[cb.block.bounds]) // 2, sd,
            np.zeros(len(sd), dtype=np.int64),
        )
        for run, cb, sd in zip(runs, cbs, sds)
    ]
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        write_result_blocks(map(block_rows, results), out)
        times["write_s"] = time.perf_counter() - t0
        times["bytes_written"] = sum(entry.stat().st_size for entry in os.scandir(out))
    times.update(pooled_stages(graphs))
    times["supernodes"] = sum(int(cb.first_ball[-1]) for cb in cbs)
    times["superedges"] = sum(len(cb.superedges) for cb in cbs)
    times["sd_sum"] = sum(x for sd in sds for x in sd.tolist())
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(times))
    return 0


EVAL_MODES = {
    "comb_proj": ("combinatorial", "projected"),
    "norm_proj": ("normalized", "projected"),
    "comb_unw": ("combinatorial", "unweighted"),
}


def eval_modes(size: int) -> int:
    from gbgc import CoarsenConfig, EvalConfig, GraphBlock, erdos_renyi
    from gbgc.coarse import coarse_block
    from gbgc.engine import coarsen_block
    from gbgc.spectral import evaluate_block

    times = {}
    t0 = time.perf_counter()
    block = GraphBlock.join([erdos_renyi(size, 4.0, seed=size)])
    times["generate_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cb = coarse_block(block, *coarsen_block(block, CoarsenConfig()))
    times["coarsen_s"] = time.perf_counter() - t0
    times["supernodes"] = int(cb.first_ball[-1])
    for label, (kind, mode) in EVAL_MODES.items():
        t0 = time.perf_counter()
        sds, _ = evaluate_block(cb, EvalConfig(kind, mode))
        times[f"{label}_sd_s"] = time.perf_counter() - t0
        times[f"{label}_sd"] = float(sds[0])
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
        del bundle
        tracemalloc.start()
        try:
            bundle = parse_tudataset(directory, "SYNTH")
            times["parse_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    t0 = time.perf_counter()
    tasks = [cli._Block(0, bundle.block, run, settings) for run in cli._blocks(bundle.block, 2)]
    sent = [ForkingPickler.dumps(task) for task in tasks]
    times["send_s"] = time.perf_counter() - t0
    times["task_bytes"] = sum(len(data) for data in sent)
    t0 = time.perf_counter()
    for data in sent:
        ForkingPickler.dumps(cli._run_block(ForkingPickler.loads(data)))
    times["blocks_s"] = time.perf_counter() - t0
    return times


if __name__ == "__main__":
    sys.exit(main())

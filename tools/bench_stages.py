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
are generate_s, coarsen_s (`coarsen_many` per block), coarse_graph_s and
sd_s (the SD without probes, as `coarsen` computes it). A checkout with
`build_coarse_graphs` and `evaluate_many` finishes each block with them;
an older one finishes graph by graph.
"""

import json
import resource
import sys
import time


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
    blocks = [graphs[b.start : b.stop] for b in _blocks(graphs, 1)]
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
    times["supernodes"] = sum(cg.supernode_count for block in cgs for cg in block)
    times["superedges"] = sum(len(cg.superedges) for block in cgs for cg in block)
    times["sd_sum"] = sum(sds)
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-stage timings of one coarsening case, for before/after comparisons.

Usage:
    python tools/bench_stages.py SRC CASE
        SRC   the `src` directory of the gbgc checkout to import
        CASE  er-N | path-N | grid-K | ratio-R-er-N   (for example er-50000,
              grid-200, ratio-0.3-er-30000)

Prints one JSON object: the seconds of each stage and the process's peak
RSS. Only public API that every version of the package has is used, so
two checkouts can be compared. Every timed call gets a fresh copy of the
graph, so no cache built by one stage helps another. Stages:
generate_s (build the graph), init_s (`init_balls` alone), coarsen_s (the
whole engine: `coarsen`), projection_s (`build_projection`) and
coarse_graph_s (`build_coarse_graph`).
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
        build_projection,
        coarsen,
        default_init_target,
        erdos_renyi,
        from_edge_list,
        init_balls,
    )

    kind, *rest = case.split("-")
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
    c = build_projection(part, h.n)
    times["projection_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cg = build_coarse_graph(h, c)
    times["coarse_graph_s"] = time.perf_counter() - t0
    times["supernodes"] = part.ball_count
    times["superedges"] = len(cg.superedges)
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced benchmark pass.

`install` replaces the names that gbgc's modules call one another through
(for example `gbgc.cli.build_coarse_graph` and `gbgc.engine.split_ball`)
with wrappers that record one span per call: name, start, end and the index
of the enclosing span. Spans and counters stay in memory and are written once,
when the traced process ends. Nothing under src/ is edited; the wrappers live
only in the traced process.

`summarize` turns the written spans into per-layer metrics. A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans add up to the root span, which covers the whole process
from the first line of traced_cli.py to the return of `gbgc.cli.main`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler

LAYERS = ("cli", "dataio", "graph", "engine", "coarse", "spectral")
ROOT_SPAN = "cli.process"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.graphs: list = []  # every graph the parsers built
        self.missing: list[str] = []

    def open(self, name: str, start: float) -> int:
        self.spans.append([name, start, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a traced wrapper; note the name if it is gone."""
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = self.wrap(name, getattr(owner, attr), before, after)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = staticmethod(wrapped)  # wraps the already-bound method
        setattr(owner, attr, wrapped)

    def dump(self, path) -> None:
        """One JSON header line, then the span columns as raw arrays (JSON would
        take seconds for the ~200k spans of a many-graph pass)."""
        # Computed after the root span has closed: what the pool would pickle.
        self.counts["graph.pickle_bytes"] = sum(
            len(ForkingPickler.dumps(g)) for g in self.graphs
        )
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        header = {"names": names, "spans": len(self.spans), "counts": dict(self.counts),
                  "missing": self.missing}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            array("q", (ids[span[0]] for span in self.spans)).tofile(fh)
            array("q", (span[3] for span in self.spans)).tofile(fh)
            array("d", (span[1] for span in self.spans)).tofile(fh)
            array("d", (span[2] for span in self.spans)).tofile(fh)


def load(path) -> tuple[dict, list[tuple[str, float, float, int]]]:
    """Read what Tracer.dump wrote: (header, spans as (name, start, end, parent))."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in "qqdd":
            column = array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    names = header["names"]
    ids, parents, starts, ends = columns
    return header, [(names[i], s, e, p) for i, s, e, p in zip(ids, starts, ends, parents)]


def _position(fn, param: str) -> int | None:
    """Index of fn's parameter `param`, or None when fn has no such parameter."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index(param) if param in names else None


def _size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def install(t: Tracer) -> None:
    """Patch gbgc and numpy.linalg in this process so their calls are traced."""
    import numpy.linalg

    import gbgc.cli as cli
    import gbgc.coarse as coarse
    import gbgc.dataio as dataio
    import gbgc.engine as engine
    import gbgc.spectral as spectral

    counts = t.counts

    def add(name, amount):
        counts[name] += amount

    # dataio: parsing, result writing, and the bytes they move.
    def tud_read(bundle, args, kwargs):
        directory, name = args[0], args[1]
        for suffix in ("A", "graph_indicator", "graph_labels"):
            add("dataio.bytes_read", _size(os.path.join(directory, f"{name}_{suffix}.txt")))
        t.graphs.extend(bundle.graphs)

    def edge_list_read(g, args, kwargs):
        add("dataio.bytes_read", _size(args[0]))
        t.graphs.append(g)

    t.patch(cli, "parse_tudataset", "dataio.parse", after=tud_read)
    t.patch(cli, "parse_edge_list", "dataio.parse", after=edge_list_read)
    t.patch(cli, "read_mapping", "dataio.parse",
            after=lambda r, a, k: add("dataio.bytes_read", _size(a[0])))
    t.patch(cli, "write_results", "dataio.write",
            after=lambda r, a, k: add("dataio.bytes_written", sum(
                _size(os.path.join(a[1], f))
                for f in ("mapping.jsonl", "coarse_edges.txt", "report.csv"))))
    t.patch(cli, "write_report_csv", "dataio.write",
            after=lambda r, a, k: add("dataio.bytes_written", _size(a[1])))
    t.patch(dataio, "write_report_csv", "dataio.write")  # nested in write_results
    t.patch(dataio, "from_edge_list", "graph.build")

    # engine: the exact counts come from the public decisions= and stats= probes.
    def inject(fn, param, factory):
        position = _position(fn, param)
        if position is None:
            return None

        def before(args, kwargs):
            if len(args) <= position:
                kwargs.setdefault(param, factory())

        return before

    def coarsened(part, args, kwargs):
        add("engine.supernodes", part.ball_count)
        decisions = kwargs.get("decisions") or []
        add("engine.split_attempts", len(decisions))
        add("engine.split_accepts", sum(1 for d in decisions if d.accepted))

    def initialized(part, args, kwargs):
        add("engine.init_balls", part.ball_count)
        add("engine.init_edge_traversals", kwargs.get("stats", {}).get("edge_traversals", 0))

    t.patch(cli, "coarsen", "engine.coarsen", after=coarsened,
            before=inject(cli.coarsen, "decisions", list))
    t.patch(engine, "init_balls", "engine.init", after=initialized,
            before=inject(engine.init_balls, "stats", dict))
    t.patch(engine, "_refine", "engine.refine")
    t.patch(engine, "split_ball", "engine.split")
    t.patch(engine.Partition, "from_member_groups", "engine.partition")

    # coarse: projection and the coarse graph with its dense t x t Laplacian.
    def coarse_built(cg, args, kwargs):
        t_ = cg.supernode_count
        add("coarse.superedges", len(cg.superedges))
        add("coarse.dense_bytes", t_ * t_ * 16)  # int64 matrix plus its float copy

    t.patch(cli, "build_projection", "coarse.projection")
    t.patch(spectral, "build_projection", "coarse.projection")
    t.patch(cli, "build_coarse_graph", "coarse.build", after=coarse_built)
    t.patch(coarse.ProjectionMap, "indicator_matrix", "coarse.indicator",
            after=lambda m, a, k: add("spectral.dense_bytes", m.nbytes))

    # spectral: dense Laplacians, every eigensolve, and the Rayleigh probes.
    def solved(result, args, kwargs):
        m = len(args[0])
        add("spectral.eigensolves", 1)
        add("spectral.eig_ops", m ** 3)

    t.patch(cli, "evaluate", "spectral.evaluate")
    t.patch(spectral, "laplacian", "spectral.laplacian",
            after=lambda m, a, k: add("spectral.dense_bytes", m.nbytes))
    t.patch(spectral, "rayleigh_pair", "spectral.probe")
    t.patch(spectral, "_rayleigh_test_vectors", "spectral.probe")
    t.patch(numpy.linalg, "eigvalsh", "spectral.eig", after=solved)
    t.patch(numpy.linalg, "eigh", "spectral.eig", after=solved)


# name -> (span name, "total" for time inside outermost calls or "self")
TIMED = {
    "dataio.parse_s": ("dataio.parse", "total"),
    "dataio.write_s": ("dataio.write", "total"),
    "graph.build_s": ("graph.build", "total"),
    "engine.coarsen_s": ("engine.coarsen", "total"),
    "engine.init_s": ("engine.init", "total"),
    "engine.split_s": ("engine.split", "total"),
    "engine.refine_self_s": ("engine.refine", "self"),
    "coarse.projection_s": ("coarse.projection", "total"),
    "coarse.build_s": ("coarse.build", "total"),
    "spectral.laplacian_s": ("spectral.laplacian", "total"),
    "spectral.eig_s": ("spectral.eig", "total"),
    "spectral.probe_s": ("spectral.probe", "self"),
    "spectral.evaluate_self_s": ("spectral.evaluate", "self"),
}
PROBED = (  # counted by the hooks in install
    "dataio.bytes_read", "dataio.bytes_written",
    "engine.init_balls", "engine.init_edge_traversals", "engine.split_attempts",
    "engine.split_accepts", "engine.supernodes", "coarse.superedges",
    "spectral.eigensolves",
)
COUNTED = PROBED + ("engine.accept_ratio", "trace.spans")
COMPUTED = ("graph.pickle_bytes", "coarse.dense_bytes", "spectral.eig_ops", "spectral.dense_bytes")


def summarize(dump_paths) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the spans and counters of one traced pass."""
    total = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts = defaultdict(int)
    missing: set[str] = set()
    span_count = 0
    for path in dump_paths:
        header, spans = load(path)
        span_count += len(spans)
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            if parent < 0 or spans[parent][0] != name:
                total[name] += duration
            own[name] += duration - children[i]
            layer_self[name.split(".", 1)[0]] += duration - children[i]
        for key, value in header["counts"].items():
            counts[key] += value
        missing.update(header["missing"])

    metrics = {}
    for metric, (span, kind) in TIMED.items():
        metrics[metric] = (total if kind == "total" else own)[span]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
    for key in PROBED + COMPUTED:
        metrics[key] = counts[key]
    attempts = counts["engine.split_attempts"]
    metrics["engine.accept_ratio"] = counts["engine.split_accepts"] / attempts if attempts else 0.0
    metrics["trace.spans"] = span_count
    return metrics, sorted(missing)

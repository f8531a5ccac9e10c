"""Coarsened-graph construction: a partition and the superedges it induces.

A coarsening is the projection C, the binary node-to-supernode matrix held
in sparse form by a `Partition`, and the coarse graph built from it. A
`CoarsenedGraph` keeps both together with the graph they coarsen, so the
spectral code takes one object whose parts are known to fit. Its own data
is the superedges plus, for each, the number of original edges that cross
between its two balls: all `spectral.projected_laplacian` needs to build
C^T L C.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .engine import Partition, _union
from .errors import GraphValidationError
from .graph import Graph


@dataclass
class CoarsenedGraph:
    graph: Graph  # the original graph
    partition: Partition  # its projection onto the supernodes
    superedges: np.ndarray  # (k, 2) int64 rows (a, b), a < b, sorted
    weights: np.ndarray  # int64 crossing-edge count of each superedge, aligned

    @property
    def supernode_count(self) -> int:
        return self.partition.ball_count


def _block_assignment(parts: Sequence[Partition]) -> tuple[np.ndarray, np.ndarray]:
    """The partitions of a block as one over the union of its graphs: the
    first ball of each graph followed by the ball count, and each node's
    ball, its graph's own id plus the balls of the graphs before it."""
    first_ball = np.concatenate([[0], np.cumsum([p.ball_count for p in parts])]).astype(np.int64)
    if len(parts) == 1:
        return first_ball, parts[0].assignment
    sizes = [len(p.assignment) for p in parts]
    return first_ball, np.concatenate([p.assignment for p in parts]) + np.repeat(
        first_ball[:-1], sizes
    )


def build_coarse_graphs(
    graphs: Sequence[Graph], parts: Sequence[Partition]
) -> list[CoarsenedGraph]:
    """The coarse graph of each graph under its partition, built for the
    whole block in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges. This is where a
    partition is checked against the graph it claims to cover.

    The block is one disjoint union whose ball ids are each graph's own
    plus the balls of the graphs before it. Its crossing edges are counted
    by one `np.unique` of their keys min * T + max (T balls in all); the
    keys of one graph sort as its local keys do, so each graph's superedges
    are one slice of the result, found by searching the block's keys for
    the graph's first ball.
    """
    if len(graphs) != len(parts):
        raise GraphValidationError(f"{len(parts)} partitions for {len(graphs)} graphs")
    for g, p in zip(graphs, parts):
        if len(p.assignment) != g.n:
            raise GraphValidationError(
                f"assignment length {len(p.assignment)} does not match graph with {g.n} nodes"
            )
    if not graphs:
        return []
    union, _ = _union(graphs)
    first_ball, assignment = _block_assignment(parts)
    t = int(first_ball[-1])
    u, v = union.edge_arrays()
    a, b = assignment[u], assignment[v]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    keys, weights = np.unique(np.minimum(a, b) * t + np.maximum(a, b), return_counts=True)
    weights = weights.astype(np.int64, copy=False)
    superedges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, t, out=(superedges[:, 0], superedges[:, 1]))
    cuts = np.searchsorted(keys, first_ball * t).tolist()
    superedges -= np.repeat(first_ball[:-1], np.diff(cuts))[:, None]
    return [
        CoarsenedGraph(g, p, superedges[lo:hi], weights[lo:hi])
        for g, p, lo, hi in zip(graphs, parts, cuts, cuts[1:])
    ]


def build_coarse_graph(g: Graph, p: Partition) -> CoarsenedGraph:
    """The coarse graph of one graph: `build_coarse_graphs` on a block of one."""
    return build_coarse_graphs([g], [p])[0]


# perfbench/tracer.py dereferences coarse.ProjectionMap, the class that held
# the projection before Partition did, to patch a method that no longer
# exists. The alias keeps its traced pass running until that stale patch is
# dropped (ROADMAP item 1); nothing in the package uses it.
ProjectionMap = Partition

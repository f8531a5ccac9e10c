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

from dataclasses import dataclass

import numpy as np

from .engine import Partition
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


def build_coarse_graph(g: Graph, p: Partition) -> CoarsenedGraph:
    """Superedges with their multiplicities, in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges. This is where a
    partition is checked against the graph it claims to cover.
    """
    if len(p.assignment) != g.n:
        raise GraphValidationError(
            f"assignment length {len(p.assignment)} does not match graph with {g.n} nodes"
        )
    t = p.ball_count
    u, v = g.edge_arrays()
    a, b = p.assignment[u], p.assignment[v]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    keys, weights = np.unique(np.minimum(a, b) * t + np.maximum(a, b), return_counts=True)
    superedges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, t, out=(superedges[:, 0], superedges[:, 1]))
    return CoarsenedGraph(g, p, superedges, weights.astype(np.int64, copy=False))


# perfbench/tracer.py dereferences coarse.ProjectionMap, the class that held
# the projection before Partition did, to patch a method that no longer
# exists. The alias keeps its traced pass running until that stale patch is
# dropped (ROADMAP item 1); nothing in the package uses it.
ProjectionMap = Partition

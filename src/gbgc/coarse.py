"""Coarsened-graph construction: superedges and their multiplicities.

The coarse graph is plain sparse data: its superedges plus, for each, the
number of original edges that cross between its two balls. That is all
`spectral.projected_laplacian` needs to build C^T L C, where C is the
binary node-to-supernode projection (a partition's assignment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Partition
from .graph import Graph


@dataclass
class CoarsenedGraph:
    supernode_count: int
    superedges: np.ndarray  # (k, 2) int64 rows (a, b), a < b, sorted
    weights: np.ndarray  # int64 crossing-edge count of each superedge, aligned


def build_coarse_graph(g: Graph, p: Partition) -> CoarsenedGraph:
    """Superedges with their multiplicities, in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges.
    """
    p.check_node_count(g.n)
    t = p.ball_count
    u, v = g.edge_arrays()
    a, b = p.assignment[u], p.assignment[v]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    keys, weights = np.unique(np.minimum(a, b) * t + np.maximum(a, b), return_counts=True)
    superedges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, t, out=(superedges[:, 0], superedges[:, 1]))
    return CoarsenedGraph(
        supernode_count=t,
        superedges=superedges,
        weights=weights.astype(np.int64, copy=False),
    )


# perfbench/tracer.py dereferences coarse.ProjectionMap, the class that held
# the projection before Partition did, to patch a method that no longer
# exists. The alias keeps its traced pass running until that stale patch is
# dropped (ROADMAP item 1); nothing in the package uses it.
ProjectionMap = Partition

"""Coarsened-graph construction: projection map, superedges, projected Laplacian.

The coarse graph is kept sparse: its superedges plus, for each, the number of
original edges that cross between the two balls. The projected Laplacian,
the congruence transform of the original combinatorial Laplacian by the
binary node-to-supernode projection matrix, is built densely from those
integer multiplicities only when it is read, so row sums are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Partition
from .errors import GraphValidationError
from .graph import Graph, from_edge_list


@dataclass
class ProjectionMap:
    """Sparse encoding of the binary projection matrix: one supernode per node."""

    rows: int
    cols: int
    column_of: np.ndarray  # int64, node -> supernode

    def __post_init__(self):
        self.column_of = np.asarray(self.column_of, dtype=np.int64)

    def ball_sizes(self) -> np.ndarray:
        return np.bincount(self.column_of, minlength=self.cols)


@dataclass
class CoarsenedGraph:
    supernode_count: int
    superedges: np.ndarray  # (k, 2) int64 rows (a, b), a < b, sorted
    weights: np.ndarray  # int64 crossing-edge count of each superedge, aligned

    @property
    def projected_laplacian(self) -> np.ndarray:
        """Dense t x t C^T L C, built anew on every read.

        Symmetric, float entries of exact integers: off-diagonals are minus
        the superedge multiplicities, diagonals the balls' crossing degrees.
        """
        t = self.supernode_count
        lap = np.zeros((t, t))
        a, b = self.superedges[:, 0], self.superedges[:, 1]
        lap[a, b] = -self.weights
        lap[b, a] = -self.weights
        np.fill_diagonal(lap, -lap.sum(axis=1))  # integer sums, exact in float64
        return lap


def build_projection(p: Partition, n: int) -> ProjectionMap:
    """Projection map from a validated partition over n original nodes."""
    column_of = np.asarray(p.assignment, dtype=np.int64)
    if len(column_of) != n:
        raise GraphValidationError(f"partition covers {len(column_of)} nodes, expected {n}")
    cols = p.ball_count
    bad = (column_of < 0) | (column_of >= cols)
    if bad.any():
        v = int(np.argmax(bad))
        raise GraphValidationError(f"node {v} mapped to invalid ball index {int(column_of[v])}")
    return ProjectionMap(rows=n, cols=cols, column_of=column_of)


def build_coarse_graph(g: Graph, c: ProjectionMap) -> CoarsenedGraph:
    """Superedges with their multiplicities, in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges.
    """
    if c.rows != g.n:
        raise GraphValidationError(f"projection has {c.rows} rows, graph has {g.n} nodes")
    t = c.cols
    u, v = g.edge_arrays()
    a, b = c.column_of[u], c.column_of[v]
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


def superedge_graph(cg: CoarsenedGraph) -> Graph:
    """The unweighted coarse graph over supernodes."""
    return from_edge_list(cg.supernode_count, cg.superedges)

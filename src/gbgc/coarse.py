"""Coarsened-graph construction: projection map, superedges, projected Laplacian.

The coarse graph is kept sparse: its superedges plus, for each, the number of
original edges that cross between the two balls. The projected Laplacian,
the congruence transform of the original combinatorial Laplacian by the
binary node-to-supernode projection matrix, is built densely from those
integer multiplicities only when it is read, so row sums are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .engine import Partition
from .errors import GraphValidationError
from .graph import Graph


def pair_endpoints(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """First and second ends of a sequence of int pairs as two int64 arrays."""
    ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    return ends[0::2], ends[1::2]


@dataclass
class ProjectionMap:
    """Sparse encoding of the binary projection matrix: one supernode per node."""

    rows: int
    cols: int
    column_of: list[int]

    def ball_sizes(self) -> list[int]:
        sizes = [0] * self.cols
        for c in self.column_of:
            sizes[c] += 1
        return sizes


@dataclass
class CoarsenedGraph:
    supernode_count: int
    superedges: list[tuple[int, int]]  # unordered pairs stored (a, b) with a < b, sorted
    weights: np.ndarray  # int64 crossing-edge count of each superedge, aligned

    @property
    def projected_laplacian(self) -> np.ndarray:
        """Dense t x t C^T L C, built anew on every read.

        Symmetric, float entries of exact integers: off-diagonals are minus
        the superedge multiplicities, diagonals the balls' crossing degrees.
        """
        t = self.supernode_count
        lap = np.zeros((t, t))
        a, b = pair_endpoints(self.superedges)
        lap[a, b] = -self.weights
        lap[b, a] = -self.weights
        np.fill_diagonal(lap, -lap.sum(axis=1))  # integer sums, exact in float64
        return lap


def build_projection(p: Partition, n: int) -> ProjectionMap:
    """Projection map from a validated partition over n original nodes."""
    if len(p.assignment) != n:
        raise GraphValidationError(
            f"partition covers {len(p.assignment)} nodes, expected {n}"
        )
    cols = p.ball_count
    for v, c in enumerate(p.assignment):
        if not (0 <= c < cols):
            raise GraphValidationError(f"node {v} mapped to invalid ball index {c}")
    return ProjectionMap(rows=n, cols=cols, column_of=list(p.assignment))


def build_coarse_graph(g: Graph, c: ProjectionMap) -> CoarsenedGraph:
    """Superedges with their multiplicities, in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges.
    """
    if c.rows != g.n:
        raise GraphValidationError(f"projection has {c.rows} rows, graph has {g.n} nodes")
    t = c.cols
    col = np.asarray(c.column_of, dtype=np.int64)
    u, v = pair_endpoints(g.edges)
    a, b = col[u], col[v]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    keys, weights = np.unique(np.minimum(a, b) * t + np.maximum(a, b), return_counts=True)
    return CoarsenedGraph(
        supernode_count=t,
        superedges=list(zip((keys // t).tolist(), (keys % t).tolist())),
        weights=weights.astype(np.int64, copy=False),
    )


def superedge_graph(cg: CoarsenedGraph) -> Graph:
    """The unweighted coarse graph over supernodes."""
    return Graph(cg.supernode_count, cg.superedges)

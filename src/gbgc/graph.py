"""Immutable undirected simple graph.

Adjacency lists are kept sorted ascending and every iteration order derives
from them, so everything downstream is deterministic without a random seed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import GraphValidationError


class Graph:
    """Undirected simple graph over dense node indices 0..n-1.

    Self-loops and duplicate edges are rejected at this level; use
    :func:`from_edge_list` to build a Graph from raw (possibly dirty) pairs.
    """

    __slots__ = ("n", "adj", "_adj_sets", "edges")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._adj_sets: tuple[frozenset[int], ...] = tuple(frozenset(a) for a in self.adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._adj_sets[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(node_count: int, edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from raw pairs: drop self-loops, dedupe, symmetrize.

    Raises GraphValidationError naming the offending pair when an index is
    outside [0, node_count).
    """
    if node_count < 0:
        raise GraphValidationError(f"node_count must be nonnegative, got {node_count}")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_pairs:
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise GraphValidationError(
                f"edge ({u}, {v}) out of range for node_count={node_count}"
            )
        if u == v:
            continue
        seen.add((u, v) if u < v else (v, u))
    return Graph(node_count, sorted(seen))

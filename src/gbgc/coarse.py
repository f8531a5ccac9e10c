"""Coarsened-graph construction: a partition and the superedges it induces.

A coarsening is the projection C, the binary node-to-supernode matrix held
in sparse form by a `Partition`, and the coarse graph built from it. The
coarse graphs of a whole block are one `CoarseBlock`: the block, its
block-wide assignment and its superedges as arrays. A `CoarsenedGraph` is
the same for one graph, kept together with the graph it coarsens, so the
spectral code takes one object whose parts are known to fit. Its own data
is the superedges plus, for each, the number of original edges that cross
between its two balls: all `spectral.projected_laplacian` needs to build
C^T L C.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import Partition, check_dense
from .errors import GraphValidationError
from .graph import Graph, GraphBlock, _offsets


@dataclass
class CoarsenedGraph:
    graph: Graph  # the original graph
    partition: Partition  # its projection onto the supernodes
    superedges: np.ndarray  # (k, 2) int64 rows (a, b), a < b, sorted
    weights: np.ndarray  # int64 crossing-edge count of each superedge, aligned

    @property
    def supernode_count(self) -> int:
        return self.partition.ball_count


class CoarseBlock(NamedTuple):
    """The coarse graphs of a block. Graph i's nodes are block.bounds[i] ..
    bounds[i + 1] - 1, its balls first_ball[i] .. first_ball[i + 1] - 1 of
    the block-wide `assignment`, and its superedges and their weights rows
    cuts[i] .. cuts[i + 1] - 1, in the graph's own ball ids."""

    block: GraphBlock
    assignment: np.ndarray  # int64 block-wide ball of each node
    first_ball: np.ndarray  # int64 first ball of each graph, then the ball count
    superedges: np.ndarray  # (k, 2) int64, each graph's rows as in CoarsenedGraph
    weights: np.ndarray  # int64, aligned with superedges
    cuts: np.ndarray  # int64 first superedge of each graph, then k

    @classmethod
    def join(cls, cgs: Sequence[CoarsenedGraph]) -> CoarseBlock:
        """The coarse graphs of a caller's list as one block."""
        first_ball, assignment = block_assignment([cg.partition for cg in cgs])
        return cls(
            GraphBlock.join([cg.graph for cg in cgs]),
            assignment,
            first_ball,
            np.concatenate([cg.superedges for cg in cgs]),
            np.concatenate([cg.weights for cg in cgs]),
            _offsets([len(cg.weights) for cg in cgs]),
        )

    def coarsened(self, i: int) -> CoarsenedGraph:
        """Graph i's coarse graph, of views where it can be."""
        lo, hi = self.block.bounds[i : i + 2].tolist()
        first, last = self.first_ball[i : i + 2].tolist()
        start, stop = self.cuts[i : i + 2].tolist()
        return CoarsenedGraph(
            self.block.slice(i, i + 1),
            Partition(self.assignment[lo:hi] - first, last - first),
            self.superedges[start:stop],
            self.weights[start:stop],
        )


def block_assignment(parts: Sequence[Partition]) -> tuple[np.ndarray, np.ndarray]:
    """The partitions of a block as one over the union of its graphs: the
    first ball of each graph followed by the ball count, and each node's
    ball, its graph's own id plus the balls of the graphs before it."""
    first_ball = _offsets([p.ball_count for p in parts])
    if len(parts) == 1:
        return first_ball, parts[0].assignment
    sizes = [len(p.assignment) for p in parts]
    return first_ball, np.concatenate([p.assignment for p in parts]) + np.repeat(
        first_ball[:-1], sizes
    )


def check_cover(p: Partition, n: int) -> None:
    """Reject a partition whose length does not fit a graph of n nodes: the
    one check between a partition and the graph it claims to cover."""
    if len(p.assignment) != n:
        raise GraphValidationError(
            f"assignment length {len(p.assignment)} does not match graph with {n} nodes"
        )


def coarse_block(block: GraphBlock, assignment: np.ndarray, first_ball: np.ndarray) -> CoarseBlock:
    """The coarse graph of every graph of a block under the block-wide
    `assignment`, in O(n + m) memory.

    A superedge (a, b) exists iff some original edge crosses from ball a to
    ball b; its weight counts those crossing edges. The block's crossing
    edges are counted by one `np.unique` of their keys min * T + max (T
    balls in all); the keys of one graph sort as its local keys do, so each
    graph's superedges are one slice of the result, found by searching the
    block's keys for the graph's first ball.
    """
    t = int(first_ball[-1])
    u, v = block.edge_arrays()
    a, b = assignment[u], assignment[v]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    keys, weights = np.unique(np.minimum(a, b) * t + np.maximum(a, b), return_counts=True)
    weights = weights.astype(np.int64, copy=False)
    superedges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, t, out=(superedges[:, 0], superedges[:, 1]))
    cuts = np.searchsorted(keys, first_ball * t)
    superedges -= np.repeat(first_ball[:-1], np.diff(cuts))[:, None]
    return CoarseBlock(block, assignment, first_ball, superedges, weights, cuts)


def build_coarse_graphs(
    graphs: Sequence[Graph], parts: Sequence[Partition]
) -> list[CoarsenedGraph]:
    """The coarse graph of each graph under its partition: `coarse_block`
    on the graphs joined into one block. This is where a caller's partition
    is checked: its indices, and its length against the graph it claims to
    cover."""
    if len(graphs) != len(parts):
        raise GraphValidationError(f"{len(parts)} partitions for {len(graphs)} graphs")
    for g, p in zip(graphs, parts):
        check_cover(p, g.n)
    if not graphs:
        return []
    first_ball, assignment = block_assignment(parts)
    # `check_dense` on all partitions at once: each graph's balls lie in its
    # own range of the block's, and no ball is empty; the partitions are
    # checked one by one only to name the first that fails
    sizes = [g.n for g in graphs]
    in_range = (assignment >= np.repeat(first_ball[:-1], sizes)) & (
        assignment < np.repeat(first_ball[1:], sizes)
    )
    if not (in_range.all() and np.bincount(assignment, minlength=first_ball[-1]).all()):
        for p in parts:
            check_dense(p.assignment, p.ball_count)
    cb = coarse_block(GraphBlock.join(graphs), assignment, first_ball)
    cuts = cb.cuts.tolist()
    return [
        CoarsenedGraph(g, p, cb.superedges[lo:hi], cb.weights[lo:hi])
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

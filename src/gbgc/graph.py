"""Immutable undirected simple graph in compressed sparse row (CSR) form.

Node v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``, sorted
ascending, and every iteration order derives from them, so everything
downstream is deterministic without a random seed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import GraphValidationError


# Largest node count: every key u * n + v of edge_keys must fit int64.
MAX_NODES = 2**31 - 1


def _frozen(values) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=np.int64)
    array.flags.writeable = False
    return array


def _pack(values: np.ndarray) -> tuple[bytes, str]:
    """Non-negative values as bytes of the narrowest unsigned type that holds
    them: a pickled small graph then costs a few bytes per edge."""
    dtype = np.min_scalar_type(int(values.max()) if len(values) else 0)
    return values.astype(dtype).tobytes(), dtype.str


def _unpack(n: int, indptr: tuple[bytes, str], indices: tuple[bytes, str]) -> Graph:
    return Graph(n, np.frombuffer(*indptr), np.frombuffer(*indices))


class Graph:
    """Undirected simple graph over dense node indices 0..n-1.

    Holds only ``n`` and the int64 CSR arrays ``indptr`` (length n + 1) and
    ``indices`` (each undirected edge twice, once per end, every row sorted
    ascending, no self-loops). The arrays may be views of larger ones, as
    for the graphs of a `GraphBlock`. The constructor trusts its arrays;
    use :func:`from_edge_list` to build a Graph from raw (possibly dirty)
    pairs. A pickle carries ``n`` and the two arrays only.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr, indices):
        self.n = n
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)

    def __reduce__(self):
        return _unpack, (self.n, _pack(self.indptr), _pack(self.indices))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ends (u, v) of every edge, u < v, as int64 arrays sorted by (u, v)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.indptr[1:] - self.indptr[:-1])
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as a (u, v) pair of Python ints, u < v, sorted;
        built from the arrays on each read."""
        u, v = self.edge_arrays()
        return tuple(zip(u.tolist(), v.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(node_count: int, edge_pairs: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a Graph from raw pairs: drop self-loops, dedupe, symmetrize.

    `edge_pairs` is any iterable of (u, v) pairs or an (m, 2) integer array.
    Raises GraphValidationError naming the first offending pair when an
    index is outside [0, node_count).
    """
    if node_count < 0:
        raise GraphValidationError(f"node_count must be nonnegative, got {node_count}")
    if node_count > MAX_NODES:
        raise GraphValidationError(f"node_count={node_count} exceeds {MAX_NODES}")
    if not isinstance(edge_pairs, np.ndarray):
        edge_pairs = list(edge_pairs)
    try:
        pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
        valid = not len(pairs) or (pairs.min() >= 0 and pairs.max() < node_count)
    except OverflowError:  # an index beyond int64, so certainly out of range
        valid = False
    if not valid:
        for u, v in edge_pairs:
            if not (0 <= u < node_count) or not (0 <= v < node_count):
                raise GraphValidationError(
                    f"edge ({u}, {v}) out of range for node_count={node_count}"
                )
    indptr, indices = csr_from_keys(node_count, edge_keys(node_count, pairs[:, 0], pairs[:, 1]))
    return Graph(node_count, indptr, indices)


def _unpack_block(indptr: tuple[bytes, str], indices: tuple[bytes, str], bounds: tuple[bytes, str]):
    return GraphBlock(np.frombuffer(*indptr), np.frombuffer(*indices), np.frombuffer(*bounds))


def _offsets(counts) -> np.ndarray:
    """0 followed by the running sum of counts, as int64."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i,
    end to end."""
    ends = np.cumsum(counts)
    if not len(ends):
        return np.zeros(0, dtype=np.int64)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


class GraphBlock(Graph):
    """Graphs 0..G-1 as one disjoint union in CSR form, with graph-major
    node ids: graph i holds the union's nodes bounds[i] .. bounds[i + 1] - 1.

    The union is itself a Graph; `bounds` (int64, length G + 1) is all the
    block adds. Graphs a..b of a block are the row slice `slice(a, b)`, and
    per-graph Graph objects are made only by `graphs`. A pickle carries the
    three arrays, each in the narrowest unsigned type that holds it.
    """

    __slots__ = ("bounds",)

    def __init__(self, indptr, indices, bounds):
        self.bounds = _frozen(bounds)
        super().__init__(int(self.bounds[-1]), indptr, indices)

    @classmethod
    def join(cls, graphs: Sequence[Graph]) -> GraphBlock:
        """One or more graphs as one block; a list of one is a block of its
        arrays, with no copy."""
        bounds = _offsets([g.n for g in graphs])
        if len(graphs) == 1:
            return cls(graphs[0].indptr, graphs[0].indices, bounds)
        # the graphs' indptr arrays end to end: a step across the seam
        # between two graphs is not a degree, and is dropped
        steps = np.diff(np.concatenate([g.indptr for g in graphs]))
        indptr = _offsets(np.delete(steps, bounds[1:-1] + np.arange(len(graphs) - 1)))
        shift = np.repeat(bounds[:-1], [len(g.indices) for g in graphs])
        return cls(indptr, np.concatenate([g.indices for g in graphs]) + shift, bounds)

    def __reduce__(self):
        return _unpack_block, (_pack(self.indptr), _pack(self.indices), _pack(self.bounds))

    @property
    def graph_count(self) -> int:
        return len(self.bounds) - 1

    def slice(self, a: int, b: int) -> GraphBlock:
        """Graphs a..b - 1 as a block of their own: views of this block's
        rows, less the first node's id and first edge's offset (views alone
        when a is 0)."""
        lo, hi = int(self.bounds[a]), int(self.bounds[b])
        start, stop = int(self.indptr[lo]), int(self.indptr[hi])
        indptr = self.indptr[lo : hi + 1]
        indices = self.indices[start:stop]
        bounds = self.bounds[a : b + 1]
        if lo:
            indptr, indices, bounds = indptr - start, indices - lo, bounds - lo
        return GraphBlock(indptr, indices, bounds)

    def graphs(self) -> list[Graph]:
        """Each graph of the block as a Graph of its own. A block of one
        gives its own arrays; otherwise `indices` is rebased to each graph's
        local ids in one copy, and graph i's indptr, rebased to start at 0,
        fills slots bounds[i] + i onwards of one array of N + G offsets."""
        if self.graph_count == 1:
            return [Graph(self.n, self.indptr, self.indices)]
        first_node, node_counts = self.bounds[:-1], np.diff(self.bounds)
        edge_start = self.indptr[first_node]
        edge_end = self.indptr[self.bounds[1:]]
        indices = self.indices - np.repeat(first_node, edge_end - edge_start)
        graph_of_slot = np.repeat(np.arange(self.graph_count), node_counts + 1)
        local_indptr = self.indptr[np.arange(len(graph_of_slot)) - graph_of_slot]
        local_indptr -= edge_start[graph_of_slot]
        del graph_of_slot
        return [
            Graph(n, local_indptr[slot : slot + n + 1], indices[start:end])
            for n, slot, start, end in zip(
                node_counts.tolist(),
                (first_node + np.arange(self.graph_count)).tolist(),
                edge_start.tolist(),
                edge_end.tolist(),
            )
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphBlock)
            and np.array_equal(self.bounds, other.bounds)
            and super().__eq__(other)
        )

    def __repr__(self) -> str:
        return f"GraphBlock(graphs={self.graph_count}, n={self.n}, m={self.edge_count})"


def edge_keys(node_count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Key min(u, v) * node_count + max(u, v) of every pair with u != v, as
    int64 whatever the dtype of the ends, so keys of int32 ends beyond 2**31
    do not wrap."""
    loop = u == v
    if loop.any():
        u, v = u[~loop], v[~loop]
    keys = np.minimum(u, v, dtype=np.int64)
    keys *= node_count
    keys += np.maximum(u, v, dtype=np.int64)
    return keys


def csr_from_keys(node_count: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the simple graph whose edges are the keys of
    edge_keys, which may repeat. Sorts `keys` in place.

    Keeping the first of each run of equal sorted keys drops duplicates;
    both orientations of the rest, sorted, are the rows in CSR order. The
    ends of each edge are taken into the two halves of the output array,
    which then hold the two orientations, so the unique keys are the only
    other edge-sized array. When `keys` has room for both orientations, as
    when every edge is listed both ways, the output array is its first
    slots and `keys` is kept alive by it; otherwise it is a new array.
    """
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique = keys[first]
    del first
    m = len(unique)
    if len(keys) >= 2 * m:
        both = keys[: 2 * m]
    else:
        del keys
        both = np.empty(2 * m, dtype=np.int64)
    low, high = both[:m], both[m:]
    np.divmod(unique, node_count, out=(low, high))
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    indptr[1:] = np.bincount(low, minlength=node_count)
    indptr[1:] += np.bincount(high, minlength=node_count)
    np.cumsum(indptr, out=indptr)
    high *= node_count
    high += low
    low[:] = unique
    del unique
    both.sort()
    np.remainder(both, node_count, out=both)
    return indptr, both

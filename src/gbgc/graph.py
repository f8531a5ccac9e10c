"""Immutable undirected simple graph in compressed sparse row (CSR) form.

Node v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``, sorted
ascending, and every iteration order derives from them, so everything
downstream is deterministic without a random seed.
"""

from __future__ import annotations

from typing import Iterable

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
    for the graphs of one parsed dataset. The constructor trusts its arrays;
    use :func:`from_edge_list` to build a Graph from raw (possibly dirty)
    pairs.

    ``adj``, the per-node neighbour tuples the engine walks, is derived from
    the arrays on first use and never pickled: a pickle carries ``n`` and
    the two arrays only.
    """

    __slots__ = ("n", "indptr", "indices", "_adj")

    def __init__(self, n: int, indptr, indices):
        self.n = n
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)
        self._adj: tuple[tuple[int, ...], ...] | None = None

    def __reduce__(self):
        return _unpack, (self.n, _pack(self.indptr), _pack(self.indices))

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of every node as tuples of Python ints, ascending."""
        if self._adj is None:
            flat = tuple(self.indices.tolist())
            bounds = self.indptr.tolist()
            self._adj = tuple(map(flat.__getitem__, map(slice, bounds, bounds[1:])))
        return self._adj

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

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

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


def edge_keys(node_count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Key min(u, v) * node_count + max(u, v) of every pair with u != v."""
    loop = u == v
    if loop.any():
        u, v = u[~loop], v[~loop]
    return np.minimum(u, v) * node_count + np.maximum(u, v)


def csr_from_keys(node_count: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the simple graph whose edges are the keys of
    edge_keys, which may repeat. Sorts `keys` in place.

    Keeping the first of each run of equal sorted keys drops duplicates;
    both orientations of the rest, sorted, are the rows in CSR order.
    """
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    m = len(keys)
    low, high = np.divmod(keys, node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(low, minlength=node_count) + np.bincount(high, minlength=node_count),
        out=indptr[1:],
    )
    both = np.empty(2 * m, dtype=np.int64)
    both[:m] = keys
    del keys
    np.multiply(high, node_count, out=both[m:])
    both[m:] += low
    del low, high
    both.sort()
    np.remainder(both, node_count, out=both)
    return indptr, both

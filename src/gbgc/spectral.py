"""Laplacians, eigenvalues, spectral distance, and Rayleigh-quotient diagnostics.

Spectral distance between the original and coarsened graph is the Euclidean
distance of their ascending eigenvalue vectors, the shorter one zero-padded
at the low end (an added isolated node contributes eigenvalue 0, so padding
preserves the magnitude ordering).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import os
import re

import numpy as np

from .coarse import CoarseBlock, CoarsenedGraph
from .engine import Partition
from .errors import GbgcError, GraphValidationError
from .graph import Graph, GraphBlock, _ranges

LaplacianKind = Literal["combinatorial", "normalized"]
SdMode = Literal["projected", "unweighted"]

SYMMETRY_RTOL = 1e-12
# rows of the symmetry check are compared this many bytes at a time, so the
# check's temporaries stay small next to an n x n matrix
SYMMETRY_BLOCK_BYTES = 2 << 20
# most bytes of one stack of same-size dense matrices built and solved
# together; a larger matrix is a stack of one, and is built only if the
# memory its solve needs is available
STACK_BYTES = 64 << 20


@dataclass
class EvalConfig:
    """What `evaluate` compares: the Laplacian kind, the coarse side of the
    SD (C^T L C, or the unweighted superedge graph), and how many Rayleigh
    probes to run (0 for none)."""

    laplacian_kind: LaplacianKind = "combinatorial"
    sd_mode: SdMode = "projected"
    rayleigh_vectors: int = 16

    def __post_init__(self):
        if self.laplacian_kind not in ("combinatorial", "normalized"):
            raise GraphValidationError(f"unknown laplacian kind {self.laplacian_kind!r}")
        if self.sd_mode not in ("projected", "unweighted"):
            raise GraphValidationError(f"unknown sd mode {self.sd_mode!r}")
        k = self.rayleigh_vectors
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise GraphValidationError(f"rayleigh_vectors must be an integer >= 0, got {k!r}")


@dataclass
class SpectralReport:
    sd: float
    rayleigh_samples: list[tuple[float, float, float]] = field(default_factory=list)


class _Laplacians(NamedTuple):
    """k Laplacians in sparse form, ready to be built densely a stack at a
    time. Matrix i has first[i + 1] - first[i] rows. Its off-diagonal
    entries are at rows[j], cols[j] (its own indices) for j in
    entry_ptr[i]:entry_ptr[i + 1], with values[j] there (or `values`
    everywhere, for a float), and its diagonal is diag[first[i]:first[i + 1]].
    The normalized kind scales each matrix by D^-1/2 of its diagonal as
    degrees, rows first (degree 0 gives 0)."""

    first: np.ndarray
    entry_ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray | float
    diag: np.ndarray
    normalized: bool = False

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.first)


def _normalized(kind: str) -> bool:
    if kind not in ("combinatorial", "normalized"):
        raise GraphValidationError(f"unknown laplacian kind {kind!r}")
    return kind == "normalized"


def _both_ways(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of each pair (a, b) of a (k, 2) array and of (b, a)."""
    return pairs.ravel(), pairs[:, ::-1].ravel()


def _graph_laplacians(block: GraphBlock, kind: LaplacianKind) -> _Laplacians:
    """The Laplacians of a block's graphs; the normalized kind zeroes rows
    of isolated nodes."""
    normalized = _normalized(kind)
    first = block.bounds
    deg = np.diff(block.indptr)
    start = np.repeat(first[:-1], np.diff(first))  # each node's graph's first node
    return _Laplacians(
        first,
        block.indptr[first],
        np.repeat(np.arange(block.n) - start, deg),
        block.indices - np.repeat(start, deg),
        -1.0,
        deg.astype(float),
        normalized,
    )


def _superedge_entries(cb: CoarseBlock):
    """(entry_ptr, rows, cols, block-wide rows, weights) of a block's
    superedges, each both ways round."""
    counts = 2 * np.diff(cb.cuts)
    rows, cols = _both_ways(cb.superedges)
    block_rows = rows + np.repeat(cb.first_ball[:-1], counts)
    return 2 * cb.cuts, rows, cols, block_rows, np.repeat(cb.weights, 2)


def _projected_laplacians(cb: CoarseBlock) -> _Laplacians:
    """Each C^T L C: off-diagonals are minus the superedge multiplicities,
    diagonals minus the off-diagonal row sums (exact). So a ball with no
    superedge gets -0.0; keep that sign, eigvalsh's last bits depend on it
    (the cast is for no superedges, where bincount gives ints)."""
    entry_ptr, rows, cols, block_rows, weights = _superedge_entries(cb)
    first = cb.first_ball
    row_sums = np.bincount(block_rows, -weights, minlength=first[-1])
    return _Laplacians(first, entry_ptr, rows, cols, -weights, -row_sums.astype(float))


def _superedge_laplacians(cb: CoarseBlock, kind: LaplacianKind) -> _Laplacians:
    """The Laplacians of the unweighted graphs whose edges are the superedges."""
    normalized = _normalized(kind)
    entry_ptr, rows, cols, block_rows, _ = _superedge_entries(cb)
    first = cb.first_ball
    degree = np.bincount(block_rows, minlength=first[-1]).astype(float)
    return _Laplacians(first, entry_ptr, rows, cols, -1.0, degree, normalized)


def _projected_normalized_laplacians(cb: CoarseBlock) -> _Laplacians:
    """Each C^T L_norm C from the edges, with no n x t indicator. Edge
    (u, v) weighs 1/sqrt(d_u d_v); a superedge's entry is minus the sum, in
    edge order, of its crossing edges' weights, and a ball's diagonal its
    count of members of non-zero degree minus twice its inside edges'
    weights. Ball ids are block-wide, as in `coarse.coarse_block`."""
    first, col = cb.first_ball, cb.assignment
    t = int(first[-1])
    u, v = cb.block.edge_arrays()
    deg = np.diff(cb.block.indptr)
    a, b = col[u], col[v]
    weights = 1.0 / np.sqrt(deg[u] * deg[v])
    inside = a == b
    keys, slot = np.unique((np.minimum(a, b) * t + np.maximum(a, b))[~inside], return_inverse=True)
    low, high = np.divmod(keys, t)
    own_first = first[np.searchsorted(first, low, side="right") - 1]
    rows, cols = _both_ways(np.stack([low - own_first, high - own_first], axis=1))
    sums = np.repeat(np.bincount(slot, weights[~inside]), 2)
    inner = np.bincount(a[inside], weights=weights[inside], minlength=t)
    diag = np.bincount(col[deg > 0], minlength=t) - 2 * inner
    return _Laplacians(first, 2 * np.searchsorted(keys, first * t), rows, cols, -sums, diag)


def _dense_laplacian(laps: _Laplacians, mats: np.ndarray, size: int) -> np.ndarray:
    """Matrices `mats` of laps, each of `size` rows, as one dense
    (len(mats), size, size) stack built in place: the entries go in by one
    flat scatter at slot * size^2 + row * size + col, the diagonals by one
    strided write, and the normalized kind is scaled in place."""
    lo = laps.entry_ptr[mats]
    counts = laps.entry_ptr[mats + 1] - lo
    entries = _ranges(lo, counts)
    slot = np.repeat(np.arange(len(mats)), counts)
    stack = np.zeros((len(mats), size, size))
    values = laps.values if isinstance(laps.values, float) else laps.values[entries]
    stack.reshape(-1)[(slot * size + laps.rows[entries]) * size + laps.cols[entries]] = values
    diag = laps.diag[laps.first[mats][:, None] + np.arange(size)]
    stack.reshape(len(mats), size * size)[:, :: size + 1] = diag
    if laps.normalized:
        scale = np.where(diag > 0, 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0)), 0.0)
        stack *= scale[:, :, None]
        stack *= scale[:, None, :]
    return stack


def _one(laps: _Laplacians) -> np.ndarray:
    """The dense matrix of a one-matrix `_Laplacians`."""
    return _dense_laplacian(laps, np.zeros(1, dtype=np.int64), int(laps.first[1]))[0]


def laplacian(g: Graph, kind: LaplacianKind = "combinatorial") -> np.ndarray:
    """Dense graph Laplacian. Normalized kind zeroes rows of isolated nodes."""
    return _one(_graph_laplacians(GraphBlock.join([g]), kind))


def projected_laplacian(cg: CoarsenedGraph) -> np.ndarray:
    """Dense t x t C^T L C (see `_projected_laplacians`)."""
    return _one(_projected_laplacians(CoarseBlock.join([cg])))


def superedge_laplacian(cg: CoarsenedGraph, kind: LaplacianKind = "combinatorial") -> np.ndarray:
    """Dense Laplacian of the unweighted graph whose edges are the superedges."""
    return _one(_superedge_laplacians(CoarseBlock.join([cg]), kind))


def projected_normalized_laplacian(cg: CoarsenedGraph) -> np.ndarray:
    """Dense t x t C^T L_norm C (see `_projected_normalized_laplacians`)."""
    return _one(_projected_normalized_laplacians(CoarseBlock.join([cg])))


def _check_symmetric(m: np.ndarray) -> None:
    """Reject a matrix, or a stack of them, unless each matrix has
    max |m - m^T| <= SYMMETRY_RTOL * max(1, max |m|).

    Whole matrices are compared a few at a time, or, when one is larger than
    SYMMETRY_BLOCK_BYTES, its row blocks m[i:j] with m[:, i:j]^T, so no
    temporary is larger than that. A NaN entry makes its matrix's skew NaN,
    and the matrix passes, as it does when the whole-matrix maximum is NaN.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise GraphValidationError(f"expected a square matrix, got shape {m.shape}")
    stack = m[None] if m.ndim == 2 else m
    k, n = stack.shape[0], stack.shape[-1]
    if n == 0:
        return
    per = max(1, SYMMETRY_BLOCK_BYTES // (stack.itemsize * n * n))
    rows = min(n, max(1, SYMMETRY_BLOCK_BYTES // (stack.itemsize * n)))
    peak, skew = np.zeros(k), np.zeros(k)
    for i in range(0, k, per):
        for j in range(0, n, rows):
            block = stack[i : i + per, j : j + rows]
            np.maximum(peak[i : i + per], np.abs(block).max(axis=(1, 2)), out=peak[i : i + per])
            diff = block - stack[i : i + per, :, j : j + rows].transpose(0, 2, 1)
            block_skew = np.abs(diff, out=diff).max(axis=(1, 2))
            del diff
            # np.maximum keeps a NaN, so a NaN matrix never compares above
            np.maximum(skew[i : i + per], block_skew, out=skew[i : i + per])
    if (skew > SYMMETRY_RTOL * np.maximum(1.0, peak)).any():
        raise GraphValidationError("matrix is not symmetric")


def _eigensolve(m: np.ndarray, with_vectors: bool):
    """LAPACK's symmetric solver on a matrix or stack known to be symmetric:
    the one place the package calls it."""
    if not m.size:
        values = np.zeros(m.shape[:-1])
        return (values, np.zeros(m.shape)) if with_vectors else values
    return np.linalg.eigh(m) if with_vectors else np.linalg.eigvalsh(m)


def eigenvalues_symmetric(
    m: np.ndarray, with_vectors: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a symmetric matrix, sorted ascending, or those of
    each matrix of a (k, n, n) stack as a (k, n) array; with
    `with_vectors`, the pair (eigenvalues, eigenvectors as columns). The
    matrix is checked to be symmetric first.

    Backed by LAPACK's symmetric solvers, eigvalsh or eigh, which comfortably
    meet the 1e-8 accuracy contract on the dense graph Laplacians this
    toolkit produces. A stack is solved matrix by matrix with the same
    routine, so each matrix gets the bits it gets alone.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    return _eigensolve(m, with_vectors)


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# a memory cgroup's limit, usage and the memory.stat key of its page cache
# the kernel reclaims first, under cgroup v2 and v1 (the v1 key counts the
# group's children too, as its usage does)
_CGROUP_FILES = {
    "v2": ("memory.max", "memory.current", "inactive_file"),
    "v1": ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file"),
}


def _cgroup_room() -> int | None:
    """Bytes left under this process's memory cgroup limit, counting its
    inactive page cache as free, as MemAvailable does; None where no limit
    can be read. A group's own directory is looked for under the
    controller's mount, then the mount itself, which is the group when
    the container mounts only its own."""
    try:
        lines = _read_text("/proc/self/cgroup").splitlines()
    except OSError:
        return None
    for line in lines:
        _, controllers, own = line.split(":", 2)
        if not controllers:
            base, version = "/sys/fs/cgroup", "v2"
        elif "memory" in controllers.split(","):
            base, version = "/sys/fs/cgroup/memory", "v1"
        else:
            continue
        limit_file, usage_file, cache_key = _CGROUP_FILES[version]
        for group in (os.path.join(base, own.lstrip("/")), base):
            try:
                limit = _read_text(os.path.join(group, limit_file)).strip()
                if limit == "max":
                    break
                usage = int(_read_text(os.path.join(group, usage_file)))
                stat = _read_text(os.path.join(group, "memory.stat")).splitlines()
                cache = dict(row.split() for row in stat).get(cache_key, 0)
                return int(limit) - (usage - int(cache))
            except (OSError, ValueError):
                continue
    return None


def _available_bytes() -> int | None:
    """Bytes this process can still allocate: the kernel's MemAvailable,
    or the room left under its memory cgroup's limit when that is smaller;
    None where neither can be read."""
    found = []
    try:
        meminfo = _read_text("/proc/meminfo")
        found.append(int(re.search(r"^MemAvailable:\s+(\d+)", meminfo, re.M)[1]) * 1024)
    except (OSError, TypeError):
        pass
    room = _cgroup_room()
    if room is not None:
        found.append(room)
    return min(found) if found else None


def _check_fits(n: int, with_vectors: bool) -> None:
    """Fail before a lone n x n matrix is built if its eigensolve cannot fit
    in the memory available."""
    available = _available_bytes()
    if available is None:
        return
    # the matrix, LAPACK's copy of it and the eigenvalues, then the
    # workspace of its divide-and-conquer solver (syevd), and under eigh
    # the eigenvector output
    need = 16 * n * n + 8 * n
    if with_vectors:
        need += 8 * (1 + 6 * n + 2 * n * n) + 4 * (3 + 5 * n) + 8 * n * n
    else:
        need += 8 * (2 * n + 1)
    if need > available:
        raise GbgcError(
            f"the dense eigensolve of a {n} x {n} matrix needs about {need} bytes, "
            f"more than the {available} available; rerun with --skip-sd"
        )


def _groups(sizes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(size, the ascending indices of that size) for each distinct size."""
    order = np.argsort(sizes, kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[order])) + 1
    return [(int(sizes[members[0]]), members) for members in np.split(order, cuts)]


def _solved(laps: _Laplacians, with_vectors: bool = False):
    """(matrix indices, their eigenvalues, or (eigenvalues, eigenvectors))
    for each stack of same-size matrices of laps, in chunks of at most
    STACK_BYTES; a larger matrix is a chunk of one, built only when its
    solve fits in memory. Each stack is dropped before the next is built.
    The stacks are symmetric by construction, and go to LAPACK unchecked."""
    for size, members in _groups(laps.sizes):
        per = max(1, STACK_BYTES // (8 * max(1, size * size)))
        for i in range(0, len(members), per):
            mats = members[i : i + per]
            if 8 * size * size > STACK_BYTES:
                _check_fits(size, with_vectors)
            yield mats, _eigensolve(_dense_laplacian(laps, mats, size), with_vectors)


def _spectra(laps: _Laplacians) -> np.ndarray:
    """The ascending eigenvalues of every matrix of laps, end to end:
    matrix i's at first[i] .. first[i + 1] - 1."""
    spectra = np.empty(int(laps.first[-1]))
    for mats, values in _solved(laps):
        spectra[_ranges(laps.first[mats], laps.sizes[mats])] = values.ravel()
    return spectra


def _padded_low(spectra: Sequence[np.ndarray], length: int) -> np.ndarray:
    """One row of `length` per spectrum: the spectrum at the high end, zeros
    below it."""
    lens = np.array([len(s) for s in spectra], dtype=np.int64)
    rows = np.zeros((len(spectra), length))
    starts = np.arange(len(spectra)) * length + length - lens
    rows.reshape(-1)[_ranges(starts, lens)] = np.concatenate(spectra)
    return rows


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of a to the same row of b."""
    return np.sqrt(np.sum((a - b) ** 2, axis=1))


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between ascending spectra, shorter zero-padded low."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    length = max(len(a), len(b))
    return float(_distances(_padded_low([a], length), _padded_low([b], length))[0])


def project_vector(p: Partition, x: np.ndarray) -> np.ndarray:
    """C^T x: per-supernode sums of the node vector x."""
    return np.bincount(p.assignment, weights=x, minlength=p.ball_count)


def rayleigh_pair(cg: CoarsenedGraph, x: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotients of the node vector x on the original graph's
    combinatorial Laplacian and of C^T x on the projected one, in O(m + k)
    with no dense matrix.

    x^T L x is the sum over edges (u, v) of (x_u - x_v)^2, and
    y^T C^T L C y the sum over superedges (a, b) of their weight times
    (y_a - y_b)^2. x must have one entry per original node, and neither x
    nor C^T x may be zero.
    """
    g = cg.graph
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise GraphValidationError(f"expected vector of length {g.n}, got {x.shape}")
    denom = float(x @ x)
    if denom == 0.0:
        raise GraphValidationError("x must not be the zero vector")
    xc = project_vector(cg.partition, x)
    denom_c = float(xc @ xc)
    if denom_c == 0.0:
        raise GraphValidationError("projected vector C^T x is zero")
    u, v = g.edge_arrays()
    diff = x[u] - x[v]
    diff_c = xc[cg.superedges[:, 0]] - xc[cg.superedges[:, 1]]
    r_o = float(diff @ diff) / denom
    r_c = float(cg.weights @ (diff_c * diff_c)) / denom_c
    return r_o, r_c


def _rayleigh_test_vectors(p: Partition, eigvecs: np.ndarray, k: int) -> list[np.ndarray]:
    """Up to k deterministic probes: lifted coarse eigenvectors (columns of
    eigvecs, ascending eigenvalue) first, then indicators of the largest balls."""
    vectors = [eigvecs[p.assignment, i] for i in range(min(k, eigvecs.shape[1]))]
    if len(vectors) < k:
        sizes = np.bincount(p.assignment, minlength=p.ball_count)
        by_size = np.lexsort((np.arange(len(sizes)), -sizes))
        for a in by_size[: k - len(vectors)]:
            vectors.append((p.assignment == a).astype(float))
    return vectors


def _probe(cg: CoarsenedGraph, eigvecs: np.ndarray, k: int) -> list[tuple[float, float, float]]:
    """(r_o, r_c, relative gap) of each Rayleigh probe of cg."""
    samples = []
    for x in _rayleigh_test_vectors(cg.partition, eigvecs, k):
        r_o, r_c = rayleigh_pair(cg, x)
        scale = max(abs(r_o), abs(r_c))
        samples.append((r_o, r_c, abs(r_o - r_c) / scale if scale > 0 else 0.0))
    return samples


def evaluate_block(cb: CoarseBlock, cfg: EvalConfig) -> tuple[np.ndarray, list | None]:
    """Spectral distance of every coarse graph of a block, as one array,
    and, with probes asked for, each graph's Rayleigh samples (else None).
    Each graph's values are the ones it gets alone, bit for bit.

    The original graph's Laplacian of the chosen kind is compared with a
    coarse matrix: under sd_mode "projected", C^T L C or C^T L_norm C; under
    "unweighted", the Laplacian of the chosen kind of the unweighted
    superedge graph. Rayleigh quotients always use the combinatorial pair
    (original Laplacian, C^T L C). With probes asked for, C^T L C is built
    and factored once: its eigenvectors are the probes, and in combinatorial
    projected mode its eigenvalues are the coarse spectrum. With
    ``cfg.rayleigh_vectors == 0`` only eigenvalues are computed, and only
    those the SD needs.

    Solve order: first the original Laplacians, grouped by n, then the
    coarse matrices, grouped by t. A group is built and solved in stacks of
    at most STACK_BYTES, each dropped before the next is built, and a
    larger matrix is a stack of one; so a lone large graph holds one dense
    n x n matrix at a time (plus the working copy LAPACK makes of it). The
    probes of a stack run over the edge lists as soon as it is factored, so
    only that stack's eigenvectors are kept. Each side's spectra are kept
    end to end in one array. Last, the SDs of each n-group are computed in
    one pass over its spectra.
    """
    kind = cfg.laplacian_kind
    bounds, first_ball = cb.block.bounds, cb.first_ball
    orig = _spectra(_graph_laplacians(cb.block, kind))

    samples = None
    if cfg.rayleigh_vectors > 0:
        samples = [None] * cb.block.graph_count
        laps = _projected_laplacians(cb)
        proj = np.empty(int(first_ball[-1]))
        for mats, (values, vectors) in _solved(laps, with_vectors=True):
            proj[_ranges(first_ball[mats], laps.sizes[mats])] = values.ravel()
            for i, eigvecs in zip(mats.tolist(), vectors):
                samples[i] = _probe(cb.coarsened(i), eigvecs, cfg.rayleigh_vectors)
    if cfg.sd_mode == "unweighted":
        coarse = _spectra(_superedge_laplacians(cb, kind))
    elif kind == "combinatorial":
        coarse = proj if samples is not None else _spectra(_projected_laplacians(cb))
    else:
        coarse = _spectra(_projected_normalized_laplacians(cb))

    sds = np.empty(cb.block.graph_count)
    balls = np.diff(first_ball)
    for n, members in _groups(np.diff(bounds)):
        k = len(members)
        t = balls[members]
        orig_rows = orig[bounds[members][:, None] + np.arange(n)]
        # each coarse spectrum at the high end of its row, zeros below it
        coarse_rows = np.zeros((k, n))
        starts = np.arange(k) * n + n - t
        coarse_rows.reshape(-1)[_ranges(starts, t)] = coarse[_ranges(first_ball[members], t)]
        sds[members] = _distances(orig_rows, coarse_rows)
    return sds, samples


def evaluate_many(
    cgs: Sequence[CoarsenedGraph], cfg: EvalConfig | None = None
) -> list[SpectralReport]:
    """Spectral distance plus Rayleigh diagnostics for each coarsening of a
    caller's list: `evaluate_block` on the coarse graphs joined into one
    block. Each report is the one its coarse graph gets alone, bit for bit."""
    cfg = cfg or EvalConfig()
    if not cgs:
        return []
    sds, samples = evaluate_block(CoarseBlock.join(cgs), cfg)
    if samples is None:
        samples = [[] for _ in cgs]
    return [
        SpectralReport(sd=sd, rayleigh_samples=probes)
        for sd, probes in zip(sds.tolist(), samples)
    ]


def evaluate(cg: CoarsenedGraph, cfg: EvalConfig | None = None) -> SpectralReport:
    """`evaluate_many` on a block of one coarse graph."""
    return evaluate_many([cg], cfg)[0]

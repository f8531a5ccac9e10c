"""Laplacians, eigenvalues, spectral distance, and Rayleigh-quotient diagnostics.

Spectral distance between the original and coarsened graph is the Euclidean
distance of their ascending eigenvalue vectors, the shorter one zero-padded
at the low end (an added isolated node contributes eigenvalue 0, so padding
preserves the magnitude ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .coarse import CoarsenedGraph
from .engine import Partition
from .errors import GraphValidationError
from .graph import Graph

LaplacianKind = Literal["combinatorial", "normalized"]
SdMode = Literal["projected", "unweighted"]

SYMMETRY_RTOL = 1e-12
# rows of the symmetry check are compared this many bytes at a time, so the
# check's temporaries stay small next to an n x n matrix
SYMMETRY_BLOCK_BYTES = 2 << 20


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


def _dense_laplacian(size, rows, cols, weights, diag, kind="combinatorial") -> np.ndarray:
    """The one dense Laplacian builder: -weights at (rows, cols), both ways
    round for each edge, and diag on the diagonal. The normalized kind scales
    it in place by D^-1/2 of degrees diag, rows first (degree 0 gives 0)."""
    if kind not in ("combinatorial", "normalized"):
        raise GraphValidationError(f"unknown laplacian kind {kind!r}")
    lap = np.zeros((size, size))
    lap[rows, cols] = -weights
    lap[np.diag_indices(size)] = diag
    if kind == "normalized":
        scale = np.where(diag > 0, 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0)), 0.0)
        lap *= scale[:, None]
        lap *= scale[None, :]
    return lap


def _both_ways(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of each pair (a, b) of a (k, 2) array and of (b, a)."""
    return pairs.ravel(), pairs[:, ::-1].ravel()


def laplacian(g: Graph, kind: LaplacianKind = "combinatorial") -> np.ndarray:
    """Dense graph Laplacian. Normalized kind zeroes rows of isolated nodes."""
    deg = np.diff(g.indptr)
    return _dense_laplacian(g.n, np.repeat(np.arange(g.n), deg), g.indices, 1.0, deg, kind)


def projected_laplacian(cg: CoarsenedGraph) -> np.ndarray:
    """Dense t x t C^T L C: off-diagonals are minus the superedge
    multiplicities, diagonals minus the off-diagonal row sums (exact). So a
    ball with no superedge gets -0.0; keep that sign, eigvalsh's last bits
    depend on it (the cast is for no superedges, where bincount gives ints)."""
    t = cg.supernode_count
    rows, cols = _both_ways(cg.superedges)
    weights = np.repeat(cg.weights, 2)
    row_sums = np.bincount(rows, -weights, minlength=t)
    return _dense_laplacian(t, rows, cols, weights, -row_sums.astype(float))


def superedge_laplacian(cg: CoarsenedGraph, kind: LaplacianKind = "combinatorial") -> np.ndarray:
    """Dense Laplacian of the unweighted graph whose edges are the superedges."""
    rows, cols = _both_ways(cg.superedges)
    degree = np.bincount(rows, minlength=cg.supernode_count)
    return _dense_laplacian(cg.supernode_count, rows, cols, 1.0, degree, kind)


def projected_normalized_laplacian(cg: CoarsenedGraph) -> np.ndarray:
    """C^T L_norm C from the edges, with no n x t indicator. Edge (u, v)
    weighs 1/sqrt(d_u d_v); a superedge's entry is minus the sum, in edge
    order, of its crossing edges' weights, and a ball's diagonal its count of
    members of non-zero degree minus twice its inside edges' weights."""
    g, t = cg.graph, cg.supernode_count
    col = cg.partition.assignment
    u, v = g.edge_arrays()
    deg = np.diff(g.indptr)
    a, b = col[u], col[v]
    weights = 1.0 / np.sqrt(deg[u] * deg[v])
    inside = a == b
    keys, slot = np.unique((np.minimum(a, b) * t + np.maximum(a, b))[~inside], return_inverse=True)
    rows, cols = _both_ways(np.stack(np.divmod(keys, t), axis=1))
    sums = np.repeat(np.bincount(slot, weights[~inside]), 2)
    inner = np.bincount(a[inside], weights=weights[inside], minlength=t)
    diag = np.bincount(col[deg > 0], minlength=t) - 2 * inner
    return _dense_laplacian(t, rows, cols, sums, diag)


def _check_symmetric(m: np.ndarray) -> None:
    """Reject m unless max |m - m^T| <= SYMMETRY_RTOL * max(1, max |m|).

    Row blocks m[i:j] are compared with m[:, i:j]^T, so no temporary is
    larger than SYMMETRY_BLOCK_BYTES. A NaN entry makes its block's skew NaN,
    and the matrix passes, as it does when the whole-matrix maximum is NaN.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphValidationError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    rows = max(1, SYMMETRY_BLOCK_BYTES // (m.itemsize * max(1, n)))
    peak = skew = 0.0
    for i in range(0, n, rows):
        block = m[i : i + rows]
        peak = max(peak, float(np.abs(block).max()))
        diff = block - m[:, i : i + rows].T
        block_skew = float(np.abs(diff, out=diff).max())
        del diff
        if block_skew != block_skew:
            return
        skew = max(skew, block_skew)
    if skew > SYMMETRY_RTOL * max(1.0, peak):
        raise GraphValidationError("matrix is not symmetric")


def eigenvalues_symmetric(
    m: np.ndarray, with_vectors: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a symmetric matrix, sorted ascending; with
    `with_vectors`, the pair (eigenvalues, eigenvectors as columns).

    Backed by LAPACK's symmetric solvers, eigvalsh or eigh, which comfortably
    meet the 1e-8 accuracy contract on the dense graph Laplacians this
    toolkit produces.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if with_vectors:
        return np.linalg.eigh(m) if m.size else (np.zeros(0), np.zeros((0, 0)))
    return np.linalg.eigvalsh(m) if m.size else np.zeros(0)


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between ascending spectra, shorter zero-padded low."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) < len(b):
        a = np.concatenate([np.zeros(len(b) - len(a)), a])
    elif len(b) < len(a):
        b = np.concatenate([np.zeros(len(a) - len(b)), b])
    return float(np.sqrt(np.sum((a - b) ** 2)))


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


def evaluate(cg: CoarsenedGraph, cfg: EvalConfig | None = None) -> SpectralReport:
    """Spectral distance plus Rayleigh diagnostics for a coarsening: the
    coarse graph `cg` against the original graph it was built from.

    The original graph's `laplacian` of the chosen kind is compared with a
    coarse matrix: under sd_mode "projected", `projected_laplacian` (C^T L C)
    or `projected_normalized_laplacian` (C^T L_norm C); under "unweighted",
    `superedge_laplacian` of the chosen kind. Rayleigh quotients always use
    the combinatorial pair (original Laplacian, C^T L C). With probes asked
    for, C^T L C is built and factored once: its eigenvectors are the probes,
    and in combinatorial projected mode its eigenvalues are the coarse
    spectrum. With ``cfg.rayleigh_vectors == 0`` only eigenvalues
    are computed, and only those the SD needs.

    Solve order, so that at most one dense n x n matrix is alive at a time
    (plus the working copy LAPACK makes of it): the original Laplacian of
    the chosen kind is built, its spectrum solved and the matrix dropped
    before any coarse matrix exists. Then the coarse matrices are built and
    solved. Last, the probes run over the edge lists, with no n x n matrix.
    """
    cfg = cfg or EvalConfig()
    probing = cfg.rayleigh_vectors > 0
    orig_eigvals = eigenvalues_symmetric(laplacian(cg.graph, cfg.laplacian_kind))

    if probing:
        proj_eigvals, proj_eigvecs = eigenvalues_symmetric(
            projected_laplacian(cg), with_vectors=True
        )
    if cfg.sd_mode == "unweighted":
        coarse_eigvals = eigenvalues_symmetric(superedge_laplacian(cg, cfg.laplacian_kind))
    elif cfg.laplacian_kind == "combinatorial":
        coarse_eigvals = proj_eigvals if probing else eigenvalues_symmetric(projected_laplacian(cg))
    else:
        coarse_eigvals = eigenvalues_symmetric(projected_normalized_laplacian(cg))
    sd = spectral_distance(orig_eigvals, coarse_eigvals)

    samples = []
    if probing:
        for x in _rayleigh_test_vectors(cg.partition, proj_eigvecs, cfg.rayleigh_vectors):
            r_o, r_c = rayleigh_pair(cg, x)
            scale = max(abs(r_o), abs(r_c))
            gap = abs(r_o - r_c) / scale if scale > 0 else 0.0
            samples.append((r_o, r_c, gap))
    return SpectralReport(sd=sd, rayleigh_samples=samples)

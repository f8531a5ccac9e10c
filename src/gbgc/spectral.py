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

from .coarse import CoarsenedGraph, superedge_graph
from .engine import Partition, achieved_ratio
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
    laplacian_kind: LaplacianKind = "combinatorial"
    sd_mode: SdMode = "projected"
    rayleigh_vectors: int = 16


@dataclass
class SpectralReport:
    sd: float
    r_a: float
    rayleigh_samples: list[tuple[float, float, float]] = field(default_factory=list)
    laplacian_kind: LaplacianKind = "combinatorial"
    sd_mode: SdMode = "projected"


def laplacian(g: Graph, kind: LaplacianKind = "combinatorial") -> np.ndarray:
    """Dense graph Laplacian. Normalized kind zeroes rows of isolated nodes."""
    n = g.n
    deg = np.diff(g.indptr)
    lap = np.zeros((n, n))
    lap[np.repeat(np.arange(n), deg), g.indices] = -1.0
    lap[np.diag_indices(n)] = deg
    if kind == "combinatorial":
        return lap
    if kind == "normalized":
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        lap *= scale[:, None]
        lap *= scale[None, :]
        return lap
    raise GraphValidationError(f"unknown laplacian kind {kind!r}")


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
    return np.sort(np.linalg.eigvalsh(m)) if m.size else np.zeros(0)


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


def lift_vector(p: Partition, y: np.ndarray) -> np.ndarray:
    """C y: each node takes its supernode's value."""
    return np.asarray(y, dtype=float)[p.assignment]


def rayleigh_pair(
    g: Graph, cg: CoarsenedGraph, p: Partition, x: np.ndarray
) -> tuple[float, float]:
    """Rayleigh quotients of x on the original combinatorial Laplacian and
    of C^T x on the projected one, in O(m + k) with no dense matrix.

    x^T L x is the sum over edges (u, v) of (x_u - x_v)^2, and
    y^T C^T L C y the sum over superedges (a, b) of their weight times
    (y_a - y_b)^2.
    """
    p.check_node_count(g.n)
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise GraphValidationError(f"expected vector of length {g.n}, got {x.shape}")
    denom = float(x @ x)
    if denom == 0.0:
        raise GraphValidationError("x must not be the zero vector")
    xc = project_vector(p, x)
    denom_c = float(xc @ xc)
    if denom_c == 0.0:
        raise GraphValidationError("projected vector C^T x is zero")
    u, v = g.edge_arrays()
    diff = x[u] - x[v]
    diff_c = xc[cg.superedges[:, 0]] - xc[cg.superedges[:, 1]]
    r_o = float(diff @ diff) / denom
    r_c = float(cg.weights @ (diff_c * diff_c)) / denom_c
    return r_o, r_c


def projected_normalized_laplacian(g: Graph, p: Partition) -> np.ndarray:
    """C^T L_norm C accumulated edge by edge into t x t, no n x t indicator.

    Each ball's diagonal gets +1 per member of non-zero degree; each edge
    (u, v) adds -1/sqrt(d_u d_v) at (col u, col v) and (col v, col u), so an
    edge inside a ball adds twice that to its diagonal.
    """
    t = p.ball_count
    col = p.assignment
    u, v = g.edge_arrays()
    deg = np.diff(g.indptr)
    a, b = col[u], col[v]
    upper = np.bincount(
        np.minimum(a, b) * t + np.maximum(a, b),
        weights=-1.0 / np.sqrt(deg[u] * deg[v]),
        minlength=t * t,
    ).reshape(t, t)
    lap = upper + upper.T
    lap[np.diag_indices(t)] += np.bincount(col[deg > 0], minlength=t)
    return lap


def _rayleigh_test_vectors(p: Partition, eigvecs: np.ndarray, k: int) -> list[np.ndarray]:
    """Up to k deterministic probes: lifted coarse eigenvectors (columns of
    eigvecs, ascending eigenvalue) first, then indicators of the largest balls."""
    vectors = [lift_vector(p, eigvecs[:, i]) for i in range(min(k, eigvecs.shape[1]))]
    if len(vectors) < k:
        sizes = np.bincount(p.assignment, minlength=p.ball_count)
        by_size = np.lexsort((np.arange(len(sizes)), -sizes))
        for a in by_size[: k - len(vectors)]:
            vectors.append((p.assignment == a).astype(float))
    return vectors


def evaluate(
    g: Graph,
    cg: CoarsenedGraph,
    p: Partition,
    cfg: EvalConfig | None = None,
) -> SpectralReport:
    """Spectral distance plus Rayleigh diagnostics for a coarsening result.

    sd_mode "projected" compares against the projected Laplacian of the
    chosen kind; "unweighted" builds that kind's Laplacian on the
    superedge graph instead. Rayleigh quotients always use the
    combinatorial pair (original Laplacian, projected Laplacian). With
    probes asked for, the dense projected Laplacian is built and factored
    once: its eigenvectors are the probes, and in combinatorial projected
    mode its eigenvalues are the coarse spectrum. With
    ``cfg.rayleigh_vectors == 0`` only eigenvalues are computed, and only
    those the SD needs.

    Solve order, so that at most one dense n x n matrix is alive at a time
    (plus the working copy LAPACK makes of it): the original Laplacian of
    the chosen kind is built, its spectrum solved and the matrix dropped
    before any coarse matrix exists. Then the coarse matrices are built and
    solved. Last, the probes run over the edge lists, with no n x n matrix.
    """
    cfg = cfg or EvalConfig()
    p.check_node_count(g.n)
    if p.ball_count != cg.supernode_count:
        raise GraphValidationError(
            f"partition has {p.ball_count} balls but coarse graph has "
            f"{cg.supernode_count} supernodes"
        )
    if cfg.laplacian_kind not in ("combinatorial", "normalized"):
        raise GraphValidationError(f"unknown laplacian kind {cfg.laplacian_kind!r}")
    if cfg.sd_mode not in ("projected", "unweighted"):
        raise GraphValidationError(f"unknown sd mode {cfg.sd_mode!r}")
    probing = cfg.rayleigh_vectors > 0
    orig_eigvals = eigenvalues_symmetric(laplacian(g, cfg.laplacian_kind))

    if probing:
        proj_eigvals, proj_eigvecs = eigenvalues_symmetric(
            cg.projected_laplacian, with_vectors=True
        )
    if cfg.sd_mode == "unweighted":
        coarse_eigvals = eigenvalues_symmetric(laplacian(superedge_graph(cg), cfg.laplacian_kind))
    elif cfg.laplacian_kind == "combinatorial":
        coarse_eigvals = proj_eigvals if probing else eigenvalues_symmetric(cg.projected_laplacian)
    else:
        coarse_eigvals = eigenvalues_symmetric(projected_normalized_laplacian(g, p))
    sd = spectral_distance(orig_eigvals, coarse_eigvals)

    samples = []
    if probing:
        for x in _rayleigh_test_vectors(p, proj_eigvecs, cfg.rayleigh_vectors):
            r_o, r_c = rayleigh_pair(g, cg, p, x)
            scale = max(abs(r_o), abs(r_c))
            gap = abs(r_o - r_c) / scale if scale > 0 else 0.0
            samples.append((r_o, r_c, gap))
    return SpectralReport(
        sd=sd,
        r_a=achieved_ratio(p, g.n),
        rayleigh_samples=samples,
        laplacian_kind=cfg.laplacian_kind,
        sd_mode=cfg.sd_mode,
    )

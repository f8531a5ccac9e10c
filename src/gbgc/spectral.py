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

from .coarse import (
    CoarsenedGraph,
    ProjectionMap,
    build_projection,
    pair_endpoints,
    superedge_graph,
)
from .engine import Partition, achieved_ratio
from .errors import GraphValidationError
from .graph import Graph

LaplacianKind = Literal["combinatorial", "normalized"]
SdMode = Literal["projected", "unweighted"]

SYMMETRY_RTOL = 1e-12


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
    a = np.zeros((n, n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    if kind == "combinatorial":
        return lap
    if kind == "normalized":
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        return lap * scale[:, None] * scale[None, :]
    raise GraphValidationError(f"unknown laplacian kind {kind!r}")


def _check_symmetric(m: np.ndarray) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if m.size and float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise GraphValidationError("matrix is not symmetric")


def eigenvalues_symmetric(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Backed by LAPACK's symmetric solver, which comfortably meets the 1e-8
    accuracy contract on the dense graph Laplacians this toolkit produces;
    tol is validated for interface compatibility with iterative solvers.
    """
    if tol <= 0:
        raise GraphValidationError("tol must be positive")
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if m.size == 0:
        return np.zeros(0)
    return np.sort(np.linalg.eigvalsh(m))


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between ascending spectra, shorter zero-padded low."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) < len(b):
        a = np.concatenate([np.zeros(len(b) - len(a)), a])
    elif len(b) < len(a):
        b = np.concatenate([np.zeros(len(a) - len(b)), b])
    return float(np.sqrt(np.sum((a - b) ** 2)))


def project_vector(c: ProjectionMap, x: np.ndarray) -> np.ndarray:
    """C^T x: per-supernode sums of the node vector x."""
    return np.bincount(c.column_of, weights=x, minlength=c.cols)


def lift_vector(c: ProjectionMap, y: np.ndarray) -> np.ndarray:
    """C y: each node takes its supernode's value."""
    return np.asarray(y, dtype=float)[c.column_of]


def rayleigh_pair(
    lap: np.ndarray, lap_coarse: np.ndarray, c: ProjectionMap, x: np.ndarray
) -> tuple[float, float]:
    """Rayleigh quotients of x on the original Laplacian and of C^T x on the
    projected one."""
    x = np.asarray(x, dtype=float)
    if x.shape != (c.rows,):
        raise GraphValidationError(f"expected vector of length {c.rows}, got {x.shape}")
    denom = float(x @ x)
    if denom == 0.0:
        raise GraphValidationError("x must not be the zero vector")
    xc = project_vector(c, x)
    denom_c = float(xc @ xc)
    if denom_c == 0.0:
        raise GraphValidationError("projected vector C^T x is zero")
    r_o = float(x @ lap @ x) / denom
    r_c = float(xc @ lap_coarse @ xc) / denom_c
    return r_o, r_c


def projected_normalized_laplacian(g: Graph, c: ProjectionMap) -> np.ndarray:
    """C^T L_norm C accumulated edge by edge into t x t, no n x t indicator.

    Each ball's diagonal gets +1 per member of non-zero degree; each edge
    (u, v) adds -1/sqrt(d_u d_v) at (col u, col v) and (col v, col u), so an
    edge inside a ball adds twice that to its diagonal.
    """
    t = c.cols
    col = np.asarray(c.column_of, dtype=np.int64)
    u, v = pair_endpoints(g.edges)
    deg = np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n)
    a, b = col[u], col[v]
    upper = np.bincount(
        np.minimum(a, b) * t + np.maximum(a, b),
        weights=-1.0 / np.sqrt(deg[u] * deg[v]),
        minlength=t * t,
    ).reshape(t, t)
    lap = upper + upper.T
    lap[np.diag_indices(t)] += np.bincount(col[deg > 0], minlength=t)
    return lap


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and matching eigenvectors of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if m.size == 0:
        return np.zeros(0), np.zeros((0, 0))
    return np.linalg.eigh(m)


def _rayleigh_test_vectors(c: ProjectionMap, eigvecs: np.ndarray, k: int) -> list[np.ndarray]:
    """Up to k deterministic probes: lifted coarse eigenvectors (columns of
    eigvecs, ascending eigenvalue) first, then indicators of the largest balls."""
    vectors = [lift_vector(c, eigvecs[:, i]) for i in range(min(k, eigvecs.shape[1]))]
    if len(vectors) < k:
        sizes = c.ball_sizes()
        by_size = sorted(range(len(sizes)), key=lambda a: (-sizes[a], a))
        column = np.asarray(c.column_of)
        for a in by_size[: k - len(vectors)]:
            vectors.append((column == a).astype(float))
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
    combinatorial pair (original Laplacian, projected Laplacian). The dense
    projected Laplacian is built and factored once: its eigenvectors are
    the probes, and in combinatorial projected mode its eigenvalues are the
    coarse spectrum.
    """
    cfg = cfg or EvalConfig()
    c = build_projection(p, g.n)
    if c.cols != cg.supernode_count:
        raise GraphValidationError(
            f"partition has {c.cols} balls but coarse graph has {cg.supernode_count} supernodes"
        )
    if cfg.sd_mode not in ("projected", "unweighted"):
        raise GraphValidationError(f"unknown sd mode {cfg.sd_mode!r}")
    lap_orig = laplacian(g, cfg.laplacian_kind)
    lap_proj = cg.projected_laplacian
    proj_eigvals, proj_eigvecs = _eigh(lap_proj)
    if cfg.sd_mode == "unweighted":
        coarse_eigvals = eigenvalues_symmetric(laplacian(superedge_graph(cg), cfg.laplacian_kind))
    elif cfg.laplacian_kind == "combinatorial":
        coarse_eigvals = proj_eigvals
    else:
        coarse_eigvals = eigenvalues_symmetric(projected_normalized_laplacian(g, c))
    sd = spectral_distance(eigenvalues_symmetric(lap_orig), coarse_eigvals)

    lap_comb = lap_orig if cfg.laplacian_kind == "combinatorial" else laplacian(g)
    samples = []
    for x in _rayleigh_test_vectors(c, proj_eigvecs, cfg.rayleigh_vectors):
        r_o, r_c = rayleigh_pair(lap_comb, lap_proj, c, x)
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

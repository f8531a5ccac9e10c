import math
import random
import tracemalloc

import numpy as np
import pytest

from gbgc import (
    CoarsenConfig,
    EvalConfig,
    GraphValidationError,
    Partition,
    adaptive_coarsen,
    build_coarse_graph,
    build_projection,
    coarsen,
    eigenvalues_symmetric,
    erdos_renyi,
    evaluate,
    from_edge_list,
    laplacian,
    rayleigh_pair,
    spectral_distance,
)

import gbgc.spectral as spectral
from gbgc.spectral import SYMMETRY_BLOCK_BYTES, SYMMETRY_RTOL
from helpers import (
    adjacency_matrix,
    charpoly_eigenvalues,
    reference_evaluate,
    reference_rayleigh_pair,
)
from tests_support import er_suite

# exact barbell spectrum: {0, (5 - sqrt(17))/2, 3, 3, 3, (5 + sqrt(17))/2}
BARBELL_SPECTRUM = [0.0, (5 - math.sqrt(17)) / 2, 3.0, 3.0, 3.0, (5 + math.sqrt(17)) / 2]
# Euclidean distance of that spectrum to {0, 2} padded to {0,0,0,0,0,2},
# computed symbolically out of band
BARBELL_TWO_BALL_SD = 5.8098010937350238


def identity_partition(g):
    return Partition.from_member_groups(g, [[v] for v in range(g.n)])


def test_laplacian_k2(k2):
    assert laplacian(k2).tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert laplacian(k2, "normalized").tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_isolated_normalized():
    g = from_edge_list(1, [])
    assert laplacian(g, "normalized").tolist() == [[0.0]]


def test_known_spectra(k2, k3, p3):
    assert eigenvalues_symmetric(laplacian(k2)) == pytest.approx([0, 2], abs=1e-8)
    assert eigenvalues_symmetric(laplacian(k3)) == pytest.approx([0, 3, 3], abs=1e-8)
    assert eigenvalues_symmetric(laplacian(p3)) == pytest.approx([0, 1, 3], abs=1e-8)


def test_barbell_spectrum(barbell):
    assert eigenvalues_symmetric(laplacian(barbell)) == pytest.approx(
        BARBELL_SPECTRUM, abs=1e-8
    )


def test_eigenvalues_reject_asymmetric():
    with pytest.raises(GraphValidationError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(GraphValidationError):
        eigenvalues_symmetric(np.zeros((2, 3)))


def test_eigenvalues_charpoly_oracle():
    # roots of the exact characteristic polynomial as an independent check
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = from_edge_list(n, edges)
        adj = adjacency_matrix(g)
        lap_int = [
            [g.degree(i) if i == j else -adj[i][j] for j in range(n)] for i in range(n)
        ]
        expected = charpoly_eigenvalues(lap_int)
        got = eigenvalues_symmetric(laplacian(g))
        assert got == pytest.approx(expected, abs=1e-8)


def test_zero_multiplicity_counts_components():
    one = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    two = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    three = from_edge_list(7, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)])
    for g, comps in ((one, 1), (two, 2), (three, 3)):
        eig = eigenvalues_symmetric(laplacian(g))
        assert np.all(eig >= -1e-8)
        assert int(np.sum(np.abs(eig) <= 1e-8)) == comps


def test_spectral_distance_basics():
    assert spectral_distance(np.array([0.0, 2.0]), np.array([0.0, 2.0])) == 0.0
    assert spectral_distance(np.array([0.0, 2.0]), np.array([0.0])) == 2.0
    assert spectral_distance(np.array([0.0, 1.0, 3.0]), np.array([0.0, 3.0])) == 1.0


def test_spectral_distance_pseudometric():
    rng = random.Random(11)
    spectra = [
        np.sort(np.array([rng.uniform(0, 5) for _ in range(rng.randint(1, 6))]))
        for _ in range(12)
    ]
    for a in spectra:
        assert spectral_distance(a, a) == 0.0
        for b in spectra:
            assert spectral_distance(a, b) == pytest.approx(spectral_distance(b, a))
            for c in spectra:
                assert spectral_distance(a, c) <= (
                    spectral_distance(a, b) + spectral_distance(b, c) + 1e-12
                )


def test_rayleigh_identity_exact(barbell):
    c = build_projection(identity_partition(barbell), 6)
    cg = build_coarse_graph(barbell, c)
    rng = random.Random(3)
    for _ in range(16):
        x = np.array([rng.uniform(-1, 1) for _ in range(6)])
        r_o, r_c = rayleigh_pair(barbell, cg, c, x)
        assert r_c == pytest.approx(r_o, rel=1e-12)


def test_rayleigh_all_ones_zero(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    c = build_projection(part, 6)
    cg = build_coarse_graph(barbell, c)
    r_o, r_c = rayleigh_pair(barbell, cg, c, np.ones(6))
    assert abs(r_o) <= 1e-12
    # both barbell balls have size 3, so the projected vector stays constant
    assert abs(r_c) <= 1e-12


def test_rayleigh_barbell_sign_vector(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    c = build_projection(part, 6)
    cg = build_coarse_graph(barbell, c)
    x = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    r_o, r_c = rayleigh_pair(barbell, cg, c, x)
    assert r_o == pytest.approx(4 / 6, abs=1e-12)
    assert r_c == pytest.approx(2.0, abs=1e-12)


def test_rayleigh_degenerate_inputs(k3):
    c = build_projection(identity_partition(k3), 3)
    cg = build_coarse_graph(k3, c)
    with pytest.raises(GraphValidationError):
        rayleigh_pair(k3, cg, c, np.zeros(3))
    with pytest.raises(GraphValidationError):
        rayleigh_pair(k3, cg, c, np.zeros(4))


def test_evaluate_identity(barbell):
    part = identity_partition(barbell)
    cg = build_coarse_graph(barbell, build_projection(part, 6))
    report = evaluate(barbell, cg, part)
    assert report.sd <= 1e-8
    assert report.r_a == 1.0
    assert report.rayleigh_samples
    assert all(gap <= 1e-12 for _, _, gap in report.rayleigh_samples)


def test_evaluate_k2_one_ball(k2):
    part = Partition.from_member_groups(k2, [[0, 1]])
    cg = build_coarse_graph(k2, build_projection(part, 2))
    report = evaluate(k2, cg, part)
    assert report.sd == pytest.approx(2.0, abs=1e-8)
    assert report.r_a == 0.5


def test_evaluate_barbell_frozen_oracle(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, build_projection(part, 6))
    report = evaluate(barbell, cg, part)
    assert report.sd == pytest.approx(BARBELL_TWO_BALL_SD, abs=1e-8)


def test_evaluate_unweighted_mode(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, build_projection(part, 6))
    report = evaluate(barbell, cg, part, EvalConfig(sd_mode="unweighted"))
    # coarse side is K2's Laplacian: same spectrum {0, 2} here
    assert report.sd == pytest.approx(BARBELL_TWO_BALL_SD, abs=1e-8)
    assert report.sd_mode == "unweighted"


def test_evaluate_normalized_kind():
    g = erdos_renyi(30, 4.0, seed=8)
    part = adaptive_coarsen(g, CoarsenConfig())
    cg = build_coarse_graph(g, build_projection(part, g.n))
    report = evaluate(g, cg, part, EvalConfig(laplacian_kind="normalized"))
    assert math.isfinite(report.sd) and report.sd >= 0
    identity = identity_partition(g)
    cg_i = build_coarse_graph(g, build_projection(identity, g.n))
    report_i = evaluate(g, cg_i, identity, EvalConfig(laplacian_kind="normalized"))
    assert report_i.sd <= 1e-8


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
@pytest.mark.parametrize("mode", ["projected", "unweighted"])
def test_evaluate_without_probes_computes_sd_only(monkeypatch, kind, mode):
    for g in er_suite()[::40]:
        part = adaptive_coarsen(g, CoarsenConfig())
        cg = build_coarse_graph(g, build_projection(part, g.n))
        probed = evaluate(g, cg, part, EvalConfig(kind, mode, rayleigh_vectors=16))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", None)  # only eigenvalues may be computed
            bare = evaluate(g, cg, part, EvalConfig(kind, mode, rayleigh_vectors=0))
        assert bare.rayleigh_samples == []
        assert probed.rayleigh_samples
        assert bare.sd == pytest.approx(probed.sd, abs=1e-10)


MODES = [
    ("combinatorial", "projected"),
    ("combinatorial", "unweighted"),
    ("normalized", "projected"),
    ("normalized", "unweighted"),
]
PARTITIONS = [
    CoarsenConfig(),
    CoarsenConfig(ablation="no_init"),
    CoarsenConfig(mode="ratio", ratio=0.3),
]


@pytest.mark.parametrize("kind, mode", MODES)
def test_evaluate_matches_reference_exactly(kind, mode):
    isolated = from_edge_list(9, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)])
    for g in [*er_suite()[::20], isolated]:
        for coarsen_cfg in PARTITIONS:
            part = coarsen(g, coarsen_cfg)
            cg = build_coarse_graph(g, build_projection(part, g.n))
            for k in (0, 16):
                cfg = EvalConfig(kind, mode, rayleigh_vectors=k)
                got = evaluate(g, cg, part, cfg)
                want = reference_evaluate(g, cg, part, cfg)
                assert got.sd == want.sd
                assert got.r_a == want.r_a
                # the probes sum over edges where the reference multiplies
                # dense matrices, so they agree to rounding
                assert len(got.rayleigh_samples) == len(want.rayleigh_samples)
                for sample, expected in zip(got.rayleigh_samples, want.rayleigh_samples):
                    assert sample == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_rayleigh_pair_matches_the_dense_form():
    rng = np.random.default_rng(7)
    for g in er_suite()[::10]:
        part = coarsen(g, CoarsenConfig())
        c = build_projection(part, g.n)
        cg = build_coarse_graph(g, c)
        lap, lap_coarse = laplacian(g), cg.projected_laplacian
        for x in rng.uniform(-1, 1, size=(8, g.n)):
            got = rayleigh_pair(g, cg, c, x)
            assert got == pytest.approx(
                reference_rayleigh_pair(lap, lap_coarse, c, x), rel=1e-12, abs=1e-12
            )


def test_evaluate_rejects_bad_kind_before_any_laplacian(monkeypatch, barbell):
    part = identity_partition(barbell)
    cg = build_coarse_graph(barbell, build_projection(part, 6))

    def no_laplacian(*args, **kwargs):
        raise AssertionError("laplacian built before the kind was checked")

    monkeypatch.setattr(spectral, "laplacian", no_laplacian)
    with pytest.raises(GraphValidationError, match="unknown laplacian kind"):
        evaluate(barbell, cg, part, EvalConfig(laplacian_kind="signless"))


@pytest.mark.parametrize("probes", [0, 16])
@pytest.mark.parametrize("kind, mode", MODES)
def test_evaluate_holds_one_dense_original_matrix(kind, mode, probes):
    g = erdos_renyi(1000, 4.0, seed=1000)
    part = adaptive_coarsen(g, CoarsenConfig())
    cg = build_coarse_graph(g, build_projection(part, g.n))
    cfg = EvalConfig(kind, mode, rayleigh_vectors=probes)
    tracemalloc.start()
    try:
        evaluate(g, cg, part, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n Laplacian plus the symmetry check's row blocks; LAPACK's
    # working copy is allocated outside numpy and is not traced
    assert peak <= 2 * 8 * g.n**2


def _block_spanning_matrix():
    n = 600
    assert 8 * n * n > SYMMETRY_BLOCK_BYTES  # more than one row block
    m = np.zeros((n, n))
    m[np.diag_indices(n)] = 4.0
    return m


def test_symmetry_check_rejects_skew_in_last_block():
    m = _block_spanning_matrix()
    m[-1, 3] = 1e-6
    with pytest.raises(GraphValidationError, match="not symmetric"):
        eigenvalues_symmetric(m)
    m = _block_spanning_matrix()
    m[3, -1] = 1e-6
    with pytest.raises(GraphValidationError, match="not symmetric"):
        eigenvalues_symmetric(m)


def test_symmetry_check_threshold_is_inclusive():
    m = _block_spanning_matrix()
    tol = SYMMETRY_RTOL * max(1.0, 4.0)
    m[-1, 3] = tol
    spectral._check_symmetric(m)
    m[-1, 3] = 2 * tol
    with pytest.raises(GraphValidationError, match="not symmetric"):
        spectral._check_symmetric(m)

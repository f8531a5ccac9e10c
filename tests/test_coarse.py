import tracemalloc

import numpy as np
import pytest

from gbgc import (
    CoarsenConfig,
    GraphValidationError,
    Partition,
    adaptive_coarsen,
    build_coarse_graph,
    build_projection,
    coarsen,
    erdos_renyi,
    from_edge_list,
    laplacian,
    random_partition,
)
from gbgc.coarse import ProjectionMap, superedge_graph
from gbgc.spectral import projected_normalized_laplacian

from helpers import indicator_matrix, reference_coarse_graph
from tests_support import er_suite


def identity_partition(g):
    return Partition.from_member_groups(g, [[v] for v in range(g.n)])


def test_projection_identity(k3):
    c = build_projection(identity_partition(k3), 3)
    assert c.column_of.tolist() == [0, 1, 2]
    assert c.ball_sizes().tolist() == [1, 1, 1]


def test_projection_one_ball(k3):
    part = Partition.from_member_groups(k3, [[0, 1, 2]])
    c = build_projection(part, 3)
    assert c.column_of.tolist() == [0, 0, 0]
    assert c.ball_sizes().tolist() == [3]
    ind = indicator_matrix(c)
    assert (ind.T @ ind).tolist() == [[3.0]]


def test_projection_barbell(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    c = build_projection(part, 6)
    assert c.column_of.tolist() == [0, 0, 0, 1, 1, 1]


def test_projection_size_mismatch(k3):
    part = Partition.from_member_groups(k3, [[0, 1, 2]])
    with pytest.raises(GraphValidationError):
        build_projection(part, 4)


def test_coarse_identity_is_original(k3):
    cg = build_coarse_graph(k3, build_projection(identity_partition(k3), 3))
    assert cg.superedges.tolist() == [list(e) for e in k3.edges]
    assert np.array_equal(cg.projected_laplacian, laplacian(k3))


def test_coarse_one_ball_k2(k2):
    part = Partition.from_member_groups(k2, [[0, 1]])
    cg = build_coarse_graph(k2, build_projection(part, 2))
    assert cg.supernode_count == 1
    assert cg.superedges.tolist() == []
    assert cg.superedges.shape == (0, 2)
    assert cg.projected_laplacian.tolist() == [[0.0]]


def test_coarse_barbell(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, build_projection(part, 6))
    assert cg.superedges.tolist() == [[0, 1]]
    assert cg.projected_laplacian.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_coarse_laplacian_identities_random():
    for seed in range(8):
        g = erdos_renyi(50 + 17 * seed, 4.0, seed=seed)
        part = adaptive_coarsen(g, CoarsenConfig())
        c = build_projection(part, g.n)
        cg = build_coarse_graph(g, c)
        lap = cg.projected_laplacian

        assert np.array_equal(lap, lap.T)
        assert np.all(lap.sum(axis=1) == 0.0)  # exact integer row sums

        degrees = [g.degree(v) for v in range(g.n)]
        for a, ball in enumerate(part.balls):
            expected = sum(degrees[v] for v in ball.members) - 2 * ball.internal_edge_count
            assert lap[a, a] == expected

        cross_edges = sum(
            1 for u, v in g.edges if part.assignment[u] != part.assignment[v]
        )
        off_diag_total = -sum(
            lap[a, b] for a in range(cg.supernode_count) for b in range(a + 1, cg.supernode_count)
        )
        assert off_diag_total == cross_edges

        # superedge exists exactly where the off-diagonal entry is nonzero
        present = set(map(tuple, cg.superedges.tolist()))
        for a in range(cg.supernode_count):
            for b in range(a + 1, cg.supernode_count):
                assert ((a, b) in present) == (lap[a, b] != 0)

        assert cg.supernode_count < g.n or all(b.size == 1 for b in part.balls)
        assert len(cg.superedges) <= g.edge_count


def test_coarse_matches_dense_congruence(barbell):
    # independent dense path: indicator matrix times Laplacian
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    c = build_projection(part, 6)
    cg = build_coarse_graph(barbell, c)
    ind = indicator_matrix(c)
    dense = ind.T @ laplacian(barbell) @ ind
    assert np.allclose(cg.projected_laplacian, dense, atol=0)


def test_superedge_graph(barbell):
    part = adaptive_coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, build_projection(part, 6))
    g2 = superedge_graph(cg)
    assert g2.n == 2 and g2.edges == ((0, 1),)


def partitions_to_check(g):
    """Partitions of g from every producer: adaptive, both ablations, ratio
    mode, the random control, plus identity and one ball."""
    yield identity_partition(g)
    yield Partition.from_member_groups(g, [range(g.n)])
    adaptive = coarsen(g, CoarsenConfig())
    yield adaptive
    yield coarsen(g, CoarsenConfig(ablation="no_init"))
    yield coarsen(g, CoarsenConfig(ablation="no_split"))
    yield coarsen(g, CoarsenConfig(mode="ratio", ratio=0.3))
    yield random_partition(g, adaptive.ball_count, seed=g.n)


def assert_matches_reference(g, part):
    c = build_projection(part, g.n)
    cg = build_coarse_graph(g, c)
    superedges, weights, lap = reference_coarse_graph(g, c)
    assert cg.supernode_count == c.cols
    assert cg.superedges.tolist() == [list(e) for e in superedges]
    assert cg.superedges.dtype == np.int64
    assert cg.superedges.shape == (len(superedges), 2)
    assert cg.weights.dtype == np.int64
    assert cg.weights.tolist() == weights
    assert np.array_equal(cg.projected_laplacian, lap)
    ind = indicator_matrix(c)
    dense = ind.T @ laplacian(g, "normalized") @ ind
    assert np.allclose(projected_normalized_laplacian(g, c), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["k2", "k3", "p3", "star3", "barbell"])
def test_sparse_build_matches_reference_fixtures(name, request):
    g = request.getfixturevalue(name)
    for part in partitions_to_check(g):
        assert_matches_reference(g, part)


def test_sparse_build_matches_reference_er_suite():
    for g in er_suite():
        for part in partitions_to_check(g):
            assert_matches_reference(g, part)


def test_normalized_projection_isolated_nodes():
    g = from_edge_list(6, [(0, 1), (1, 2), (4, 5)])  # node 3 is isolated
    part = Partition.from_member_groups(g, [[0, 3], [1, 2], [4, 5]])
    c = build_projection(part, g.n)
    ind = indicator_matrix(c)
    dense = ind.T @ laplacian(g, "normalized") @ ind
    assert np.allclose(projected_normalized_laplacian(g, c), dense, rtol=0, atol=1e-12)


def test_sparse_build_scale_identity_path():
    # A dense t x t Laplacian here would take 80 GB.
    n = 100_000
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    c = ProjectionMap(rows=n, cols=n, column_of=list(range(n)))
    tracemalloc.start()
    try:
        cg = build_coarse_graph(g, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cg.superedges.tolist() == [list(e) for e in g.edges]
    assert cg.weights.tolist() == [1] * (n - 1)
    assert peak < 64 * 2**20

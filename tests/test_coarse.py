import tracemalloc

import numpy as np
import pytest

from gbgc import (
    CoarsenConfig,
    GraphBlock,
    GraphValidationError,
    Partition,
    build_coarse_graph,
    coarsen,
    coarsen_many,
    erdos_renyi,
    from_edge_list,
    laplacian,
    random_partition,
)
from gbgc.coarse import block_assignment, coarse_block
from gbgc.spectral import (
    projected_laplacian,
    projected_normalized_laplacian,
    superedge_laplacian,
)

from helpers import balls, indicator_matrix, partition_of, reference_coarse_graph
from tests_support import er_suite, synthetic_graphs


def identity_partition(g):
    return Partition(np.arange(g.n), g.n)


def ball_sizes(part):
    return np.bincount(part.assignment, minlength=part.ball_count)


def test_projection_identity(k3):
    part = identity_partition(k3)
    assert part.assignment.tolist() == [0, 1, 2]
    assert ball_sizes(part).tolist() == [1, 1, 1]


def test_projection_one_ball(k3):
    part = partition_of(k3, [[0, 1, 2]])
    assert part.assignment.tolist() == [0, 0, 0]
    assert ball_sizes(part).tolist() == [3]
    ind = indicator_matrix(part)
    assert (ind.T @ ind).tolist() == [[3.0]]


def test_projection_barbell(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    assert part.assignment.tolist() == [0, 0, 0, 1, 1, 1]


def test_projection_size_mismatch(k3):
    part = partition_of(k3, [[0, 1, 2]])
    with pytest.raises(
        GraphValidationError, match="assignment length 3 does not match graph with 4 nodes"
    ):
        build_coarse_graph(from_edge_list(4, [(0, 1), (1, 2), (2, 0)]), part)


@pytest.mark.parametrize(
    "assignment, count, message",
    [
        ([0, -1, 0], 1, "node 1 mapped to invalid supernode -1"),
        ([0, 1, 2], 2, "node 2 mapped to invalid supernode 2"),
        ([0, 0, 2], 3, "supernode indices are not dense: empty supernode present"),
    ],
)
def test_partition_rejects_an_invalid_projection(k3, assignment, count, message):
    # the check of a partition read from outside, and of a caller's
    # partition where build_coarse_graph takes it; the constructor trusts the
    # engine's own output, which tests/test_engine_equivalence.py checks dense
    with pytest.raises(GraphValidationError, match=message):
        Partition.from_assignment(np.array(assignment, dtype=np.int64), count)
    hand_built = Partition(np.array(assignment, dtype=np.int64), count)
    with pytest.raises(GraphValidationError, match=message):
        build_coarse_graph(k3, hand_built)


def test_coarse_identity_is_original(k3):
    cg = build_coarse_graph(k3, identity_partition(k3))
    assert cg.superedges.tolist() == [list(e) for e in k3.edges]
    assert np.array_equal(projected_laplacian(cg), laplacian(k3))


def test_coarse_one_ball_k2(k2):
    part = partition_of(k2, [[0, 1]])
    cg = build_coarse_graph(k2, part)
    assert cg.supernode_count == 1
    assert cg.superedges.tolist() == []
    assert cg.superedges.shape == (0, 2)
    assert projected_laplacian(cg).tolist() == [[0.0]]


def test_coarse_barbell(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    assert cg.superedges.tolist() == [[0, 1]]
    assert projected_laplacian(cg).tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_coarse_laplacian_identities_random():
    for seed in range(8):
        g = erdos_renyi(50 + 17 * seed, 4.0, seed=seed)
        part = coarsen(g, CoarsenConfig())
        cg = build_coarse_graph(g, part)
        lap = projected_laplacian(cg)

        assert np.array_equal(lap, lap.T)
        assert np.all(lap.sum(axis=1) == 0.0)  # exact integer row sums

        degrees = np.diff(g.indptr).tolist()
        for a, ball in enumerate(balls(g, part)):
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

        assert cg.supernode_count < g.n or all(b.size == 1 for b in balls(g, part))
        assert len(cg.superedges) <= g.edge_count


def test_coarse_matches_dense_congruence(barbell):
    # independent dense path: indicator matrix times Laplacian
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    ind = indicator_matrix(part)
    dense = ind.T @ laplacian(barbell) @ ind
    assert np.allclose(projected_laplacian(cg), dense, atol=0)


def test_superedge_laplacian_ignores_multiplicities():
    # two edges cross between the triangles {0,1,2} and {3,4,5}
    g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (1, 4)])
    cg = build_coarse_graph(g, partition_of(g, [[0, 1, 2], [3, 4, 5]]))
    assert projected_laplacian(cg).tolist() == [[2.0, -2.0], [-2.0, 2.0]]
    assert superedge_laplacian(cg).tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def partitions_to_check(g):
    """Partitions of g from every producer: adaptive, both ablations, ratio
    mode, the random control, plus identity and one ball."""
    yield identity_partition(g)
    yield partition_of(g, [range(g.n)])
    adaptive = coarsen(g, CoarsenConfig())
    yield adaptive
    yield coarsen(g, CoarsenConfig(ablation="no_init"))
    yield coarsen(g, CoarsenConfig(ablation="no_split"))
    yield coarsen(g, CoarsenConfig(mode="ratio", ratio=0.3))
    yield random_partition(g, adaptive.ball_count, seed=g.n)


def assert_matches_reference(g, part):
    cg = build_coarse_graph(g, part)
    superedges, weights, lap = reference_coarse_graph(g, part)
    assert cg.supernode_count == part.ball_count
    assert cg.superedges.tolist() == [list(e) for e in superedges]
    assert cg.superedges.dtype == np.int64
    assert cg.superedges.shape == (len(superedges), 2)
    assert cg.weights.dtype == np.int64
    assert cg.weights.tolist() == weights
    assert np.array_equal(projected_laplacian(cg), lap)
    ind = indicator_matrix(part)
    dense = ind.T @ laplacian(g, "normalized") @ ind
    assert np.allclose(projected_normalized_laplacian(cg), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["k2", "k3", "p3", "star3", "barbell"])
def test_sparse_build_matches_reference_fixtures(name, request):
    g = request.getfixturevalue(name)
    for part in partitions_to_check(g):
        assert_matches_reference(g, part)


def test_sparse_build_matches_reference_er_suite():
    for g in er_suite():
        for part in partitions_to_check(g):
            assert_matches_reference(g, part)


def assert_block_matches_reference(graphs, parts):
    first_ball, assignment = block_assignment(parts)
    cb = coarse_block(GraphBlock.join(graphs), assignment, first_ball)
    assert cb.block.graph_count == len(graphs)
    for i, (g, part) in enumerate(zip(graphs, parts)):
        cg = cb.coarsened(i)
        superedges, weights, _ = reference_coarse_graph(g, part)
        assert cg.graph == GraphBlock.join([g])
        assert np.array_equal(cg.partition.assignment, part.assignment)
        assert cg.supernode_count == part.ball_count
        assert cg.superedges.dtype == np.int64 and cg.weights.dtype == np.int64
        assert np.array_equal(cg.superedges, np.array(superedges, dtype=np.int64).reshape(-1, 2))
        assert np.array_equal(cg.weights, np.array(weights, dtype=np.int64))


@pytest.mark.parametrize(
    "graphs",
    [er_suite(), synthetic_graphs(300), er_suite()[150:151]],
    ids=["er-suite", "synthetic", "one"],
)
def test_block_build_matches_reference(graphs):
    for cfg in (
        CoarsenConfig(),
        CoarsenConfig(ablation="no_init"),
        CoarsenConfig(ablation="no_split"),
        CoarsenConfig(mode="ratio", ratio=0.3),
    ):
        assert_block_matches_reference(graphs, coarsen_many(graphs, cfg))
    # every producer in one block, one-ball partitions (no superedge) among them
    mixed = [list(partitions_to_check(g))[i % 7] for i, g in enumerate(graphs[:60])]
    assert_block_matches_reference(graphs[:60], mixed)


def test_normalized_projection_isolated_nodes():
    g = from_edge_list(6, [(0, 1), (1, 2), (4, 5)])  # node 3 is isolated
    part = partition_of(g, [[0, 3], [1, 2], [4, 5]])
    ind = indicator_matrix(part)
    dense = ind.T @ laplacian(g, "normalized") @ ind
    cg = build_coarse_graph(g, part)
    assert np.allclose(projected_normalized_laplacian(cg), dense, rtol=0, atol=1e-12)


def test_sparse_build_scale_identity_path():
    # A dense t x t Laplacian here would take 80 GB.
    n = 100_000
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    part = Partition(np.arange(n), n)
    tracemalloc.start()
    try:
        cg = build_coarse_graph(g, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cg.superedges.tolist() == [list(e) for e in g.edges]
    assert cg.weights.tolist() == [1] * (n - 1)
    assert peak < 64 * 2**20

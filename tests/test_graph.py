import pickle
import random
import tracemalloc

import numpy as np
import pytest

from gbgc import (
    CoarsenConfig,
    Graph,
    GraphValidationError,
    coarsen,
    default_init_target,
    erdos_renyi,
    from_edge_list,
    init_balls,
)
from gbgc.graph import MAX_NODES, GraphBlock, csr_from_keys, edge_keys

from helpers import (
    adjacency,
    adjacency_matrix,
    all_pairs,
    bfs_layers,
    brute_ordered_counts,
    connected_components,
    count_ordered_triangles_and_wedges,
    enumerate_graphs,
    graph_from_mask,
    induced_subgraph,
)


def degrees(g):
    return np.diff(g.indptr).tolist()


def test_from_edge_list_triangle(k3):
    assert k3.n == 3
    assert degrees(k3) == [2, 2, 2]
    assert k3.edges == ((0, 1), (0, 2), (1, 2))


def test_from_edge_list_sanitizes():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 0)])
    assert g.edges == ((0, 1),)
    assert degrees(g) == [1, 1]


def test_from_edge_list_out_of_range():
    with pytest.raises(GraphValidationError, match=r"\(0, 5\)"):
        from_edge_list(3, [(0, 5)])


def test_from_edge_list_idempotent(barbell):
    assert from_edge_list(barbell.n, barbell.edges) == barbell


def test_induced_subgraph(k3, p3):
    sub, mapping = induced_subgraph(k3, {0, 1})
    assert sub.n == 2 and sub.edges == ((0, 1),)
    assert mapping == [0, 1]

    sub, mapping = induced_subgraph(p3, {0, 2})
    assert sub.n == 2 and sub.edge_count == 0
    assert mapping == [0, 2]


def test_induced_subgraph_identity(barbell):
    sub, mapping = induced_subgraph(barbell, range(barbell.n))
    assert mapping == list(range(barbell.n))
    assert sub == barbell
    assert degrees(sub) == degrees(barbell)


def test_induced_subgraph_empty(k3):
    sub, mapping = induced_subgraph(k3, set())
    assert sub.n == 0 and mapping == []


def test_bfs_layers_path():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    layering = bfs_layers(g, 0)
    assert layering.layers == [[0], [1], [2], [3]]
    assert layering.visited == {0, 1, 2, 3}


def test_bfs_layers_triangle(k3):
    assert bfs_layers(k3, 1).layers == [[1], [0, 2]]


def test_bfs_layers_restricted(p3):
    layering = bfs_layers(p3, 0, allowed={0, 2})
    assert layering.layers == [[0]]
    assert layering.visited == {0}


def test_bfs_layers_source_not_allowed(p3):
    with pytest.raises(GraphValidationError):
        bfs_layers(p3, 1, allowed={0, 2})


def test_bfs_visits_reachable_once():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = from_edge_list(n, edges)
        layering = bfs_layers(g, 0)
        flat = [v for layer in layering.layers for v in layer]
        assert len(flat) == len(set(flat))
        assert set(flat) == layering.visited


def test_triangle_wedge_fixtures(k3, p3, barbell):
    assert count_ordered_triangles_and_wedges(k3) == (6, 6)
    assert count_ordered_triangles_and_wedges(p3) == (0, 2)
    assert count_ordered_triangles_and_wedges(barbell) == (12, 20)


def test_triangle_wedge_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert count_ordered_triangles_and_wedges(g) == brute_ordered_counts(
                adjacency_matrix(g)
            )


def test_triangle_wedge_sampled_n6():
    pairs = all_pairs(6)
    rng = random.Random(99)
    for _ in range(300):
        g = graph_from_mask(6, pairs, rng.getrandbits(len(pairs)))
        assert count_ordered_triangles_and_wedges(g) == brute_ordered_counts(
            adjacency_matrix(g)
        )


def test_connected_components(k3):
    assert connected_components(k3) == [{0, 1, 2}]
    isolated = from_edge_list(2, [])
    assert connected_components(isolated) == [{0}, {1}]
    k3_plus_k2 = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert sorted(len(c) for c in connected_components(k3_plus_k2)) == [2, 3]


def test_csr_arrays(barbell):
    assert barbell.indptr.tolist() == [0, 2, 4, 7, 10, 12, 14]
    assert barbell.indices.tolist() == [1, 2, 0, 2, 0, 1, 3, 2, 4, 5, 3, 5, 3, 4]
    assert barbell.indptr.dtype == barbell.indices.dtype == np.int64
    with pytest.raises(ValueError):
        barbell.indices[0] = 5  # read-only


def test_adj_and_edges_derive_from_csr():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 15)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 40))]
        g = from_edge_list(n, pairs)
        expected = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        assert list(g.edges) == expected
        assert g.edge_count == len(expected)
        for v in range(n):
            near = tuple(sorted({b for a, b in expected if a == v} | {a for a, b in expected if b == v}))
            assert adjacency(g)[v] == near
            assert degrees(g)[v] == len(near)
        assert from_edge_list(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)) == g


def test_pickle_carries_only_n_and_csr():
    g = erdos_renyi(200, 4.0, seed=1)
    fresh = pickle.dumps(Graph(g.n, g.indptr, g.indices))
    coarsen(g, CoarsenConfig())
    assert Graph.__slots__ == ("n", "indptr", "indices")
    assert pickle.dumps(g) == fresh
    restored = pickle.loads(fresh)
    assert restored == g and adjacency(restored) == adjacency(g)


def test_graphs_are_unhashable(k3):
    with pytest.raises(TypeError):
        hash(k3)


def test_from_edge_list_node_count_bound():
    with pytest.raises(GraphValidationError, match="exceeds"):
        from_edge_list(MAX_NODES + 1, [])
    with pytest.raises(GraphValidationError, match=r"\(0, 10000000000000000000000\)"):
        from_edge_list(3, [(0, 10**22)])


def test_graph_views_undo_the_union():
    graphs = [erdos_renyi(n, 3.0, seed=n) for n in (1, 7, 30, 2, 12)]
    block = GraphBlock.join(graphs)
    assert block.bounds.tolist() == [0, 1, 8, 38, 40, 52]
    assert block.n == 52 and block.edge_count == sum(g.edge_count for g in graphs)
    views = block.graphs()
    assert views == graphs
    assert len({id(g.indices.base) for g in views}) == 1
    assert len({id(g.indptr.base) for g in views}) == 1
    assert block.graphs() == graphs  # the block's own arrays are left as they were


def test_a_lone_graph_is_a_block_of_its_own_arrays():
    g = erdos_renyi(30, 3.0, seed=4)
    block = GraphBlock.join([g])
    assert block.indptr is g.indptr and block.indices is g.indices
    assert block.bounds.tolist() == [0, 30] and block == GraphBlock.join([g])
    (view,) = block.graphs()
    assert view == g and view.indices is g.indices


def test_block_slices_are_the_blocks_of_their_graphs():
    rng = random.Random(7)
    graphs = [erdos_renyi(rng.randint(1, 25), rng.uniform(0, 5), seed=i) for i in range(30)]
    block = GraphBlock.join(graphs)
    for _ in range(40):
        a = rng.randrange(len(graphs))
        b = rng.randrange(a + 1, len(graphs) + 1)
        part = block.slice(a, b)
        assert part == GraphBlock.join(graphs[a:b])
        assert part.graphs() == graphs[a:b]
    head = block.slice(0, 3)
    assert np.shares_memory(head.indices, block.indices)  # a slice from graph 0 is views alone


def test_a_block_pickles_as_its_three_arrays_narrowed():
    graphs = [erdos_renyi(n, 3.0, seed=n) for n in (5, 40, 9)]
    block = GraphBlock.join(graphs)
    sent = pickle.dumps(block)
    assert len(sent) < sum(len(pickle.dumps(g)) for g in graphs)
    restored = pickle.loads(sent)
    assert type(restored) is GraphBlock and restored == block
    assert restored.indices.dtype == np.int64 and not restored.indices.flags.writeable


@pytest.fixture(scope="module")
def er_200k():
    return erdos_renyi(200_000, 4.0, seed=3)


def traced(work):
    """work()'s result and the traced heap's peak while it runs: what it
    allocates, not what was alive before."""
    tracemalloc.start()
    try:
        return work(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_keys_are_int64_whatever_the_ends_dtype():
    # NumPy keeps int32 arithmetic in int32, where these keys would wrap
    u = np.array([70_000, 99_999, 5], dtype=np.int32)
    v = np.array([99_999, 70_000, 5], dtype=np.int32)
    keys = edge_keys(100_000, u, v)
    assert keys.dtype == np.int64
    assert keys.tolist() == [70_000 * 100_000 + 99_999] * 2
    assert keys.tolist() == edge_keys(100_000, u.astype(np.int64), v.astype(np.int64)).tolist()


def test_csr_from_keys_lays_out_both_orientations_in_the_keys_only_when_they_fit():
    # each edge listed both ways: the output is the sorted keys' own buffer
    keys = edge_keys(4, np.array([0, 1, 1, 2, 2, 3]), np.array([1, 0, 2, 1, 3, 2]))
    indptr, indices = csr_from_keys(4, keys)
    assert np.shares_memory(indices, keys)
    assert indptr.tolist() == [0, 1, 3, 5, 6] and indices.tolist() == [1, 0, 2, 1, 3, 2]
    # each edge once: no room, so a new array
    keys = edge_keys(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    indptr2, indices2 = csr_from_keys(4, keys)
    assert not np.shares_memory(indices2, keys)
    assert np.array_equal(indptr2, indptr) and np.array_equal(indices2, indices)


def test_csr_from_keys_peak_memory_is_under_twice_its_output(er_200k):
    # each edge twice, as an A file lists it; the ends go straight into the
    # output's two halves, so besides it only the unique keys are alive
    g = er_200k
    u, v = g.edge_arrays()
    keys = np.concatenate([edge_keys(g.n, u, v), edge_keys(g.n, v, u)])
    np.random.default_rng(0).shuffle(keys)
    (indptr, indices), peak = traced(lambda: csr_from_keys(g.n, keys))
    assert np.array_equal(indptr, g.indptr) and np.array_equal(indices, g.indices)
    assert peak <= 2 * (indptr.nbytes + indices.nbytes)


def test_initial_growth_peak_memory_is_under_twice_the_csr(er_200k):
    # the growth reads the CSR through memoryviews and writes each label
    # into the output array: no Python list per node or edge
    g = er_200k
    _, peak = traced(lambda: init_balls(g, default_init_target(g.n)))
    assert peak <= 2 * (g.indptr.nbytes + g.indices.nbytes)


@pytest.mark.parametrize(
    "cfg", [CoarsenConfig(), CoarsenConfig(mode="ratio", ratio=0.3)], ids=["adaptive", "ratio"]
)
def test_coarsen_peak_memory_is_under_five_times_the_csr(er_200k, cfg):
    g = er_200k
    _, peak = traced(lambda: coarsen(g, cfg))
    assert peak <= 5 * (g.indptr.nbytes + g.indices.nbytes)

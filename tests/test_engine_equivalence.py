"""The round-based engine against the reference engine in helpers.py.

Every final ball (members, quality compared with ==, internal edge count),
the assignment and the full list of split decisions, in preorder, must be
identical.
"""

import pytest

from gbgc import CoarsenConfig, coarsen, coarsen_many, erdos_renyi, from_edge_list

from helpers import (
    make_ball,
    reference_coarsen,
    reference_make_ball,
    reference_split_ball,
    split_ball,
)
from tests_support import er_suite, synthetic_graphs

CONFIGS = {
    "adaptive": CoarsenConfig(),
    "no_init": CoarsenConfig(ablation="no_init"),
    "no_split": CoarsenConfig(ablation="no_split"),
    "ratio_0.1": CoarsenConfig(mode="ratio", ratio=0.1),
    "ratio_0.3": CoarsenConfig(mode="ratio", ratio=0.3),
    "ratio_0.6": CoarsenConfig(mode="ratio", ratio=0.6),
}


def assert_same_as_reference(g, cfg):
    decisions, expected_decisions = [], []
    part = coarsen(g, cfg, decisions=decisions)
    expected = reference_coarsen(g, cfg, expected_decisions)
    assert [b.members for b in part.balls] == [b.members for b in expected.balls]
    assert [b.quality for b in part.balls] == [b.quality for b in expected.balls]
    assert [b.internal_edge_count for b in part.balls] == [
        b.internal_edge_count for b in expected.balls
    ]
    assert part.assignment.tolist() == expected.assignment.tolist()
    assert decisions == expected_decisions


@pytest.fixture(scope="module")
def suite_200():
    return er_suite()


@pytest.fixture(scope="module")
def synthetic_1000():
    return synthetic_graphs(1000)


@pytest.fixture(scope="module")
def er_10k():
    return erdos_renyi(10_000, 4.0, seed=10_000)


@pytest.mark.parametrize("config", CONFIGS)
def test_er_suite_matches_reference(suite_200, config):
    for g in suite_200:
        assert_same_as_reference(g, CONFIGS[config])


@pytest.mark.parametrize("config", CONFIGS)
def test_synthetic_set_matches_reference(synthetic_1000, config):
    for g in synthetic_1000:
        assert_same_as_reference(g, CONFIGS[config])


@pytest.mark.parametrize("config", CONFIGS)
def test_er_10k_matches_reference(er_10k, config):
    assert_same_as_reference(er_10k, CONFIGS[config])


def test_split_ball_matches_reference(suite_200):
    # the whole graph as one ball: disconnected, with isolated nodes and triangles
    for g in suite_200[:60]:
        ball = make_ball(g, range(g.n))
        assert ball == reference_make_ball(g, range(g.n))
        assert split_ball(g, ball) == reference_split_ball(g, ball)


def test_triangles_follow_the_children():
    # K4 plus a pendant path: the split cuts some triangles and keeps others
    g = from_edge_list(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    for cfg in CONFIGS.values():
        assert_same_as_reference(g, cfg)
    ball = make_ball(g, range(7))
    assert split_ball(g, ball) == reference_split_ball(g, ball)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def grid(k):
    right = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    down = [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return from_edge_list(k * k, right + down)


def star(leaves):
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def tree(n, seed):
    """Node i > 0 hangs off a pseudo-random earlier node."""
    return from_edge_list(n, [(i, (i * 7919 + seed) % i) for i in range(1, n)])


def ring_of_cliques(cliques, size):
    edges = []
    for c in range(cliques):
        base = c * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base + size - 1, (base + size) % (cliques * size)))
    return from_edge_list(cliques * size, edges)


def scattered(n, components):
    """`components` paths with triangles, spread over n nodes with every
    fourth node isolated: no_init starts from one disconnected ball."""
    used = [v for v in range(n) if v % 4]
    edges = []
    for c in range(components):
        part = used[c :: components]
        edges += list(zip(part, part[1:]))
        edges += [(a, b) for a, b in zip(part, part[2:]) if a % 3 == 0]
    return from_edge_list(n, edges)


FAMILIES = {
    "paths": [path(n) for n in (1, 2, 3, 4, 5, 8, 13, 40, 201)],
    "cycles": [cycle(n) for n in (3, 4, 5, 9, 16, 61)],
    "grids": [grid(k) for k in (2, 3, 4, 7, 12, 20)],
    "stars": [star(k) for k in (1, 2, 3, 10, 50)],
    "trees": [tree(n, seed) for n, seed in ((10, 1), (50, 2), (200, 3), (400, 4))],
    "rings_of_cliques": [ring_of_cliques(c, s) for c, s in ((3, 3), (4, 5), (10, 4), (6, 8))],
    "scattered": [scattered(n, c) for n, c in ((12, 1), (30, 2), (80, 3), (150, 5))],
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("family", FAMILIES)
def test_structured_families_match_reference(family, config):
    for g in FAMILIES[family]:
        assert_same_as_reference(g, CONFIGS[config])


@pytest.mark.parametrize("config", CONFIGS)
def test_block_gives_each_graph_its_own_partition(synthetic_1000, config):
    cfg = CONFIGS[config]
    graphs = [
        from_edge_list(1, []),
        from_edge_list(2, [(0, 1)]),
        *synthetic_1000[:40],
        from_edge_list(2, []),
        *FAMILIES["scattered"],
        path(40),
        from_edge_list(1, []),
    ]
    block_decisions, alone_decisions = [], []
    parts = coarsen_many(graphs, cfg, decisions=block_decisions)
    assert len(parts) == len(graphs)
    for g, part in zip(graphs, parts):
        alone = coarsen(g, cfg, decisions=alone_decisions)
        assert part.ball_count == alone.ball_count
        assert part.assignment.tolist() == alone.assignment.tolist()
        assert part.qualities.tolist() == alone.qualities.tolist()
        assert part.edge_counts.tolist() == alone.edge_counts.tolist()
    assert block_decisions == alone_decisions


def test_early_stop_keeps_path_bfs_short():
    # Every split of a path peels two nodes off one long ball. The first
    # centre's frontier dies after one level, and the ball is connected, so
    # the BFS stops there instead of walking the whole ball.
    stats = {}
    part = coarsen(path(2000), CoarsenConfig(), stats=stats)
    assert part.ball_count == 1000
    assert stats["rounds"] >= 999
    assert stats["bfs_levels"] <= 3 * stats["rounds"]

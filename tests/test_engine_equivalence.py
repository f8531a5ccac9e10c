"""The round-based engine against the reference engine in helpers.py.

Every final ball (members, quality compared with ==, internal edge count),
the assignment and the full list of split decisions, in preorder, must be
identical. The engine's partition holds only its assignment, so its balls
are scored from that by `helpers.balls`; the qualities the engine itself
computed are compared through the split decisions.
"""

import pytest

import numpy as np

from gbgc import (
    CoarsenConfig,
    GraphBlock,
    Partition,
    coarsen,
    coarsen_many,
    default_init_target,
    erdos_renyi,
    from_edge_list,
)
from gbgc.engine import _init_labels, coarsen_block

from helpers import (
    balls,
    make_ball,
    partition_of,
    reference_coarsen,
    reference_init_balls,
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


def assert_dense(part, n):
    """The engine's partition is a dense cover of n nodes: the check that
    `Partition.from_assignment` makes on a partition read from outside,
    which the engine's own output is not put through."""
    assert len(part.assignment) == n
    Partition.from_assignment(part.assignment, part.ball_count)


def assert_dense_block(block, ball, first_ball):
    """coarsen_block's output is a dense cover of the block, graph by graph:
    graph i's nodes fill balls first_ball[i] .. first_ball[i + 1] - 1."""
    assert len(ball) == block.n and first_ball[0] == 0
    assert (np.diff(first_ball) >= 1).all() and (np.diff(first_ball) <= np.diff(block.bounds)).all()
    own_first = np.repeat(first_ball[:-1], np.diff(block.bounds))
    own_last = np.repeat(first_ball[1:], np.diff(block.bounds))
    assert ((ball >= own_first) & (ball < own_last)).all()
    assert np.bincount(ball, minlength=first_ball[-1]).all()


def assert_same_as_reference(g, cfg):
    decisions, expected_decisions = [], []
    part = coarsen(g, cfg, decisions=decisions)
    assert_dense(part, g.n)
    expected = reference_coarsen(g, cfg, expected_decisions)
    got = balls(g, part)
    assert [b.members for b in got] == [b.members for b in expected]
    assert [b.quality for b in got] == [b.quality for b in expected]
    assert [b.internal_edge_count for b in got] == [b.internal_edge_count for b in expected]
    expected_part = partition_of(g, [b.members for b in expected])
    assert part.assignment.tolist() == expected_part.assignment.tolist()
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


@pytest.mark.parametrize("config", CONFIGS)
def test_block_output_is_a_dense_cover(suite_200, synthetic_1000, config):
    isolated = from_edge_list(9, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)])
    for graphs in (suite_200, synthetic_1000[:300], [isolated, *suite_200[:20]], [isolated]):
        block = GraphBlock.join(graphs)
        ball, first_ball = coarsen_block(block, CONFIGS[config])
        assert_dense_block(block, ball, first_ball)
        parts = coarsen_many(graphs, CONFIGS[config])
        for i, (g, part) in enumerate(zip(graphs, parts)):
            lo, hi = block.bounds[i : i + 2]
            assert_dense(part, g.n)
            assert part.assignment.tolist() == (ball[lo:hi] - first_ball[i]).tolist()


def test_block_growth_matches_each_graph_alone(synthetic_1000):
    # one growth over the whole block: graph i's balls are the reference's
    # balls of graph i alone, numbered on from the balls of graphs 0..i-1
    block = GraphBlock.join(synthetic_1000)
    targets = [default_init_target(g.n) for g in synthetic_1000]
    stats = {}
    labels, first_label = _init_labels(block, block.bounds.tolist(), targets, stats)
    expected = np.empty(block.n, dtype=np.int64)
    expected_first = [0]
    for g, lo, target in zip(synthetic_1000, block.bounds.tolist(), targets):
        start = reference_init_balls(g, target)
        for k, members in enumerate(start):
            expected[lo + np.array(members)] = expected_first[-1] + k
        expected_first.append(expected_first[-1] + len(start))
    assert labels.dtype == np.int64 and labels.tolist() == expected.tolist()
    assert list(first_label) == expected_first
    assert stats["nodes_visited"] == block.n
    assert stats["edge_traversals"] <= 2 * block.edge_count
    assert stats["init_balls"] == expected_first[-1]


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

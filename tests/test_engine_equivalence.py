"""The carry-forward engine against the reference engine in helpers.py.

Every final ball (members, quality compared with ==, internal edge count),
the assignment and the full list of split decisions must be identical.
"""

import pytest

from gbgc import CoarsenConfig, coarsen, erdos_renyi, from_edge_list, make_ball, split_ball

from helpers import reference_coarsen, reference_make_ball, reference_split_ball
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
    assert part.assignment == expected.assignment
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


import pytest

from gbgc import (
    CoarsenConfig,
    GraphValidationError,
    coarsen,
    default_init_target,
    erdos_renyi,
    from_edge_list,
    init_balls,
)

from helpers import ball_quality, balls, bfs_layers, make_ball, split_ball


def ratio_config(r):
    return CoarsenConfig(mode="ratio", ratio=r)


def assert_valid_partition(g, part):
    n = g.n
    seen = set()
    for ball in balls(g, part):
        assert ball.members
        assert not (seen & set(ball.members))
        seen.update(ball.members)
    assert seen == set(range(n))
    assert len(part.assignment) == n
    for idx, ball in enumerate(balls(g, part)):
        for v in ball.members:
            assert part.assignment[v] == idx


def test_quality_fixtures(k3, p3, star3, barbell):
    assert ball_quality(k3, range(3)) == pytest.approx(2.0, abs=1e-12)
    assert ball_quality(p3, range(3)) == pytest.approx(2 / 3, abs=1e-12)
    assert ball_quality(star3, range(4)) == pytest.approx(0.75, abs=1e-12)
    assert ball_quality(barbell, range(6)) == pytest.approx(7 / 6 + 3 / 5, abs=1e-12)
    assert ball_quality(barbell, [0]) == 0.0


def test_quality_empty_members(k3):
    with pytest.raises(GraphValidationError):
        ball_quality(k3, [])


def test_default_init_target():
    assert default_init_target(1) == 1
    assert default_init_target(4) == 2
    assert default_init_target(5) == 3
    assert default_init_target(6) == 3
    assert default_init_target(100) == 10


def test_init_balls_k3(k3):
    part = init_balls(k3, 1)
    assert [b.members for b in balls(k3, part)] == [(0, 1, 2)]


def test_init_balls_path5():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    part = init_balls(g, 2)
    assert [b.members for b in balls(g, part)] == [(0, 1, 2, 3, 4)]


def test_init_balls_star5():
    g = from_edge_list(6, [(0, i) for i in range(1, 6)])
    part = init_balls(g, 2)
    assert part.ball_count == 1


def test_init_balls_empty():
    with pytest.raises(GraphValidationError):
        init_balls(from_edge_list(0, []), 1)


def test_init_balls_barbell_default(barbell):
    part = init_balls(barbell, default_init_target(6))
    assert part.ball_count == 1


def test_init_balls_cover_connected_and_work():
    for seed in range(12):
        n = 20 + 13 * seed
        g = erdos_renyi(n, 3.0, seed=seed)
        stats = {}
        part = init_balls(g, default_init_target(n), stats=stats)
        assert_valid_partition(g, part)
        assert stats["nodes_visited"] == n
        assert stats["edge_traversals"] <= 2 * g.edge_count
        for ball in balls(g, part):
            allowed = set(ball.members)
            layering = bfs_layers(g, ball.members[0], allowed=allowed)
            assert layering.visited == allowed  # ball induces a connected subgraph


def test_split_barbell(barbell):
    child_a, child_b = split_ball(barbell, make_ball(barbell, range(6)))
    assert child_a.members == (0, 1, 2)
    assert child_b.members == (3, 4, 5)
    assert child_a.quality == pytest.approx(2.0)
    assert child_b.quality == pytest.approx(2.0)


def test_split_k3_tie(k3):
    child_a, child_b = split_ball(k3, make_ball(k3, range(3)))
    assert child_a.members == (0, 2)
    assert child_b.members == (1,)
    assert child_a.quality == pytest.approx(0.5)
    assert child_b.quality == 0.0


def test_split_k2(k2):
    child_a, child_b = split_ball(k2, make_ball(k2, range(2)))
    assert child_a.members == (0,)
    assert child_b.members == (1,)
    assert child_a.quality == child_b.quality == 0.0


def test_split_singleton_error(k3):
    with pytest.raises(GraphValidationError):
        split_ball(k3, make_ball(k3, [1]))


def test_split_disconnected_ball_goes_to_a():
    # no-init ablation on a disconnected graph produces disconnected balls;
    # nodes out of reach of both centers ride with the first child
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    child_a, child_b = split_ball(g, make_ball(g, range(5)))
    assert set(child_a.members) | set(child_b.members) == set(range(5))
    assert {3, 4} <= set(child_a.members)


def test_adaptive_no_init_barbell(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    assert [b.members for b in balls(barbell, part)] == [(0, 1, 2), (3, 4, 5)]
    assert part.assignment.tolist() == [0, 0, 0, 1, 1, 1]


def test_adaptive_no_init_k3(k3):
    part = coarsen(k3, CoarsenConfig(ablation="no_init"))
    assert part.ball_count == 1


def test_adaptive_no_split_equals_init(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_split"))
    init = init_balls(barbell, default_init_target(6))
    assert [b.members for b in balls(barbell, part)] == [b.members for b in balls(barbell, init)]


def test_adaptive_empty_graph():
    with pytest.raises(GraphValidationError):
        coarsen(from_edge_list(0, []), CoarsenConfig())


def test_adaptive_decisions_sound():
    for seed in range(10):
        g = erdos_renyi(40 + 11 * seed, 4.0, seed=100 + seed)
        decisions = []
        part = coarsen(g, CoarsenConfig(), decisions=decisions)
        assert_valid_partition(g, part)
        for d in decisions:
            gain = d.child_a_quality + d.child_b_quality - d.parent_quality
            assert (gain > 0) == d.accepted
        # every final multi-node ball must fail the gate for its own split
        for ball in balls(g, part):
            if ball.size >= 2:
                child_a, child_b = split_ball(g, ball)
                assert child_a.quality + child_b.quality <= ball.quality


def test_adaptive_deterministic():
    g = erdos_renyi(120, 5.0, seed=2024)
    first = coarsen(g, CoarsenConfig())
    second = coarsen(g, CoarsenConfig())
    assert first.assignment.tolist() == second.assignment.tolist()
    assert [b.members for b in balls(g, first)] == [b.members for b in balls(g, second)]


def test_ratio_barbell(barbell):
    part = coarsen(barbell, ratio_config(2 / 6))
    assert [b.members for b in balls(barbell, part)] == [(0, 1, 2), (3, 4, 5)]


def test_ratio_k2(k2):
    part = coarsen(k2, ratio_config(0.5))
    assert [b.members for b in balls(k2, part)] == [(0, 1)]


def test_ratio_validation(barbell):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(GraphValidationError):
            coarsen(barbell, ratio_config(bad))
    with pytest.raises(GraphValidationError):
        CoarsenConfig(mode="ratio", ratio=None)


def test_ratio_reaches_target_and_monotone():
    import math

    for seed in (3, 4, 5):
        g = erdos_renyi(60, 4.0, seed=seed)
        t0 = init_balls(g, default_init_target(g.n)).ball_count
        previous = 0
        for r in [i / 10 for i in range(1, 10)]:
            part = coarsen(g, ratio_config(r))
            assert_valid_partition(g, part)
            k = max(1, math.ceil(r * g.n))
            assert part.ball_count == max(k, t0)
            assert part.ball_count >= previous
            previous = part.ball_count

"""Property test: the round-based engine equals the reference engine on
small random graphs, isolated nodes and several components included."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gbgc import from_edge_list

from helpers import make_ball, reference_split_ball, split_ball
from test_engine_equivalence import CONFIGS, assert_same_as_reference


@st.composite
def small_graphs(draw):
    """n <= 40; edges only inside `blocks` contiguous node ranges, so graphs
    with blocks > 1 are disconnected, and sparse draws leave isolated nodes."""
    n = draw(st.integers(1, 40))
    blocks = draw(st.integers(1, 3))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    same_block = [(u, v) for u, v in pairs if u * blocks // n == v * blocks // n]
    return from_edge_list(n, same_block)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_engine_matches_reference_on_small_graphs(g):
    for cfg in CONFIGS.values():
        assert_same_as_reference(g, cfg)
    if g.n >= 2:
        ball = make_ball(g, range(g.n))
        assert split_ball(g, ball) == reference_split_ball(g, ball)

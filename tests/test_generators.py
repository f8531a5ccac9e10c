"""The array generator against the per-edge loop it replaced: the same graph
for every (n, mean_degree, seed)."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from gbgc import erdos_renyi
from gbgc.cli import BENCH_MEAN_DEGREE, BENCH_SIZES
from gbgc.generators import _pair_ends
from gbgc.graph import MAX_NODES
from helpers import reference_erdos_renyi

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_workload_graphs_match_the_loop(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return erdos_renyi(*args, **kwargs)

    monkeypatch.setattr(workloads, "erdos_renyi", recorded)
    size = workloads.SIZES["full"]
    for name, setup in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        setup(tmp_path / name, tmp_path / name, 0, size, lambda argv, log: 1)
    assert len(calls) == size["er_graphs"] + size["tu_graphs"] + 1
    for args, kwargs in calls:
        assert erdos_renyi(*args, **kwargs) == reference_erdos_renyi(*args, **kwargs)


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_bench_graphs_match_the_loop(n):
    g = erdos_renyi(n, BENCH_MEAN_DEGREE, seed=n)
    assert g == reference_erdos_renyi(n, BENCH_MEAN_DEGREE, seed=n)
    assert g.edge_count > 0


def test_random_triples_match_the_loop():
    rng = random.Random(2026)
    for _ in range(2_000):
        n = rng.choice([1, 2, 3, rng.randint(1, 60), rng.randint(1, 2_000)])
        # dense graphs on few nodes only: both build a complete graph pair by pair
        dense = [math.inf, float(n - 1), rng.uniform(0, n + 2)] if n <= 60 else []
        mean_degree = rng.choice([
            0.0, -rng.uniform(0, 5), math.nan, rng.uniform(0, 8), 10.0 ** -rng.randint(5, 300),
            *dense,
        ])
        seed = rng.randrange(2**32)
        expected = reference_erdos_renyi(n, mean_degree, seed)
        assert erdos_renyi(n, mean_degree, seed) == expected, (n, mean_degree, seed)


@pytest.mark.parametrize("n, mean_degree", [
    (10**6, 1e-6),  # one expected edge among 5e11 pairs
    (2 * 10**6, 1e-9),
    (1_000, 1e-17),  # the first skip is past 2**63 pairs
    (50, 1e-300),
])
def test_huge_n_or_tiny_p_match_the_loop(n, mean_degree):
    for seed in range(3):
        assert erdos_renyi(n, mean_degree, seed) == reference_erdos_renyi(n, mean_degree, seed)


@pytest.mark.parametrize("n, mean_degree", [
    (1, 4.0),  # a single node
    (1, math.nan),
    (30, 0.0),  # p = 0
    (30, -2.0),  # p < 0
    (30, math.nan),  # NaN mean degree gives p = 0
    (10**6, 1e-12),  # every skip is past the last pair
])
def test_empty_graphs(n, mean_degree):
    g = erdos_renyi(n, mean_degree, seed=5)
    assert (g.n, g.edge_count) == (n, 0)
    assert g == reference_erdos_renyi(n, mean_degree, seed=5)


@pytest.mark.parametrize("n, mean_degree", [
    (2, 1.0),  # p = 1 exactly
    (12, 11.0),
    (12, 30.0),  # p > 1 is cut to 1
    (12, math.inf),
])
def test_complete_graphs(n, mean_degree):
    g = erdos_renyi(n, mean_degree, seed=5)
    assert g.edge_count == n * (n - 1) // 2
    assert g == reference_erdos_renyi(n, mean_degree, seed=5)


def test_a_subnormal_p_gives_the_empty_graph():
    # the loop's first skip is log(1 - r) / log(1 - p) = inf, which its int()
    # cannot hold; the cut skip simply ends the sequence
    with pytest.raises(OverflowError):
        reference_erdos_renyi(2, 1e-320, seed=0)
    assert erdos_renyi(2, 1e-320, seed=0).edge_count == 0


def test_pair_ends_at_row_boundaries():
    rows = [1, 2, 3, 1_000, 2**26, 2**27 + 5, 94_906_266, 2**31 - 3, MAX_NODES - 1]
    idx = sorted({max(0, u * (u - 1) // 2 + d) for u in rows for d in (-2, -1, 0, 1, u - 1)})
    v, u = _pair_ends(np.array(idx, dtype=np.int64))
    expected = []
    for i in idx:
        row = (1 + math.isqrt(1 + 8 * i)) // 2
        expected.append((i - row * (row - 1) // 2, row))
    assert list(zip(v.tolist(), u.tolist())) == expected
    # the float root alone misses some of these rows
    root = ((np.sqrt(8.0 * np.array(idx) + 1.0) + 1.0) * 0.5).astype(np.int64)
    assert (root != u).any()

"""Deterministic synthetic inputs: Erdős–Rényi graphs and shuffled partitions."""

from __future__ import annotations

import math
import random

import numpy as np

from .engine import Partition
from .errors import GraphValidationError
from .graph import Graph, from_edge_list


def erdos_renyi(n: int, mean_degree: float, seed: int) -> Graph:
    """G(n, p) with p chosen so the expected degree is `mean_degree`.

    Uses geometric skipping over the ordered pair sequence, so generation is
    O(edges) and reproducible for a given seed.
    """
    if n < 1:
        raise GraphValidationError("n must be >= 1")
    if n == 1:
        return from_edge_list(1, [])
    p = min(1.0, max(0.0, mean_degree / (n - 1)))
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if p >= 1.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return from_edge_list(n, edges)
    if p > 0.0:
        log_q = math.log1p(-p)
        total = n * (n - 1) // 2
        idx = -1
        while True:
            # skip ~Geometric(p) pairs to the next present edge
            r = rng.random()
            idx += 1 + int(math.log(1.0 - r) / log_q)
            if idx >= total:
                break
            u = int((1 + math.isqrt(1 + 8 * idx)) // 2)
            # fix up float/rounding drift at row boundaries
            while u * (u - 1) // 2 > idx:
                u -= 1
            while (u + 1) * u // 2 <= idx:
                u += 1
            v = idx - u * (u - 1) // 2
            edges.append((v, u))
    return from_edge_list(n, edges)


def random_partition(g: Graph, ball_count: int, seed: int) -> Partition:
    """Control partition: nodes shuffled deterministically, chopped into
    `ball_count` near-equal contiguous chunks."""
    if not (1 <= ball_count <= g.n):
        raise GraphValidationError(f"ball_count must be in [1, {g.n}]")
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    base, extra = divmod(g.n, ball_count)
    sizes = [base + 1] * extra + [base] * (ball_count - extra)
    assignment = np.empty(g.n, dtype=np.int64)
    assignment[order] = np.repeat(np.arange(ball_count, dtype=np.int64), sizes)
    return Partition(assignment, ball_count)

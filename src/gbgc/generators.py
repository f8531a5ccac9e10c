"""Deterministic synthetic inputs: Erdős–Rényi graphs and shuffled partitions."""

from __future__ import annotations

import math
import random

import numpy as np

from .engine import Partition
from .errors import GraphValidationError
from .graph import MAX_NODES, Graph, csr_from_keys, from_edge_list


# most skips drawn at once: a chunk's Python floats stay a few MB
_DRAWS = 1 << 16


def erdos_renyi(n: int, mean_degree: float, seed: int) -> Graph:
    """G(n, p) with p chosen so the expected degree is `mean_degree`.

    Uses geometric skipping over the ordered pair sequence (Batagelj &
    Brandes, Phys. Rev. E 71, 036113, 2005), so generation takes O(edges)
    time and memory and is reproducible for a given seed.
    """
    if n < 1:
        raise GraphValidationError("n must be >= 1")
    if n == 1:
        return from_edge_list(1, [])
    p = min(1.0, max(0.0, mean_degree / (n - 1)))
    if p >= 1.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return from_edge_list(n, edges)
    if p <= 0.0 or n > MAX_NODES:  # from_edge_list rejects an n over MAX_NODES
        return from_edge_list(n, [])
    idx = _present_pairs(p, n * (n - 1) // 2, random.Random(seed))
    v, u = _pair_ends(idx)
    v *= n
    v += u
    return Graph(n, *csr_from_keys(n, v))


def _pair_ends(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends (v, u), v < u, of the pairs at `idx` in the order (0, 1), (0, 2),
    (1, 2), (0, 3), ...: idx = u(u - 1)/2 + v. Row u comes from the float
    root, then moves onto the row whose pairs hold idx where rounding left
    it beside that row."""
    u = ((np.sqrt(8.0 * idx + 1.0) + 1.0) * 0.5).astype(np.int64)
    start = u * (u - 1) // 2  # the index of row u's first pair
    while (moved := (start + u <= idx).astype(np.int64) - (start > idx)).any():
        u += moved
        start = u * (u - 1) // 2
    return idx - start, u


def _present_pairs(p: float, total: int, rng: random.Random) -> np.ndarray:
    """Ascending indices of the pairs that G(n, p) keeps among `total`.

    Each skip to the next present pair is 1 + floor(log(1 - r) / log(1 - p))
    for the next r of `rng`, drawn with `math.log` so that the skips, and
    hence the graph, are the ones a per-edge loop over the same `rng` makes.
    A skip is cut at total + 1, which already ends the sequence, so the
    running sums stay within int64 for any n and p. Chunks of skips are
    drawn, sized by the pairs expected to remain, until a sum reaches total.
    """
    draw, log = rng.random, math.log
    log_q = math.log1p(-p)
    found = []
    last = -1
    while True:
        rest = p * (total - 1 - last)
        count = min(_DRAWS, int(rest + 3.0 * math.sqrt(rest)) + 8)
        with np.errstate(over="ignore"):  # a subnormal p: inf, cut below
            x = np.array([log(1.0 - draw()) for _ in range(count)]) / log_q
        # past 2**62, beyond any total, x is clamped so the int64 cast holds it
        skips = np.minimum(x, 2.0**62, out=x).astype(np.int64)
        skips += 1
        np.minimum(skips, total + 1, out=skips)
        idx = np.cumsum(skips)
        idx += last
        # past total the sums may wrap, so the end is the first index at total or more
        end = np.flatnonzero(idx >= total)
        if len(end):
            found.append(idx[: end[0]])
            return np.concatenate(found)
        found.append(idx)
        last = int(idx[-1])


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

"""Granular-ball coarsening engine.

A granular-ball is a node subset scored by quality = average induced degree
plus induced transitivity. Coarsening first grows coarse initial balls by
degree-ranked BFS, then refines each ball by binary splitting around its two
highest-degree members, keeping a split only when the children's combined
quality strictly beats the parent's. Refinement reads the graph once per
initial ball: every child inherits its share of the parent's induced
adjacency and triangles.

All tie-breaks resolve to the lowest node index, so results are fully
deterministic with no random seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import GraphValidationError
from .graph import Graph

Ablation = Literal["none", "no_split", "no_init"]
Adjacency = dict[int, frozenset[int]]  # member -> its neighbours inside the ball
Triangle = tuple[int, int, int]
# What refinement carries per ball: (members, quality, internal edge count,
# induced adjacency, triangles); the last two are None until first needed.
BallState = tuple


@dataclass(frozen=True)
class GranularBall:
    """A node subset with cached quality and internal edge count."""

    members: tuple[int, ...]  # sorted ascending, global indices
    quality: float
    internal_edge_count: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class Partition:
    """Disjoint complete cover of the original nodes by granular-balls."""

    balls: list[GranularBall]
    assignment: list[int]  # node index -> ball index

    @property
    def ball_count(self) -> int:
        return len(self.balls)

    @classmethod
    def from_balls(cls, n: int, balls: Sequence[GranularBall]) -> "Partition":
        assignment = [-1] * n
        for idx, ball in enumerate(balls):
            for v in ball.members:
                if not (0 <= v < n):
                    raise GraphValidationError(f"ball member {v} out of range for n={n}")
                if assignment[v] != -1:
                    raise GraphValidationError(f"node {v} assigned to two balls")
                assignment[v] = idx
        missing = assignment.count(-1)
        if missing:
            raise GraphValidationError(f"{missing} nodes not covered by any ball")
        return cls(balls=list(balls), assignment=assignment)

    @classmethod
    def from_member_groups(cls, g: Graph, groups: Iterable[Iterable[int]]) -> "Partition":
        return cls.from_balls(g.n, [make_ball(g, members) for members in groups])


@dataclass
class CoarsenConfig:
    """Knobs for the coarsening run.

    mode "adaptive" refines until the quality gate rejects every further
    split; mode "ratio" splits greedily toward a target ball count
    ceil(ratio * N). init_ball_target defaults to ceil(sqrt(N)) per graph.
    """

    mode: Literal["adaptive", "ratio"] = "adaptive"
    ratio: float | None = None
    ablation: Ablation = "none"
    init_ball_target: int | None = None

    def __post_init__(self):
        if self.mode not in ("adaptive", "ratio"):
            raise GraphValidationError(f"unknown mode {self.mode!r}")
        if self.ablation not in ("none", "no_split", "no_init"):
            raise GraphValidationError(f"unknown ablation {self.ablation!r}")
        if self.mode == "ratio":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise GraphValidationError("ratio mode requires ratio in (0, 1)")
        if self.init_ball_target is not None and self.init_ball_target < 1:
            raise GraphValidationError("init_ball_target must be >= 1")


@dataclass(frozen=True)
class SplitDecision:
    """One tentative binary split and whether the quality gate accepted it."""

    parent_size: int
    parent_quality: float
    child_a_quality: float
    child_b_quality: float
    accepted: bool


def default_init_target(n: int) -> int:
    """ceil(sqrt(n)) computed exactly in integers."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _induced(g: Graph, members: Sequence[int]) -> tuple[Adjacency, list[Triangle]]:
    """Induced adjacency and triangles of the ball on `members` (ascending).

    Returns (inside, triangles): inside maps each member, in the order of
    `members`, to its neighbours within the ball; triangles lists every
    triangle of the ball once, as an ascending triple.
    """
    member_set = frozenset(members)
    adj = g.adj
    inside = {v: member_set.intersection(adj[v]) for v in members}
    triangles: list[Triangle] = []
    for v, near in inside.items():
        for w in near:
            if w > v and not near.isdisjoint(inside[w]):
                for x in near & inside[w]:
                    if x > w:
                        triangles.append((v, w, x))
    return inside, triangles


def _state(
    inside: Adjacency, triangles: list[Triangle], degree_total: int, degree_squares: int
) -> BallState:
    """A ball's refinement state from its adjacency, triangles and degree sums.

    Quality = E/N + ordered_triangles/ordered_wedges on the induced
    subgraph, with the second term 0 when no wedges exist; the ordered
    counts are 6 * triangles and sum(d * (d - 1)) = sum(d^2) - sum(d).
    """
    wedges = degree_squares - degree_total
    edges = degree_total // 2
    quality = edges / len(inside)
    if wedges:
        quality += (2 * (3 * len(triangles))) / wedges
    return tuple(inside), quality, edges, inside, triangles


def ball_quality(g: Graph, members: Iterable[int]) -> float:
    """Quality of the ball induced by `members` (must be nonempty)."""
    return make_ball(g, members).quality


def make_ball(g: Graph, members: Iterable[int]) -> GranularBall:
    member_tuple = tuple(sorted(set(members)))
    if not member_tuple:
        raise GraphValidationError("ball members must be nonempty")
    inside, triangles = _induced(g, member_tuple)
    degrees = list(map(len, inside.values()))
    state = _state(inside, triangles, sum(degrees), sum(map(mul, degrees, degrees)))
    return GranularBall(*state[:3])


def init_balls(g: Graph, target: int, stats: dict | None = None) -> Partition:
    """Coarse initial partition by degree-ranked BFS growth.

    Repeatedly takes the highest-degree remaining node (lowest index on
    ties) as a center and grows BFS layers over the remaining nodes,
    stopping after the first layer whose size exceeds `target` (that layer
    is included) or when the reachable remainder runs out. Every ball
    therefore induces a connected subgraph.
    """
    if g.n == 0:
        raise GraphValidationError("cannot initialize balls on an empty graph")
    if target < 1:
        raise GraphValidationError("target must be >= 1")
    adj = g.adj
    remaining = bytearray([1]) * g.n
    remaining_count = g.n
    # stable, so equal degrees keep ascending node order
    by_degree = np.argsort(-np.diff(g.indptr), kind="stable").tolist()
    cursor = 0
    nodes_visited = 0
    edge_traversals = 0
    groups: list[list[int]] = []
    while remaining_count:
        while not remaining[by_degree[cursor]]:
            cursor += 1
        center = by_degree[cursor]
        remaining[center] = 0
        ball = [center]
        nodes_visited += 1
        frontier = [center]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for w in adj[v]:
                    edge_traversals += 1
                    if remaining[w]:
                        remaining[w] = 0
                        nxt.append(w)
            if not nxt:
                break
            nxt.sort()
            ball.extend(nxt)
            nodes_visited += len(nxt)
            frontier = nxt
            if len(nxt) > target:
                break
        remaining_count -= len(ball)
        groups.append(sorted(ball))
    if stats is not None:
        stats["nodes_visited"] = nodes_visited
        stats["edge_traversals"] = edge_traversals
    return Partition.from_member_groups(g, groups)


def split_ball(g: Graph, ball: GranularBall) -> tuple[GranularBall, GranularBall]:
    """Binary split around the ball's two highest-induced-degree members.

    Ownership is by BFS distance inside the ball: strictly closer center
    wins; ties (including nodes unreachable from both) go to the first
    center's child. Both children are nonempty and partition the parent.
    """
    if ball.size < 2:
        raise GraphValidationError("cannot split a singleton ball")
    child_a, child_b = _split(ball.members, *_induced(g, ball.members))
    return GranularBall(*child_a[:3]), GranularBall(*child_b[:3])


def _split(
    members: tuple[int, ...], inside: Adjacency, triangles: list[Triangle]
) -> tuple[BallState, BallState]:
    """Children of a ball with at least two members, from its carried state.

    One two-source BFS decides ownership: each level first expands the first
    center's frontier, then the second's, and a node belongs to whichever
    reaches it first. A node at level d is reached from the first frontier
    exactly when its distance to the first center is d, so the second child
    gets precisely the nodes strictly closer to the second center; nodes
    that neither center reaches stay with the first. The children's
    adjacency is the parent's restricted to each side, and each triangle
    goes to the child holding all three of its corners.
    """
    degrees = list(map(len, inside.values()))
    i_a = degrees.index(max(degrees))  # first maximum: ties keep the lowest index
    degrees[i_a] = -1
    v_a, v_b = members[i_a], members[degrees.index(max(degrees))]

    size = len(members)
    seen = {v_a, v_b}
    owned_b = {v_b}
    frontier_a = [v_a]
    frontier_b = [v_b]
    # once the second frontier dies out, or every node is reached, no owner changes
    while frontier_b and len(seen) < size:
        nxt = []
        for v in frontier_a:
            for w in inside[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier_a = nxt
        nxt = []
        for v in frontier_b:
            for w in inside[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        owned_b.update(nxt)
        frontier_b = nxt

    inside_a: Adjacency = {}
    inside_b: Adjacency = {}
    total_a = squares_a = total_b = squares_b = 0
    for v, near in inside.items():  # ascending, so both children stay sorted
        if v in owned_b:
            near = inside_b[v] = near & owned_b
            d = len(near)
            total_b += d
            squares_b += d * d
        else:
            near = inside_a[v] = near - owned_b
            d = len(near)
            total_a += d
            squares_a += d * d
    triangles_a: list[Triangle] = []
    triangles_b: list[Triangle] = []
    for tri in triangles:
        x, y, z = tri
        if x in owned_b:
            if y in owned_b and z in owned_b:
                triangles_b.append(tri)
        elif y not in owned_b and z not in owned_b:
            triangles_a.append(tri)
    return (
        _state(inside_a, triangles_a, total_a, squares_a),
        _state(inside_b, triangles_b, total_b, squares_b),
    )


def _refine(
    g: Graph,
    start: Sequence[GranularBall],
    decisions: list[SplitDecision] | None,
) -> list[GranularBall]:
    """Recursive quality-gated splitting; returns final balls in preorder.

    A start ball's induced adjacency and triangles are computed when it is
    popped; every child carries its share of its parent's.
    """
    final: list[GranularBall] = []
    stack: list[BallState] = [
        (ball.members, ball.quality, ball.internal_edge_count, None, None)
        for ball in reversed(start)
    ]
    while stack:
        members, quality, edges, inside, triangles = stack.pop()
        if len(members) < 2:
            final.append(GranularBall(members, quality, edges))
            continue
        if inside is None:
            inside, triangles = _induced(g, members)
        child_a, child_b = _split(members, inside, triangles)
        accepted = child_a[1] + child_b[1] > quality
        if decisions is not None:
            decisions.append(
                SplitDecision(
                    parent_size=len(members),
                    parent_quality=quality,
                    child_a_quality=child_a[1],
                    child_b_quality=child_b[1],
                    accepted=accepted,
                )
            )
        if accepted:
            stack.append(child_b)
            stack.append(child_a)
        else:
            final.append(GranularBall(members, quality, edges))
    return final


def adaptive_coarsen(
    g: Graph,
    cfg: CoarsenConfig | None = None,
    decisions: list[SplitDecision] | None = None,
) -> Partition:
    """Full adaptive pipeline: initialization then gated binary splitting.

    Ablations: "no_split" returns the initial partition as-is; "no_init"
    starts the splitting recursion from a single whole-graph ball.
    """
    cfg = cfg or CoarsenConfig()
    if g.n == 0:
        raise GraphValidationError("cannot coarsen an empty graph")
    if cfg.ablation == "no_init":
        start = [make_ball(g, range(g.n))]
    else:
        target = cfg.init_ball_target or default_init_target(g.n)
        start = init_balls(g, target).balls
        if cfg.ablation == "no_split":
            return Partition.from_balls(g.n, start)
    return Partition.from_balls(g.n, _refine(g, start, decisions))


def ratio_coarsen(g: Graph, r: float) -> Partition:
    """Non-adaptive variant: split greedily until the ball count reaches
    max(1, ceil(r * N)).

    Starts from the usual initialization; if that already has enough balls
    it is returned unchanged. Otherwise the splittable ball with the
    largest quality gain goes first (ties: larger ball, then lowest
    smallest member), with no acceptance gate.
    """
    if g.n == 0:
        raise GraphValidationError("cannot coarsen an empty graph")
    if not (0.0 < r < 1.0):
        raise GraphValidationError(f"ratio must be in (0, 1), got {r}")
    k = max(1, math.ceil(r * g.n))
    part = init_balls(g, default_init_target(g.n))
    count = part.ball_count
    if count >= k:
        return part

    heap: list[tuple] = []

    def push(ball: GranularBall, inside, triangles):
        if ball.size < 2:
            return
        if inside is None:
            inside, triangles = _induced(g, ball.members)
        child_a, child_b = _split(ball.members, inside, triangles)
        gain = child_a[1] + child_b[1] - ball.quality
        # min member is unique across live balls, making the key total
        heapq.heappush(heap, (-gain, -ball.size, ball.members[0], ball, child_a, child_b))

    for ball in part.balls:
        push(ball, None, None)
    children: dict[int, tuple[GranularBall, GranularBall]] = {}
    while count < k and heap:
        _, _, _, parent, state_a, state_b = heapq.heappop(heap)
        child_a, child_b = GranularBall(*state_a[:3]), GranularBall(*state_b[:3])
        children[id(parent)] = (child_a, child_b)
        count += 1
        push(child_a, *state_a[3:])
        push(child_b, *state_b[3:])

    final: list[GranularBall] = []
    stack = list(reversed(part.balls))
    while stack:
        ball = stack.pop()
        split = children.get(id(ball))
        if split is None:
            final.append(ball)
        else:
            stack.append(split[1])
            stack.append(split[0])
    return Partition.from_balls(g.n, final)


def coarsen(
    g: Graph,
    cfg: CoarsenConfig,
    decisions: list[SplitDecision] | None = None,
) -> Partition:
    """Dispatch on cfg.mode."""
    if cfg.mode == "ratio":
        return ratio_coarsen(g, cfg.ratio)
    return adaptive_coarsen(g, cfg, decisions)


def achieved_ratio(p: Partition, n: int) -> float:
    """Achieved coarsening ratio: ball count over original node count."""
    if n <= 0:
        raise GraphValidationError("original node count must be positive")
    return p.ball_count / n

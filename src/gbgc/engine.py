"""Granular-ball coarsening engine.

A granular-ball is a node subset scored by quality = average induced degree
plus induced transitivity. Coarsening first grows coarse initial balls by
degree-ranked BFS, then refines each ball by binary splitting around its two
highest-degree members, keeping a split only when the children's combined
quality strictly beats the parent's.

Refinement is level-synchronous: one round splits every live ball of a block
of graphs at once, in numpy passes over all of them. A round picks the two
centres of every ball with one keyed maximum, runs one two-source BFS level
by level over all balls together, and scores all children with `bincount`.
The rounds record a split tree; the final balls are its leaves in preorder,
which is the order a depth-first recursion would emit them in.

All tie-breaks resolve to the lowest node index, so results are fully
deterministic with no random seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import GraphValidationError
from .graph import Graph, GraphBlock

Ablation = Literal["none", "no_split", "no_init"]

_EMPTY = np.zeros(0, dtype=np.int64)


def check_dense(assignment: np.ndarray, ball_count: int) -> None:
    """Reject ball indices unless every one lies in [0, ball_count) and no
    ball is empty: the check of a partition that comes from outside the
    engine."""
    assignment = np.asarray(assignment)
    bad = (assignment < 0) | (assignment >= ball_count)
    if bad.any():
        v = int(np.argmax(bad))
        raise GraphValidationError(f"node {v} mapped to invalid supernode {assignment[v]}")
    # more balls than nodes leaves one empty, and bounds the count below
    if ball_count > len(assignment) or not np.bincount(assignment, minlength=ball_count).all():
        raise GraphValidationError("supernode indices are not dense: empty supernode present")


class Partition:
    """Disjoint complete cover of the original nodes by granular-balls.

    Holds `assignment`, the ball of each node (int64), and `ball_count`.
    `assignment` is the binary node-to-ball projection matrix C in sparse
    form: node v's row has its one 1 in column assignment[v]. The
    constructor trusts its arguments, as the engine's own output is a dense
    cover by construction; `from_assignment` checks ball indices read from
    outside the program, and `build_coarse_graph` a caller's partition.
    """

    __slots__ = ("assignment", "ball_count")

    def __init__(self, assignment: np.ndarray, ball_count: int):
        self.assignment = assignment
        self.ball_count = ball_count

    @classmethod
    def from_assignment(cls, assignment, ball_count: int) -> "Partition":
        """A partition from ball indices read from outside the program (a
        sequence of ints), checked by `check_dense`."""
        try:
            array = np.asarray(assignment, dtype=np.int64)
        except OverflowError:  # an index beyond int64, so certainly out of range
            v = next(v for v, a in enumerate(assignment) if not 0 <= a < ball_count)
            raise GraphValidationError(
                f"node {v} mapped to invalid supernode {assignment[v]}"
            ) from None
        check_dense(array, ball_count)
        return cls(array, ball_count)


@dataclass
class CoarsenConfig:
    """Knobs for the coarsening run.

    mode "adaptive" refines until the quality gate rejects every further
    split; mode "ratio" splits greedily toward a target ball count
    ceil(ratio * N). Initial balls grow toward ceil(sqrt(N)) per graph.
    Adaptive ablations: "no_split" keeps the initial balls as they are;
    "no_init" starts the splitting from one whole-graph ball.
    """

    mode: Literal["adaptive", "ratio"] = "adaptive"
    ratio: float | None = None
    ablation: Ablation = "none"

    def __post_init__(self):
        if self.mode not in ("adaptive", "ratio"):
            raise GraphValidationError(f"unknown mode {self.mode!r}")
        if self.ablation not in ("none", "no_split", "no_init"):
            raise GraphValidationError(f"unknown ablation {self.ablation!r}")
        if self.mode == "ratio":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise GraphValidationError("ratio mode requires ratio in (0, 1)")


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


def _quality(size, degree_total, degree_squares, triangles) -> np.ndarray:
    """Quality = E/N + ordered_triangles/ordered_wedges per ball, the second
    term 0 when a ball has no wedges; the ordered counts are 6 * triangles
    and sum(d * (d - 1)) = sum(d^2) - sum(d). Integer operands below 2**53
    convert to float exactly, so each ball's value is the one Python's
    `edges / size + (2 * (3 * triangles)) / wedges` gives."""
    quality = (degree_total // 2) / size
    wedges = degree_squares - degree_total
    has = wedges > 0
    quality[has] += (6 * triangles[has]) / wedges[has]
    return quality


def _triangles(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every triangle of the simple graph with edges (u, v) once, as three
    corner arrays.

    Each edge points from its lower-ranked end to its higher-ranked one,
    rank = (degree, index); a triangle is then found once, at its
    lowest-ranked corner, as two out-edges whose heads are adjacent. With
    this order no corner has more than O(sqrt(m)) out-edges.
    """
    if not len(u):
        return _EMPTY, _EMPTY, _EMPTY
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    flip = (deg[u] > deg[v]) | ((deg[u] == deg[v]) & (u > v))
    tail = np.where(flip, v, u)
    head = np.where(flip, u, v)
    order = np.lexsort((head, tail))
    tail, head = tail[order], head[order]
    ends = np.cumsum(np.bincount(tail, minlength=n))[tail]
    later = ends - np.arange(1, len(tail) + 1)  # out-edges after this one, same tail
    total = int(later.sum())
    if not total:
        return _EMPTY, _EMPTY, _EMPTY
    first = np.repeat(np.arange(len(tail)), later)
    second = first + 1 + np.arange(total) - np.repeat(np.cumsum(later) - later, later)
    x, y = head[first], head[second]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    wanted = np.minimum(x, y) * n + np.maximum(x, y)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    closed = keys[at] == wanted
    return tail[first][closed], x[closed], y[closed]


def _ball_measures(n, u, v, labels, count):
    """(quality, internal edge count, inside edges, triangles) of the balls
    given by `labels`, from the graph's edges (u, v): the inside edges are
    those with both ends in one ball, and the triangles those of the
    subgraph they form."""
    inside = labels[u] == labels[v]
    u, v = u[inside], v[inside]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    size = np.bincount(labels, minlength=count)
    total = np.bincount(labels, weights=deg, minlength=count).astype(np.int64)
    squares = np.bincount(labels, weights=deg * deg, minlength=count).astype(np.int64)
    tri = _triangles(n, u, v)
    quality = _quality(size, total, squares, np.bincount(labels[tri[0]], minlength=count))
    return quality, total // 2, (u, v), tri


def _init_labels(
    g: Graph, bounds: Sequence[int], targets: Sequence[int], stats: dict | None
) -> tuple[np.ndarray, list[int]]:
    """Initial balls of every graph of a disjoint union, one label per node.

    Graph i holds nodes bounds[i]..bounds[i + 1] - 1. Within it, the
    highest-degree remaining node (lowest index on ties) is taken as a
    center, and BFS layers grow over the remaining nodes until a layer
    larger than the graph's target (that layer included) or the reachable
    remainder runs out. Labels number the balls in creation order, graph by
    graph; also returns the first label of every graph and one past the last.
    """
    graph_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    # graph by graph, by degree: lexsort is stable, so ties keep index order.
    # The loop reads the arrays through memoryviews, each item a Python int
    # made as it is read, so no Python object per node or edge is kept.
    by_degree = memoryview(np.lexsort((-np.diff(g.indptr), graph_of)))
    del graph_of
    flat = memoryview(g.indices)
    ptr = memoryview(g.indptr)
    labels = np.empty(g.n, dtype=np.int64)
    label = memoryview(labels)
    remaining = bytearray([1]) * g.n
    first_label = [0]
    count = 0
    nodes_visited = 0
    edge_traversals = 0
    for lo, hi, target in zip(bounds, bounds[1:], targets):
        remaining_count = hi - lo
        cursor = lo
        while remaining_count:
            while not remaining[by_degree[cursor]]:
                cursor += 1
            center = by_degree[cursor]
            remaining[center] = 0
            label[center] = count
            size = 1
            frontier = [center]
            while frontier:
                nxt: list[int] = []
                for v in frontier:
                    near = flat[ptr[v] : ptr[v + 1]]
                    edge_traversals += len(near)
                    for w in near:
                        if remaining[w]:
                            remaining[w] = 0
                            label[w] = count
                            nxt.append(w)
                size += len(nxt)
                frontier = nxt
                if len(nxt) > target:
                    break
            nodes_visited += size
            remaining_count -= size
            count += 1
        first_label.append(count)
    if stats is not None:
        stats["nodes_visited"] = stats.get("nodes_visited", 0) + nodes_visited
        stats["edge_traversals"] = stats.get("edge_traversals", 0) + edge_traversals
        stats["init_balls"] = stats.get("init_balls", 0) + count
    return labels, first_label


# not on the pipeline's path (blocks grow their balls in _init_labels), but
# perfbench, tools/bench_stages.py and the tests call it
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
    labels, first = _init_labels(g, [0, g.n], [target], stats)
    return Partition(labels, first[1])


class _SplitTree:
    """What the rounds record, as columns.

    Tree nodes are numbered in creation order: the start balls first, then
    the two children of each accepted split. Per tree node: size, quality,
    smallest member, and offset, the start of its members in the layout
    where every subtree is one contiguous run, child a before child b. Per
    split attempt: the parent's tree node, the quality of each child,
    whether it was accepted, the tree node of child a when it was (child b
    is the next one, -1 otherwise), and its round.
    """

    NODES = ("size", "quality", "smallest", "offset")
    SPLITS = ("parent", "quality_a", "quality_b", "accepted", "child", "depth")
    # a column is joined into one array once it has this many pieces, which
    # bounds the array headers a long run of small rounds (a path) keeps
    PIECES = 64

    def __init__(self):
        self.parts: dict[str, list[np.ndarray]] = {name: [] for name in self.NODES + self.SPLITS}
        self.count = 0

    def add(self, **columns) -> None:
        for name, values in columns.items():
            parts = self.parts[name]
            parts.append(values)
            if len(parts) == self.PIECES:
                self.parts[name] = [np.concatenate(parts)]

    def add_nodes(self, **columns) -> np.ndarray:
        """Append tree nodes, one per entry of each column; return their ids."""
        self.add(**columns)
        ids = self.count + np.arange(len(columns["size"]), dtype=np.int64)
        self.count += len(ids)
        return ids

    def column(self, name: str) -> np.ndarray:
        parts = self.parts[name]
        if len(parts) != 1:
            self.parts[name] = parts = [np.concatenate(parts) if parts else _EMPTY]
        return parts[0]


def _expand(indptr, indices, frontier, ball_of, owner, claim, side):
    """The unowned neighbours of `frontier` inside each frontier node's own
    ball, each once; they become owned by `side`."""
    start = indptr[frontier]
    count = indptr[frontier + 1] - start
    total = int(count.sum())
    if not total:
        return _EMPTY
    reach = indices[np.repeat(start - np.cumsum(count) + count, count) + np.arange(total)]
    ok = ball_of[reach] == np.repeat(ball_of[frontier], count)
    ok &= owner[reach] == 0
    reach = reach[ok]
    order = np.arange(len(reach))
    claim[reach] = order
    reach = reach[claim[reach] == order]
    owner[reach] = side
    return reach


def _refine(
    g: Graph, labels, ball_count, connected, gated, stats
) -> tuple[_SplitTree, np.ndarray]:
    """Split all balls of `labels` round by round; return the split tree.

    Every round, each live ball (two or more members) splits around its two
    highest-induced-degree members, A first and then B (ties to the lowest
    index), by one two-source BFS run level by level over all balls at
    once: each level expands A's frontier, then B's, and a node belongs to
    whichever reaches it first. A node thus joins B exactly when it is
    strictly closer to B. A ball's BFS stops when B's frontier dies, the
    unseen nodes going to A; or, in a ball known to be connected, when A's
    frontier dies, the unseen nodes going to B, since every path from A to
    them passes through a node B owns. Start balls from the initial growth
    and every child B are connected, and a child A is when its parent is.
    With `gated`, a split is kept only when the children's quality sum
    exceeds the parent's quality; without it, every ball splits down to
    single nodes. Also returns the deepest tree node of every graph node.
    """
    n = g.n
    u, v = g.edge_arrays()
    quality, _, (u, v), (tx, ty, tz) = _ball_measures(n, u, v, labels, ball_count)
    by_ball = np.argsort(labels, kind="stable")
    size = np.bincount(labels, minlength=ball_count)
    offset = np.cumsum(size) - size
    tree = _SplitTree()
    tree.add_nodes(size=size, quality=quality, smallest=by_ball[offset], offset=offset)

    # the live balls, one slot each, their members grouped by slot in
    # ascending order in `members`
    ball_of = np.full(n, -1, dtype=np.int64)
    live = size >= 2
    slot_tree = np.flatnonzero(live)
    members = by_ball[live[labels[by_ball]]]
    slot_size = size[live]
    slot_of_label = np.cumsum(live) - 1
    ball_of[members] = slot_of_label[labels[members]]
    slot_quality = quality[live]
    slot_connected = connected[live]
    slot_offset = offset[live]
    position = np.zeros(n, dtype=np.int64)
    owner = np.zeros(n, dtype=np.int8)
    in_b = np.zeros(n, dtype=np.int8)
    claim = np.zeros(n, dtype=np.int64)
    position[members] = np.arange(len(members))
    degree = np.bincount(position[u], minlength=len(members))
    degree += np.bincount(position[v], minlength=len(members))
    deepest = labels.copy()  # the last tree node each node belongs to
    rounds = levels = 0

    while len(slot_tree):
        slots = len(slot_tree)
        start = np.cumsum(slot_size) - slot_size
        slot_of = np.repeat(np.arange(slots), slot_size)

        # centres: highest induced degree, ties to the lowest node
        key = degree * n + (n - 1 - members)
        center_a = n - 1 - np.maximum.reduceat(key, start) % n
        key[position[center_a]] = -1
        center_b = n - 1 - np.maximum.reduceat(key, start) % n

        owner[center_a] = 1
        owner[center_b] = 2
        unseen_to_b = np.zeros(slots, dtype=bool)
        running = np.ones(slots, dtype=bool)
        frontier_a, frontier_b = center_a, center_b
        while len(frontier_b):
            levels += 1
            frontier_a = _expand(g.indptr, g.indices, frontier_a, ball_of, owner, claim, 1)
            frontier_b = _expand(g.indptr, g.indices, frontier_b, ball_of, owner, claim, 2)
            alive_a = np.zeros(slots, dtype=bool)
            alive_a[ball_of[frontier_a]] = True
            alive_b = np.zeros(slots, dtype=bool)
            alive_b[ball_of[frontier_b]] = True
            stop = running & ~(alive_b & (alive_a | ~slot_connected))
            if stop.any():
                unseen_to_b |= stop & alive_b
                running &= ~stop
                frontier_a = frontier_a[running[ball_of[frontier_a]]]
                frontier_b = frontier_b[running[ball_of[frontier_b]]]
        seen = owner[members]
        side = (seen == 2) | ((seen == 0) & unseen_to_b[slot_of])
        owner[members] = 0
        in_b[members] = side

        # the children: child 2s is slot s's child a, 2s + 1 its child b
        child = 2 * slot_of + side
        kept = in_b[u] == in_b[v]
        u, v = u[kept], v[kept]
        kept = (in_b[tx] == in_b[ty]) & (in_b[ty] == in_b[tz])
        tx, ty, tz = tx[kept], ty[kept], tz[kept]
        child_degree = np.bincount(position[u], minlength=len(members))
        child_degree += np.bincount(position[v], minlength=len(members))
        child_size = np.bincount(child, minlength=2 * slots)
        child_total = np.bincount(child, weights=child_degree, minlength=2 * slots).astype(np.int64)
        child_squares = np.bincount(
            child, weights=child_degree * child_degree, minlength=2 * slots
        ).astype(np.int64)
        child_triangles = np.bincount(2 * ball_of[tx] + in_b[tx], minlength=2 * slots)
        child_quality = _quality(child_size, child_total, child_squares, child_triangles)
        quality_a, quality_b = child_quality[0::2], child_quality[1::2]
        accepted = quality_a + quality_b > slot_quality if gated else np.ones(slots, dtype=bool)

        # rank of each member within its child, in the parent's order
        b_before = np.cumsum(side) - side
        b_before -= b_before[start][slot_of]
        rank = np.where(side, b_before, np.arange(len(members)) - start[slot_of] - b_before)
        child_smallest = np.empty(2 * slots, dtype=np.int64)
        child_smallest[child[rank == 0]] = members[rank == 0]
        child_offset = np.repeat(slot_offset, 2)
        child_offset[1::2] += child_size[0::2]
        split = np.repeat(accepted, 2)
        child_tree = np.full(2 * slots, -1, dtype=np.int64)
        child_tree[split] = tree.add_nodes(
            size=child_size[split],
            quality=child_quality[split],
            smallest=child_smallest[split],
            offset=child_offset[split],
        )
        tree.add(
            parent=slot_tree,
            quality_a=quality_a,
            quality_b=quality_b,
            accepted=accepted,
            child=child_tree[0::2],
            depth=np.full(slots, rounds),
        )
        rounds += 1

        # next round: the accepted children with two or more members
        goes_on = split & (child_size >= 2)
        next_slot = np.cumsum(goes_on) - 1
        next_size = child_size[goes_on]
        next_start = np.cumsum(next_size) - next_size
        stays = goes_on[child]
        edge_child = 2 * ball_of[u] + in_b[u]
        tri_child = 2 * ball_of[tx] + in_b[tx]
        moves = accepted[slot_of]
        deepest[members[moves]] = child_tree[child[moves]]
        ball_of[members[~stays]] = -1
        moved = members[stays]
        ball_of[moved] = next_slot[child[stays]]
        at = next_start[next_slot[child[stays]]] + rank[stays]
        members = np.empty(len(moved), dtype=np.int64)
        members[at] = moved
        degree = np.empty(len(moved), dtype=np.int64)
        degree[at] = child_degree[stays]
        slot_tree = child_tree[goes_on]
        slot_size = next_size
        slot_quality = child_quality[goes_on]
        slot_offset = child_offset[goes_on]
        child_connected = np.repeat(slot_connected, 2)
        child_connected[1::2] = True
        slot_connected = child_connected[goes_on]
        position[members] = np.arange(len(members))
        kept = goes_on[edge_child]
        u, v = u[kept], v[kept]
        kept = goes_on[tri_child]
        tx, ty, tz = tx[kept], ty[kept], tz[kept]

    if stats is not None:
        stats["rounds"] = stats.get("rounds", 0) + rounds
        stats["bfs_levels"] = stats.get("bfs_levels", 0) + levels
    return tree, deepest


def _ratio_leaves(tree: _SplitTree, graph_roots, targets) -> np.ndarray:
    """Which tree nodes are final balls when each graph, from its start
    balls, splits greedily up to its target ball count: the splittable ball
    with the largest quality gain goes first (ties: larger ball, then lowest
    smallest member, which no two live balls share)."""
    size, quality, smallest = tree.column("size"), tree.column("quality"), tree.column("smallest")
    parent = tree.column("parent")
    gain = np.zeros(tree.count)
    gain[parent] = tree.column("quality_a") + tree.column("quality_b") - quality[parent]
    child = np.full(tree.count, -1, dtype=np.int64)
    child[parent] = tree.column("child")
    # read item by item through memoryviews: no Python list per tree node
    gain, size, smallest, child = map(memoryview, (gain, size, smallest, child))
    final = np.zeros(tree.count, dtype=bool)
    for (lo, hi), target in zip(graph_roots, targets):
        final[lo:hi] = True
        count = hi - lo
        heap = [(-gain[t], -size[t], smallest[t], t) for t in range(lo, hi) if size[t] >= 2]
        heapq.heapify(heap)
        while count < target and heap:
            t = heapq.heappop(heap)[3]
            final[t] = False
            count += 1
            for c in (child[t], child[t] + 1):
                final[c] = True
                if size[c] >= 2:
                    heapq.heappush(heap, (-gain[c], -size[c], smallest[c], c))
    return final


def _decisions(tree: _SplitTree) -> list[SplitDecision]:
    """Every split attempt, in the preorder of the split tree: by member
    offset, a parent before the child a that shares its offset."""
    parent = tree.column("parent")
    order = np.lexsort((tree.column("depth"), tree.column("offset")[parent]))
    return [
        SplitDecision(*fields)
        for fields in zip(
            tree.column("size")[parent][order].tolist(),
            tree.column("quality")[parent][order].tolist(),
            tree.column("quality_a")[order].tolist(),
            tree.column("quality_b")[order].tolist(),
            tree.column("accepted")[order].tolist(),
        )
    ]


def coarsen_block(
    block: GraphBlock,
    cfg: CoarsenConfig,
    decisions: list[SplitDecision] | None = None,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coarsen every graph of a block with one engine call; each graph's
    balls are the ones it gets alone. Returns the ball of every node,
    numbered across the block graph by graph, and the first ball of every
    graph followed by the ball count. `decisions` receives the split
    attempts of adaptive refinement, graph by graph in preorder; `stats`
    receives the counters of the initial growth and the refinement rounds.
    """
    sizes = np.diff(block.bounds)
    if not sizes.all():
        raise GraphValidationError("cannot coarsen an empty graph")
    bounds = block.bounds.tolist()
    graph_count = block.graph_count
    ratio = cfg.mode == "ratio"
    if not ratio and cfg.ablation == "no_init":
        labels = np.repeat(np.arange(graph_count, dtype=np.int64), sizes)
        first_label = list(range(graph_count + 1))
        connected = np.zeros(graph_count, dtype=bool)
    else:
        targets = [default_init_target(n) for n in sizes.tolist()]
        labels, first_label = _init_labels(block, bounds, targets, stats)
        connected = np.ones(first_label[-1], dtype=bool)
    count = first_label[-1]
    graph_roots = list(zip(first_label, first_label[1:]))
    if ratio:
        ball_targets = [max(1, math.ceil(cfg.ratio * n)) for n in sizes.tolist()]
        splits = any(hi - lo < k for (lo, hi), k in zip(graph_roots, ball_targets))
    else:
        splits = cfg.ablation != "no_split"

    if not splits:
        return labels, np.array(first_label, dtype=np.int64)
    tree, deepest = _refine(block, labels, count, connected, not ratio, stats)
    if ratio:
        final = _ratio_leaves(tree, graph_roots, ball_targets)
    else:
        final = np.ones(tree.count, dtype=bool)
        final[tree.column("parent")[tree.column("accepted")]] = False
        if decisions is not None:
            decisions.extend(_decisions(tree))
    offset = tree.column("offset")
    starts = np.sort(offset[np.flatnonzero(final)])
    ball = np.searchsorted(starts, offset[deepest], side="right") - 1
    return ball, np.searchsorted(starts, block.bounds)


def coarsen_many(
    graphs: Sequence[Graph],
    cfg: CoarsenConfig,
    decisions: list[SplitDecision] | None = None,
    stats: dict | None = None,
) -> list[Partition]:
    """`coarsen_block` on the graphs joined into one block, its result split
    into one partition per graph."""
    if not graphs:
        return []
    block = GraphBlock.join(graphs)
    ball, first_ball = coarsen_block(block, cfg, decisions, stats)
    bounds, first_ball = block.bounds.tolist(), first_ball.tolist()
    return [
        Partition(ball[lo:hi] - first, last - first)
        for lo, hi, first, last in zip(bounds, bounds[1:], first_ball, first_ball[1:])
    ]


def coarsen(
    g: Graph,
    cfg: CoarsenConfig,
    decisions: list[SplitDecision] | None = None,
    stats: dict | None = None,
) -> Partition:
    """Coarsen one graph as cfg says; see coarsen_block."""
    return coarsen_many([g], cfg, decisions, stats)[0]

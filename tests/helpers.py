"""Brute-force oracles, reference kernels and small-graph enumeration shared
by the tests.

The oracles are deliberately independent of the package internals:
adjacency matrices as plain nested lists, triple loops, no shared kernels.
The graph kernels below (per-node neighbour tuples, induced subgraphs, BFS
layers, components, triangle and wedge counts) are used only by the tests,
and the reference engine keeps the recursive refinement as first written,
recomputing every ball from the graph, as the oracle for the round-based
engine. A `GranularBall` is a ball with its quality and internal edge count;
the package itself keeps only a partition's assignment. `balls`,
`make_ball`, `ball_quality` and `split_ball` are the exceptions to the
independence: they score balls, or split one once, through the package's
own kernels, so the tests can compare them with the oracles. The
reference parsers keep the line-by-line readers as the oracle for the
parsers, which read with numpy's reader, and the reference writer formats
the three result files graph by graph with `json.dumps` and f-strings, as
the oracle for the package's block formatter; the reference edge-list
writer is the f-string loop the template-filled one replaced. The
reference generator is the per-edge loop of geometric skips that the
array generator must match seed for seed. The reference evaluation keeps
`evaluate` as it was before
it solved the original spectrum first, with the Laplacian scaled by out-of-place
products, as the oracle for the reordered one. Its coarse matrices come from
the builders that preceded the package's single dense Laplacian builder: C^T L C
with its diagonal set to minus the row sums, the unweighted superedge graph
sent through a `Graph`, and C^T L_norm C accumulated into a t^2 upper
triangle and added to its transpose.
"""

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from gbgc import (
    CoarsenConfig,
    EvalConfig,
    Graph,
    GraphValidationError,
    Partition,
    SplitDecision,
    default_init_target,
    from_edge_list,
    init_balls,
)
from gbgc.engine import _ball_measures, _refine
from gbgc.spectral import (
    SpectralReport,
    _rayleigh_test_vectors,
    eigenvalues_symmetric,
    project_vector,
    spectral_distance,
)


def all_pairs(n):
    return list(combinations(range(n), 2))


def graph_from_mask(n, pairs, mask):
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return from_edge_list(n, edges)


def enumerate_graphs(n):
    """Every labeled simple graph on n nodes."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, pairs, mask)


def adjacency_matrix(g: Graph):
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return a


def brute_ordered_counts(a):
    """Ordered-triple counts straight from the definition."""
    n = len(a)
    tri = 0
    wed = 0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                tri += a[i][j] * a[j][k] * a[k][i]
                wed += a[i][j] * a[i][k]
    return tri, wed


def brute_quality(a):
    """Average degree plus transitivity from the raw adjacency matrix."""
    n = len(a)
    edges = sum(a[i][j] for i in range(n) for j in range(i + 1, n))
    tri, wed = brute_ordered_counts(a)
    q = edges / n
    if wed:
        q += tri / wed
    return q


def brute_connected(a):
    n = len(a)
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if a[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def faddeev_charpoly(m):
    """Exact characteristic polynomial coefficients of an integer matrix
    (highest degree first) via the Faddeev-LeVerrier recurrence."""
    n = len(m)
    coeffs = [1]
    am = [row[:] for row in m]
    for k in range(1, n + 1):
        trace = sum(am[i][i] for i in range(n))
        c = -trace // k
        assert trace % k == 0
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            am[i][i] += c
        am = [
            [sum(m[i][t] * am[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def charpoly_eigenvalues(m):
    """Eigenvalues of a small symmetric integer matrix as roots of its exact
    characteristic polynomial; exact isolation keeps repeated roots accurate."""
    import sympy

    coeffs = faddeev_charpoly(m)
    poly = sympy.Poly(coeffs, sympy.Symbol("x"))
    return sorted(float(r.evalf(30)) for r in poly.real_roots())


def indicator_matrix(p):
    """Dense n x t binary projection matrix C of a Partition."""
    n = len(p.assignment)
    ind = np.zeros((n, p.ball_count))
    ind[np.arange(n), p.assignment] = 1.0
    return ind


def reference_coarse_graph(g, p):
    """Dict-and-dense coarse-graph build: (superedges, weights, projected
    Laplacian), the Laplacian accumulated in a t x t int64 matrix."""
    t = p.ball_count
    col = p.assignment
    cross = {}
    cross_degree = [0] * t
    for u, v in g.edges:
        a, b = col[u], col[v]
        if a == b:
            continue
        if a > b:
            a, b = b, a
        cross[(a, b)] = cross.get((a, b), 0) + 1
        cross_degree[a] += 1
        cross_degree[b] += 1
    lap = np.zeros((t, t), dtype=np.int64)
    for (a, b), mult in cross.items():
        lap[a, b] = -mult
        lap[b, a] = -mult
    for a in range(t):
        lap[a, a] = cross_degree[a]
    superedges = sorted(cross)
    return superedges, [cross[e] for e in superedges], lap.astype(float)


@dataclass
class BfsLayering:
    """Layer-by-layer BFS result; layers[0] == [source], layers sorted within."""

    source: int
    layers: list
    visited: set = field(default_factory=set)


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Neighbours of every node as tuples of Python ints, ascending, built
    from the graph's CSR arrays on each call."""
    flat = tuple(g.indices.tolist())
    bounds = g.indptr.tolist()
    return tuple(map(flat.__getitem__, map(slice, bounds, bounds[1:])))


def neighbor_set(g: Graph, v: int) -> frozenset:
    """Neighbours of v as a frozenset, read from v's CSR row."""
    return frozenset(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist())


def induced_subgraph(g: Graph, nodes):
    """Subgraph on `nodes` with local indices assigned in ascending global order.

    Returns (subgraph, mapping) where mapping[local] == global index.
    """
    mapping = sorted(set(nodes))
    for v in mapping:
        if not (0 <= v < g.n):
            raise GraphValidationError(f"node {v} out of range for graph with n={g.n}")
    local = {v: i for i, v in enumerate(mapping)}
    adj = adjacency(g)
    edges = []
    for v in mapping:
        for w in adj[v]:
            if w > v and w in local:
                edges.append((local[v], local[w]))
    return from_edge_list(len(mapping), edges), mapping


def bfs_layers(g: Graph, source: int, allowed=None) -> BfsLayering:
    """BFS from `source`, optionally restricted to `allowed` nodes.

    Nodes within a layer appear in ascending index order; allowed nodes
    unreachable from the source are simply absent.
    """
    if not (0 <= source < g.n):
        raise GraphValidationError(f"source {source} out of range")
    if allowed is not None and source not in allowed:
        raise GraphValidationError(f"source {source} not in allowed set")
    visited = {source}
    layers = [[source]]
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbor_set(g, v):
                if w in visited:
                    continue
                if allowed is not None and w not in allowed:
                    continue
                visited.add(w)
                nxt.append(w)
        if not nxt:
            break
        nxt.sort()
        layers.append(nxt)
        frontier = nxt
    return BfsLayering(source=source, layers=layers, visited=visited)


def count_ordered_triangles_and_wedges(g: Graph):
    """Counts over ordered distinct triples: (6 * triangles, sum_v deg(v)(deg(v)-1)).

    Triangles come from common-neighbor intersections per edge, which counts
    each unordered triangle three times.
    """
    closed3 = 0
    for u, v in g.edges:
        closed3 += len(neighbor_set(g, u) & neighbor_set(g, v))
    wedges = sum(d * (d - 1) for d in (len(a) for a in adjacency(g)))
    return 2 * closed3, wedges


def connected_components(g: Graph):
    """Maximal connected node sets, ordered by smallest member."""
    adj = adjacency(g)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def _ball_stats(g, member_set):
    """(internal edge count, quality) of the subgraph induced by member_set,
    with the triangles recounted by set intersection on every edge."""
    degree_total = 0
    wedges = 0
    closed = 0  # per-edge common-neighbor counts; sums to 3 * triangles
    for v in member_set:
        inside = neighbor_set(g, v) & member_set
        d = len(inside)
        degree_total += d
        wedges += d * (d - 1)
        for w in inside:
            if w > v:
                closed += len(inside & neighbor_set(g, w))
    edges = degree_total // 2
    quality = edges / len(member_set)
    if wedges:
        quality += (2 * closed) / wedges
    return edges, quality


@dataclass(frozen=True)
class GranularBall:
    """A node subset with its quality and internal edge count."""

    members: tuple[int, ...]  # sorted ascending, global indices
    quality: float
    internal_edge_count: int

    @property
    def size(self) -> int:
        return len(self.members)


def partition_of(g, groups):
    """The Partition of g whose ball i holds the nodes of groups[i]; the
    groups must be disjoint, and Partition checks that they are nonempty
    and cover every node."""
    assignment = np.full(g.n, -1, dtype=np.int64)
    groups = [list(members) for members in groups]
    for ball, members in enumerate(groups):
        assignment[members] = ball
    return Partition(assignment, len(groups))


def balls(g, part):
    """The balls of a partition in ball order, scored by the package's
    kernel from the graph and the assignment alone."""
    u, v = g.edge_arrays()
    quality, edges = _ball_measures(g.n, u, v, part.assignment, part.ball_count)[:2]
    order = np.argsort(part.assignment, kind="stable")
    sizes = np.bincount(part.assignment, minlength=part.ball_count)
    return [
        GranularBall(tuple(members.tolist()), q, e)
        for members, q, e in zip(
            np.split(order, np.cumsum(sizes)[:-1]), quality.tolist(), edges.tolist()
        )
    ]


def make_ball(g, members):
    """The ball on `members` (nonempty), scored by the package's kernel on
    the subgraph they induce."""
    mapping = sorted(set(members))
    if not mapping:
        raise GraphValidationError("ball members must be nonempty")
    local = np.full(g.n, -1, dtype=np.int64)
    local[mapping] = np.arange(len(mapping))
    u, v = (local[ends] for ends in g.edge_arrays())
    inside = (u >= 0) & (v >= 0)
    k = len(mapping)
    quality, edges = _ball_measures(k, u[inside], v[inside], np.zeros(k, dtype=np.int64), 1)[:2]
    return GranularBall(tuple(mapping), float(quality[0]), int(edges[0]))


def ball_quality(g, members):
    """Quality of the ball induced by `members` (must be nonempty)."""
    return make_ball(g, members).quality


def split_ball(g, ball):
    """The package engine's split of one ball: its first refinement round
    with the quality gate off, the ball not assumed connected."""
    if ball.size < 2:
        raise GraphValidationError("cannot split a singleton ball")
    labels = np.full(g.n, -1, dtype=np.int64)
    labels[list(ball.members)] = 0
    outside = labels < 0
    labels[outside] = np.arange(1, int(outside.sum()) + 1)
    count = int(labels.max()) + 1
    connected = np.ones(count, dtype=bool)
    connected[0] = False
    tree, deepest = _refine(g, labels, count, connected, False, None)
    size, quality, offset = (tree.column(c) for c in ("size", "quality", "offset"))
    u, v = g.edge_arrays()
    children = []
    for child in (tree.column("child")[0], tree.column("child")[0] + 1):
        lo = offset[child]
        inside = (offset[deepest] >= lo) & (offset[deepest] < lo + size[child])
        children.append(
            GranularBall(
                tuple(np.flatnonzero(inside).tolist()),
                float(quality[child]),
                int(np.count_nonzero(inside[u] & inside[v])),
            )
        )
    return tuple(children)


def reference_make_ball(g, members):
    member_tuple = tuple(sorted(set(members)))
    edges, quality = _ball_stats(g, frozenset(member_tuple))
    return GranularBall(members=member_tuple, quality=quality, internal_edge_count=edges)


def _bfs_distances(g, source, allowed):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in neighbor_set(g, v):
                if w in allowed and w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_split_ball(g, ball):
    """Split around the two highest induced degrees; a node goes to the
    second center's child iff it is strictly closer to that center, from two
    separate BFS passes; both children are rebuilt from the graph."""
    member_set = frozenset(ball.members)
    induced_degree = {v: len(neighbor_set(g, v) & member_set) for v in ball.members}

    def argmax_degree(exclude):
        best, best_d = -1, -1
        for v in ball.members:  # ascending, so ties keep the lowest index
            if v == exclude:
                continue
            d = induced_degree[v]
            if d > best_d:
                best, best_d = v, d
        return best

    v_a = argmax_degree(None)
    v_b = argmax_degree(v_a)
    dist_a = _bfs_distances(g, v_a, member_set)
    dist_b = _bfs_distances(g, v_b, member_set)
    inf = float("inf")
    group_a, group_b = [], []
    for v in ball.members:
        if dist_b.get(v, inf) < dist_a.get(v, inf):
            group_b.append(v)
        else:
            group_a.append(v)
    return reference_make_ball(g, group_a), reference_make_ball(g, group_b)


def reference_refine(g, start, decisions):
    final = []
    stack = list(reversed(start))
    while stack:
        ball = stack.pop()
        if ball.size < 2:
            final.append(ball)
            continue
        child_a, child_b = reference_split_ball(g, ball)
        accepted = child_a.quality + child_b.quality > ball.quality
        if decisions is not None:
            decisions.append(
                SplitDecision(
                    parent_size=ball.size,
                    parent_quality=ball.quality,
                    child_a_quality=child_a.quality,
                    child_b_quality=child_b.quality,
                    accepted=accepted,
                )
            )
        if accepted:
            stack.append(child_b)
            stack.append(child_a)
        else:
            final.append(ball)
    return final


def _reference_init(g):
    part = init_balls(g, default_init_target(g.n))
    return [reference_make_ball(g, ball.members) for ball in balls(g, part)]


def reference_ratio_coarsen(g, r):
    k = max(1, math.ceil(r * g.n))
    start = _reference_init(g)
    count = len(start)
    if count >= k:
        return start

    heap = []

    def push(ball):
        if ball.size < 2:
            return
        child_a, child_b = reference_split_ball(g, ball)
        gain = child_a.quality + child_b.quality - ball.quality
        heapq.heappush(heap, (-gain, -ball.size, ball.members[0], ball, child_a, child_b))

    for ball in start:
        push(ball)
    children = {}
    while count < k and heap:
        _, _, _, parent, child_a, child_b = heapq.heappop(heap)
        children[id(parent)] = (child_a, child_b)
        count += 1
        push(child_a)
        push(child_b)

    final = []
    stack = list(reversed(start))
    while stack:
        ball = stack.pop()
        split = children.get(id(ball))
        if split is None:
            final.append(ball)
        else:
            stack.append(split[1])
            stack.append(split[0])
    return final


def reference_coarsen(g, cfg: CoarsenConfig, decisions=None):
    """The final balls of the reference engine behind gbgc.coarsen, in
    ball order: same modes and ablations."""
    if cfg.mode == "ratio":
        return reference_ratio_coarsen(g, cfg.ratio)
    if cfg.ablation == "no_init":
        start = [reference_make_ball(g, range(g.n))]
    else:
        start = _reference_init(g)
        if cfg.ablation == "no_split":
            return start
    return reference_refine(g, start, decisions)


# Reference parsers: the per-line readers as first written, kept
# with Python's int() tokens and text-mode lines. They return plain
# structures, (node count, sorted unique edges u < v) per graph, built with
# sets independently of Graph and from_edge_list.


def _reference_graph(node_count, pairs):
    for u, v in pairs:
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for node_count={node_count}")
    return node_count, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


def _reference_pair(line, sep):
    parts = line.split(sep)
    if len(parts) != 2:
        raise ValueError(f"expected two fields, got {line!r}")
    return int(parts[0]), int(parts[1])


def reference_parse_edge_list(path):
    """(n, edges) of a whitespace edge list with an optional 'n <count>' header."""
    node_count = None
    pairs = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if node_count is None and not pairs and line.startswith("n "):
                node_count = int(line.split()[1])
                continue
            pairs.append(_reference_pair(line, None))
    if node_count is None:
        node_count = max((max(u, v) for u, v in pairs), default=-1) + 1
    return _reference_graph(node_count, pairs)


def reference_parse_tudataset(directory, name):
    """([(n, edges) per graph], labels or None) of a multi-graph directory."""
    with open(f"{directory}/{name}_graph_indicator.txt") as fh:
        graph_of_node = [int(line) - 1 for line in fh if line.strip()]
    graph_count = max(graph_of_node) + 1
    local_index = []
    node_counts = [0] * graph_count
    for gid in graph_of_node:
        local_index.append(node_counts[gid])
        node_counts[gid] += 1
    edge_lists = [[] for _ in range(graph_count)]
    with open(f"{directory}/{name}_A.txt") as fh:
        for raw in fh:
            if raw.strip():
                u, v = _reference_pair(raw.strip(), ",")
                gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
                if gu != gv:
                    raise ValueError(f"edge ({u}, {v}) spans graphs {gu + 1} and {gv + 1}")
                edge_lists[gu].append((local_index[u - 1], local_index[v - 1]))
    labels = None
    try:
        with open(f"{directory}/{name}_graph_labels.txt") as fh:
            labels = [int(line) for line in fh if line.strip()]
    except FileNotFoundError:
        pass
    graphs = [_reference_graph(node_counts[i], edge_lists[i]) for i in range(graph_count)]
    return graphs, labels


def write_reference_results(graphs, out_dir):
    """mapping.jsonl, coarse_edges.txt and report.csv under out_dir, each
    graph's rows formatted on their own. A graph is (index, assignment,
    supernode_count, superedges, edge_count, sd, elapsed_micros)."""
    mapping, edges, report = [], [], ["graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros\n"]
    for index, assignment, t, superedges, m, sd, elapsed in graphs:
        assignment = [int(a) for a in assignment]
        row = {"graph_index": index, "assignment": assignment, "supernode_count": t}
        mapping.append(json.dumps(row, separators=(",", ":")) + "\n")
        edges.append(f"graph {index}\n" + "".join(f"{a} {b}\n" for a, b in superedges.tolist()))
        n = len(assignment)
        report.append(f"{index},{n},{m},{t},{len(superedges)},{t / n:.6f},{sd:.6f},{elapsed}\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in (("mapping.jsonl", mapping), ("coarse_edges.txt", edges),
                        ("report.csv", report)):
        (out_dir / name).write_text("".join(lines))


def write_reference_edge_list(g: Graph, path):
    """The edge-list writer as first written: one f-string per edge."""
    with open(path, "w") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def reference_erdos_renyi(n: int, mean_degree: float, seed: int) -> Graph:
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


def plain(g: Graph):
    """(n, edges) of a Graph, comparable with the reference parsers' output."""
    return g.n, list(g.edges)


def reference_laplacian(g: Graph, kind="combinatorial"):
    """Dense Laplacian; the normalized kind scales by out-of-place products."""
    n = g.n
    deg = np.diff(g.indptr)
    lap = np.zeros((n, n))
    lap[np.repeat(np.arange(n), deg), g.indices] = -1.0
    lap[np.diag_indices(n)] = deg
    if kind == "combinatorial":
        return lap
    if kind == "normalized":
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        return lap * scale[:, None] * scale[None, :]
    raise GraphValidationError(f"unknown laplacian kind {kind!r}")


def reference_projected_laplacian(cg):
    """Dense t x t C^T L C with the diagonal set to minus the row sums."""
    t = cg.supernode_count
    lap = np.zeros((t, t))
    a, b = cg.superedges[:, 0], cg.superedges[:, 1]
    lap[a, b] = -cg.weights
    lap[b, a] = -cg.weights
    np.fill_diagonal(lap, -lap.sum(axis=1))  # integer sums, exact in float64
    return lap


def superedge_graph(cg):
    """The unweighted coarse graph over supernodes."""
    return from_edge_list(cg.supernode_count, cg.superedges)


def reference_projected_normalized_laplacian(g, p):
    """C^T L_norm C accumulated edge by edge into a t^2 upper triangle,
    then mirrored."""
    t = p.ball_count
    col = p.assignment
    u, v = g.edge_arrays()
    deg = np.diff(g.indptr)
    a, b = col[u], col[v]
    upper = np.bincount(
        np.minimum(a, b) * t + np.maximum(a, b),
        weights=-1.0 / np.sqrt(deg[u] * deg[v]),
        minlength=t * t,
    ).reshape(t, t)
    lap = upper + upper.T
    lap[np.diag_indices(t)] += np.bincount(col[deg > 0], minlength=t)
    return lap


def reference_rayleigh_pair(lap, lap_coarse, p, x):
    """Rayleigh quotients x^T L x / x^T x and y^T L_c y / y^T y, y = C^T x,
    from the dense Laplacians."""
    x = np.asarray(x, dtype=float)
    xc = project_vector(p, x)
    return float(x @ lap @ x) / float(x @ x), float(xc @ lap_coarse @ xc) / float(xc @ xc)


def reference_evaluate(g, cg, p, cfg=None):
    """`evaluate` building the original Laplacian first and solving it last,
    with the coarse matrices built and factored while it is alive."""
    cfg = cfg or EvalConfig()
    if len(p.assignment) != g.n:
        raise GraphValidationError(f"partition covers {len(p.assignment)} nodes, expected {g.n}")
    if p.ball_count != cg.supernode_count:
        raise GraphValidationError(
            f"partition has {p.ball_count} balls but coarse graph has "
            f"{cg.supernode_count} supernodes"
        )
    if cfg.sd_mode not in ("projected", "unweighted"):
        raise GraphValidationError(f"unknown sd mode {cfg.sd_mode!r}")
    lap_orig = reference_laplacian(g, cfg.laplacian_kind)
    probing = cfg.rayleigh_vectors > 0
    if probing:
        lap_proj = reference_projected_laplacian(cg)
        proj_eigvals, proj_eigvecs = eigenvalues_symmetric(lap_proj, with_vectors=True)
    if cfg.sd_mode == "unweighted":
        coarse_eigvals = eigenvalues_symmetric(
            reference_laplacian(superedge_graph(cg), cfg.laplacian_kind)
        )
    elif cfg.laplacian_kind == "combinatorial":
        coarse_eigvals = (
            proj_eigvals
            if probing
            else eigenvalues_symmetric(reference_projected_laplacian(cg))
        )
    else:
        coarse_eigvals = eigenvalues_symmetric(reference_projected_normalized_laplacian(g, p))
    sd = spectral_distance(eigenvalues_symmetric(lap_orig), coarse_eigvals)

    samples = []
    if probing:
        lap_comb = lap_orig if cfg.laplacian_kind == "combinatorial" else reference_laplacian(g)
        for x in _rayleigh_test_vectors(p, proj_eigvecs, cfg.rayleigh_vectors):
            r_o, r_c = reference_rayleigh_pair(lap_comb, lap_proj, p, x)
            scale = max(abs(r_o), abs(r_c))
            gap = abs(r_o - r_c) / scale if scale > 0 else 0.0
            samples.append((r_o, r_c, gap))
    return SpectralReport(sd=sd, rayleigh_samples=samples)

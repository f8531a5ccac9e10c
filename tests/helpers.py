"""Brute-force oracles and small-graph enumeration shared by the tests.

Everything here is deliberately independent of the package internals:
adjacency matrices as plain nested lists, triple loops, no shared kernels.
"""

from itertools import combinations

import numpy as np

from gbgc import Graph, from_edge_list


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


def indicator_matrix(c):
    """Dense n x t binary projection matrix C of a ProjectionMap."""
    ind = np.zeros((c.rows, c.cols))
    ind[np.arange(c.rows), c.column_of] = 1.0
    return ind


def reference_coarse_graph(g, c):
    """Dict-and-dense coarse-graph build: (superedges, weights, projected
    Laplacian), the Laplacian accumulated in a t x t int64 matrix."""
    t = c.cols
    col = c.column_of
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

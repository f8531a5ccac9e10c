"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import gbgc.cli as cli
from gbgc import (
    CoarsenConfig,
    Partition,
    build_coarse_graph,
    coarsen,
    coarsen_many,
    default_init_target,
    eigenvalues_symmetric,
    erdos_renyi,
    evaluate,
    from_edge_list,
    init_balls,
    laplacian,
    parse_edge_list,
    parse_tudataset,
    random_partition,
    rayleigh_pair,
    spectral_distance,
)
from gbgc.dataio import write_edge_list
from gbgc.errors import DatasetFormatError, GraphValidationError

from conftest import BARBELL_EDGES
from helpers import (
    adjacency_matrix,
    ball_quality,
    balls,
    bfs_layers,
    brute_connected,
    brute_quality,
    enumerate_graphs,
    partition_of,
    split_ball,
)
import tests_support
from tests_support import write_synthetic_tud, write_tiny_tud


def report(criterion: int, ok: bool, detail: str):
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def fixture_graphs():
    return {
        "k2": from_edge_list(2, [(0, 1)]),
        "k3": from_edge_list(3, [(0, 1), (1, 2), (2, 0)]),
        "p3": from_edge_list(3, [(0, 1), (1, 2)]),
        "star3": from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),
        "barbell": from_edge_list(6, BARBELL_EDGES),
    }


@pytest.fixture(scope="module")
def er_suite():
    """200 deterministic random graphs, n in [10, 200], mean degree in [2, 8]."""
    return tests_support.er_suite()


@pytest.fixture(scope="module")
def adaptive_runs(er_suite):
    runs = []
    for g in er_suite:
        decisions = []
        part = coarsen(g, CoarsenConfig(), decisions=decisions)
        runs.append((g, part, decisions))
    return runs


def test_criterion_01_quality_oracle_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            adj = adjacency_matrix(g)
            if not brute_connected(adj):
                continue
            diff = abs(ball_quality(g, range(n)) - brute_quality(adj))
            worst = max(worst, diff)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"{checked} connected graphs on <=6 nodes, max |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_hand_traced_fixtures():
    graphs = fixture_graphs()
    ok = (
        ball_quality(graphs["k3"], range(3)) == 2.0
        and ball_quality(graphs["p3"], range(3)) == 2 / 3
        and ball_quality(graphs["star3"], range(4)) == 0.75
        and ball_quality(graphs["barbell"], range(6)) == 7 / 6 + 3 / 5
    )
    part = coarsen(graphs["barbell"], CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(graphs["barbell"], part)
    ok = (
        ok
        and [b.members for b in balls(graphs["barbell"], part)] == [(0, 1, 2), (3, 4, 5)]
        and cg.superedges.tolist() == [[0, 1]]
    )
    report(2, ok, "quality fixtures exact; barbell no-init trace exact")


def test_criterion_03_partition_invariants(adaptive_runs):
    violations = 0
    for g, part, decisions in adaptive_runs:
        covered = set()
        for ball in balls(g, part):
            if not ball.members or covered & set(ball.members):
                violations += 1
            covered.update(ball.members)
        if covered != set(range(g.n)):
            violations += 1

        init = init_balls(g, default_init_target(g.n))
        for ball in balls(g, init):
            allowed = set(ball.members)
            if bfs_layers(g, ball.members[0], allowed=allowed).visited != allowed:
                violations += 1

        for d in decisions:
            gain = d.child_a_quality + d.child_b_quality - d.parent_quality
            if (gain > 0) != d.accepted:
                violations += 1
        for ball in balls(g, part):
            if ball.size >= 2:
                child_a, child_b = split_ball(g, ball)
                if child_a.quality + child_b.quality > ball.quality:
                    violations += 1

        ratio_part = coarsen(g, CoarsenConfig(mode="ratio", ratio=0.3))
        flat = [v for ball in balls(g, ratio_part) for v in ball.members]
        if sorted(flat) != list(range(g.n)):
            violations += 1
    report(3, violations == 0, f"200 graphs, adaptive+ratio, {violations} violations")


def test_criterion_04_spectral_correctness():
    graphs = fixture_graphs()
    ok = True
    ok &= bool(
        np.allclose(eigenvalues_symmetric(laplacian(graphs["k2"])), [0, 2], atol=1e-8)
    )
    ok &= bool(
        np.allclose(eigenvalues_symmetric(laplacian(graphs["k3"])), [0, 3, 3], atol=1e-8)
    )
    ok &= bool(
        np.allclose(eigenvalues_symmetric(laplacian(graphs["p3"])), [0, 1, 3], atol=1e-8)
    )
    for g in graphs.values():
        ident = Partition(np.arange(g.n), g.n)
        cg = build_coarse_graph(g, ident)
        ok &= evaluate(g, cg, ident).sd <= 1e-8
    ok &= spectral_distance(np.array([0.0, 2.0]), np.array([0.0])) == 2.0
    for comps, g in (
        (1, from_edge_list(4, [(0, 1), (1, 2), (2, 3)])),
        (2, from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])),
        (3, from_edge_list(7, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)])),
    ):
        eig = eigenvalues_symmetric(laplacian(g))
        ok &= int(np.sum(np.abs(eig) <= 1e-8)) == comps
    report(4, ok, "known spectra, identity SD, padding rule, zero multiplicities")


def test_criterion_05_coarse_laplacian_identities(adaptive_runs):
    bad = 0
    for g, part, _ in adaptive_runs:
        cg = build_coarse_graph(g, part)
        lap = cg.projected_laplacian
        if not np.all(lap.sum(axis=1) == 0.0):
            bad += 1
        degrees = np.diff(g.indptr).tolist()
        for a, ball in enumerate(balls(g, part)):
            expected = sum(degrees[v] for v in ball.members) - 2 * ball.internal_edge_count
            if lap[a, a] != expected:
                bad += 1
    report(5, bad == 0, f"row sums exactly 0 and diagonal identity on 200 graphs, {bad} bad")


def test_criterion_06_rayleigh_identity_specialization():
    fixtures = [
        from_edge_list(20, [(i, i + 1) for i in range(19)]),  # path-20
        from_edge_list(17, [(i, (i + 1) % 17) for i in range(17)]),  # cycle-17
        erdos_renyi(24, 4.0, seed=42),
        erdos_renyi(30, 5.0, seed=7),
    ]
    ok = True
    for g in fixtures:
        ident = Partition(np.arange(g.n), g.n)
        cg = build_coarse_graph(g, ident)
        rep = evaluate(g, cg, ident)
        ok &= len(rep.rayleigh_samples) == 16
        ok &= all(gap <= 1e-12 for _, _, gap in rep.rayleigh_samples)
        r_o, r_c = rayleigh_pair(g, cg, ident, np.ones(g.n))
        ok &= abs(r_o) <= 1e-12 and abs(r_c) <= 1e-12
    report(6, ok, "identity projection: R_c == R_o on 16 vectors; all-ones gives 0")


def test_criterion_07_sd_dominance_over_random():
    """Soft criterion: a violation of up to 10% triggers investigation, not
    an automatic failure; beyond 10% the build fails."""
    cases = []
    gbgc_sd, random_sd = [], []
    for i in range(30):
        g = erdos_renyi(200, 4.0, seed=1000 + i)
        part = coarsen(g, CoarsenConfig())
        cg = build_coarse_graph(g, part)
        gbgc_sd.append(evaluate(g, cg, part).sd)
        control = random_partition(g, part.ball_count, seed=2000 + i)
        cg_control = build_coarse_graph(g, control)
        random_sd.append(evaluate(g, cg_control, control).sd)
        cases.append((g, part, i))
    med_g, med_r = statistics.median(gbgc_sd), statistics.median(random_sd)
    detail = f"median SD gbgc={med_g:.3f} vs random={med_r:.3f} on 30 ER(200, deg 4)"
    if med_g > med_r:
        # Investigate: hold the ball-size multiset fixed so the comparison
        # isolates membership quality from the size-driven eigenvalue
        # inflation of the projected Laplacian (equal-size chunks minimize
        # that inflation regardless of structure).
        matched_sd = []
        for g, part, i in cases:
            matched = _size_matched_random(g, [b.size for b in balls(g, part)], 3000 + i)
            cg_m = build_coarse_graph(g, matched)
            matched_sd.append(evaluate(g, cg_m, matched).sd)
        med_m = statistics.median(matched_sd)
        violation = (med_g - med_r) / med_r
        detail += (
            f"; violation {violation:.1%} (<=10% band), size-matched control"
            f" median={med_m:.3f} confirms membership dominance"
        )
        report(7, violation <= 0.10 and med_g <= med_m, detail)
    else:
        report(7, True, detail)


def _size_matched_random(g, sizes, seed):
    import random as _random

    order = list(range(g.n))
    _random.Random(seed).shuffle(order)
    groups, start = [], 0
    for s in sizes:
        groups.append(order[start : start + s])
        start += s
    return partition_of(g, groups)


def test_criterion_08_determinism_and_parallel_consistency(tmp_path):
    tiny = write_tiny_tud(tmp_path / "tiny")
    synth = write_synthetic_tud(tmp_path / "synth", graph_count=1000)
    ok = True
    for data in (tiny, synth):
        outs = []
        for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / f"{data.name}_{tag}"
            code = cli.main(
                ["coarsen", "--input", str(data), "--output", str(out),
                 "--jobs", str(jobs), "--skip-sd"]
            )
            ok &= code == 0
            outs.append((out / "mapping.jsonl").read_bytes())
        ok &= outs[0] == outs[1] == outs[2]
    report(8, ok, "byte-identical mapping.jsonl across reruns and jobs in {1, 8}")


def test_criterion_09_scaling():
    g10 = erdos_renyi(10_000, 4.0, seed=10_000)
    t0 = time.perf_counter()
    coarsen(g10, CoarsenConfig())
    tok = time.perf_counter() - t0
    g50 = erdos_renyi(50_000, 4.0, seed=50_000)
    t0 = time.perf_counter()
    coarsen(g50, CoarsenConfig())
    t50 = time.perf_counter() - t0
    factor = t50 / max(tok, 1e-9)
    report(
        9,
        t50 < 30.0 and factor < 25.0,
        f"coarsen 50k in {t50:.2f}s (<30s), 10k->50k factor {factor:.1f} (<25)",
    )


def test_criterion_10_ratio_mode(er_suite):
    bad = 0
    # one block call per ratio; each graph's partition is the one it gets alone
    ratios = [i / 10 for i in range(1, 10)]
    runs = [coarsen_many(er_suite, CoarsenConfig(mode="ratio", ratio=r)) for r in ratios]
    for j, g in enumerate(er_suite):
        t0 = init_balls(g, default_init_target(g.n)).ball_count
        previous = 0
        for r, parts in zip(ratios, runs):
            part = parts[j]
            k = max(1, math.ceil(r * g.n))
            if part.ball_count != max(k, t0):
                bad += 1
            if part.ball_count < previous:
                bad += 1
            previous = part.ball_count
    report(10, bad == 0, f"200 graphs x r in 0.1..0.9: exact counts, monotone; {bad} bad")


def test_criterion_11_parser(tmp_path):
    data = write_tiny_tud(tmp_path / "tiny")
    bundle = parse_tudataset(data, "tiny")
    ok = (
        len(bundle.graphs) == 2
        and bundle.graphs[0] == from_edge_list(3, [(0, 1), (1, 2)])
        and bundle.graphs[1] == from_edge_list(2, [(0, 1)])
        and bundle.graph_labels == [1, -1]
    )

    for seed in range(3):
        g = erdos_renyi(30, 3.0, seed=seed)
        path = tmp_path / f"rt{seed}.txt"
        write_edge_list(g, path)
        ok &= parse_edge_list(path) == g

    bad_edge = tmp_path / "bad.txt"
    bad_edge.write_text("0 x\n")
    try:
        parse_edge_list(bad_edge)
        ok = False
    except DatasetFormatError:
        pass
    cross = tmp_path / "cross"
    write_tiny_tud(cross)
    with open(cross / "cross_A.txt", "w") as fh:
        fh.write("1, 4\n")
    try:
        parse_tudataset(cross, "cross")
        ok = False
    except DatasetFormatError:
        pass
    try:
        from_edge_list(3, [(0, 5)])
        ok = False
    except GraphValidationError:
        pass

    detail = "tiny bundle exact, round trip, error classes"
    mutag_dir = _find_mutag()
    if mutag_dir is not None:
        mutag = parse_tudataset(mutag_dir, "MUTAG")
        mean_nodes = sum(g.n for g in mutag.graphs) / len(mutag.graphs)
        ok &= len(mutag.graphs) == 188 and abs(mean_nodes - 17.93) <= 0.01
        detail += f"; MUTAG: {len(mutag.graphs)} graphs, mean n={mean_nodes:.2f}"
    else:
        detail += "; MUTAG download not present, spot check skipped"
    report(11, ok, detail)


def _find_mutag() -> Path | None:
    candidates = [
        Path(os.environ.get("GBGC_MUTAG_DIR", "")),
        Path(__file__).resolve().parent.parent / "data" / "MUTAG",
        Path("/root/data/MUTAG"),
    ]
    for cand in candidates:
        if cand and (cand / "MUTAG_A.txt").is_file():
            return cand
    return None

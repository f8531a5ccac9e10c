import math
import mmap
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbgc import (
    CoarsenConfig,
    EvalConfig,
    GbgcError,
    GraphBlock,
    GraphValidationError,
    Partition,
    build_coarse_graph,
    coarsen,
    eigenvalues_symmetric,
    erdos_renyi,
    evaluate,
    from_edge_list,
    laplacian,
    rayleigh_pair,
    spectral_distance,
)

import gbgc.spectral as spectral
from gbgc.coarse import coarse_block
from gbgc.engine import coarsen_block
from gbgc.spectral import STACK_BYTES, SYMMETRY_BLOCK_BYTES, SYMMETRY_RTOL, evaluate_block
from helpers import (
    adjacency_matrix,
    charpoly_eigenvalues,
    partition_of,
    reference_evaluate,
    reference_laplacian,
    reference_projected_laplacian,
    reference_projected_normalized_laplacian,
    reference_rayleigh_pair,
    superedge_graph,
)
from tests_support import er_suite, synthetic_graphs

# exact barbell spectrum: {0, (5 - sqrt(17))/2, 3, 3, 3, (5 + sqrt(17))/2}
BARBELL_SPECTRUM = [0.0, (5 - math.sqrt(17)) / 2, 3.0, 3.0, 3.0, (5 + math.sqrt(17)) / 2]
# Euclidean distance of that spectrum to {0, 2} padded to {0,0,0,0,0,2},
# computed symbolically out of band
BARBELL_TWO_BALL_SD = 5.8098010937350238


def identity_partition(g):
    return Partition(np.arange(g.n), g.n)


def test_laplacian_k2(k2):
    assert laplacian(k2).tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert laplacian(k2, "normalized").tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_isolated_normalized():
    g = from_edge_list(1, [])
    assert laplacian(g, "normalized").tolist() == [[0.0]]


def test_laplacian_rejects_a_bad_kind_before_allocating():
    n = 2_000
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    tracemalloc.start()
    try:
        with pytest.raises(GraphValidationError, match="unknown laplacian kind"):
            laplacian(g, "signless")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 100


def test_known_spectra(k2, k3, p3):
    assert eigenvalues_symmetric(laplacian(k2)) == pytest.approx([0, 2], abs=1e-8)
    assert eigenvalues_symmetric(laplacian(k3)) == pytest.approx([0, 3, 3], abs=1e-8)
    assert eigenvalues_symmetric(laplacian(p3)) == pytest.approx([0, 1, 3], abs=1e-8)


def test_barbell_spectrum(barbell):
    assert eigenvalues_symmetric(laplacian(barbell)) == pytest.approx(
        BARBELL_SPECTRUM, abs=1e-8
    )


def test_eigenvalues_reject_asymmetric():
    with pytest.raises(GraphValidationError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(GraphValidationError):
        eigenvalues_symmetric(np.zeros((2, 3)))


def test_eigenvalues_charpoly_oracle():
    # roots of the exact characteristic polynomial as an independent check
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = from_edge_list(n, edges)
        adj = adjacency_matrix(g)
        deg = np.diff(g.indptr).tolist()
        lap_int = [[deg[i] if i == j else -adj[i][j] for j in range(n)] for i in range(n)]
        expected = charpoly_eigenvalues(lap_int)
        got = eigenvalues_symmetric(laplacian(g))
        assert got == pytest.approx(expected, abs=1e-8)


def test_zero_multiplicity_counts_components():
    one = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    two = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    three = from_edge_list(7, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)])
    for g, comps in ((one, 1), (two, 2), (three, 3)):
        eig = eigenvalues_symmetric(laplacian(g))
        assert np.all(eig >= -1e-8)
        assert int(np.sum(np.abs(eig) <= 1e-8)) == comps


def test_spectral_distance_basics():
    assert spectral_distance(np.array([0.0, 2.0]), np.array([0.0, 2.0])) == 0.0
    assert spectral_distance(np.array([0.0, 2.0]), np.array([0.0])) == 2.0
    assert spectral_distance(np.array([0.0, 1.0, 3.0]), np.array([0.0, 3.0])) == 1.0


def test_spectral_distance_pseudometric():
    rng = random.Random(11)
    spectra = [
        np.sort(np.array([rng.uniform(0, 5) for _ in range(rng.randint(1, 6))]))
        for _ in range(12)
    ]
    for a in spectra:
        assert spectral_distance(a, a) == 0.0
        for b in spectra:
            assert spectral_distance(a, b) == pytest.approx(spectral_distance(b, a))
            for c in spectra:
                assert spectral_distance(a, c) <= (
                    spectral_distance(a, b) + spectral_distance(b, c) + 1e-12
                )


def test_rayleigh_identity_exact(barbell):
    part = identity_partition(barbell)
    cg = build_coarse_graph(barbell, part)
    rng = random.Random(3)
    for _ in range(16):
        x = np.array([rng.uniform(-1, 1) for _ in range(6)])
        r_o, r_c = rayleigh_pair(cg, x)
        assert r_c == pytest.approx(r_o, rel=1e-12)


def test_rayleigh_all_ones_zero(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    r_o, r_c = rayleigh_pair(cg, np.ones(6))
    assert abs(r_o) <= 1e-12
    # both barbell balls have size 3, so the projected vector stays constant
    assert abs(r_c) <= 1e-12


def test_rayleigh_barbell_sign_vector(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    x = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    r_o, r_c = rayleigh_pair(cg, x)
    assert r_o == pytest.approx(4 / 6, abs=1e-12)
    assert r_c == pytest.approx(2.0, abs=1e-12)


def test_rayleigh_degenerate_inputs(k3):
    part = identity_partition(k3)
    cg = build_coarse_graph(k3, part)
    with pytest.raises(GraphValidationError):
        rayleigh_pair(cg, np.zeros(3))
    with pytest.raises(GraphValidationError):
        rayleigh_pair(cg, np.zeros(4))


def test_evaluate_identity(barbell):
    part = identity_partition(barbell)
    cg = build_coarse_graph(barbell, part)
    report = evaluate(cg)
    assert report.sd <= 1e-8
    assert report.rayleigh_samples
    assert all(gap <= 1e-12 for _, _, gap in report.rayleigh_samples)


def test_evaluate_k2_one_ball(k2):
    part = partition_of(k2, [[0, 1]])
    cg = build_coarse_graph(k2, part)
    report = evaluate(cg)
    assert report.sd == pytest.approx(2.0, abs=1e-8)


def test_evaluate_barbell_frozen_oracle(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    report = evaluate(cg)
    assert report.sd == pytest.approx(BARBELL_TWO_BALL_SD, abs=1e-8)


def test_evaluate_unweighted_mode(barbell):
    part = coarsen(barbell, CoarsenConfig(ablation="no_init"))
    cg = build_coarse_graph(barbell, part)
    report = evaluate(cg, EvalConfig(sd_mode="unweighted"))
    # coarse side is K2's Laplacian: same spectrum {0, 2} here
    assert report.sd == pytest.approx(BARBELL_TWO_BALL_SD, abs=1e-8)


def test_evaluate_normalized_kind():
    g = erdos_renyi(30, 4.0, seed=8)
    part = coarsen(g, CoarsenConfig())
    cg = build_coarse_graph(g, part)
    report = evaluate(cg, EvalConfig(laplacian_kind="normalized"))
    assert math.isfinite(report.sd) and report.sd >= 0
    identity = identity_partition(g)
    cg_i = build_coarse_graph(g, identity)
    report_i = evaluate(cg_i, EvalConfig(laplacian_kind="normalized"))
    assert report_i.sd <= 1e-8


@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
@pytest.mark.parametrize("mode", ["projected", "unweighted"])
def test_evaluate_without_probes_computes_sd_only(monkeypatch, kind, mode):
    for g in er_suite()[::40]:
        part = coarsen(g, CoarsenConfig())
        cg = build_coarse_graph(g, part)
        probed = evaluate(cg, EvalConfig(kind, mode, rayleigh_vectors=16))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", None)  # only eigenvalues may be computed
            bare = evaluate(cg, EvalConfig(kind, mode, rayleigh_vectors=0))
        assert bare.rayleigh_samples == []
        assert probed.rayleigh_samples
        assert bare.sd == pytest.approx(probed.sd, abs=1e-10)


MODES = [
    ("combinatorial", "projected"),
    ("combinatorial", "unweighted"),
    ("normalized", "projected"),
    ("normalized", "unweighted"),
]
PARTITIONS = [
    CoarsenConfig(),
    CoarsenConfig(ablation="no_init"),
    CoarsenConfig(mode="ratio", ratio=0.3),
]




def isolated_graph():
    """Nodes 7 and 8 are isolated."""
    return from_edge_list(9, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)])


@pytest.fixture(scope="module")
def coarsened_suite():
    """(graph, [(partition, coarse graph) per PARTITIONS config]) for the
    ER suite and the isolated-node graph."""
    cases = []
    for g in [*er_suite(), isolated_graph()]:
        parts = [coarsen(g, cfg) for cfg in PARTITIONS]
        cases.append((g, [(part, build_coarse_graph(g, part)) for part in parts]))
    return cases


@pytest.mark.parametrize("kind, mode", MODES)
def test_sd_matrices_match_the_builders_they_replace(kind, mode, coarsened_suite):
    for g, coarsened in coarsened_suite:
        assert np.array_equal(laplacian(g, kind), reference_laplacian(g, kind))
        for part, cg in coarsened:
            if mode == "unweighted":
                got = spectral.superedge_laplacian(cg, kind)
                want = reference_laplacian(superedge_graph(cg), kind)
            elif kind == "combinatorial":
                got = spectral.projected_laplacian(cg)
                want = reference_projected_laplacian(cg)
            else:
                got = spectral.projected_normalized_laplacian(cg)
                want = reference_projected_normalized_laplacian(g, part)
            assert np.array_equal(got, want)
            # the signs of zeros too: eigvalsh's last bits depend on them
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, mode", MODES)
def test_evaluate_matches_reference_exactly(kind, mode):
    for g in [*er_suite()[::20], isolated_graph()]:
        for coarsen_cfg in PARTITIONS:
            part = coarsen(g, coarsen_cfg)
            cg = build_coarse_graph(g, part)
            for k in (0, 16):
                cfg = EvalConfig(kind, mode, rayleigh_vectors=k)
                got = evaluate(cg, cfg)
                want = reference_evaluate(g, cg, part, cfg)
                assert got.sd == want.sd
                # the probes sum over edges where the reference multiplies
                # dense matrices, so they agree to rounding
                assert len(got.rayleigh_samples) == len(want.rayleigh_samples)
                for sample, expected in zip(got.rayleigh_samples, want.rayleigh_samples):
                    assert sample == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_rayleigh_pair_matches_the_dense_form():
    rng = np.random.default_rng(7)
    for g in er_suite()[::10]:
        part = coarsen(g, CoarsenConfig())
        cg = build_coarse_graph(g, part)
        lap, lap_coarse = laplacian(g), spectral.projected_laplacian(cg)
        for x in rng.uniform(-1, 1, size=(8, g.n)):
            got = rayleigh_pair(cg, x)
            assert got == pytest.approx(
                reference_rayleigh_pair(lap, lap_coarse, part, x), rel=1e-12, abs=1e-12
            )


def test_eval_config_rejects_a_bad_kind_or_mode():
    # checked when the config is built, so before evaluate builds any Laplacian
    with pytest.raises(GraphValidationError, match="unknown laplacian kind"):
        EvalConfig(laplacian_kind="signless")
    with pytest.raises(GraphValidationError, match="unknown sd mode"):
        EvalConfig(sd_mode="weighted")


@pytest.mark.parametrize("probes", [-3, 2.5, True, "16", None])
def test_eval_config_rejects_a_bad_probe_count(probes):
    with pytest.raises(GraphValidationError, match="rayleigh_vectors must be an integer >= 0"):
        EvalConfig(rayleigh_vectors=probes)


@pytest.mark.parametrize("probes", [0, np.int64(16)])
def test_eval_config_accepts_a_probe_count(probes):
    assert EvalConfig(rayleigh_vectors=probes).rayleigh_vectors == probes


@pytest.mark.parametrize("probes", [0, 16])
@pytest.mark.parametrize("kind, mode", MODES)
def test_evaluate_holds_one_dense_original_matrix(kind, mode, probes):
    g = erdos_renyi(1500, 4.0, seed=1500)
    part = coarsen(g, CoarsenConfig())
    cg = build_coarse_graph(g, part)
    cfg = EvalConfig(kind, mode, rayleigh_vectors=probes)
    tracemalloc.start()
    try:
        evaluate(cg, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n Laplacian, a stack of one, is a mapping that tracemalloc
    # does not see, and LAPACK's working copy is allocated outside numpy;
    # what is traced is the smaller coarse side (0.14x, or 0.28x with the
    # probes' eigenvectors), so a numpy copy of the n x n matrix would read
    # above 1x
    assert peak < 0.5 * 8 * g.n**2


def test_finishing_a_block_of_small_graphs_holds_one_stack():
    graphs = synthetic_graphs(2_000)  # about 60k nodes, a block the CLI would make
    block = GraphBlock.join(graphs)
    assignment, first_ball = coarsen_block(block, CoarsenConfig())
    tracemalloc.start()
    try:
        evaluate_block(coarse_block(block, assignment, first_ball), EvalConfig(rayleigh_vectors=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < STACK_BYTES + 8 * max(g.n for g in graphs) ** 2


@pytest.fixture(scope="module")
def coarsened_blocks():
    """(graphs, their CoarseBlock) of mixed-size blocks: every fifth graph
    of the ER suite with the isolated-node graph, 120 synthetic graphs, and
    a block of one."""
    blocks = []
    for graphs in (
        [*er_suite()[::5], isolated_graph()],
        synthetic_graphs(120),
        [er_suite()[77]],
    ):
        block = GraphBlock.join(graphs)
        for coarsen_cfg in (CoarsenConfig(), CoarsenConfig(mode="ratio", ratio=0.3)):
            blocks.append((graphs, coarse_block(block, *coarsen_block(block, coarsen_cfg))))
    return blocks


@pytest.mark.parametrize("stack_bytes", [STACK_BYTES, 4_096], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("probes", [0, 16])
@pytest.mark.parametrize("kind, mode", MODES)
def test_evaluate_block_matches_each_graph_alone(
    monkeypatch, coarsened_blocks, kind, mode, probes, stack_bytes
):
    # 4 KB holds five 10 x 10 matrices, so a size group of the synthetic
    # block is built and solved in several stacks
    monkeypatch.setattr(spectral, "STACK_BYTES", stack_bytes)
    cfg = EvalConfig(kind, mode, rayleigh_vectors=probes)
    for graphs, cb in coarsened_blocks:
        sds, samples = evaluate_block(cb, cfg)
        assert len(sds) == len(graphs)
        assert (samples is None) == (probes == 0)
        for i, g in enumerate(graphs):
            part = cb.coarsened(i).partition
            cg = build_coarse_graph(g, part)
            got = samples[i] if samples is not None else []
            want = reference_evaluate(g, cg, part, cfg)
            assert sds[i] == want.sd
            # the probes sum over edges where the reference multiplies dense
            # matrices, so the quotients agree to rounding; a null-space
            # probe's quotients are rounding noise (about 1e-31), and so is
            # its gap. Alone, through the same sums, every sample is equal.
            assert len(got) == len(want.rayleigh_samples)
            for sample, expected in zip(got, want.rayleigh_samples):
                assert sample[:2] == pytest.approx(expected[:2], rel=1e-12, abs=1e-12)
            alone = evaluate(cg, cfg)
            assert sds[i] == alone.sd
            assert got == alone.rayleigh_samples


def test_stacked_symmetry_check_judges_each_matrix():
    stack = np.zeros((700, 20, 20))  # more than one block of whole matrices
    assert 8 * stack.size > SYMMETRY_BLOCK_BYTES
    stack[:, 2, 5] = stack[:, 5, 2] = -1.0
    stack[7, 0, 0] = np.nan  # a NaN matrix passes, as a lone one does
    spectral._check_symmetric(stack)
    assert eigenvalues_symmetric(stack[8:10]).shape == (2, 20)
    stack[690, 4, 1] = 1e-6  # skew in one matrix of the last block
    with pytest.raises(GraphValidationError, match="not symmetric"):
        spectral._check_symmetric(stack)
    spectral._check_symmetric(stack[:690])
    with pytest.raises(GraphValidationError, match="not symmetric"):
        eigenvalues_symmetric(stack[690])


def _block_spanning_matrix():
    n = 600
    assert 8 * n * n > SYMMETRY_BLOCK_BYTES  # more than one row block
    m = np.zeros((n, n))
    m[np.diag_indices(n)] = 4.0
    return m


def test_symmetry_check_rejects_skew_in_last_block():
    m = _block_spanning_matrix()
    m[-1, 3] = 1e-6
    with pytest.raises(GraphValidationError, match="not symmetric"):
        eigenvalues_symmetric(m)
    m = _block_spanning_matrix()
    m[3, -1] = 1e-6
    with pytest.raises(GraphValidationError, match="not symmetric"):
        eigenvalues_symmetric(m)


def test_symmetry_check_threshold_is_inclusive():
    m = _block_spanning_matrix()
    tol = SYMMETRY_RTOL * max(1.0, 4.0)
    m[-1, 3] = tol
    spectral._check_symmetric(m)
    m[-1, 3] = 2 * tol
    with pytest.raises(GraphValidationError, match="not symmetric"):
        spectral._check_symmetric(m)


@pytest.fixture(scope="module")
def coarse_blocks():
    """CoarseBlocks of the whole ER suite with the isolated-node graph, and
    of 300 synthetic graphs, under every PARTITIONS config."""
    blocks = []
    for graphs in ([*er_suite(), isolated_graph()], synthetic_graphs(300)):
        block = GraphBlock.join(graphs)
        for cfg in PARTITIONS:
            blocks.append(coarse_block(block, *coarsen_block(block, cfg)))
    return blocks


def _laplacian_descriptions(cb):
    return (
        spectral._graph_laplacians(cb.block, "combinatorial"),
        spectral._graph_laplacians(cb.block, "normalized"),
        spectral._projected_laplacians(cb),
        spectral._superedge_laplacians(cb, "combinatorial"),
        spectral._superedge_laplacians(cb, "normalized"),
        spectral._projected_normalized_laplacians(cb),
    )


def test_every_stack_the_package_builds_is_symmetric(coarse_blocks):
    # the stacks _dense_laplacian builds go to LAPACK without the symmetry
    # check that eigenvalues_symmetric makes on a caller's matrix; this is
    # the check, for every description the package builds them from
    stacks = 0
    for cb in coarse_blocks:
        for laps in _laplacian_descriptions(cb):
            for size, members in spectral._groups(laps.sizes):
                stack = spectral._dense_laplacian(laps, members, size)
                stacks += 1
                if laps.normalized:
                    # scaled rows first, then columns: mirror entries may
                    # differ in their last bit
                    skew = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
                    peak = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
                    assert (skew <= SYMMETRY_RTOL * peak).all()
                else:
                    assert np.array_equal(stack, stack.transpose(0, 2, 1))
    assert stacks > 1000


def test_lapack_sees_the_same_bits_in_the_lower_stacks(coarse_blocks):
    # _solved hands LAPACK stacks of only the lower triangle and diagonal;
    # they are the full stacks' own bits there (-0.0 included), zero above,
    # and solve to the same eigenvalues and eigenvectors
    stacks = 0
    for cb in coarse_blocks:
        for laps in _laplacian_descriptions(cb):
            for size, members in spectral._groups(laps.sizes):
                full = spectral._dense_laplacian(laps, members, size)
                lower = spectral._dense_laplacian(laps, members, size, lower=True)
                stacks += 1
                assert lower.tobytes() == np.tril(full).tobytes()
                if laps.normalized:
                    # a full stack scaled in place, rows and then columns
                    plain = laps._replace(normalized=False)
                    scaled = spectral._dense_laplacian(plain, members, size)
                    degree = np.diagonal(scaled, axis1=1, axis2=2)
                    positive = np.where(degree > 0, degree, 1.0)
                    scale = np.where(degree > 0, 1.0 / np.sqrt(positive), 0.0)
                    scaled *= scale[:, :, None]
                    scaled *= scale[:, None, :]
                    assert lower.tobytes() == np.tril(scaled).tobytes()
                assert np.array_equal(
                    spectral._eigensolve(lower, False), spectral._eigensolve(full, False)
                )
                for got, want in zip(
                    spectral._eigensolve(lower, True), spectral._eigensolve(full, True)
                ):
                    assert np.array_equal(got, want)
    assert stacks > 1000


_LONE_STACK_RSS = """
import numpy as np
import gbgc.spectral as spectral
from gbgc import GraphBlock, erdos_renyi

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))

laps = spectral._graph_laplacians(GraphBlock.join([erdos_renyi(3000, 4.0, seed=3000)]), "{kind}")
rises = []

def read_all(m, with_vectors):
    float(m.sum())  # reads every page of the stack, as numpy's copy for LAPACK does
    rises.append(rss() - before)
    return np.zeros(m.shape[:-1])

spectral._eigensolve = read_all
before = rss()
spectral._spectra(laps)
print(*rises)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or not hasattr(mmap, "MAP_PRIVATE"),
    reason="needs /proc/self/status and private mappings",
)
@pytest.mark.parametrize("kind", ["combinatorial", "normalized"])
def test_a_lone_stack_is_backed_only_where_its_entries_land(kind):
    # ER(3000)'s Laplacian is one 72 MB stack. Its lower triangle's entries
    # land on about 0.39 of its pages; a read of the others maps the zero
    # page. A shared mapping (backed when read), huge pages (one write backs
    # 2 MB) or a full build would all come near or above half of it
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _LONE_STACK_RSS.format(kind=kind)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rise = int(done.stdout)
    assert 8 * 3000**2 > STACK_BYTES  # a stack of one, mapped
    assert rise < 0.5 * 8 * 3000**2


def test_a_lone_matrix_that_cannot_fit_fails_before_it_is_built(monkeypatch):
    # 4 KB makes the 30 x 30 Laplacian (7,200 bytes) a lone stack; the
    # reader is patched, so nothing large is allocated
    monkeypatch.setattr(spectral, "STACK_BYTES", 4096)
    g = erdos_renyi(30, 4.0, seed=3)
    cg = build_coarse_graph(g, coarsen(g, CoarsenConfig()))
    n = 30
    # the matrix, LAPACK's copy, syevd's workspace and the eigenvalues
    values_need = 16 * n * n + 8 * (2 * n + 1) + 8 * n
    cfg = EvalConfig(rayleigh_vectors=0)
    want = evaluate(cg, cfg).sd
    for available, fits in [(None, True), (values_need, True), (values_need - 1, False)]:
        monkeypatch.setattr(spectral, "_available_bytes", lambda: available)
        if fits:
            assert evaluate(cg, cfg).sd == want
        else:
            with pytest.raises(GbgcError, match=(
                rf"the dense eigensolve of a 30 x 30 matrix needs about {values_need} bytes, "
                rf"more than the {available} available; rerun with --skip-sd"
            )):
                evaluate(cg, cfg)
    # the probes' eigh of C^T L C, here L itself, also needs the
    # eigenvectors and a larger workspace (with its integer part)
    vectors_need = 24 * n * n + 8 * (1 + 6 * n + 2 * n * n) + 4 * (3 + 5 * n) + 8 * n
    identity = build_coarse_graph(g, identity_partition(g))
    monkeypatch.setattr(spectral, "_available_bytes", lambda: vectors_need)
    evaluate(identity, EvalConfig())
    monkeypatch.setattr(spectral, "_available_bytes", lambda: vectors_need - 1)
    with pytest.raises(GbgcError, match=f"30 x 30 matrix needs about {vectors_need} bytes"):
        evaluate(identity, EvalConfig())


GIB = 1 << 30
V2_FULL_OF_CACHE = {
    "/proc/self/cgroup": "0::/job\n",
    "/sys/fs/cgroup/job/memory.max": f"{GIB}\n",
    "/sys/fs/cgroup/job/memory.current": f"{GIB}\n",
    "/sys/fs/cgroup/job/memory.stat": f"anon 4096\nfile {GIB - 4096}\ninactive_file {GIB // 2}\n",
}


@pytest.mark.parametrize(
    "files, available",
    [
        # cgroup v2 whose usage is all but 4 KB page cache: the inactive
        # half of it can be reclaimed, so it counts as available
        (V2_FULL_OF_CACHE, GIB // 2),
        # the same group with no inactive cache left has no room
        ({**V2_FULL_OF_CACHE, "/sys/fs/cgroup/job/memory.stat": "anon 4096\ninactive_file 0\n"}, 0),
        # MemAvailable, when smaller than the group's room
        ({**V2_FULL_OF_CACHE, "/proc/meminfo": "MemTotal: 8 kB\nMemAvailable: 1000 kB\n"},
         1000 * 1024),
        # a v2 group without a limit, and no meminfo: unknown
        ({"/proc/self/cgroup": "0::/job\n", "/sys/fs/cgroup/job/memory.max": "max\n"}, None),
        # cgroup v1, whose own group is mounted at the controller's root
        # (its path as named is not there)
        ({
            "/proc/self/cgroup": "5:cpu:/\n4:memory:/docker/abc\n0::/\n",
            "/sys/fs/cgroup/memory/memory.limit_in_bytes": "300000\n",
            "/sys/fs/cgroup/memory/memory.usage_in_bytes": "290000\n",
            "/sys/fs/cgroup/memory/memory.stat": "cache 200000\ninactive_file 1\n"
                                                 "total_inactive_file 150000\n",
        }, 160000),
    ],
    ids=["v2-cache", "v2-no-cache", "meminfo", "v2-unlimited", "v1-mount-root"],
)
def test_reclaimable_page_cache_counts_as_available(monkeypatch, files, available):
    def read(path):
        if path not in files:
            raise FileNotFoundError(path)
        return files[path]

    g = erdos_renyi(30, 4.0, seed=3)
    cg = build_coarse_graph(g, coarsen(g, CoarsenConfig()))
    cfg = EvalConfig(rayleigh_vectors=0)
    want = evaluate(cg, cfg).sd
    monkeypatch.setattr(spectral, "_read_text", read)
    assert spectral._available_bytes() == available
    # a lone 30 x 30 stack is checked against it, and solves when it fits
    monkeypatch.setattr(spectral, "STACK_BYTES", 4096)
    if available == 0:
        with pytest.raises(GbgcError, match="rerun with --skip-sd"):
            evaluate(cg, cfg)
    else:
        assert evaluate(cg, cfg).sd == want


def test_small_stacks_never_read_the_available_memory(monkeypatch):
    def unreadable():
        raise AssertionError("read the available memory")

    monkeypatch.setattr(spectral, "_available_bytes", unreadable)
    block = GraphBlock.join(synthetic_graphs(40))
    cb = coarse_block(block, *coarsen_block(block, CoarsenConfig()))
    sds, samples = evaluate_block(cb, EvalConfig())
    assert len(sds) == len(samples) == 40


def test_the_available_memory_is_a_count_of_bytes_or_unknown():
    available = spectral._available_bytes()
    assert available is None or (isinstance(available, int) and available > 0)

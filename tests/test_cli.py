import collections
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbgc.cli as cli
from gbgc import (
    CoarsenConfig,
    CoarsenedGraph,
    DatasetBundle,
    EvalConfig,
    Graph,
    Partition,
    SpectralReport,
    build_coarse_graph,
    coarsen,
    evaluate,
    parse_tudataset,
)
import gbgc.spectral as spectral
from gbgc.graph import GraphBlock
from helpers import write_reference_results
from tests_support import (
    synthetic_graphs,
    write_barbell_edgelist,
    write_synthetic_tud,
    write_tiny_tud,
)


def run(argv):
    return cli.main(argv)


def read_report(out_dir):
    lines = (out_dir / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_coarsen_barbell_no_init(tmp_path, capsys):
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    out = tmp_path / "out"
    code = run(
        ["coarsen", "--input", str(inp), "--format", "edgelist",
         "--mode", "adaptive", "--ablation", "no-init", "--output", str(out)]
    )
    assert code == 0
    rows = read_report(out)
    assert len(rows) == 1
    assert rows[0]["n_bar"] == "2"
    assert float(rows[0]["r_a"]) == pytest.approx(1 / 3, abs=1e-6)
    mapping = json.loads((out / "mapping.jsonl").read_text())
    assert mapping["assignment"] == [0, 0, 0, 1, 1, 1]
    assert "mean_r_a" in capsys.readouterr().out


def test_ratio_requires_flag(tmp_path):
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "--input", str(inp), "--mode", "ratio"])
    assert exc.value.code == 2


def test_ratio_out_of_range(tmp_path):
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "--input", str(inp), "--mode", "ratio", "--ratio", "1.5"])
    assert exc.value.code == 2


def test_coarsen_tudataset_fixture(tmp_path):
    data = write_tiny_tud(tmp_path / "tiny")
    out = tmp_path / "out"
    code = run(["coarsen", "--input", str(data), "--output", str(out)])
    assert code == 0
    assert len(read_report(out)) == 2


def test_coarsen_graph_id_gap_exit_1_without_output(tmp_path, capsys):
    data = write_tiny_tud(tmp_path / "tiny")
    (data / "tiny_graph_indicator.txt").write_text("1\n1\n1\n3\n3\n")
    (data / "tiny_graph_labels.txt").unlink()
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out)]) == 1
    assert "graph id 2 has no nodes" in capsys.readouterr().err
    assert not (out / "mapping.jsonl").exists()


def test_coarsen_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    code = run(["coarsen", "--input", str(bad), "--format", "edgelist"])
    assert code == 1
    assert "bad.txt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, error",
    [
        ("n 3\n0 5\n", "bad1.txt:2: edge (0, 5) out of range for node_count=3"),
        ("0 1\n-1 2\n", "bad1.txt:2: negative node index in edge (-1, 2)"),
    ],
)
def test_coarsen_bad_index_exit_1_with_file_and_line(tmp_path, capsys, text, error):
    bad = tmp_path / "bad1.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(bad), "--format", "edgelist",
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert error in err
    assert "Traceback" not in err
    assert not (out / "mapping.jsonl").exists()


def test_evaluate_round_trip(tmp_path):
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(inp), "--format", "edgelist",
                "--ablation", "no-init", "--output", str(out)]) == 0
    sd_first = read_report(out)[0]["sd"]
    assert run(["evaluate", "--input", str(inp), "--format", "edgelist",
                "--output", str(out)]) == 0
    assert read_report(out)[0]["sd"] == sd_first


def test_evaluate_identity_mapping(tmp_path):
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "mapping.jsonl").write_text(
        json.dumps({"graph_index": 0, "assignment": [0, 1, 2], "supernode_count": 3}) + "\n"
    )
    assert run(["evaluate", "--input", str(k3), "--output", str(out)]) == 0
    assert float(read_report(out)[0]["sd"]) == pytest.approx(0.0, abs=1e-8)


def test_evaluate_bad_assignment_length(tmp_path, capsys):
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "mapping.jsonl").write_text(
        json.dumps({"graph_index": 0, "assignment": [0, 1], "supernode_count": 2}) + "\n"
    )
    assert run(["evaluate", "--input", str(k3), "--output", str(out)]) == 1
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment, count, message",
    [
        ([0, -1, 0], 1, "node 1 mapped to invalid supernode -1"),
        ([0, 10**20, 1], 2, f"node 1 mapped to invalid supernode {10**20}"),
        ([0, 0, 2], 3, "supernode indices are not dense"),
        ([0, 1, 2], 10**30, "supernode indices are not dense"),
    ],
)
def test_evaluate_bad_supernode_indices(tmp_path, capsys, assignment, count, message):
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "mapping.jsonl").write_text(
        json.dumps({"graph_index": 0, "assignment": assignment, "supernode_count": count}) + "\n"
    )
    assert run(["evaluate", "--input", str(k3), "--output", str(out)]) == 1
    assert f"graph 0: {message}" in capsys.readouterr().err


def test_jobs_parallel_identical_mapping(tmp_path):
    data = write_tiny_tud(tmp_path / "tiny")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["coarsen", "--input", str(data), "--output", str(out1), "--jobs", "1"]) == 0
    assert run(["coarsen", "--input", str(data), "--output", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "mapping.jsonl").read_bytes() == (out2 / "mapping.jsonl").read_bytes()
    assert (out1 / "coarse_edges.txt").read_bytes() == (out2 / "coarse_edges.txt").read_bytes()


def test_jobs_parallel_identical_outputs_synthetic(tmp_path):
    data = write_synthetic_tud(tmp_path / "synth", graph_count=300)
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert run(["coarsen", "--input", str(data), "--output", str(out),
                    "--jobs", str(jobs)]) == 0
        report = [row.rsplit(",", 1)[0] for row in (out / "report.csv").read_text().splitlines()]
        outs.append(((out / "mapping.jsonl").read_bytes(),
                     (out / "coarse_edges.txt").read_bytes(), report))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cpus, graph_count", [(2, 300), (8, 2)])
def test_jobs_capped_at_usable_cpus_and_tasks(tmp_path, monkeypatch, cpus, graph_count):
    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its width and task count,
        and runs the tasks in this process, so no worker is ever started."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            pools.append((self.max_workers, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    data = write_synthetic_tud(tmp_path / "synth", graph_count=graph_count)
    for jobs in (5000, cpus):
        out = tmp_path / f"jobs{jobs}"
        assert run(["coarsen", "--input", str(data), "--output", str(out),
                    "--jobs", str(jobs), "--skip-sd"]) == 0
    # --jobs 5000 runs as --jobs <cpus>, and the pool is never wider than its tasks
    assert pools[0] == pools[1]
    assert pools[0][0] == min(cpus, pools[0][1])


def test_coarsen_asks_for_no_rayleigh_probes(tmp_path, monkeypatch):
    configs = []
    real_evaluate_block = cli.evaluate_block

    def recording_evaluate_block(cb, cfg):
        configs.append(cfg)
        return real_evaluate_block(cb, cfg)

    monkeypatch.setattr(cli, "evaluate_block", recording_evaluate_block)
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(inp), "--output", str(out)]) == 0
    assert run(["evaluate", "--input", str(inp), "--output", str(out)]) == 0
    assert [cfg.rayleigh_vectors for cfg in configs] == [0, 16]


def test_gbgc_jobs_env(monkeypatch):
    monkeypatch.setenv("GBGC_JOBS", "7")
    parser = cli.build_parser()
    args = parser.parse_args(["coarsen", "--input", "x"])
    assert args.jobs == 7


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_gbgc_jobs_fails_like_the_flag(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("GBGC_JOBS", value)
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "--input", str(inp), "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_small(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "BENCH_SIZES", (40, 80))
    out = tmp_path / "bench"
    assert run(["bench", "--output", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,e,n_bar,r_a,elapsed_micros"
    assert len(lines) == 3
    n, _, n_bar, _, _ = lines[1].split(",")
    assert int(n_bar) < int(n)
    sd_line = (out / "bench_sd.csv").read_text().splitlines()[1]
    _, gbgc_sd, random_sd = sd_line.split(",")
    assert float(gbgc_sd) >= 0 and float(random_sd) >= 0
    assert "sd_control" in capsys.readouterr().out


def test_bench_deterministic_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BENCH_SIZES", (60,))
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert run(["bench", "--output", str(out1), "--skip-sd"]) == 0
    assert run(["bench", "--output", str(out2), "--skip-sd"]) == 0
    first = [line.split(",")[:4] for line in (out1 / "bench.csv").read_text().splitlines()]
    second = [line.split(",")[:4] for line in (out2 / "bench.csv").read_text().splitlines()]
    assert first == second


@pytest.mark.parametrize(
    "row",
    ["5", "null", '{"graph_index": 0, "assignment": ["0", 0, 0], "supernode_count": 1}'],
)
def test_evaluate_malformed_mapping_row_exit_1(tmp_path, capsys, row):
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    good = json.dumps({"graph_index": 0, "assignment": [0, 0, 0], "supernode_count": 1})
    (out / "mapping.jsonl").write_text(f"{good}\n{row}\n")
    assert run(["evaluate", "--input", str(k3), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "mapping.jsonl:2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "indices, message",
    [([0, 0], "mapping.jsonl:2: duplicate graph_index 0"),
     ([0, 1], "mapping.jsonl:2: graph_index 1 is not in the input")],
)
def test_evaluate_duplicate_or_unknown_index_exit_1(tmp_path, capsys, indices, message):
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "mapping.jsonl").write_text("".join(
        json.dumps({"graph_index": i, "assignment": [0, 0, 0], "supernode_count": 1}) + "\n"
        for i in indices
    ))
    assert run(["evaluate", "--input", str(k3), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "graph_1_row, message",
    [
        ({"graph_index": 1, "assignment": [0, 5], "supernode_count": 1},
         "graph 1: node 1 mapped to invalid supernode 5"),
        (None, "graph 1: no mapping row"),
    ],
    ids=["bad-row", "missing-row"],
)
def test_evaluate_reports_a_failing_graph_and_writes_the_rest(
    tmp_path, capsys, graph_1_row, message
):
    data = write_tiny_tud(tmp_path / "tiny")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out)]) == 0
    sd_0 = read_report(out)[0]["sd"]
    graph_0_row = (out / "mapping.jsonl").read_text().splitlines()[0]
    rows = [graph_0_row] + ([json.dumps(graph_1_row)] if graph_1_row else [])
    (out / "mapping.jsonl").write_text("\n".join(rows) + "\n")
    (out / "report.csv").unlink()
    capsys.readouterr()
    assert run(["evaluate", "--input", str(data), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert "graphs=1 " in captured.out
    report = read_report(out)
    assert [row["graph_index"] for row in report] == ["0"]
    assert report[0]["sd"] == sd_0


def test_evaluate_pins_each_of_several_bad_rows_in_one_block(tmp_path, capsys):
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "1"]) == 0
    assert run(["evaluate", "--input", str(data), "--output", str(out)]) == 0

    def report_but_elapsed():
        return [row.rsplit(",", 1)[0] for row in (out / "report.csv").read_text().splitlines()[1:]]

    clean = report_but_elapsed()
    rows = [json.loads(line) for line in (out / "mapping.jsonl").read_text().splitlines()]
    t_30 = rows[30]["supernode_count"]
    rows[7]["assignment"].append(0)
    rows[30]["assignment"][0] = t_30
    del rows[12]
    (out / "mapping.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run(["evaluate", "--input", str(data), "--output", str(out)]) == 1
    n_7 = synthetic_graphs(40)[7].n
    assert capsys.readouterr().err == (
        f"graph 7: assignment length {n_7 + 1} does not match graph with {n_7} nodes\n"
        "graph 12: no mapping row\n"
        f"graph 30: node 0 mapped to invalid supernode {t_30}\n"
    )
    assert report_but_elapsed() == [row for i, row in enumerate(clean) if i not in (7, 12, 30)]


@pytest.mark.parametrize("flag", [["--skip-sd"], ["--jobs", "2"]])
def test_evaluate_rejects_flags_it_would_ignore(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--input", str(tmp_path / "g.txt"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_rejects_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError, "graph 1: out of memory"),
        (RuntimeError("boom"), "graph 1: internal error: RuntimeError: boom"),
    ],
    ids=["memory", "internal"],
)
def test_memory_error_in_one_graph_reports_it_and_writes_the_rest(
    tmp_path, monkeypatch, capsys, error, message, jobs
):
    real_coarsen_block = cli.coarsen_block
    real_coarsen = cli.coarsen

    def coarsen_block_failing_on_two_nodes(block, cfg):
        if (np.diff(block.bounds) == 2).any():  # the second graph of the tiny dataset
            raise error
        return real_coarsen_block(block, cfg)

    def coarsen_failing_on_two_nodes(g, cfg):
        coarsen_block_failing_on_two_nodes(GraphBlock.join([g]), cfg)
        return real_coarsen(g, cfg)

    # the engine fails on that graph whether it runs in a block or alone;
    # forked pool workers inherit the patches
    monkeypatch.setattr(cli, "coarsen_block", coarsen_block_failing_on_two_nodes)
    monkeypatch.setattr(cli, "coarsen", coarsen_failing_on_two_nodes)
    data = write_tiny_tud(tmp_path / "tiny")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert [row["graph_index"] for row in read_report(out)] == ["0"]
    assert json.loads((out / "mapping.jsonl").read_text())["graph_index"] == 0
    assert (out / "coarse_edges.txt").read_text().startswith("graph 0\n")


def test_memory_error_in_parent_exit_1(tmp_path, monkeypatch, capsys):
    def parse_out_of_memory(path, name):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_tudataset", parse_out_of_memory)
    data = write_tiny_tud(tmp_path / "tiny")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "1"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not (out / "mapping.jsonl").exists()


def test_internal_error_in_evaluate_exit_1(tmp_path, monkeypatch, capsys):
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(inp), "--output", str(out), "--skip-sd"]) == 0

    def failing_evaluate_block(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "evaluate_block", failing_evaluate_block)
    capsys.readouterr()
    assert run(["evaluate", "--input", str(inp), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "graph 0: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_block_finish_reports_only_its_graph(tmp_path, monkeypatch, capsys, jobs):
    real_evaluate_block = cli.evaluate_block
    culprit = 19  # the only synthetic graph of the 40 with 10 + (19 * 7) % 41 = 20 nodes

    def evaluate_block_failing_on_culprit(cb, cfg):
        if (np.diff(cb.block.bounds) == 20).any():
            raise RuntimeError("boom")
        return real_evaluate_block(cb, cfg)

    # forked pool workers inherit the patch
    monkeypatch.setattr(cli, "evaluate_block", evaluate_block_failing_on_culprit)
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"graph {culprit}: internal error: RuntimeError: boom\n"
    written = [int(row["graph_index"]) for row in read_report(out)]
    assert written == [i for i in range(40) if i != culprit]
    mapping = (out / "mapping.jsonl").read_text().splitlines()
    assert [json.loads(line)["graph_index"] for line in mapping] == written

    monkeypatch.setattr(cli, "evaluate_block", real_evaluate_block)
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 0
    monkeypatch.setattr(cli, "evaluate_block", evaluate_block_failing_on_culprit)
    capsys.readouterr()
    assert run(["evaluate", "--input", str(data), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"graph {culprit}: internal error: RuntimeError: boom\n"
    assert [int(row["graph_index"]) for row in read_report(out)] == written


def test_traced_pass_runs(tmp_path):
    # the benchmark's traced pass patches package names by path; a name it
    # dereferences that the package no longer has makes every traced run fail
    root = Path(__file__).resolve().parents[1]
    inp = write_barbell_edgelist(tmp_path / "barbell.txt")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    # coarsen writes the mapping.jsonl that evaluate then reads back
    for spans, subcommand, *extra in [
        (tmp_path / "spans.json", "coarsen", "--jobs", "1"),
        (tmp_path / "spans2.json", "evaluate"),
    ]:
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans), subcommand,
             "--input", str(inp), "--output", str(tmp_path / "out"), *extra],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert spans.is_file() and spans.stat().st_size > 0


RESULT_FILES = ("mapping.jsonl", "coarse_edges.txt", "report.csv")


def test_dead_worker_is_an_error_and_keeps_previous_outputs(tmp_path, monkeypatch, capsys):
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--skip-sd"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted(RESULT_FILES)

    parent = os.getpid()
    real_coarsen_block = cli.coarsen_block

    def coarsen_block_dying_in_a_worker(block, cfg):
        if (np.diff(block.bounds) == 20).any():  # the block of synthetic graph 19
            assert os.getpid() != parent
            os._exit(9)  # as the kernel's OOM killer ends a process: no exception, no cleanup
        return real_coarsen_block(block, cfg)

    # forked pool workers inherit the patch
    monkeypatch.setattr(cli, "coarsen_block", coarsen_block_dying_in_a_worker)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    capsys.readouterr()
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: a worker process died (killed, or out of memory); no output was written\n"
    )
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_outputs_are_the_reference_files_of_the_library_results(
    tmp_path, monkeypatch, capsys, jobs
):
    real_evaluate_block = cli.evaluate_block
    culprit = 19  # the only synthetic graph of the 40 with 20 nodes

    def evaluate_block_failing_on_culprit(cb, cfg):
        if (np.diff(cb.block.bounds) == 20).any():
            raise RuntimeError("boom")
        return real_evaluate_block(cb, cfg)

    # forked pool workers inherit the patches
    monkeypatch.setattr(cli, "evaluate_block", evaluate_block_failing_on_culprit)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"graph {culprit}: internal error: RuntimeError: boom\n"

    # the library's results for the other graphs, each coarsened and
    # evaluated alone, written by the reference writer; elapsed_micros is a
    # timing, so it is taken from the CLI's report
    elapsed = {int(row["graph_index"]): int(row["elapsed_micros"]) for row in read_report(out)}
    graphs = []
    for i, g in enumerate(parse_tudataset(data, "SYN").graphs):
        if i == culprit:
            continue
        cg = build_coarse_graph(g, coarsen(g, CoarsenConfig()))
        sd = evaluate(cg, EvalConfig(rayleigh_vectors=0)).sd
        graphs.append((i, cg.partition.assignment, cg.supernode_count, cg.superedges,
                       g.edge_count, sd, elapsed[i]))
    write_reference_results(graphs, tmp_path / "library")
    for name in RESULT_FILES:
        assert (out / name).read_bytes() == (tmp_path / "library" / name).read_bytes()
    mean_ra = sum(t / len(a) for _, a, t, *_ in graphs) / len(graphs)
    mean_sd = sum(sd for *_, sd, _ in graphs) / len(graphs)
    summary, total = captured.out.rsplit(" total_s=", 1)
    assert summary == f"graphs=39 mean_r_a={mean_ra:.6f} mean_sd={mean_sd:.6f}"
    assert float(total) >= 0


def test_a_failing_graph_is_found_by_halving_its_block(tmp_path, monkeypatch, capsys):
    real_evaluate_block = cli.evaluate_block
    culprit = 19  # the only synthetic graph of the 40 with 20 nodes
    sizes = []

    def evaluate_block_failing_on_culprit(cb, cfg):
        sizes.append(cb.block.graph_count)
        if (np.diff(cb.block.bounds) == 20).any():
            raise RuntimeError("boom")
        return real_evaluate_block(cb, cfg)

    monkeypatch.setattr(cli, "evaluate_block", evaluate_block_failing_on_culprit)
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "1"]) == 1
    assert capsys.readouterr().err == f"graph {culprit}: internal error: RuntimeError: boom\n"
    assert sizes[0] == 40  # at --jobs 1 the 40 graphs are one block
    # two halves a level, down to the culprit alone; graph by graph would be 41
    assert len(sizes) <= 2 * math.ceil(math.log2(40)) + 1
    written = [int(row["graph_index"]) for row in read_report(out)]
    assert written == [i for i in range(40) if i != culprit]
    mapping = (out / "mapping.jsonl").read_text().splitlines()
    assert [json.loads(line)["graph_index"] for line in mapping] == written


def test_a_failing_finish_is_halved_without_coarsening_again(tmp_path, monkeypatch, capsys):
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    clean = tmp_path / "clean"
    assert run(["coarsen", "--input", str(data), "--output", str(clean), "--jobs", "1"]) == 0
    real = {name: getattr(cli, name) for name in ("coarsen_block", "coarsen", "evaluate_block")}
    refined = []

    def counted(name):
        def call(g, *args):
            refined.append(g.n)
            return real[name](g, *args)
        return call

    def evaluate_block_failing_on_culprit(cb, cfg):
        if (np.diff(cb.block.bounds) == 20).any():  # graph 19, the only one of 20 nodes
            raise RuntimeError("boom")
        return real["evaluate_block"](cb, cfg)

    monkeypatch.setattr(cli, "coarsen_block", counted("coarsen_block"))
    monkeypatch.setattr(cli, "coarsen", counted("coarsen"))
    monkeypatch.setattr(cli, "evaluate_block", evaluate_block_failing_on_culprit)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "1"]) == 1
    assert capsys.readouterr().err == "graph 19: internal error: RuntimeError: boom\n"
    # the engine refines the dataset's nodes once, whichever halves the finish tries
    assert refined == [parse_tudataset(data, "SYN").block.n] == [1_186]

    def without_elapsed(out_dir):
        rows = read_report(out_dir)
        return [{k: v for k, v in row.items() if k != "elapsed_micros"} for row in rows]

    expected = [row for row in without_elapsed(clean) if row["graph_index"] != "19"]
    assert without_elapsed(out) == expected
    mapping = [line for line in (clean / "mapping.jsonl").read_text().splitlines()
               if json.loads(line)["graph_index"] != 19]
    assert (out / "mapping.jsonl").read_text().splitlines() == mapping
    edges = (clean / "coarse_edges.txt").read_text().split("graph ")
    assert (out / "coarse_edges.txt").read_text().split("graph ") == [
        part for part in edges if not part.startswith("19\n")
    ]


def test_a_block_travels_as_one_union_and_comes_back_as_text(tmp_path):
    bundle = parse_tudataset(write_synthetic_tud(tmp_path / "SYN", 40), "SYN")
    settings = (CoarsenConfig(), EvalConfig(rayleigh_vectors=0), False)
    task = cli._Block(0, bundle.block, range(3, 11), settings)
    _, args = task.__reduce__()
    assert args[0] == 3 and args[1] == bundle.block.slice(3, 11)
    assert args[1].graphs() == bundle.graphs[3:11]
    sent = pickle.loads(pickle.dumps(task))
    assert sent.first == 3 and sent.graphs == range(3, 11) and sent.block == args[1]
    # the worker's rows are views of what it was sent
    assert np.shares_memory(sent.rows().indices, sent.block.indices)

    def leaves(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    output = cli._run_block(sent)
    assert {type(leaf) for leaf in leaves(output)} == {str, float}
    rows, failures, r_a, sd = output
    assert failures == [] and len(r_a) == len(sd) == 8
    local = cli._run_block(task)
    # equal but for report.csv's elapsed_micros
    assert rows[:2] == local[0][:2] and (failures, r_a, sd) == local[1:]
    assert [row.rsplit(",", 1)[0] for row in "".join(rows[2]).splitlines()] == [
        row.rsplit(",", 1)[0] for row in "".join(local[0][2]).splitlines()
    ]

@pytest.mark.parametrize("jobs", ["1", "2"])
def test_coarsen_never_reads_the_per_graph_views(tmp_path, monkeypatch, jobs):
    def unread(bundle):
        raise AssertionError("DatasetBundle.graphs was read")

    monkeypatch.setattr(DatasetBundle, "graphs", property(unread))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 0
    assert len(read_report(out)) == 40
    assert run(["evaluate", "--input", str(data), "--output", str(out)]) == 0


def test_a_multi_graph_block_makes_no_per_graph_object(tmp_path, monkeypatch):
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    made = collections.Counter()
    for cls in (Graph, Partition, CoarsenedGraph, SpectralReport):
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            if type(self) is _cls:  # a GraphBlock is a Graph, one per block
                made[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", "1"]) == 0
    assert len(read_report(out)) == 40
    assert made == {}
    # the library's one-graph calls do make them, one of each
    g = parse_tudataset(data, "SYN").graphs[0]
    evaluate(build_coarse_graph(g, coarsen(g, CoarsenConfig())), EvalConfig(rayleigh_vectors=0))
    assert made == {"Graph": 40, "Partition": 1, "CoarsenedGraph": 1, "SpectralReport": 1}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_matrix_too_large_for_memory_fails_only_its_graph(tmp_path, monkeypatch, capsys, jobs):
    # Laplacians of more than 45 nodes become lone stacks, and the patched
    # reader says no memory is left: those graphs fail, the others are
    # written. Forked pool workers inherit the patches.
    monkeypatch.setattr(spectral, "STACK_BYTES", 8 * 45 * 45)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    graphs = synthetic_graphs(40)
    large = [i for i, g in enumerate(graphs) if g.n > 45]
    assert large
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err == "".join(
        f"graph {i}: the dense eigensolve of a {graphs[i].n} x {graphs[i].n} matrix needs about "
        f"{16 * graphs[i].n ** 2 + 8 * (2 * graphs[i].n + 1) + 8 * graphs[i].n} bytes, "
        f"more than the 0 available; rerun with --skip-sd\n"
        for i in large
    )
    assert [int(row["graph_index"]) for row in read_report(out)] == [
        i for i in range(40) if i not in large
    ]
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs,
                "--skip-sd"]) == 0

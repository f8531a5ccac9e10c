import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbgc.cli as cli
from tests_support import write_barbell_edgelist, write_synthetic_tud, write_tiny_tud


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
    real_evaluate_many = cli.evaluate_many

    def recording_evaluate_many(cgs, cfg=None):
        configs.append(cfg)
        return real_evaluate_many(cgs, cfg)

    monkeypatch.setattr(cli, "evaluate_many", recording_evaluate_many)
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
    real_coarsen_many = cli.coarsen_many

    def coarsen_many_failing_on_two_nodes(graphs, cfg):
        if any(g.n == 2 for g in graphs):  # the second graph of the tiny dataset
            raise error
        return real_coarsen_many(graphs, cfg)

    # the engine fails on that graph whether it runs in a block or alone;
    # forked pool workers inherit the patches
    monkeypatch.setattr(cli, "coarsen_many", coarsen_many_failing_on_two_nodes)
    monkeypatch.setattr(cli, "coarsen", lambda g, cfg: coarsen_many_failing_on_two_nodes([g], cfg)[0])
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

    def failing_evaluate_many(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "evaluate_many", failing_evaluate_many)
    capsys.readouterr()
    assert run(["evaluate", "--input", str(inp), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "graph 0: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_block_finish_reports_only_its_graph(tmp_path, monkeypatch, capsys, jobs):
    real_evaluate_many = cli.evaluate_many
    culprit = 19  # the only synthetic graph of the 40 with 10 + (19 * 7) % 41 = 20 nodes

    def evaluate_many_failing_on_culprit(cgs, cfg=None):
        if any(cg.graph.n == 20 for cg in cgs):
            raise RuntimeError("boom")
        return real_evaluate_many(cgs, cfg)

    # forked pool workers inherit the patch
    monkeypatch.setattr(cli, "evaluate_many", evaluate_many_failing_on_culprit)
    data = write_synthetic_tud(tmp_path / "SYN", 40)
    out = tmp_path / "out"
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"graph {culprit}: internal error: RuntimeError: boom\n"
    written = [int(row["graph_index"]) for row in read_report(out)]
    assert written == [i for i in range(40) if i != culprit]
    mapping = (out / "mapping.jsonl").read_text().splitlines()
    assert [json.loads(line)["graph_index"] for line in mapping] == written

    monkeypatch.setattr(cli, "evaluate_many", real_evaluate_many)
    assert run(["coarsen", "--input", str(data), "--output", str(out), "--jobs", jobs]) == 0
    monkeypatch.setattr(cli, "evaluate_many", evaluate_many_failing_on_culprit)
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

import json

import pytest

import gbgc.cli as cli
from tests_support import write_barbell_edgelist, write_tiny_tud


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


def test_coarsen_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    code = run(["coarsen", "--input", str(bad), "--format", "edgelist"])
    assert code == 1
    assert "bad.txt" in capsys.readouterr().err


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


def test_jobs_parallel_identical_mapping(tmp_path):
    data = write_tiny_tud(tmp_path / "tiny")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["coarsen", "--input", str(data), "--output", str(out1), "--jobs", "1"]) == 0
    assert run(["coarsen", "--input", str(data), "--output", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "mapping.jsonl").read_bytes() == (out2 / "mapping.jsonl").read_bytes()
    assert (out1 / "coarse_edges.txt").read_bytes() == (out2 / "coarse_edges.txt").read_bytes()


def test_gbgc_jobs_env(monkeypatch):
    monkeypatch.setenv("GBGC_JOBS", "7")
    parser = cli.build_parser()
    args = parser.parse_args(["coarsen", "--input", "x"])
    assert args.jobs == 7


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

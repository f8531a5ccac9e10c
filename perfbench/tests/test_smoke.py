"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert 0 < layers <= metrics["trace.wall_s"]


def test_exits_nonzero_without_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_partition_the_root_span(tmp_path):
    import tracer

    spans = [
        ["cli.process", 0.0, 10.0, -1],
        ["dataio.parse", 1.0, 4.0, 0],
        ["graph.build", 2.0, 3.0, 1],
        ["dataio.write", 5.0, 7.0, 0],
        ["dataio.write", 5.5, 6.5, 3],
    ]
    t = tracer.Tracer()
    t.spans = spans
    t.dump(tmp_path / "spans")
    metrics, _ = tracer.summarize([tmp_path / "spans"])
    assert metrics["dataio.parse_s"] == 3.0
    assert metrics["dataio.write_s"] == 2.0  # the nested write is inside the outer one
    assert metrics["graph.build_s"] == 1.0
    assert metrics["dataio.self_s"] == 4.0
    assert metrics["cli.self_s"] == 5.0
    assert sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) == 10.0


def test_counts_match_the_er_30k_cross_check(tmp_path):
    """ER(30k, mean degree 4, seed 30000): the counts the engine's own probes give."""
    from gbgc.dataio import write_edge_list
    from gbgc.generators import erdos_renyi

    import tracer

    graph = tmp_path / "er.txt"
    write_edge_list(erdos_renyi(30_000, 4.0, seed=30_000), graph)
    spans = tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "coarsen",
         "--input", str(graph), "--format", "edgelist", "--skip-sd", "--jobs", "1",
         "--output", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics, missing = tracer.summarize([spans])
    assert missing == []
    assert metrics["engine.init_balls"] == 3_837
    assert metrics["engine.split_attempts"] == 15_650
    assert metrics["engine.split_accepts"] == 7_269
    assert metrics["engine.supernodes"] == 11_106

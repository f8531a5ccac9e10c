import json

import pytest

from gbgc import (
    CoarsenRecord,
    DatasetFormatError,
    erdos_renyi,
    from_edge_list,
    parse_edge_list,
    parse_tudataset,
    write_results,
)
import gbgc.dataio as dataio
from gbgc.dataio import read_mapping, write_edge_list, write_report_csv


def write_tud_fixture(tmp_path, name="tiny", labels=True):
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n")
    if labels:
        (tmp_path / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    return tmp_path


def test_parse_tudataset_fixture(tmp_path):
    bundle = parse_tudataset(write_tud_fixture(tmp_path), "tiny")
    assert bundle.name == "tiny"
    assert len(bundle.graphs) == 2
    assert bundle.graphs[0] == from_edge_list(3, [(0, 1), (1, 2)])
    assert bundle.graphs[1] == from_edge_list(2, [(0, 1)])
    assert bundle.graph_labels == [1, -1]


def test_parse_tudataset_no_labels(tmp_path):
    bundle = parse_tudataset(write_tud_fixture(tmp_path, labels=False), "tiny")
    assert bundle.graph_labels is None


def test_parse_tudataset_cross_graph_edge(tmp_path):
    write_tud_fixture(tmp_path)
    with open(tmp_path / "tiny_A.txt", "a") as fh:
        fh.write("1, 4\n")
    with pytest.raises(DatasetFormatError, match="spans graphs"):
        parse_tudataset(tmp_path, "tiny")


def test_parse_tudataset_missing_file(tmp_path):
    (tmp_path / "tiny_A.txt").write_text("1, 2\n")
    with pytest.raises(DatasetFormatError, match="missing"):
        parse_tudataset(tmp_path, "tiny")


def test_parse_tudataset_malformed_line(tmp_path):
    write_tud_fixture(tmp_path)
    (tmp_path / "tiny_A.txt").write_text("1, 2\nfoo, bar\n")
    with pytest.raises(DatasetFormatError, match=r"tiny_A\.txt:2"):
        parse_tudataset(tmp_path, "tiny")


def test_parse_edge_list_k3(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    assert parse_edge_list(path) == from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


def test_parse_edge_list_header(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 1\n")
    g = parse_edge_list(path)
    assert g.n == 4
    assert g.edge_count == 1


def test_parse_edge_list_bad_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 x\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.txt:1"):
        parse_edge_list(path)


def test_edge_list_round_trip(tmp_path):
    for seed in range(5):
        g = erdos_renyi(25, 3.0, seed=seed)
        path = tmp_path / f"g{seed}.txt"
        write_edge_list(g, path)
        assert parse_edge_list(path) == g


def test_write_results_report_row(tmp_path):
    rec = CoarsenRecord(
        graph_index=0,
        assignment=[0, 0],
        supernode_count=1,
        superedges=[],
        sd=2.0,
        r_a=0.5,
        elapsed_micros=123,
        edge_count=1,
    )
    write_results([rec], tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"
    assert lines[1] == "0,2,1,1,0,0.500000,2.000000,123"


def test_write_results_empty(tmp_path):
    write_results([], tmp_path)
    assert (tmp_path / "report.csv").read_text().splitlines() == [
        "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"
    ]
    assert (tmp_path / "mapping.jsonl").read_text() == ""
    assert (tmp_path / "coarse_edges.txt").read_text() == ""


def test_write_results_barbell_mapping(tmp_path):
    rec = CoarsenRecord(
        graph_index=0,
        assignment=[0, 0, 0, 1, 1, 1],
        supernode_count=2,
        superedges=[(0, 1)],
        sd=5.809801,
        r_a=1 / 3,
        elapsed_micros=10,
        edge_count=7,
    )
    write_results([rec], tmp_path)
    row = json.loads((tmp_path / "mapping.jsonl").read_text())
    assert row == {"graph_index": 0, "assignment": [0, 0, 0, 1, 1, 1], "supernode_count": 2}
    assert (tmp_path / "coarse_edges.txt").read_text() == "graph 0\n0 1\n"
    assert read_mapping(tmp_path / "mapping.jsonl") == [row]


def test_report_csv_parse_back(tmp_path):
    records = [
        CoarsenRecord(
            graph_index=i,
            assignment=[0] * 4,
            supernode_count=1,
            superedges=[],
            sd=1.234567 + i,
            r_a=0.25,
            elapsed_micros=i,
            edge_count=3,
        )
        for i in range(3)
    ]
    write_results(records, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    for rec, line in zip(records, lines):
        fields = line.split(",")
        assert float(fields[5]) == float(f"{rec.r_a:.6f}")
        assert float(fields[6]) == float(f"{rec.sd:.6f}")


@pytest.mark.parametrize(
    "row",
    [
        "5",
        "null",
        '[0, 1]',
        '{"graph_index": 0, "assignment": ["0", 0, 0], "supernode_count": 1}',
        '{"graph_index": 0, "assignment": [0, 0.0, 0], "supernode_count": 1}',
        '{"graph_index": 0, "assignment": [true, 0, 0], "supernode_count": 1}',
        '{"graph_index": 0, "assignment": null, "supernode_count": 1}',
        '{"graph_index": -1, "assignment": [0, 0, 0], "supernode_count": 1}',
        '{"graph_index": false, "assignment": [0, 0, 0], "supernode_count": 1}',
        '{"graph_index": "0", "assignment": [0, 0, 0], "supernode_count": 1}',
        '{"graph_index": 0, "assignment": [0, 0, 0], "supernode_count": 0}',
        '{"graph_index": 0, "assignment": [0, 0, 0], "supernode_count": true}',
        '{"graph_index": 0, "assignment": [0, 0, 0], "supernode_count": 1.0}',
        '{"graph_index": 0, "assignment": [0, 0, 0]}',
    ],
)
def test_read_mapping_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "mapping.jsonl"
    good = '{"graph_index": 0, "assignment": [0, 0, 0], "supernode_count": 1}'
    path.write_text(f"{good}\n\n{row}\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_mapping(path)
    assert exc.value.line == 3
    assert "mapping.jsonl:3: " in str(exc.value)


def make_record(index, sd=0.5):
    return CoarsenRecord(
        graph_index=index,
        assignment=[0, 0, 1],
        supernode_count=2,
        superedges=[(0, 1)],
        sd=sd,
        r_a=2 / 3,
        elapsed_micros=1,
        edge_count=2,
    )


def test_write_results_failure_keeps_previous_files(tmp_path, monkeypatch):
    write_results([make_record(0), make_record(1)], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_dumps = json.dumps
    calls = []

    def failing_dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(dataio.json, "dumps", failing_dumps)
    with pytest.raises(DatasetFormatError, match="no space left"):
        write_results([make_record(5), make_record(6)], tmp_path)
    assert len(calls) == 2  # failed partway through mapping.jsonl
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_report_csv_failure_keeps_previous_report(tmp_path):
    class FailingFormat(float):
        def __format__(self, spec):
            raise OSError("no space left on device")

    path = tmp_path / "report.csv"
    write_report_csv([make_record(0)], path)
    before = path.read_bytes()
    with pytest.raises(OSError):
        write_report_csv([make_record(0), make_record(1, sd=FailingFormat(1.0))], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


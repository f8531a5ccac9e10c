import json
import pickle
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from gbgc import (
    DatasetFormatError,
    Partition,
    build_coarse_graph,
    erdos_renyi,
    from_edge_list,
    parse_edge_list,
    parse_tudataset,
)
import gbgc.dataio as dataio
from gbgc.dataio import (
    BlockResults,
    block_rows,
    read_mapping,
    report_rows,
    write_edge_list,
    write_report_csv,
    write_result_blocks,
)

from helpers import plain, reference_parse_tudataset, write_reference_edge_list
from tests_support import synthetic_graphs, write_synthetic_tud


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


def test_parse_tudataset_graph_id_beyond_node_count(tmp_path):
    # rejected before any list is sized by the id
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_graph_indicator.txt").write_text(f"1\n1\n1\n2\n{10**12}\n")
    with pytest.raises(
        DatasetFormatError, match=r"tiny_graph_indicator\.txt:5: graph id 1000000000000 exceeds"
    ):
        parse_tudataset(tmp_path, "tiny")


def test_parse_tudataset_graph_id_gap(tmp_path):
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_graph_indicator.txt").write_text("1\n1\n3\n3\n3\n")
    (tmp_path / "tiny_A.txt").write_text("1, 2\n3, 4\n")
    with pytest.raises(
        DatasetFormatError, match=r"tiny_graph_indicator\.txt: graph id 2 has no nodes"
    ):
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


def test_edge_list_is_the_f_string_writers_bytes(tmp_path):
    graphs = [from_edge_list(1, []), from_edge_list(5, [(3, 1)]), erdos_renyi(3_000, 30.0, seed=2)]
    graphs += [erdos_renyi(n, 3.0, seed=n) for n in (2, 7, 40)]
    for i, g in enumerate(graphs):
        write_edge_list(g, tmp_path / f"{i}.txt")
        write_reference_edge_list(g, tmp_path / f"{i}.ref")
        assert (tmp_path / f"{i}.txt").read_bytes() == (tmp_path / f"{i}.ref").read_bytes()


def test_edge_list_write_failing_partway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    write_edge_list(erdos_renyi(30, 3.0, seed=1), path)
    before = path.read_bytes()
    real_filled = dataio._filled

    def filling(*args):
        yield real_filled(*args)[0]
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(dataio, "_filled", filling)
    # 45,000 edges fill several pieces, so the first is written before the failure
    with pytest.raises(OSError, match="No space left"):
        write_edge_list(erdos_renyi(3_000, 30.0, seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def ints(*values):
    return np.array(values, dtype=np.int64)


def test_write_results_report_row(tmp_path):
    res = BlockResults(
        graph_index=ints(0),
        bounds=ints(0, 2),
        assignment=ints(0, 0),
        first_ball=ints(0, 1),
        superedges=np.zeros((0, 2), dtype=np.int64),
        cuts=ints(0, 0),
        edge_count=ints(1),
        sd=np.array([2.0]),
        elapsed_micros=ints(123),
    )
    write_result_blocks([block_rows(res)], tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"
    assert lines[1] == "0,2,1,1,0,0.500000,2.000000,123"


def test_write_results_empty(tmp_path):
    empty = ints()
    res = BlockResults(empty, ints(0), empty, ints(0), np.zeros((0, 2), dtype=np.int64),
                       ints(0), empty, np.zeros(0), empty)
    write_result_blocks([block_rows(res)], tmp_path)
    assert (tmp_path / "report.csv").read_text().splitlines() == [
        "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"
    ]
    assert (tmp_path / "mapping.jsonl").read_text() == ""
    assert (tmp_path / "coarse_edges.txt").read_text() == ""


def test_write_results_barbell_mapping(tmp_path):
    res = BlockResults(
        graph_index=ints(0),
        bounds=ints(0, 6),
        assignment=ints(0, 0, 0, 1, 1, 1),
        first_ball=ints(0, 2),
        superedges=ints(0, 1).reshape(1, 2),
        cuts=ints(0, 1),
        edge_count=ints(7),
        sd=np.array([5.809801]),
        elapsed_micros=ints(10),
    )
    write_result_blocks([block_rows(res)], tmp_path)
    row = json.loads((tmp_path / "mapping.jsonl").read_text())
    assert row == {"graph_index": 0, "assignment": [0, 0, 0, 1, 1, 1], "supernode_count": 2}
    assert (tmp_path / "coarse_edges.txt").read_text() == "graph 0\n0 1\n"
    assert read_mapping(tmp_path / "mapping.jsonl", 1) == [row]


def test_report_csv_parse_back(tmp_path):
    # three graphs of 4 nodes in one ball each, with 3 edges and no superedge
    sds = 1.234567 + np.arange(3)
    res = BlockResults(
        graph_index=ints(0, 1, 2),
        bounds=4 * ints(0, 1, 2, 3),
        assignment=np.repeat(ints(0, 1, 2), 4),
        first_ball=ints(0, 1, 2, 3),
        superedges=np.zeros((0, 2), dtype=np.int64),
        cuts=ints(0, 0, 0, 0),
        edge_count=ints(3, 3, 3),
        sd=sds,
        elapsed_micros=ints(0, 1, 2),
    )
    write_result_blocks([block_rows(res)], tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
    for sd, line in zip(sds.tolist(), lines):
        fields = line.split(",")
        assert float(fields[5]) == float(f"{1 / 4:.6f}")
        assert float(fields[6]) == float(f"{sd:.6f}")


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
        read_mapping(path, 1)
    assert exc.value.line == 3
    assert "mapping.jsonl:3: " in str(exc.value)


@pytest.mark.parametrize(
    "rows, bad_line, message",
    [
        ([0, 1, 0], 3, "duplicate graph_index 0, first on line 1"),
        ([1, 0, 1], 3, "duplicate graph_index 1, first on line 1"),
        ([0, 2], 2, "graph_index 2 is not in the input, which has 2 graphs"),
        ([7], 1, "graph_index 7 is not in the input"),
    ],
)
def test_read_mapping_rejects_duplicate_or_unknown_index(tmp_path, rows, bad_line, message):
    path = tmp_path / "mapping.jsonl"
    path.write_text("".join(
        json.dumps({"graph_index": i, "assignment": [0, 0, 0], "supernode_count": 1}) + "\n"
        for i in rows
    ))
    with pytest.raises(DatasetFormatError) as exc:
        read_mapping(path, 2)
    assert exc.value.line == bad_line
    assert f"mapping.jsonl:{bad_line}: {message}" in str(exc.value)


def make_results(*indices, sd=0.5):
    """Graphs `indices`, each of 3 nodes in balls [0, 0, 1] with 2 edges
    and the one superedge (0, 1), as one run of graphs."""
    k = len(indices)
    return BlockResults(
        graph_index=ints(*indices),
        bounds=3 * np.arange(k + 1),
        assignment=np.tile(ints(0, 0, 1), k) + np.repeat(2 * np.arange(k), 3),
        first_ball=2 * np.arange(k + 1),
        superedges=np.tile(ints(0, 1), (k, 1)),
        cuts=np.arange(k + 1),
        edge_count=np.full(k, 2, dtype=np.int64),
        sd=np.full(k, sd),
        elapsed_micros=np.ones(k, dtype=np.int64),
    )


def test_write_results_failure_keeps_previous_files(tmp_path):
    write_result_blocks([block_rows(make_results(0, 1))], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []

    class FailingAssignment(list):
        def __array__(self, dtype=None, copy=None):
            calls.append(self)
            raise OSError("no space left on device")

    good = make_results(5)
    failing = make_results(6)._replace(assignment=FailingAssignment([0, 0, 1]))
    # formatted inside the writer, so a failure to format fails it too
    with pytest.raises(DatasetFormatError, match="no space left"):
        write_result_blocks(map(block_rows, [good, failing]), tmp_path)
    assert len(calls) == 1  # failed on the second block's mapping.jsonl rows
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_report_csv_failure_keeps_previous_report(tmp_path):
    def rows(*indices):
        for i in indices:
            if i is None:
                raise OSError("no space left on device")
            yield from report_rows(make_results(i))

    path = tmp_path / "report.csv"
    write_report_csv(rows(0), path)
    before = path.read_bytes()
    assert before.decode().splitlines()[1:] == ["0,3,2,2,1,0.666667,0.500000,1"]
    with pytest.raises(OSError):
        write_report_csv(rows(0, 1, None), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_streamed_write_of_a_failing_block_keeps_previous_files(tmp_path):
    write_result_blocks([block_rows(make_results(0, 1))], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def blocks():
        yield block_rows(make_results(5))
        yield block_rows(make_results(6))
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        write_result_blocks(blocks(), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_streamed_write_failing_on_disk_keeps_previous_files(tmp_path, monkeypatch):
    write_result_blocks([block_rows(make_results(0, 1))], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    written = []

    class FillingFile:
        """A file that takes one block's rows, then finds the disk full."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.fh.write(text)

        def writelines(self, pieces):
            if len(written) == 3:  # each of the three files has had the first block
                raise OSError(28, "No space left on device")
            written.append(pieces)
            self.fh.writelines(pieces)

    monkeypatch.setattr(dataio, "open", lambda path, mode: FillingFile(open(path, mode)),
                        raising=False)
    blocks = map(block_rows, [make_results(5), make_results(6)])
    with pytest.raises(DatasetFormatError, match="No space left on device"):
        write_result_blocks(blocks, tmp_path)
    assert len(written) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_streamed_blocks_write_what_one_block_writes(tmp_path):
    def run(graphs: range):
        return make_results(*graphs, sd=0.25 * np.array(graphs))

    write_result_blocks([block_rows(run(range(7)))], tmp_path / "whole")
    runs = [range(0, 2), range(2, 2), range(2, 3), range(3, 7)]
    write_result_blocks((block_rows(run(graphs)) for graphs in runs), tmp_path / "blocks")
    for name in ("mapping.jsonl", "coarse_edges.txt", "report.csv"):
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()


@pytest.mark.parametrize(
    "text, error",
    [
        ("n 3\n0 5\n", r"bad1\.txt:2: edge \(0, 5\) out of range for node_count=3"),
        ("n 3\n0 1\n-1 2\n", r"bad1\.txt:3: edge \(-1, 2\) out of range for node_count=3"),
        ("0 1\n\n-1 2\n", r"bad1\.txt:3: negative node index in edge \(-1, 2\)"),
    ],
)
def test_parse_edge_list_bad_index_names_file_and_line(tmp_path, text, error):
    path = tmp_path / "bad1.txt"
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match=error):
        parse_edge_list(path)


# Several bad lines of different kinds: the first in file order is named,
# whatever its kind, as a line-by-line reading would find it.
@pytest.mark.parametrize(
    "text, error",
    [
        ("n 4\n0 1\n\n1 x\n0 9\n1 2 3\n", r":4: non-integer token in '1 x'"),
        ("n 4\n0 9\n1 x\n", r":2: edge \(0, 9\) out of range for node_count=4"),
        ("0 1\n-2 1\n0 x\n", r":2: negative node index in edge \(-2, 1\)"),
        ("0 1\n1 2 3\n-1 0\n", r":2: expected two fields, got '1 2 3'"),
        ("# c\n0 1 # trailing\n0 x\n", r":2: expected two fields, got '0 1 # trailing'"),
        ("# c\nn x\n0 1\n", r":2: bad header 'n x'"),
        ("n -2\n0 1\n", r":1: node_count must be nonnegative, got -2"),
        ("n 3\n0 1\nn 3\n0 -1\n", r":3: non-integer token in 'n 3'"),
        ("0 1\r\n0 1_0\r\n\r\n1 -1\r\n", r":2: non-integer token in '0 1_0'"),
        ("n 3\n0 1 # trailing\n", r":2: expected two fields, got '0 1 # trailing'"),
        # 2**64 + 1, which int64 arithmetic would wrap to 1
        ("n 3\n0 18446744073709551617\n",
         r":2: edge \(0, 18446744073709551617\) out of range for node_count=3"),
    ],
)
def test_parse_edge_list_names_first_bad_line(tmp_path, text, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    with pytest.raises(DatasetFormatError, match=r"bad\.txt" + error):
        parse_edge_list(path)


@pytest.mark.parametrize(
    "indicator, edges, labels, error",
    [
        ("1\n1\n2\n2\n", "1, 2\n1 2\n9, 1\n1, 4\n", None, r"tiny_A\.txt:2: expected two fields"),
        ("1\n1\n2\n2\n", "1, 2\n1, 9\n1, x\n", None,
         r"tiny_A\.txt:2: node index out of range in edge \(1, 9\)"),
        ("1\n1\n2\n2\n", "1, 2\n3, 5\n", None,
         r"tiny_A\.txt:2: node index out of range in edge \(3, 5\)"),
        ("1\n1\n2\n2\n", "1, 2\n1, 4\n1, 9\n", None,
         r"tiny_A\.txt:2: edge \(1, 4\) spans graphs 1 and 2"),
        ("1\n1\n2\n2\n", "1, 2\n\n3,4\n+1, x\n0, 1\n", None,
         r"tiny_A\.txt:4: non-integer token in '\+1, x'"),
        ("1\n1\nx\n0\n", "1, 2\n", None, r"tiny_graph_indicator\.txt:3: non-integer graph id 'x'"),
        ("1\n1\n0\nx\n", "1, 2\n", None, r"tiny_graph_indicator\.txt:3: graph id 0 must be >= 1"),
        ("1\n1\n2\n2\n", "1, 2\n", "1\n1_0\n", r"tiny_graph_labels\.txt:2: non-integer label"),
    ],
)
def test_parse_tudataset_names_first_bad_line(tmp_path, indicator, edges, labels, error):
    (tmp_path / "tiny_graph_indicator.txt").write_text(indicator)
    (tmp_path / "tiny_A.txt").write_text(edges)
    if labels is not None:
        (tmp_path / "tiny_graph_labels.txt").write_text(labels)
    with pytest.raises(DatasetFormatError, match=error):
        parse_tudataset(tmp_path, "tiny")


# Tokens are ASCII decimal integers with an optional sign; int() accepted
# more of these before.
@pytest.mark.parametrize("token", ["1_0", "١", "٣٤", "0x1", "1.0", "1e1", "--1", "+-1", "1-", "+"])
def test_token_grammar_rejects_with_file_and_line(tmp_path, token):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n0 {token}\n")
    with pytest.raises(DatasetFormatError, match=r"g\.txt:2: non-integer token"):
        parse_edge_list(path)
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_graph_indicator.txt").write_text(f"1\n1\n{token}\n")
    with pytest.raises(DatasetFormatError, match=r"tiny_graph_indicator\.txt:3: non-integer"):
        parse_tudataset(tmp_path, "tiny")


def test_token_grammar_accepts_signs_and_leading_zeros(tmp_path):
    # 21 digits, most of them leading zeros, still make a token that fits int64
    path = tmp_path / "g.txt"
    path.write_text("n 3\n+0 -0\n000000000000000000002 1\n\t0  2 \n")
    assert parse_edge_list(path) == from_edge_list(3, [(2, 1), (0, 2)])


def test_parse_edge_list_line_endings(tmp_path):
    path = tmp_path / "g.txt"
    for ending in ("\n", "\r\n", "\r"):
        path.write_bytes(ending.join(["# k3", "n 3", "0 1", "", "1 2", "2 0"]).encode())
        assert parse_edge_list(path) == from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


def test_parse_edge_list_comment_among_rows(tmp_path):
    # comments longer than an edge line, before and among the edge lines
    path = tmp_path / "g.txt"
    path.write_text("n 30\n# a comment longer than a chunk\n0 1\n12 29\n  3    4  \n# x\n5 6")
    assert parse_edge_list(path) == from_edge_list(30, [(0, 1), (12, 29), (3, 4), (5, 6)])
    path.write_text("n 30\n0 1\n# a comment longer than a chunk\n1 x\n")
    with pytest.raises(DatasetFormatError, match=r"g\.txt:4: non-integer token"):
        parse_edge_list(path)


def write_interleaved_tud(directory, graphs, seed=0):
    """graphs in the multi-graph layout with their nodes interleaved in the
    indicator file and the edge lines shuffled."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    owner = [i for i, g in enumerate(graphs) for _ in range(g.n)]
    rng.shuffle(owner)
    members = [[] for _ in graphs]
    for node, i in enumerate(owner, start=1):
        members[i].append(node)
    lines = []
    for i, g in enumerate(graphs):
        for u, v in g.edges:
            lines += [f"{members[i][u]}, {members[i][v]}", f"{members[i][v]},{members[i][u]}"]
    rng.shuffle(lines)
    name = directory.name
    (directory / f"{name}_graph_indicator.txt").write_text("".join(f"{i + 1}\n" for i in owner))
    (directory / f"{name}_A.txt").write_text("\n".join(lines) + "\n")
    return directory


def assert_parses_like_reference(directory):
    bundle = parse_tudataset(directory, directory.name)
    expected, labels = reference_parse_tudataset(directory, directory.name)
    assert [plain(g) for g in bundle.graphs] == expected
    assert bundle.graph_labels == labels
    return bundle


def test_block_slices_of_a_parsed_dataset_match_the_reference(tmp_path):
    # nodes interleaved in the indicator file and A lines shuffled, a
    # one-node graph at each end and isolated nodes in the middle
    graphs = [
        from_edge_list(1, []),
        *synthetic_graphs(30, seed_base=7),
        from_edge_list(6, [(0, 5), (1, 2)]),
        from_edge_list(1, []),
    ]
    directory = write_interleaved_tud(tmp_path / "mixed", graphs, seed=3)
    block = parse_tudataset(directory, "mixed").block
    expected, _ = reference_parse_tudataset(directory, "mixed")
    assert block.graph_count == len(expected)
    rng = random.Random(11)
    for _ in range(60):
        a = rng.randrange(len(expected))
        b = rng.randrange(a + 1, len(expected) + 1)
        part = block.slice(a, b)
        assert np.diff(part.bounds).tolist() == [n for n, _ in expected[a:b]]
        assert [plain(g) for g in part.graphs()] == expected[a:b]
        i = rng.randrange(b - a)
        assert plain(part.slice(i, i + 1)) == expected[a + i]


# The A file's rows are turned into keys a slice of _KEY_ROWS rows at a
# time; small slices put a graph's edges, and a bad line, in any slice.
@pytest.mark.parametrize("chunk", [7, 64])
def test_parse_tudataset_small_chunks_match_reference(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(dataio, "_KEY_ROWS", chunk)
    assert_parses_like_reference(write_synthetic_tud(tmp_path / "synth", 40))
    graphs = synthetic_graphs(40, seed_base=100)
    bundle = assert_parses_like_reference(write_interleaved_tud(tmp_path / "mixed", graphs))
    assert bundle.graphs == graphs


def test_parse_tudataset_1000_graphs_in_many_chunks_match_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_KEY_ROWS", 4096)
    directory = write_synthetic_tud(tmp_path / "synth", 1000)
    assert (directory / "synth_A.txt").stat().st_size > 300 * 4096
    assert assert_parses_like_reference(directory).graphs == synthetic_graphs(1000)
    graphs = synthetic_graphs(200, seed_base=7)
    assert assert_parses_like_reference(write_interleaved_tud(tmp_path / "mixed", graphs)).graphs == graphs


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "bad, error",
    [
        ("1, {last}", "edge (1, {last}) spans graphs 1 and 20"),
        ("1, {beyond}", "node index out of range in edge (1, {beyond})"),
        ("2, x", "non-integer token in '2, x'"),
    ],
)
def test_parse_tudataset_bad_line_in_any_chunk_names_it(tmp_path, monkeypatch, where, bad, error):
    monkeypatch.setattr(dataio, "_KEY_ROWS", 64)
    directory = write_synthetic_tud(tmp_path / "synth", 20)
    a_path = directory / "synth_A.txt"
    nodes = len((directory / "synth_graph_indicator.txt").read_text().split())
    lines = a_path.read_text().splitlines()
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[where]
    lines.insert(at, bad.format(last=nodes, beyond=nodes + 1))
    a_path.write_text("\n".join(lines) + "\n")
    assert len(lines) * 8 > 20 * 64  # the file spans many slices
    with pytest.raises(DatasetFormatError) as exc:
        parse_tudataset(directory, "synth")
    assert (exc.value.path, exc.value.line) == (a_path, at + 1)
    assert str(exc.value) == f"{a_path}:{at + 1}: {error.format(last=nodes, beyond=nodes + 1)}"


@pytest.fixture
def no_line_reader(monkeypatch):
    """The per-line readers raise, so a parse passes only on numpy's reader."""
    for name in ("_indicator_by_line", "_tu_edges_by_line", "_labels_by_line",
                 "_edge_list_by_line"):
        monkeypatch.setattr(dataio, name, mock.Mock(side_effect=AssertionError(name)))


def test_written_and_usual_files_take_numpy_reader(tmp_path, no_line_reader):
    # A silent fall back to the per-line reader keeps every equality test
    # green and makes the parse ten times slower.
    g = erdos_renyi(300, 4.0, seed=5)
    write_edge_list(g, tmp_path / "g.txt")
    assert parse_edge_list(tmp_path / "g.txt") == g
    assert parse_tudataset(write_synthetic_tud(tmp_path / "synth", 30), "synth").graphs == (
        synthetic_graphs(30)
    )
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    (crlf / "crlf_graph_indicator.txt").write_bytes(b"1\r\n1\r\n1\r\n2\r\n2\r\n")
    (crlf / "crlf_A.txt").write_bytes(b"1, 2\r\n2, 1\r\n2, 3\r\n3, 2\r\n4, 5\r\n5, 4\r\n")
    (crlf / "crlf_graph_labels.txt").write_bytes(b"1\r\n-1\r\n")
    bundle = parse_tudataset(crlf, "crlf")
    assert bundle.graphs == [from_edge_list(3, [(0, 1), (1, 2)]), from_edge_list(2, [(0, 1)])]
    assert bundle.graph_labels == [1, -1]
    path = tmp_path / "commented.txt"
    path.write_text("# a graph\n\n#n 2\nn 5\n# its edges\n  #\n\n0 1\n3 4\n")
    assert parse_edge_list(path) == from_edge_list(5, [(0, 1), (3, 4)])
    # numpy's reader skips the leading lines, whatever bytes they hold
    path.write_bytes("# by Zoë\n".encode() + b"#\xff\xa0\nn 5\n0 1\n3 4\n")
    assert parse_edge_list(path) == from_edge_list(5, [(0, 1), (3, 4)])


def test_byte_numpy_strips_names_its_line(tmp_path):
    # numpy's reader strips \x1f as whitespace; the grammar has no such blank
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_A.txt").write_bytes(b"1, 2\n2, 3\n1,\x1f2\n")
    with pytest.raises(DatasetFormatError) as exc:
        parse_tudataset(tmp_path, "tiny")
    assert str(exc.value) == f"{tmp_path / 'tiny_A.txt'}:3: non-integer token in '1,\\x1f2'"


def test_parse_tudataset_19_digit_tokens(tmp_path):
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_A.txt").write_text("0000000000000000001, 2\n3, 0000000000000000002\n4, 5\n")
    bundle = parse_tudataset(tmp_path, "tiny")
    assert bundle.graphs == [from_edge_list(3, [(0, 1), (2, 1)]), from_edge_list(2, [(0, 1)])]


def test_parse_tudataset_label_beyond_int64_is_exact(tmp_path, monkeypatch):
    write_tud_fixture(tmp_path)
    (tmp_path / "tiny_graph_labels.txt").write_text("99999999999999999999\n-9223372036854775809\n")
    exact = [99999999999999999999, -9223372036854775809]
    assert parse_tudataset(tmp_path, "tiny").graph_labels == exact

    # older numpy reads such a token as a float cast to int64, and only warns
    def cast_and_warn(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.full((2, 1), np.iinfo(np.int64).min)

    monkeypatch.setattr(dataio.np, "loadtxt", cast_and_warn)
    assert parse_tudataset(tmp_path, "tiny").graph_labels == exact


def test_parse_tudataset_rejects_more_nodes_than_max(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "MAX_NODES", 4)
    write_tud_fixture(tmp_path)
    with pytest.raises(
        DatasetFormatError, match=r"tiny_graph_indicator\.txt: 5 nodes exceed the limit of 4"
    ):
        parse_tudataset(tmp_path, "tiny")
    monkeypatch.setattr(dataio, "MAX_NODES", 5)
    assert len(parse_tudataset(tmp_path, "tiny").graphs) == 2


@pytest.fixture(scope="module")
def traced_5000_parse(tmp_path_factory):
    """The 5,000-graph dataset's A file size, its parse, and the parse's
    traced peak."""
    directory = write_synthetic_tud(tmp_path_factory.mktemp("parse") / "synth", 5000)
    tracemalloc.start()
    try:
        bundle = parse_tudataset(directory, "synth")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (directory / "synth_A.txt").stat().st_size, bundle, peak


def test_parse_tudataset_peak_memory_is_under_one_and_a_half_times_the_edge_file(
    traced_5000_parse,
):
    # the rows are int32, their keys are written over them, and the CSR is
    # laid out in the keys: one edge-sized buffer for the whole parse
    a_bytes, _, peak = traced_5000_parse
    assert peak <= 1.5 * a_bytes


def test_parse_tudataset_peak_memory_is_under_twice_its_csr(traced_5000_parse):
    _, bundle, peak = traced_5000_parse
    block = bundle.block
    assert block.indices.base is not None  # the CSR lives in the rows' buffer
    assert peak < 2 * (block.indptr.nbytes + block.indices.nbytes)


@pytest.mark.parametrize("older_numpy", [False, True], ids=["numpy", "older-numpy"])
@pytest.mark.parametrize("token", ["2147483648", "-2147483649", "99999999999"])
def test_a_token_beyond_int32_is_named_by_the_line_reader(tmp_path, monkeypatch, token,
                                                           older_numpy):
    # A rows are read as int32; a token beyond it makes numpy's reader
    # raise, and the per-line reader names the line as it does for any node
    # index out of range
    write_tud_fixture(tmp_path, labels=False)
    a_path = tmp_path / "tiny_A.txt"
    a_path.write_text(f"1, 2\n2, 1\n{token}, 3\n3, 2\n")
    if older_numpy:  # it reads such a token as a float cast to int32, and only warns
        def cast_and_warn(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return np.full((4, 2), np.iinfo(np.int32).min, dtype=np.int32)

        monkeypatch.setattr(dataio.np, "loadtxt", cast_and_warn)
    with pytest.raises(DatasetFormatError) as exc:
        parse_tudataset(tmp_path, "tiny")
    assert str(exc.value) == f"{a_path}:3: node index out of range in edge ({token}, 3)"


def test_rows_reads_int32_limits_and_rejects_tokens_beyond(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("2147483647, -2147483648\n1, 2\n")
    rows = dataio._rows(path, 2, ",", dtype=np.int32)
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert rows.tolist() == [[2147483647, -2147483648], [1, 2]]
    for token in ("2147483648", "-2147483649"):
        path.write_text(f"1, 2\n{token}, 1\n")
        assert dataio._rows(path, 2, ",", dtype=np.int32) is None
        assert dataio._rows(path, 2, ",").tolist() == [[1, 2], [int(token), 1]]


def test_parsed_graphs_are_views_of_one_csr(tmp_path):
    bundle = parse_tudataset(write_synthetic_tud(tmp_path / "synth", 300), "synth")
    bases = {id(g.indices.base) for g in bundle.graphs}
    assert len(bases) == 1 and bundle.graphs[0].indices.base is not None
    assert len({id(g.indptr.base) for g in bundle.graphs}) == 1
    for g in bundle.graphs:
        assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
        assert pickle.dumps(g) == pickle.dumps(from_edge_list(g.n, g.edges))


def test_coarse_edges_in_several_write_blocks_match_per_pair_loop(tmp_path):
    # each file is formatted in pieces of _WRITE_VALUES integers, so a
    # graph's assignment and superedges here are cut across pieces
    n = dataio._WRITE_VALUES + 5
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
    part = Partition(np.arange(n), n)
    cg = build_coarse_graph(g, part)
    assert 2 * len(cg.superedges) == 2 * n > 2 * dataio._WRITE_VALUES
    k = len(cg.superedges)
    res = BlockResults(
        graph_index=ints(0, 1),
        bounds=n * ints(0, 1, 2),
        assignment=np.arange(2 * n),  # graph 1's balls follow graph 0's
        first_ball=n * ints(0, 1, 2),
        superedges=np.concatenate([cg.superedges, cg.superedges]),
        cuts=k * ints(0, 1, 2),
        edge_count=ints(g.edge_count, g.edge_count),
        sd=np.zeros(2),
        elapsed_micros=ints(0, 0),
    )
    write_result_blocks([block_rows(res)], tmp_path)
    expected = "".join(
        f"graph {i}\n" + "".join(f"{a} {b}\n" for a, b in g.edges) for i in range(2)
    )
    assert (tmp_path / "coarse_edges.txt").read_text() == expected
    mapping = [json.loads(line) for line in (tmp_path / "mapping.jsonl").read_text().splitlines()]
    assert mapping == [
        {"graph_index": i, "assignment": list(range(n)), "supernode_count": n} for i in range(2)
    ]

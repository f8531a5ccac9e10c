import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from gbgc import (
    CoarsenRecord,
    DatasetFormatError,
    Partition,
    build_coarse_graph,
    erdos_renyi,
    from_edge_list,
    parse_edge_list,
    parse_tudataset,
    write_results,
)
import gbgc.dataio as dataio
from gbgc.dataio import (
    BlockResults,
    read_mapping,
    report_rows,
    result_rows,
    write_edge_list,
    write_report_csv,
    write_result_blocks,
)

from helpers import plain, reference_parse_tudataset
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


def test_write_results_report_row(tmp_path):
    rec = CoarsenRecord(
        graph_index=0,
        assignment=[0, 0],
        supernode_count=1,
        superedges=[],
        sd=2.0,
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
        elapsed_micros=10,
        edge_count=7,
    )
    write_results([rec], tmp_path)
    row = json.loads((tmp_path / "mapping.jsonl").read_text())
    assert row == {"graph_index": 0, "assignment": [0, 0, 0, 1, 1, 1], "supernode_count": 2}
    assert (tmp_path / "coarse_edges.txt").read_text() == "graph 0\n0 1\n"
    assert read_mapping(tmp_path / "mapping.jsonl", 1) == [row]


def test_report_csv_parse_back(tmp_path):
    records = [
        CoarsenRecord(
            graph_index=i,
            assignment=[0] * 4,
            supernode_count=1,
            superedges=[],
            sd=1.234567 + i,
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


def make_record(index, sd=0.5):
    return CoarsenRecord(
        graph_index=index,
        assignment=[0, 0, 1],
        supernode_count=2,
        superedges=[(0, 1)],
        sd=sd,
        elapsed_micros=1,
        edge_count=2,
    )


def test_write_results_failure_keeps_previous_files(tmp_path):
    write_results([make_record(0), make_record(1)], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []

    class FailingAssignment(list):
        def __array__(self, dtype=None, copy=None):
            calls.append(self)
            raise OSError("no space left on device")

    failing = make_record(6)
    failing.assignment = FailingAssignment(failing.assignment)
    with pytest.raises(DatasetFormatError, match="no space left"):
        write_results([make_record(5), failing], tmp_path)
    assert len(calls) == 1  # failed on the second row of mapping.jsonl
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_report_csv_failure_keeps_previous_report(tmp_path):
    def rows(*indices):
        for i in indices:
            if i is None:
                raise OSError("no space left on device")
            yield from report_rows(BlockResults.of_records([make_record(i)]))

    path = tmp_path / "report.csv"
    write_report_csv(rows(0), path)
    before = path.read_bytes()
    assert before.decode().splitlines()[1:] == ["0,3,2,2,1,0.666667,0.500000,1"]
    with pytest.raises(OSError):
        write_report_csv(rows(0, 1, None), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_streamed_write_of_a_failing_block_keeps_previous_files(tmp_path):
    write_results([make_record(0), make_record(1)], tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def blocks():
        yield result_rows([make_record(5)])
        yield result_rows([make_record(6)])
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        write_result_blocks(blocks(), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_streamed_write_failing_on_disk_keeps_previous_files(tmp_path, monkeypatch):
    write_results([make_record(0), make_record(1)], tmp_path)
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
    blocks = map(result_rows, [[make_record(5)], [make_record(6)]])
    with pytest.raises(DatasetFormatError, match="No space left on device"):
        write_result_blocks(blocks, tmp_path)
    assert len(written) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_streamed_blocks_write_what_write_results_writes(tmp_path):
    records = [make_record(i, sd=0.25 * i) for i in range(7)]
    write_results(records, tmp_path / "whole")
    write_result_blocks(
        map(result_rows, [records[:2], [], records[2:3], records[3:]]), tmp_path / "blocks"
    )
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
    # 21 digits is past the vectorized pass's int64 width; the per-line reader takes it
    path = tmp_path / "g.txt"
    path.write_text("n 3\n+0 -0\n000000000000000000002 1\n\t0  2 \n")
    assert parse_edge_list(path) == from_edge_list(3, [(2, 1), (0, 2)])


def test_parse_edge_list_line_endings(tmp_path):
    path = tmp_path / "g.txt"
    for ending in ("\n", "\r\n", "\r"):
        path.write_bytes(ending.join(["# k3", "n 3", "0 1", "", "1 2", "2 0"]).encode())
        assert parse_edge_list(path) == from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


def test_parse_edge_list_spans_scan_chunks(tmp_path, monkeypatch):
    # chunks of a few bytes: lines longer than a chunk, cuts inside comments
    monkeypatch.setattr(dataio, "_CHUNK", 5)
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


# A chunk of 7 bytes holds at most one edge line, so every line is a chunk of
# its own. Each chunk costs a fixed few dozen numpy calls: the 1000-graph set
# takes 32 s to parse at 7 bytes and 6 s at 64 (2-core Xeon), so the small
# chunks read 40 graphs, and the 1000-graph set is read in 4 KiB chunks.
@pytest.mark.parametrize("chunk", [7, 64])
def test_parse_tudataset_small_chunks_match_reference(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(dataio, "_CHUNK", chunk)
    assert_parses_like_reference(write_synthetic_tud(tmp_path / "synth", 40))
    graphs = synthetic_graphs(40, seed_base=100)
    bundle = assert_parses_like_reference(write_interleaved_tud(tmp_path / "mixed", graphs))
    assert bundle.graphs == graphs


def test_parse_tudataset_1000_graphs_in_many_chunks_match_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_CHUNK", 4096)
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
    monkeypatch.setattr(dataio, "_CHUNK", 64)
    directory = write_synthetic_tud(tmp_path / "synth", 20)
    a_path = directory / "synth_A.txt"
    nodes = len((directory / "synth_graph_indicator.txt").read_text().split())
    lines = a_path.read_text().splitlines()
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[where]
    lines.insert(at, bad.format(last=nodes, beyond=nodes + 1))
    a_path.write_text("\n".join(lines) + "\n")
    assert len(lines) * 8 > 20 * 64  # the file spans many chunks
    with pytest.raises(DatasetFormatError) as exc:
        parse_tudataset(directory, "synth")
    assert (exc.value.path, exc.value.line) == (a_path, at + 1)
    assert str(exc.value) == f"{a_path}:{at + 1}: {error.format(last=nodes, beyond=nodes + 1)}"


def test_parse_tudataset_19_digit_token_goes_to_line_reader(tmp_path):
    write_tud_fixture(tmp_path, labels=False)
    (tmp_path / "tiny_A.txt").write_text("0000000000000000001, 2\n3, 0000000000000000002\n4, 5\n")
    bundle = parse_tudataset(tmp_path, "tiny")
    assert bundle.graphs == [from_edge_list(3, [(0, 1), (2, 1)]), from_edge_list(2, [(0, 1)])]


def test_parse_tudataset_rejects_more_nodes_than_max(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "MAX_NODES", 4)
    write_tud_fixture(tmp_path)
    with pytest.raises(
        DatasetFormatError, match=r"tiny_graph_indicator\.txt: 5 nodes exceed the limit of 4"
    ):
        parse_tudataset(tmp_path, "tiny")
    monkeypatch.setattr(dataio, "MAX_NODES", 5)
    assert len(parse_tudataset(tmp_path, "tiny").graphs) == 2


def test_parse_tudataset_peak_memory_is_a_few_times_the_edge_file(tmp_path):
    directory = write_synthetic_tud(tmp_path / "synth", 5000)
    a_bytes = (directory / "synth_A.txt").stat().st_size
    tracemalloc.start()
    try:
        parse_tudataset(directory, "synth")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a_bytes  # one array per dataset, not whole-file copies per step


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
    records = [
        CoarsenRecord(
            i, part.assignment, n, cg.superedges, sd=0.0, elapsed_micros=0,
            edge_count=g.edge_count,
        )
        for i in range(2)
    ]
    write_results(records, tmp_path)
    expected = "".join(
        f"graph {i}\n" + "".join(f"{a} {b}\n" for a, b in g.edges) for i in range(2)
    )
    assert (tmp_path / "coarse_edges.txt").read_text() == expected
    mapping = [json.loads(line) for line in (tmp_path / "mapping.jsonl").read_text().splitlines()]
    assert mapping == [
        {"graph_index": i, "assignment": list(range(n)), "supernode_count": n} for i in range(2)
    ]

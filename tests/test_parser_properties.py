"""Property tests: the parsers, which read with numpy's reader, equal the
reference per-line parsers on valid files, and agree with their own
per-line reader on any file, valid or not."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import gbgc.dataio as dataio
from gbgc import DatasetFormatError, parse_edge_list, parse_tudataset
from gbgc.dataio import write_edge_list

from helpers import plain, reference_parse_edge_list, reference_parse_tudataset
from test_engine_properties import small_graphs

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
BLANK_LINES = st.sampled_from(["", "  ", "\t", " \t "])


def dirty_pairs(draw, n):
    """Pairs over 0..n-1 with duplicates, reversed copies and self-loops."""
    if n == 0:
        return []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
        pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=5))]
    pairs += [(v, v) for v in draw(st.lists(node, max_size=3))]
    return draw(st.permutations(pairs))


def with_blank_lines(draw, lines):
    out = []
    for line in lines:
        out.extend(draw(st.lists(BLANK_LINES, max_size=1)))
        out.append(line)
    return out


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(0, 25))
    header = draw(st.booleans())  # with a header, nodes past the largest index stay isolated
    tokens = st.sampled_from(["{}", "+{}", " {}", "{} ", "0{}"])
    gaps = st.sampled_from([" ", "\t", "  "])
    lines = [
        draw(tokens).format(u) + draw(gaps) + draw(tokens).format(v)
        for u, v in dirty_pairs(draw, n)
    ]
    lines = with_blank_lines(draw, lines)
    comments = draw(st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(
        ["# comment", "  #x 1 2", "#", "# n 5"])), max_size=3))
    for at, comment in sorted(comments, reverse=True):
        lines.insert(at, comment)
    if header:
        lines.insert(0, f"n {n}")
    ending = draw(NEWLINES)
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@SETTINGS
@given(text=edge_list_texts())
def test_edge_list_matches_reference(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    assert plain(parse_edge_list(path)) == reference_parse_edge_list(path)


@SETTINGS
@given(g=small_graphs())
def test_edge_list_round_trip_matches_reference(tmp_path, g):
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    parsed = parse_edge_list(path)
    assert parsed == g
    assert plain(parsed) == reference_parse_edge_list(path)


@st.composite
def tu_datasets(draw):
    """(indicator lines, A lines, labels or None) of 1-5 graphs whose nodes
    may interleave in the indicator file."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    owner = draw(st.permutations([g for g, size in enumerate(sizes) for _ in range(size)]))
    members = [[i + 1 for i, o in enumerate(owner) if o == g] for g in range(len(sizes))]
    pairs = []
    for nodes in members:
        pairs += [(nodes[u], nodes[v]) for u, v in dirty_pairs(draw, len(nodes))]
    commas = st.sampled_from([",", ", ", " , ", " ,"])
    a_lines = with_blank_lines(draw, [f"{u}{draw(commas)}{v}" for u, v in pairs])
    labels = draw(st.none() | st.lists(st.integers(-3, 3), min_size=len(sizes),
                                        max_size=len(sizes)))
    return [str(o + 1) for o in owner], a_lines, labels


def write_tu(directory, dataset, ending="\n"):
    indicator, a_lines, labels = dataset
    (directory / "D_graph_indicator.txt").write_bytes((ending.join(indicator) + ending).encode())
    (directory / "D_A.txt").write_bytes((ending.join(a_lines) + ending).encode())
    if labels is not None:
        (directory / "D_graph_labels.txt").write_text("".join(f"{x}\n" for x in labels))


@SETTINGS
@given(dataset=tu_datasets(), ending=NEWLINES)
def test_tudataset_matches_reference(tmp_path, dataset, ending):
    (tmp_path / "D_graph_labels.txt").unlink(missing_ok=True)
    write_tu(tmp_path, dataset, ending)
    bundle = parse_tudataset(tmp_path, "D")
    expected_graphs, expected_labels = reference_parse_tudataset(tmp_path, "D")
    assert [plain(g) for g in bundle.graphs] == expected_graphs
    assert bundle.graph_labels == expected_labels


def outcome(parse, *args):
    """What a parse returns, as comparable data, or the error it raises."""
    try:
        result = parse(*args)
    except DatasetFormatError as exc:
        return str(exc)
    if hasattr(result, "graphs"):
        return [plain(g) for g in result.graphs], result.graph_labels
    return plain(result)


def by_line_only(parse, *args):
    """The same parse with numpy's reader rejecting every file."""
    with mock.patch.object(dataio, "_rows", return_value=None):
        return outcome(parse, *args)


# Bytes numpy's reader strips around a token as whitespace but the grammar
# rejects: \x1c, \x1f, raw \x85 and \xa0 (written through surrogateescape)
# and UTF-8 NBSP; and tokens at the ends of int64 and one past.
STRIPPED = ["\x1c", "\x1f", "\udc85", "\udca0", "\xa0"]
INT64_ENDS = ["9223372036854775807", "9223372036854775808", "-9223372036854775808",
              "-9223372036854775809"]
FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "+2", "007", "-0", "1_0", "٣", "0x1", "1.0",
               "n", "#", "x", "", "99999999999999999999", "00000000000000000000001",
               *STRIPPED, "\x1f1", "2\udc85", *INT64_ENDS]
fuzz_lines = st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=3), max_size=6)
fuzz_gaps = st.sampled_from([" ", "\t", ",", ", ", " # ", ",\x1f", "\udca0", "\x1c,", " \xa0"])


def fuzz_text(draw, lines):
    gap = draw(fuzz_gaps)
    text = draw(NEWLINES).join(gap.join(tokens) for tokens in lines)
    return text.encode("utf-8", "surrogateescape")


@SETTINGS
@given(data=st.data(), lines=fuzz_lines,
       header=st.sampled_from(["", "n 4\n", "n x\n", "n -1\n", "# caf\xe9\nn 4\n"]))
def test_edge_list_agrees_with_its_line_reader(tmp_path, data, lines, header):
    path = tmp_path / "g.txt"
    path.write_bytes(header.encode() + fuzz_text(data.draw, lines))
    assert outcome(parse_edge_list, path) == by_line_only(parse_edge_list, path)


# mostly valid: ids of 1-3 graphs over 2-8 nodes, so that edges can also parse
fuzz_ids = st.lists(
    st.lists(st.sampled_from(["1", "2", "3", "1", "2", "01", "+2", "0", "x", "1_0", "\x1f1",
                              "2\x1c"]),
             min_size=1, max_size=1),
    min_size=2, max_size=8,
)
fuzz_ends = st.sampled_from(["1", "2", "3", "4", "5", "6", "02", "+3", "9", "0", "-1", "x", "",
                             *STRIPPED, "\x1f1", "2\udc85", *INT64_ENDS])
# one label a line, for 1-3 graphs, or no labels file
fuzz_labels = st.none() | st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=1),
                                   min_size=1, max_size=3)


@SETTINGS
@given(data=st.data(), a_lines=st.lists(st.lists(fuzz_ends, max_size=3), max_size=6),
       ind_lines=fuzz_ids, label_lines=fuzz_labels)
def test_tudataset_agrees_with_its_line_reader(tmp_path, data, a_lines, ind_lines, label_lines):
    (tmp_path / "D_A.txt").write_bytes(fuzz_text(data.draw, a_lines))
    (tmp_path / "D_graph_indicator.txt").write_bytes(fuzz_text(data.draw, ind_lines))
    labels_path = tmp_path / "D_graph_labels.txt"
    labels_path.unlink(missing_ok=True)
    if label_lines is not None:
        labels_path.write_bytes(fuzz_text(data.draw, label_lines))
    assert outcome(parse_tudataset, tmp_path, "D") == by_line_only(parse_tudataset, tmp_path, "D")

"""Dataset ingestion and result serialization.

Reads the common multi-graph text layout (`<name>_A.txt` with 1-indexed
comma-separated edge pairs plus `<name>_graph_indicator.txt`, optional
`<name>_graph_labels.txt`) and plain whitespace edge lists. Writes
coarsening results as mapping.jsonl, coarse_edges.txt, and report.csv.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DatasetFormatError, GbgcError
from .graph import (
    MAX_NODES,
    Graph,
    GraphBlock,
    _offsets,
    csr_from_keys,
    edge_keys,
    from_edge_list,
)

REPORT_HEADER = "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"
# integers formatted at once into one piece of a result file, which bounds
# the Python objects alive for them
_WRITE_VALUES = 1 << 13
# the pieces of text mapping.jsonl and coarse_edges.txt are made of, each
# with the integers it holds: a mapping.jsonl row is a graph's index, its
# nodes' balls and its ball count; coarse_edges.txt is a graph's index line,
# then its superedges one line each
_MAPPING_UNITS = ('{"graph_index":%d,"assignment":[', "%d,", '%d],"supernode_count":', "%d}\n")
_EDGE_UNITS = ("graph %d\n", "%d %d\n")
_REPORT_ROW = "%d,%d,%d,%d,%d,%.6f,%.6f,%d\n"


@dataclass
class DatasetBundle:
    """A parsed dataset: its graphs as one block, and their labels if it
    has them. `graphs` are the block's graphs one by one, as views made the
    first time it is read."""

    name: str
    block: GraphBlock
    graph_labels: list[int] | None = None

    @cached_property
    def graphs(self) -> list[Graph]:
        return self.block.graphs()


@dataclass
class CoarsenRecord:
    """Per-graph result row as persisted to disk."""

    graph_index: int
    assignment: np.ndarray  # int64, node -> supernode, as Partition.assignment
    supernode_count: int
    superedges: np.ndarray  # (k, 2) int64, as CoarsenedGraph.superedges
    sd: float
    elapsed_micros: int
    edge_count: int  # original edge count, needed for report.csv
    rayleigh_gap: float | None = None  # worst gap of the Rayleigh probes, if any; not written

    @property
    def node_count(self) -> int:
        return len(self.assignment)

    @property
    def r_a(self) -> float:
        """Achieved coarsening ratio: supernode count over node count."""
        return self.supernode_count / self.node_count


class BlockResults(NamedTuple):
    """What the three result files hold for a run of graphs, as arrays.
    Graph i of the run has index graph_index[i]. Its nodes are bounds[i] ..
    bounds[i + 1] - 1 of `assignment`, whose ball ids run across the run:
    the graph's own are first_ball[i] .. first_ball[i + 1] - 1. Its
    superedges are rows cuts[i] .. cuts[i + 1] - 1, in its own ball ids."""

    graph_index: np.ndarray  # int64
    bounds: np.ndarray  # int64, one more than the graphs
    assignment: np.ndarray  # int64
    first_ball: np.ndarray  # int64, one more than the graphs
    superedges: np.ndarray  # (k, 2) int64
    cuts: np.ndarray  # int64, one more than the graphs
    edge_count: np.ndarray  # int64 original edge count of each graph
    sd: np.ndarray  # float
    elapsed_micros: np.ndarray  # int64
    rayleigh_gap: np.ndarray | None = None  # worst probe gap of each graph, if any; not written

    @classmethod
    def of_records(cls, records: list[CoarsenRecord]) -> BlockResults:
        """The records taken as one run of graphs."""
        sizes = [len(rec.assignment) for rec in records]
        first_ball = _offsets([rec.supernode_count for rec in records])
        own = [np.asarray(rec.assignment, dtype=np.int64) for rec in records]
        superedges = [np.asarray(rec.superedges, dtype=np.int64).reshape(-1, 2) for rec in records]
        return cls(
            np.array([rec.graph_index for rec in records], dtype=np.int64),
            _offsets(sizes),
            np.concatenate(own or [np.zeros(0, dtype=np.int64)]) + np.repeat(first_ball[:-1], sizes),
            first_ball,
            np.concatenate(superedges or [np.zeros((0, 2), dtype=np.int64)]),
            _offsets([len(edges) for edges in superedges]),
            np.array([rec.edge_count for rec in records], dtype=np.int64),
            np.array([rec.sd for rec in records], dtype=float),
            np.array([rec.elapsed_micros for rec in records], dtype=np.int64),
        )

    @property
    def r_a(self) -> np.ndarray:
        """Achieved coarsening ratio of each graph: supernode count over node count."""
        return np.diff(self.first_ball) / np.diff(self.bounds)


# Input grammar, shared by the vectorized pass and the per-line reader: a
# token is an ASCII decimal integer with an optional sign, [+-]?[0-9]+; lines
# end in \n, \r\n or \r; blanks are space, tab, \v and \f.
_TOKEN = re.compile(rb"[+-]?[0-9]+")
_BLANK, _NEWLINE, _SEP, _SIGN, _DIGIT, _OTHER = range(6)  # byte classes
# What a line holds, in order: tokens (a token's first byte, class _SIGN or
# _DIGIT, counts as _SIGN), separators and line ends.
_NEWLINE_EVENT, _SEP_EVENT, _TOKEN_EVENT = _NEWLINE, _SEP, _SIGN
_MAX_DIGITS = 18  # longer tokens may not fit int64; the per-line reader takes them
# Bytes classified at once, which bounds the temporaries at about 16 bytes
# per input byte (about 4 MB). Whether glibc returns them to the system after
# parsing depends on heap layout, so they can stay resident for the whole run.
_CHUNK = 1 << 18


def _byte_classes(sep: bytes | None) -> np.ndarray:
    classes = np.full(256, _OTHER, dtype=np.uint8)
    classes[list(b" \t\x0b\x0c")] = _BLANK
    classes[ord("\n")] = _NEWLINE
    classes[list(b"+-")] = _SIGN
    classes[ord("0") : ord("9") + 1] = _DIGIT
    if sep is not None:
        classes[ord(sep)] = _SEP
    return classes


_PLAIN_CLASSES = _byte_classes(None)
_COMMA_CLASSES = _byte_classes(b",")


def _read_text(path: Path) -> bytes:
    """File bytes with \r\n and \r line ends turned into \n."""
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _blank_comment_lines(chunk: np.ndarray, cls: np.ndarray) -> None:
    """Reclassify as blank every line whose first non-blank byte is '#'."""
    hashes = np.flatnonzero(chunk == ord("#"))
    if not len(hashes):
        return
    newlines = np.flatnonzero(cls == _NEWLINE)
    line_start = np.concatenate(([0], newlines + 1))[np.searchsorted(newlines, hashes)]
    solid = np.flatnonzero(cls > _NEWLINE)
    heads = hashes[solid[np.searchsorted(solid, line_start)] == hashes]
    line_end = np.concatenate((newlines, [len(chunk)]))[np.searchsorted(newlines, heads)]
    mark = np.zeros(len(chunk) + 1, dtype=np.int8)
    mark[heads] = 1
    mark[line_end] = -1
    cls[np.cumsum(mark[:-1], dtype=np.int8) > 0] = _BLANK


def _scan_chunk(
    chunk: np.ndarray, row: tuple[int, ...], classes: np.ndarray, comments: bool
) -> np.ndarray | None:
    """Token values of whole lines, or None if a line breaks the grammar."""
    cls = np.take(classes, chunk)
    if comments:
        _blank_comment_lines(chunk, cls)
    if (cls == _OTHER).any():
        return None
    in_token = (cls >= _SIGN).view(np.int8)
    step = np.diff(in_token, prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    signed = cls[starts] == _SIGN
    digits = ends - starts - signed
    if len(starts) and (
        np.count_nonzero(cls == _SIGN) != np.count_nonzero(signed)  # a sign inside a token
        or digits.min() < 1
        or digits.max() > _MAX_DIGITS
    ):
        return None
    # the sequence of tokens, separators and line ends must repeat `row` per line
    marks = (cls == _NEWLINE) | (cls == _SEP)
    marks[starts] = True
    events = np.minimum(cls[marks], _TOKEN_EVENT)
    line_ends = np.flatnonzero(events == _NEWLINE_EVENT)
    per_line = np.diff(line_ends, prepend=-1, append=len(events)) - 1
    if ((per_line != 0) & (per_line != len(row))).any():
        return None
    if (events[events != _NEWLINE_EVENT].reshape(-1, len(row)) != row).any():
        return None
    first = starts + signed
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(int(digits.max()) if len(starts) else 0, 0, -1):
        at = ends - k  # k-th digit from the right, if the token has one
        values *= 10
        values += np.where(at >= first, np.take(chunk, at, mode="clip") - ord("0"), 0)
    return np.where(chunk[starts] == ord("-"), -values, values)


def _scan_chunks(
    data: bytes,
    row: tuple[int, ...],
    classes: np.ndarray,
    offset: int = 0,
    comments: bool = False,
):
    """Tokens of data[offset:], one int64 row per non-blank line, yielded
    chunk by chunk (each chunk ends after a line end).

    Every non-blank line must show the events in `row` (_TOKEN_EVENT,
    _SEP_EVENT); with `comments`, lines starting with '#' count as blank.
    Yields None, and stops, at a chunk where a line breaks the grammar or a
    token has more than _MAX_DIGITS digits; the per-line reader then names
    that line.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    width = row.count(_TOKEN_EVENT)
    start = offset
    while start < len(buf):
        stop = len(buf)
        if start + _CHUNK < len(buf):  # cut after a line end
            stop = data.rfind(b"\n", start, start + _CHUNK) + 1
            if stop <= start:
                stop = data.find(b"\n", start + _CHUNK) + 1 or len(buf)
        values = _scan_chunk(buf[start:stop], row, classes, comments)
        yield None if values is None else values.reshape(-1, width)
        if values is None:
            return
        start = stop


def _scan(
    data: bytes,
    row: tuple[int, ...],
    classes: np.ndarray,
    offset: int = 0,
    comments: bool = False,
) -> np.ndarray | None:
    """All rows of _scan_chunks as one array, or None if a chunk fails."""
    parts = list(_scan_chunks(data, row, classes, offset, comments))
    if parts and parts[-1] is None:
        return None
    return np.concatenate(parts or [np.zeros((0, row.count(_TOKEN_EVENT)), dtype=np.int64)])


def _lines(data: bytes):
    """(line number, stripped line) of every non-blank line."""
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _int(token: bytes) -> int | None:
    token = token.strip()
    return int(token) if _TOKEN.fullmatch(token) else None


def _show(line: bytes) -> str:
    return repr(line.decode(errors="replace"))


def _read_int_pair(line: bytes, sep: bytes | None, path: Path, lineno: int) -> tuple[int, int]:
    parts = line.split(sep)
    if len(parts) != 2:
        raise DatasetFormatError(f"expected two fields, got {_show(line)}", path, lineno)
    u, v = _int(parts[0]), _int(parts[1])
    if u is None or v is None:
        raise DatasetFormatError(f"non-integer token in {_show(line)}", path, lineno)
    return u, v


def _indicator_by_line(data: bytes, path: Path) -> list[int]:
    """Graph ids read line by line; raises DatasetFormatError at the first bad line."""
    ids: list[int] = []
    graph_count = 0
    graph_count_line = 0  # where the largest id first appears
    for lineno, line in _lines(data):
        gid = _int(line)
        if gid is None:
            raise DatasetFormatError(f"non-integer graph id {_show(line)}", path, lineno)
        if gid < 1:
            raise DatasetFormatError(f"graph id {gid} must be >= 1", path, lineno)
        if gid > graph_count:
            graph_count, graph_count_line = gid, lineno
        ids.append(gid)
    if not ids:
        raise DatasetFormatError("indicator file is empty", path)
    # every graph has a node, so ids are bounded by the node count; checked
    # before anything is sized by an id
    if graph_count > len(ids):
        raise DatasetFormatError(
            f"graph id {graph_count} exceeds the {len(ids)} indicator lines",
            path,
            graph_count_line,
        )
    return ids


def _tu_edges_by_line(data: bytes, path: Path, graph_of_node: list[int]) -> list[tuple[int, int]]:
    """1-based edge pairs read line by line; raises DatasetFormatError at the
    first bad line (malformed, out of range, or across two graphs)."""
    pairs = []
    for lineno, line in _lines(data):
        u, v = _read_int_pair(line, b",", path, lineno)
        if not (1 <= u <= len(graph_of_node)) or not (1 <= v <= len(graph_of_node)):
            raise DatasetFormatError(f"node index out of range in edge ({u}, {v})", path, lineno)
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise DatasetFormatError(
                f"edge ({u}, {v}) spans graphs {gu + 1} and {gv + 1}", path, lineno
            )
        pairs.append((u, v))
    return pairs


def _labels_by_line(data: bytes, path: Path) -> list[int]:
    labels = []
    for lineno, line in _lines(data):
        label = _int(line)
        if label is None:
            raise DatasetFormatError(f"non-integer label {_show(line)}", path, lineno)
        labels.append(label)
    return labels


def _within(values: np.ndarray, low: int, high: int | None) -> bool:
    """Whether every value lies in [low, high), with no upper bound for None."""
    return not len(values) or (values.min() >= low and (high is None or values.max() < high))


def _in_one_graph(pairs: np.ndarray, graph_of_node: np.ndarray) -> bool:
    """Whether 1-based pairs all name existing nodes of one graph each."""
    return _within(pairs, 1, len(graph_of_node) + 1) and bool(
        (graph_of_node[pairs[:, 0] - 1] == graph_of_node[pairs[:, 1] - 1]).all()
    )


def _graph_major_keys(pairs: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """edge_keys of 1-based pairs, in the graph-major node ids `rank`."""
    ends = rank[pairs - 1]
    return edge_keys(len(rank), ends[:, 0], ends[:, 1])


def _tu_edge_keys(path: Path, graph_of_node: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Graph-major edge keys of every line of an A file, self-loops dropped.

    The file is scanned chunk by chunk, and only one key per line is kept.
    A chunk that breaks the grammar or names a node out of range or in
    another graph sends the whole file to the per-line reader, which names
    the first bad line.
    """
    data = _read_text(path)
    keys = np.empty(data.count(b"\n") + 1, dtype=np.int64)  # room for a key per line
    filled = 0
    for pairs in _scan_chunks(data, (_TOKEN_EVENT, _SEP_EVENT, _TOKEN_EVENT), _COMMA_CLASSES):
        if pairs is None or not _in_one_graph(pairs, graph_of_node):
            pairs = _tu_edges_by_line(data, path, graph_of_node.tolist())
            return _graph_major_keys(np.array(pairs, dtype=np.int64).reshape(-1, 2), rank)
        chunk_keys = _graph_major_keys(pairs, rank)
        keys[filled : filled + len(chunk_keys)] = chunk_keys
        filled += len(chunk_keys)
    return keys[:filled]


def parse_tudataset(directory: str | Path, name: str) -> DatasetBundle:
    """Parse a multi-graph dataset directory into 0-indexed per-graph form.

    Nodes are renumbered per graph following indicator order; edges are
    deduplicated and symmetrized; an edge across two graph ids is a format
    error. Other files of the directory are not read. Each file is read
    chunk by chunk in vectorized passes; only a file those reject is read
    again line by line, to name the first bad line.

    The whole dataset is one `GraphBlock`, a CSR over graph-major node ids,
    built once; `DatasetBundle.graphs` cuts per-graph views from it only
    when read.
    """
    directory = Path(directory)
    a_path = directory / f"{name}_A.txt"
    ind_path = directory / f"{name}_graph_indicator.txt"
    for mandatory in (a_path, ind_path):
        if not mandatory.is_file():
            raise DatasetFormatError("mandatory file missing", mandatory)

    data = _read_text(ind_path)
    ids = _scan(data, (_TOKEN_EVENT,), _PLAIN_CLASSES)
    if ids is None or not len(ids) or not _within(ids, 1, len(ids) + 1):
        ids = np.array(_indicator_by_line(data, ind_path), dtype=np.int64)
    del data
    graph_of_node = ids.reshape(-1)  # 0-based graph id per 0-based global node
    graph_of_node -= 1
    node_count = len(graph_of_node)
    if node_count > MAX_NODES:  # edge keys over all nodes must fit int64
        raise DatasetFormatError(f"{node_count} nodes exceed the limit of {MAX_NODES}", ind_path)
    graph_count = int(graph_of_node.max()) + 1
    node_counts = np.bincount(graph_of_node, minlength=graph_count)
    if not node_counts.all():
        missing = int(np.argmin(node_counts)) + 1
        raise DatasetFormatError(
            f"graph id {missing} has no nodes (ids must run 1..{graph_count} without gaps)",
            ind_path,
        )
    # graph-major id: position in the stable sort by graph id, so each graph's
    # nodes form a contiguous range, in file order
    rank = np.empty_like(graph_of_node)
    rank[np.argsort(graph_of_node, kind="stable")] = np.arange(node_count)
    keys = _tu_edge_keys(a_path, graph_of_node, rank)
    del rank

    labels: list[int] | None = None
    label_path = directory / f"{name}_graph_labels.txt"
    if label_path.is_file():
        data = _read_text(label_path)
        values = _scan(data, (_TOKEN_EVENT,), _PLAIN_CLASSES)
        labels = _labels_by_line(data, label_path) if values is None else values.ravel().tolist()
        if len(labels) != graph_count:
            raise DatasetFormatError(
                f"{len(labels)} labels for {graph_count} graphs", label_path
            )

    indptr, indices = csr_from_keys(node_count, keys)
    del keys
    block = GraphBlock(indptr, indices, _offsets(node_counts))
    return DatasetBundle(name=name, block=block, graph_labels=labels)


def _edge_list_header(data: bytes) -> tuple[int | None, int] | None:
    """(node count, offset past the header) if the first non-blank,
    non-comment line is a well-formed 'n <count>' header; (None, offset of
    that line) if it is no header; None if it is a malformed one."""
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start) + 1 or len(data)
        line = data[start:stop].strip()
        if line and not line.startswith(b"#"):
            if not line.startswith(b"n "):
                return None, start
            count = _int(line.split()[1])
            return None if count is None or count < 0 else (count, stop)
        start = stop
    return None, start


def _edge_list_by_line(data: bytes, path: Path) -> tuple[int | None, list[tuple[int, int]]]:
    """(header node count, pairs) read line by line; raises
    DatasetFormatError at the first bad line, negative or out-of-range
    indices included."""
    node_count: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, line in _lines(data):
        if line.startswith(b"#"):
            continue
        if node_count is None and not pairs and line.startswith(b"n "):
            node_count = _int(line.split()[1])
            if node_count is None:
                raise DatasetFormatError(f"bad header {_show(line)}", path, lineno)
            if node_count < 0:
                raise DatasetFormatError(
                    f"node_count must be nonnegative, got {node_count}", path, lineno
                )
            continue
        u, v = _read_int_pair(line, None, path, lineno)
        if node_count is None and min(u, v) < 0:
            raise DatasetFormatError(f"negative node index in edge ({u}, {v})", path, lineno)
        if node_count is not None and not (0 <= min(u, v) and max(u, v) < node_count):
            raise DatasetFormatError(
                f"edge ({u}, {v}) out of range for node_count={node_count}", path, lineno
            )
        pairs.append((u, v))
    return node_count, pairs


def parse_edge_list(path: str | Path) -> Graph:
    """Whitespace 'u v' pairs, 0-indexed; optional 'n <count>' header;
    '#' starts a comment line.

    The file is read in one vectorized pass; only a file that pass rejects
    is read again line by line, to name the first bad line.
    """
    path = Path(path)
    data = _read_text(path)
    header = _edge_list_header(data)
    pairs = None
    if header is not None:
        node_count, offset = header
        pairs = _scan(data, (_TOKEN_EVENT, _TOKEN_EVENT), _PLAIN_CLASSES, offset, comments=True)
    if pairs is None or not _within(pairs, 0, node_count):
        node_count, pairs = _edge_list_by_line(data, path)
    try:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if node_count is None:
            node_count = int(pairs.max()) + 1 if len(pairs) else 0
        return from_edge_list(node_count, pairs)
    except (GbgcError, ValueError, OverflowError, MemoryError) as exc:
        raise DatasetFormatError(str(exc), path) from exc


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Inverse of parse_edge_list, header included so isolated nodes survive."""
    with open(path, "w") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


@contextmanager
def _replacing(path: str | Path):
    """Open a fresh temporary file beside `path` for writing and move it
    over `path` only once the block completes, so readers see either the
    old file or the whole new one. The temporary file is removed on failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _filled(units: tuple[str, ...], kinds: np.ndarray, values: np.ndarray) -> list[str]:
    """The units units[kinds[j]] end to end, their %d directives filled in
    order from `values`, as pieces of at most _WRITE_VALUES values.

    A piece's template is one string multiplication per run of equal units,
    filled by one printf-style format: about twice as fast as a str() per
    integer, and with no string per integer.
    """
    widths = np.array([unit.count("%d") for unit in units])
    per = _WRITE_VALUES // int(widths.max())
    pieces = []
    lo = 0
    for a in range(0, len(kinds), per):
        k = kinds[a : a + per]
        cuts = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
        runs = zip(k[cuts[:-1]].tolist(), cuts, cuts[1:])
        template = "".join([units[kind] * (stop - start) for kind, start, stop in runs])
        hi = lo + int(widths[k].sum())
        pieces.append(template % tuple(values[lo:hi].tolist()))
        lo = hi
    return pieces


def _mapping_rows(res: BlockResults) -> list[str]:
    """mapping.jsonl's rows, each the compact JSON of {"graph_index",
    "assignment", "supernode_count"}: per graph, its index, its nodes' own
    ball ids and its ball count, in slots bounds[i] + 2i onwards."""
    graphs = np.arange(len(res.graph_index))
    head = res.bounds[:-1] + 2 * graphs
    tail = res.bounds[1:] + 2 * graphs + 1
    values = np.empty(int(res.bounds[-1]) + 2 * len(graphs), dtype=np.int64)
    kinds = np.ones(len(values), dtype=np.int8)
    body = np.ones(len(values), dtype=bool)
    body[head] = body[tail] = False
    values[head], kinds[head] = res.graph_index, 0
    values[tail], kinds[tail] = np.diff(res.first_ball), 3
    kinds[tail - 1] = 2  # a graph's last node closes its assignment
    values[body] = res.assignment - np.repeat(res.first_ball[:-1], np.diff(res.bounds))
    return _filled(_MAPPING_UNITS, kinds, values)


def _edge_rows(res: BlockResults) -> list[str]:
    """coarse_edges.txt's rows: per graph, "graph <index>" and then its
    superedges, one row each; graph i's rows start at row cuts[i] + i."""
    graphs = np.arange(len(res.graph_index))
    kinds = np.ones(len(res.superedges) + len(graphs), dtype=np.int8)
    kinds[res.cuts[:-1] + graphs] = 0
    head = 2 * res.cuts[:-1] + graphs  # the value slot of each graph's index
    values = np.empty(2 * len(res.superedges) + len(graphs), dtype=np.int64)
    body = np.ones(len(values), dtype=bool)
    body[head] = False
    values[head] = res.graph_index
    values[body] = res.superedges.ravel()
    return _filled(_EDGE_UNITS, kinds, values)


def report_rows(res: BlockResults) -> list[str]:
    """report.csv's rows; reals carry six fractional digits."""
    count = len(res.graph_index)
    cells = np.empty((count, 8), dtype=object)
    for column, values in enumerate((
        res.graph_index,
        np.diff(res.bounds),
        res.edge_count,
        np.diff(res.first_ball),
        np.diff(res.cuts),
        res.r_a,
        res.sd,
        res.elapsed_micros,
    )):
        cells[:, column] = values.tolist()
    per = _WRITE_VALUES // 8
    return [
        _REPORT_ROW * len(rows) % tuple(rows.ravel().tolist())
        for rows in (cells[i : i + per] for i in range(0, count, per))
    ]


def block_rows(res: BlockResults) -> tuple[list[str], list[str], list[str]]:
    """The rows of mapping.jsonl, coarse_edges.txt and report.csv for a run
    of graphs, each file's as pieces of text to be written in order."""
    return _mapping_rows(res), _edge_rows(res), report_rows(res)


def result_rows(records: list[CoarsenRecord]) -> tuple[list[str], list[str], list[str]]:
    """`block_rows` of the records taken as one run of graphs."""
    return block_rows(BlockResults.of_records(records))


def write_report_csv(rows: Iterable[str], path: str | Path) -> None:
    """Fixed-schema per-graph report of `report_rows` pieces, replaced whole."""
    with _replacing(path) as fh:
        fh.write(REPORT_HEADER + "\n")
        fh.writelines(rows)


def write_result_blocks(blocks: Iterable[tuple[list[str], ...]], out_dir: str | Path) -> None:
    """Emit mapping.jsonl, coarse_edges.txt and report.csv under out_dir
    from the `result_rows` of each block of graphs, appended as the block
    arrives. The three files are renamed into place together after the
    last block; if anything fails before, the temporary files are removed
    and the previous files stay as they were."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (
            _replacing(out_dir / "mapping.jsonl") as mapping,
            _replacing(out_dir / "coarse_edges.txt") as edges,
            _replacing(out_dir / "report.csv") as report,
        ):
            report.write(REPORT_HEADER + "\n")
            for rows in blocks:
                for fh, pieces in zip((mapping, edges, report), rows):
                    fh.writelines(pieces)
    except OSError as exc:
        raise DatasetFormatError(f"failed writing results: {exc}", out_dir) from exc


def write_results(records: list[CoarsenRecord], out_dir: str | Path) -> None:
    """Emit mapping.jsonl, coarse_edges.txt and report.csv under out_dir for
    the records, as one block."""
    # formatted inside the writer, so a failure to format fails it too
    write_result_blocks(map(result_rows, [records]), out_dir)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mapping_row_problem(obj) -> str | None:
    """What is wrong with one decoded mapping.jsonl row, or None."""
    if not isinstance(obj, dict):
        return f"row must be a JSON object, got {type(obj).__name__}"
    for key in ("graph_index", "assignment", "supernode_count"):
        if key not in obj:
            return f"missing key {key!r}"
    index, assignment, count = obj["graph_index"], obj["assignment"], obj["supernode_count"]
    if not _is_int(index) or index < 0:
        return f"graph_index must be an integer >= 0, got {index!r}"
    if not isinstance(assignment, list) or not all(_is_int(a) for a in assignment):
        return "assignment must be a list of integers"
    if not _is_int(count) or count < 1:
        return f"supernode_count must be an integer >= 1, got {count!r}"
    return None


def read_mapping(path: str | Path, graph_count: int) -> list[dict]:
    """Load mapping.jsonl rows (graph_index, assignment, supernode_count),
    checking the shape and types of each row, and that each graph_index
    names one of the graph_count input graphs and appears only once."""
    path = Path(path)
    rows = []
    line_of: dict[int, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise DatasetFormatError("invalid JSON", path, lineno) from None
            problem = _mapping_row_problem(obj)
            if problem is not None:
                raise DatasetFormatError(problem, path, lineno)
            index = obj["graph_index"]
            if index >= graph_count:
                raise DatasetFormatError(
                    f"graph_index {index} is not in the input, which has {graph_count} graphs",
                    path,
                    lineno,
                )
            if index in line_of:
                raise DatasetFormatError(
                    f"duplicate graph_index {index}, first on line {line_of[index]}",
                    path,
                    lineno,
                )
            line_of[index] = lineno
            rows.append(obj)
    return rows

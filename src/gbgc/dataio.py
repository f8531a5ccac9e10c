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
import warnings
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
# then its superedges one line each, as an edge list's rows are
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

    @property
    def r_a(self) -> np.ndarray:
        """Achieved coarsening ratio of each graph: supernode count over node count."""
        return np.diff(self.first_ball) / np.diff(self.bounds)


# Input grammar, shared by numpy's reader and the per-line reader: a token is
# an ASCII decimal integer with an optional sign, [+-]?[0-9]+; lines end in
# \n, \r\n or \r; blanks are space, tab, \v and \f.
_TOKEN = re.compile(rb"[+-]?[0-9]+")
# The bytes of the grammar apart from a separator. numpy's reader strips any
# Python whitespace around a token (\x1c-\x1f among it), so a file holding
# any other byte goes to the per-line reader.
_GRAMMAR_BYTES = b"0123456789+- \t\x0b\x0c\r\n"
_GUARD_BYTES = 1 << 20  # bytes checked at once against _GRAMMAR_BYTES
# Edge rows turned into keys at once, which bounds the temporaries beside
# the rows at about 64 bytes per row (about 1 MB).
_KEY_ROWS = 1 << 14


def _read_text(path: Path) -> bytes:
    """File bytes with \r\n and \r line ends turned into \n."""
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _rows(
    path: Path,
    width: int,
    sep: str | None,
    skip: int = 0,
    start: int = 0,
    dtype: type[np.signedinteger] = np.int64,
) -> np.ndarray | None:
    """The file's non-blank lines after its first `skip` lines (`start`
    bytes), read by numpy's reader as C-contiguous rows of `width` tokens
    of `dtype` (int64 or int32) split by `sep` (None: by blanks). None if a
    line breaks the grammar, holds another number of tokens, or has a token
    beyond `dtype`; the per-line reader then names that line."""
    allowed = _GRAMMAR_BYTES + (sep or "").encode()
    with open(path, "rb") as fh:
        fh.seek(start)
        while block := fh.read(_GUARD_BYTES):
            if block.translate(None, allowed):
                return None
    try:  # a file name, not an open file, takes numpy's fast C path
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy casts a token beyond `dtype` from a float, and only warns
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
            # latin-1 decodes any byte of the skipped lines; the guard checked the rest
            rows = np.loadtxt(os.fspath(path), dtype=dtype, delimiter=sep, comments=None,
                              skiprows=skip, ndmin=2, encoding="latin-1")
    except (ValueError, DeprecationWarning):
        return None
    if rows.size and rows.shape[1] != width:
        return None
    return rows.reshape(-1, width)


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

    The rows are read as int32, which holds every node id up to MAX_NODES,
    then checked and turned into int64 keys _KEY_ROWS at a time. A row of
    two int32 is the size of one key, so each slice's keys are written over
    the bytes of the rows they came from, which no later slice reads: the
    keys are a view of the rows. A file numpy's reader rejects (a token
    beyond int32 among them), or a row naming a node out of range or in
    another graph, sends the whole file to the per-line reader, which names
    the first bad line.
    """
    pairs = _rows(path, 2, ",", dtype=np.int32)
    if pairs is not None:
        keys = pairs.view(np.int64).reshape(-1)
        filled = 0
        for start in range(0, len(pairs), _KEY_ROWS):
            part = pairs[start : start + _KEY_ROWS]
            if not _in_one_graph(part, graph_of_node):
                break
            part_keys = _graph_major_keys(part, rank)
            keys[filled : filled + len(part_keys)] = part_keys
            filled += len(part_keys)
        else:
            return keys[:filled]
    pairs = _tu_edges_by_line(_read_text(path), path, graph_of_node.tolist())
    return _graph_major_keys(np.array(pairs, dtype=np.int64).reshape(-1, 2), rank)


def parse_tudataset(directory: str | Path, name: str) -> DatasetBundle:
    """Parse a multi-graph dataset directory into 0-indexed per-graph form.

    Nodes are renumbered per graph following indicator order; edges are
    deduplicated and symmetrized; an edge across two graph ids is a format
    error. Other files of the directory are not read. Each file is read by
    numpy's reader; only a file it rejects is read again line by line, to
    name the first bad line.

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

    ids = _rows(ind_path, 1, None)
    if ids is None or not len(ids) or not _within(ids, 1, len(ids) + 1):
        ids = np.array(_indicator_by_line(_read_text(ind_path), ind_path), dtype=np.int64)
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
        values = _rows(label_path, 1, None)
        if values is None:
            labels = _labels_by_line(_read_text(label_path), label_path)
        else:
            labels = values.ravel().tolist()
        if len(labels) != graph_count:
            raise DatasetFormatError(
                f"{len(labels)} labels for {graph_count} graphs", label_path
            )

    indptr, indices = csr_from_keys(node_count, keys)
    del keys
    block = GraphBlock(indptr, indices, _offsets(node_counts))
    return DatasetBundle(name=name, block=block, graph_labels=labels)


def _edge_list_head(path: Path) -> tuple[int | None, int, int] | None:
    """(node count of the header or None, lines, bytes) before an edge
    list's first edge row: blank lines, lines whose first non-blank byte is
    '#', and an 'n <count>' header if the first other line is one. None if
    that header is malformed. Only those lines are read."""
    node_count = None
    lines = start = 0
    # latin-1 is one character per byte; newline="" cuts lines at \n, \r\n
    # and \r, as _read_text does, and leaves their ends in place
    with open(path, encoding="latin-1", newline="") as fh:
        for text in fh:
            line = text.encode("latin-1").strip()
            if line and not line.startswith(b"#"):
                if node_count is not None or not line.startswith(b"n "):
                    break
                node_count = _int(line.split()[1])
                if node_count is None or node_count < 0:
                    return None
            lines += 1
            start += len(text)
    return node_count, lines, start


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

    The rows after the leading blank, comment and header lines are read by
    numpy's reader; only a file it rejects (a '#' line among the rows
    included) is read again line by line, to name the first bad line.
    """
    path = Path(path)
    head = _edge_list_head(path)
    pairs = None
    if head is not None:
        node_count, skip, start = head
        pairs = _rows(path, 2, None, skip, start)
    if pairs is None or not _within(pairs, 0, node_count):
        node_count, pairs = _edge_list_by_line(_read_text(path), path)
    try:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if node_count is None:
            node_count = int(pairs.max()) + 1 if len(pairs) else 0
        return from_edge_list(node_count, pairs)
    except (GbgcError, ValueError, OverflowError, MemoryError) as exc:
        raise DatasetFormatError(str(exc), path) from exc


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Inverse of parse_edge_list, header included so isolated nodes survive:
    one "u v" row per edge, u < v, in sorted order. The file is replaced
    whole, or left as it was if the write fails."""
    u, v = g.edge_arrays()
    values = np.empty(2 * len(u), dtype=np.int64)
    values[0::2], values[1::2] = u, v
    with _replacing(path) as fh:
        fh.write(f"n {g.n}\n")
        fh.writelines(_filled(_EDGE_UNITS[1:], np.zeros(len(u), dtype=np.int8), values))


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


def write_report_csv(rows: Iterable[str], path: str | Path) -> None:
    """Fixed-schema per-graph report of `report_rows` pieces, replaced whole."""
    with _replacing(path) as fh:
        fh.write(REPORT_HEADER + "\n")
        fh.writelines(rows)


def write_result_blocks(blocks: Iterable[tuple[list[str], ...]], out_dir: str | Path) -> None:
    """Emit mapping.jsonl, coarse_edges.txt and report.csv under out_dir
    from the `block_rows` of each block of graphs, appended as the block
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

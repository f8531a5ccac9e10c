"""Dataset ingestion and result serialization.

Reads the common multi-graph text layout (`<name>_A.txt` with 1-indexed
comma-separated edge pairs plus `<name>_graph_indicator.txt`, optional
`<name>_graph_labels.txt`) and plain whitespace edge lists. Writes
coarsening results as mapping.jsonl, coarse_edges.txt, and report.csv.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetFormatError
from .graph import Graph, from_edge_list

log = logging.getLogger(__name__)

REPORT_HEADER = "graph_index,n,e,n_bar,e_bar,r_a,sd,elapsed_micros"


@dataclass
class DatasetBundle:
    name: str
    graphs: list[Graph]
    graph_labels: list[int] | None = None


@dataclass
class CoarsenRecord:
    """Per-graph result row as persisted to disk."""

    graph_index: int
    assignment: list[int]
    supernode_count: int
    superedges: list[tuple[int, int]]
    sd: float
    r_a: float
    elapsed_micros: int
    edge_count: int = 0  # original edge count, needed for report.csv

    @property
    def node_count(self) -> int:
        return len(self.assignment)


def _read_int_pair(line: str, sep: str, path: Path, lineno: int) -> tuple[int, int]:
    parts = line.split(sep)
    if len(parts) != 2:
        raise DatasetFormatError(f"expected two fields, got {line!r}", path, lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise DatasetFormatError(f"non-integer token in {line!r}", path, lineno) from None


def parse_tudataset(directory: str | Path, name: str) -> DatasetBundle:
    """Parse a multi-graph dataset directory into 0-indexed per-graph form.

    Nodes are renumbered per graph following indicator order; edges are
    deduplicated and symmetrized; an edge across two graph ids is a format
    error. Known optional files are skipped with a logged notice.
    """
    directory = Path(directory)
    a_path = directory / f"{name}_A.txt"
    ind_path = directory / f"{name}_graph_indicator.txt"
    for mandatory in (a_path, ind_path):
        if not mandatory.is_file():
            raise DatasetFormatError("mandatory file missing", mandatory)

    graph_of_node: list[int] = []  # 0-based graph id per 1-based global node
    with open(ind_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                gid = int(line)
            except ValueError:
                raise DatasetFormatError(
                    f"non-integer graph id {line!r}", ind_path, lineno
                ) from None
            if gid < 1:
                raise DatasetFormatError(f"graph id {gid} must be >= 1", ind_path, lineno)
            graph_of_node.append(gid - 1)
    if not graph_of_node:
        raise DatasetFormatError("indicator file is empty", ind_path)

    graph_count = max(graph_of_node) + 1
    local_index: list[int] = [0] * len(graph_of_node)
    node_counts = [0] * graph_count
    for node, gid in enumerate(graph_of_node):
        local_index[node] = node_counts[gid]
        node_counts[gid] += 1

    edge_lists: list[list[tuple[int, int]]] = [[] for _ in range(graph_count)]
    with open(a_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            u, v = _read_int_pair(line, ",", a_path, lineno)
            if not (1 <= u <= len(graph_of_node)) or not (1 <= v <= len(graph_of_node)):
                raise DatasetFormatError(
                    f"node index out of range in edge ({u}, {v})", a_path, lineno
                )
            gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
            if gu != gv:
                raise DatasetFormatError(
                    f"edge ({u}, {v}) spans graphs {gu + 1} and {gv + 1}", a_path, lineno
                )
            edge_lists[gu].append((local_index[u - 1], local_index[v - 1]))

    labels: list[int] | None = None
    label_path = directory / f"{name}_graph_labels.txt"
    if label_path.is_file():
        labels = []
        with open(label_path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    labels.append(int(line))
                except ValueError:
                    raise DatasetFormatError(
                        f"non-integer label {line!r}", label_path, lineno
                    ) from None
        if len(labels) != graph_count:
            raise DatasetFormatError(
                f"{len(labels)} labels for {graph_count} graphs", label_path
            )

    for suffix in ("node_labels", "node_attributes", "edge_labels", "edge_attributes"):
        extra = directory / f"{name}_{suffix}.txt"
        if extra.is_file():
            log.info("ignoring optional file %s (structure-only pipeline)", extra.name)

    graphs = [from_edge_list(node_counts[i], edge_lists[i]) for i in range(graph_count)]
    return DatasetBundle(name=name, graphs=graphs, graph_labels=labels)


def parse_edge_list(path: str | Path) -> Graph:
    """Whitespace 'u v' pairs, 0-indexed; optional 'n <count>' header;
    '#' starts a comment line."""
    path = Path(path)
    node_count: int | None = None
    pairs: list[tuple[int, int]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if node_count is None and not pairs and line.startswith("n "):
                try:
                    node_count = int(line.split()[1])
                except (IndexError, ValueError):
                    raise DatasetFormatError(
                        f"bad header {line!r}", path, lineno
                    ) from None
                continue
            pairs.append(_read_int_pair(line, None, path, lineno))
    if node_count is None:
        node_count = max((max(u, v) for u, v in pairs), default=-1) + 1
    try:
        return from_edge_list(node_count, pairs)
    except Exception as exc:
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


def write_report_csv(records: list[CoarsenRecord], path: str | Path) -> None:
    """Fixed-schema per-graph report; reals carry six fractional digits."""
    with _replacing(path) as fh:
        fh.write(REPORT_HEADER + "\n")
        for rec in records:
            fh.write(
                f"{rec.graph_index},{rec.node_count},{rec.edge_count},"
                f"{rec.supernode_count},{len(rec.superedges)},"
                f"{rec.r_a:.6f},{rec.sd:.6f},{rec.elapsed_micros}\n"
            )


def write_results(records: list[CoarsenRecord], out_dir: str | Path) -> None:
    """Emit mapping.jsonl, coarse_edges.txt, and report.csv under out_dir,
    each replaced whole."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with _replacing(out_dir / "mapping.jsonl") as fh:
            for rec in records:
                obj = {
                    "graph_index": rec.graph_index,
                    "assignment": rec.assignment,
                    "supernode_count": rec.supernode_count,
                }
                fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        with _replacing(out_dir / "coarse_edges.txt") as fh:
            for rec in records:
                fh.write(f"graph {rec.graph_index}\n")
                for a, b in rec.superedges:
                    fh.write(f"{a} {b}\n")
        write_report_csv(records, out_dir / "report.csv")
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


def read_mapping(path: str | Path) -> list[dict]:
    """Load mapping.jsonl rows (graph_index, assignment, supernode_count),
    checking the shape and types of each row."""
    path = Path(path)
    rows = []
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
            rows.append(obj)
    return rows

"""Correctness check of one invocation's output files, graph by graph.

For every seed the checker requires that each mapping row is a dense
partition of its graph's nodes, that coarse_edges.txt lists exactly the
superedges recomputed from the mapping and the input edges, and that every
report.csv column but elapsed_micros agrees with them. For the reference seed
it also compares each graph with the digests recorded on the seed commit:
the mapping line byte for byte, the report row except elapsed_micros, and
sd to within one unit of its sixth printed decimal.

elapsed_micros is never read: under `coarsen` it includes evaluation and
under `evaluate` it leaves out building the partition.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SD_TOLERANCE = 1e-6  # one unit in the last decimal report.csv prints
REPORT_COLUMNS = ("graph_index", "n", "e", "n_bar", "e_bar", "r_a", "sd")


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    fingerprint: str | None = None  # digest of the exact outputs, for cross-pass equality
    records: dict | None = None  # graph index -> (digest, sd), for recording a reference


def superedges(g, assignment) -> list[tuple[int, int]]:
    found = set()
    for u, v in g.edges:
        a, b = assignment[u], assignment[v]
        if a != b:
            found.add((a, b) if a < b else (b, a))
    return sorted(found)


def _read_mapping(path: Path) -> dict[int, tuple[str, dict]]:
    rows = {}
    for line in path.read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            rows[obj["graph_index"]] = (line, obj)
    return rows


def _read_report(path: Path) -> dict[int, dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    missing = [c for c in REPORT_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"report.csv lacks columns {missing}")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[int(row["graph_index"])] = row
    return rows


def _read_coarse_edges(path: Path) -> dict[int, list[tuple[int, int]]]:
    blocks: dict[int, list[tuple[int, int]]] = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("graph "):
            current = blocks.setdefault(int(line.split()[1]), [])
        elif line.strip():
            a, b = line.split()
            current.append((int(a), int(b)))
    return blocks


def graph_digest(mapping_line: str, row: dict[str, str]) -> str:
    """Short digest of a graph's mapping line and its report row minus sd and elapsed."""
    fields = ",".join(row[c] for c in REPORT_COLUMNS if c != "sd")
    return hashlib.sha256(f"{mapping_line}\n{fields}".encode()).hexdigest()[:16]


def _check_graph(index, g, mapping, row, blocks, skip_sd, ref) -> str | None:
    if mapping is None:
        return "no mapping row"
    if row is None:
        return "no report row"
    line, obj = mapping
    assignment, count = obj["assignment"], obj["supernode_count"]
    if not isinstance(assignment, list) or len(assignment) != g.n:
        return f"assignment does not cover the {g.n} nodes"
    if not all(type(a) is int for a in assignment) or set(assignment) != set(range(count)):
        return f"assignment is not a dense partition into {count} supernodes"
    edges = superedges(g, assignment)
    if blocks is not None and blocks.get(index) != edges:
        return "coarse_edges.txt differs from the superedges of the mapping"
    expected = {"n": str(g.n), "e": str(g.edge_count), "n_bar": str(count),
                "e_bar": str(len(edges)), "r_a": f"{count / g.n:.6f}"}
    for column, value in expected.items():
        if row[column] != value:
            return f"report {column}={row[column]}, expected {value}"
    sd = float(row["sd"])
    if skip_sd != math.isnan(sd) or sd < 0 or math.isinf(sd):
        return f"report sd={row['sd']} is not valid here"
    if ref is not None:
        digest, ref_sd = ref
        if graph_digest(line, row) != digest:
            return "output differs from the reference recorded on the seed commit"
        if not (math.isnan(sd) and math.isnan(ref_sd)) and not abs(sd - ref_sd) <= SD_TOLERANCE:
            return f"sd {sd} differs from the reference {ref_sd}"
    return None


def check_invocation(inv, out_dir: Path, returncode: int, reference: dict | None) -> Outcome:
    """Judge every graph of one invocation; a non-zero exit fails them all."""
    count = len(inv.graphs)
    if returncode != 0:
        return Outcome(count, count, [f"{inv.label}: gbgc exited with code {returncode}"])
    try:
        mapping = _read_mapping(out_dir / "mapping.jsonl")
        report = _read_report(out_dir / "report.csv")
        blocks = _read_coarse_edges(out_dir / "coarse_edges.txt") if inv.kind == "coarsen" else None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return Outcome(count, count, [f"{inv.label}: unreadable output: {exc!r}"])

    outcome = Outcome(count, 0, records={})
    for i, g in enumerate(inv.graphs):
        ref = None
        if reference is not None:
            digests, sds = reference["digests"], reference["sd"]
            ref = (digests[i], float(sds[i])) if i < len(digests) else ("", math.nan)
        try:
            problem = _check_graph(i, g, mapping.get(i), report.get(i), blocks, inv.skip_sd, ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem is not None:
            outcome.failed += 1
            outcome.problems.append(f"{inv.label} graph {i}: {problem}")
        else:
            outcome.records[i] = (graph_digest(mapping[i][0], report[i]), report[i]["sd"])
    extra = sorted(set(mapping) - set(range(count)))
    if extra:
        outcome.problems.append(f"{inv.label}: mapping rows for unknown graphs {extra[:5]}")
        outcome.failed = count
    exact = hashlib.sha256()
    for name in ("mapping.jsonl", "coarse_edges.txt"):
        if (out_dir / name).is_file():
            exact.update((out_dir / name).read_bytes())
    outcome.fingerprint = exact.hexdigest()
    return outcome

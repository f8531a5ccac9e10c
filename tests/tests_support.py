"""Fixture-file writers shared by the CLI and acceptance tests."""

from pathlib import Path

from gbgc import erdos_renyi

BARBELL_TEXT = "n 6\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"


def write_barbell_edgelist(path: Path) -> Path:
    path.write_text(BARBELL_TEXT)
    return path


def write_tiny_tud(directory: Path) -> Path:
    """Two graphs: a path on 3 nodes and a single edge on 2 nodes."""
    directory.mkdir(parents=True, exist_ok=True)
    name = directory.name
    (directory / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (directory / f"{name}_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n")
    (directory / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    return directory


def er_suite():
    """200 deterministic random graphs, n in [10, 200], mean degree in [2, 8]."""
    suite = []
    for i in range(200):
        n = 10 + (190 * i) // 199
        mean_degree = 2.0 + 6.0 * (i % 13) / 12.0
        suite.append(erdos_renyi(n, mean_degree, seed=i))
    return suite


def write_synthetic_tud(directory: Path, graph_count: int, seed_base: int = 0) -> Path:
    """Many small deterministic random graphs in the multi-graph text layout."""
    directory.mkdir(parents=True, exist_ok=True)
    name = directory.name
    indicator_lines = []
    edge_lines = []
    offset = 0
    for i in range(graph_count):
        n = 10 + (i * 7) % 41
        g = erdos_renyi(n, 2.0 + (i % 5), seed=seed_base + i)
        indicator_lines.extend([str(i + 1)] * n)
        for u, v in g.edges:
            edge_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            edge_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        offset += n
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(indicator_lines) + "\n")
    (directory / f"{name}_A.txt").write_text("\n".join(edge_lines) + "\n")
    return directory

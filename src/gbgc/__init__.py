"""Granular-ball graph coarsening toolkit.

Reduces an undirected graph to a smaller one by adaptively partitioning its
nodes into quality-scored granular-balls (supernodes), then measures how
well the reduction preserves structure via spectral distance and
Rayleigh-quotient diagnostics.
"""

from .coarse import CoarsenedGraph, build_coarse_graph
from .dataio import DatasetBundle, parse_edge_list, parse_tudataset
from .engine import (
    CoarsenConfig,
    Partition,
    SplitDecision,
    coarsen,
    coarsen_many,
    default_init_target,
    init_balls,
)
from .errors import DatasetFormatError, GbgcError, GraphValidationError
from .generators import erdos_renyi, random_partition
from .graph import Graph, GraphBlock, from_edge_list
from .spectral import (
    EvalConfig,
    SpectralReport,
    eigenvalues_symmetric,
    evaluate,
    laplacian,
    rayleigh_pair,
    spectral_distance,
)

__version__ = "0.1.0"

__all__ = [
    "CoarsenConfig",
    "CoarsenedGraph",
    "DatasetBundle",
    "DatasetFormatError",
    "EvalConfig",
    "GbgcError",
    "Graph",
    "GraphBlock",
    "GraphValidationError",
    "Partition",
    "SpectralReport",
    "SplitDecision",
    "build_coarse_graph",
    "coarsen",
    "coarsen_many",
    "default_init_target",
    "eigenvalues_symmetric",
    "erdos_renyi",
    "evaluate",
    "from_edge_list",
    "init_balls",
    "laplacian",
    "parse_edge_list",
    "parse_tudataset",
    "random_partition",
    "rayleigh_pair",
    "spectral_distance",
]

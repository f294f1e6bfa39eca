"""Degree-correlation metrics and information-patrimony scoring.

The package analyses undirected networks built from edge lists: degree
moments and density, nearest-neighbour degree statistics (global, per node
and per degree class), degree assortativity, per-node patrimony scores with
over/under-performer classification, and configuration-model sampling for
null-model comparisons.  ``netpatrimony.cli`` exposes the same pipeline as
a batch command-line tool.
"""

import os
import sys

# Nothing here calls BLAS: spare every start OpenBLAS's thread per core.  Only
# numpy's first import reads this, and a value the caller set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .congen import (
    ERASE,
    EXPLICIT,
    MULTIGRAPH,
    POISSON,
    POWERLAW,
    REJECT,
    DegreeSequenceSpec,
    RejectionExhaustedError,
    first_violated_prefix,
    generate,
    is_graphical,
    sample_degree_sequence,
)
from .graph import (
    HALF,
    RAW_MULTISET,
    SIMPLE,
    TABLE1,
    DegreeStats,
    Graph,
    SnapParseError,
    build_graph,
    degree_stats,
    edge_dump_lines,
    load_graph,
    parse_edge_lines,
    simple_graph,
    write_edge_dump,
)
from .metrics import (
    KnnProfile,
    assortativity,
    knn_class,
    knn_global,
    knn_node,
    knn_profile,
)
from .nip import (
    AT_PAR,
    CLASSES,
    NORMALIZED,
    OVER,
    RAW,
    UNDEFINED,
    UNDER,
    NipScores,
    classify_performers,
    ip,
    nip_class,
    nip_network,
    nip_node_correlated,
    nip_node_uncorrelated,
    nip_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AT_PAR",
    "CLASSES",
    "DegreeSequenceSpec",
    "DegreeStats",
    "ERASE",
    "EXPLICIT",
    "Graph",
    "HALF",
    "KnnProfile",
    "MULTIGRAPH",
    "NORMALIZED",
    "NipScores",
    "OVER",
    "POISSON",
    "POWERLAW",
    "RAW",
    "RAW_MULTISET",
    "REJECT",
    "RejectionExhaustedError",
    "SIMPLE",
    "SnapParseError",
    "TABLE1",
    "UNDEFINED",
    "UNDER",
    "assortativity",
    "build_graph",
    "classify_performers",
    "degree_stats",
    "edge_dump_lines",
    "first_violated_prefix",
    "generate",
    "ip",
    "is_graphical",
    "knn_class",
    "knn_global",
    "knn_node",
    "knn_profile",
    "load_graph",
    "nip_class",
    "nip_network",
    "nip_node_correlated",
    "nip_node_uncorrelated",
    "nip_scores",
    "parse_edge_lines",
    "sample_degree_sequence",
    "simple_graph",
    "write_edge_dump",
    "__version__",
]

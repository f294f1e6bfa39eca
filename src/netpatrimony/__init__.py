"""Degree-correlation metrics and information-patrimony scoring.

The package analyses undirected networks built from edge lists: degree
moments and density, nearest-neighbour degree statistics (global, per node
and per degree class), degree assortativity, per-node patrimony scores with
over/under-performer classification, and configuration-model sampling for
null-model comparisons.  ``netpatrimony.cli`` exposes the same pipeline as
a batch command-line tool.

``import netpatrimony`` loads no submodule: each name below imports the
module that defines it on first access (PEP 562).
"""

import importlib
import os
import sys

# Nothing here calls BLAS: spare every start OpenBLAS's thread per core.  Only
# numpy's first import reads this, and a value the caller set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            "congen",
            "ERASE EXPLICIT MULTIGRAPH POISSON POWERLAW REJECT DegreeSequenceSpec "
            "RejectionExhaustedError first_violated_prefix generate is_graphical "
            "sample_degree_sequence",
        ),
        (
            "graph",
            "HALF RAW_MULTISET SIMPLE TABLE1 DegreeStats Graph SnapParseError build_graph "
            "degree_stats edge_dump_lines load_graph parse_edge_lines simple_graph "
            "write_edge_dump",
        ),
        ("metrics", "KnnProfile assortativity knn_class knn_global knn_node knn_profile"),
        (
            "nip",
            "AT_PAR CLASSES NORMALIZED OVER RAW UNDEFINED UNDER NipScores classify_performers "
            "ip nip_class nip_network nip_node_correlated nip_scores",
        ),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

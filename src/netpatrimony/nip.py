"""Information-patrimony scores built on the neighbour-degree statistics.

A node's own share of the network's edge endpoints is

    ip_i = d_i / 2m                     (shares sum to 1)

and extending the share one step outward gives the neighbourhood score

    nip_i = (d_i / 2m) * (1 + k_nn,i) = (d_i + S_i) / 2m

which weights each node by its degree plus the sum S_i of its neighbours'
degrees.  The network-level counterpart is nip_network = 1 + <d^2>/<d>; when
degrees are uncorrelated the per-node score factorizes as ip_i * nip_network.

Scores come in two scales: NORMALIZED keeps the 1/2m factor, RAW is the
integer d_i + S_i = d_i * (1 + k_nn,i).  A score, per node or as a degree
class mean, is one division of exact integers, whatever the line order.
S_i and the class totals are the graph's ``neighbour_degree_sums`` and
``class_totals``, computed once and shared with the ``metrics`` measures.
Class means are the baseline that classifies nodes as over- or
under-performers relative to peers of the same degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DegreeStats, Graph, _labels
from .metrics import knn_global

NORMALIZED = "NORMALIZED"
RAW = "RAW"
SCALES = (NORMALIZED, RAW)

OVER = "OVER"
UNDER = "UNDER"
AT_PAR = "AT_PAR"
UNDEFINED = "UNDEFINED"
CLASSES = (UNDEFINED, OVER, UNDER, AT_PAR)

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NipScores:
    """Per-node and per-class patrimony scores of one graph; the
    network-level ``nip_network`` reads its ``DegreeStats``.  Each node's
    ``classification`` is an int8 code, the index of its label in ``CLASSES``."""

    nip_node: np.ndarray = field(repr=False)
    nip_class: dict[int, float] = field(repr=False)
    classification: np.ndarray = field(repr=False)


def ip(g: Graph) -> np.ndarray:
    """Endpoint share d_i / 2m of every node.  ValueError when m == 0."""
    if g.edge_count == 0:
        raise ValueError("ip is undefined for a graph with no edges")
    return g.degrees / (2 * g.edge_count)


def nip_network(stats: DegreeStats) -> float:
    """Network-level score 1 + <d^2>/<d> (strictly greater than 1)."""
    return 1.0 + knn_global(stats)


def _divisor(g: Graph, scale: str) -> int:
    """q: 2m on the NORMALIZED scale, 1 on RAW.  ValueError for an unknown
    scale or a graph without edges."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale: {scale!r} (expected NORMALIZED or RAW)")
    if g.edge_count == 0:
        raise ValueError("nip is undefined for a graph with no edges")
    return 2 * g.edge_count if scale == NORMALIZED else 1


def nip_node_correlated(g: Graph, scale: str = NORMALIZED) -> np.ndarray:
    """Per-node score (d_i + S_i) / q from the neighbour-degree sums S_i;
    isolated nodes score 0."""
    q = _divisor(g, scale)
    return (g.degrees + g.neighbour_degree_sums) / q


def nip_class(g: Graph, scale: str = NORMALIZED) -> dict[int, float]:
    """Mean per-node score of each occupied degree class d >= 1, by ascending
    degree: (d * N_d + T_d) / (q * N_d) from the k_nn class totals."""
    q = _divisor(g, scale)
    return {d: (d * count + total) / (q * count) for d, count, total in g.class_totals}


def node_class_means(class_means: dict[int, float], degrees: np.ndarray) -> np.ndarray:
    """Each node's degree-class mean from ``class_means``; NaN where its
    degree has no entry."""
    degrees = np.asarray(degrees)
    baseline = np.full(int(degrees.max(initial=0)) + 1, np.nan)
    keys = [d for d in class_means if d < len(baseline)]
    baseline[keys] = [class_means[d] for d in keys]
    return baseline[degrees]


def check_tolerance(tolerance: float) -> float:
    """``tolerance`` itself; ValueError unless it is finite and >= 0."""
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    return tolerance


def classify_performers(
    nip_node: np.ndarray,
    class_means: dict[int, float],
    degrees: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Label each node OVER, UNDER or AT_PAR against its degree-class mean.

    A node is AT_PAR when its score lies within ``tolerance`` (relative) of
    the class mean, OVER above that band, UNDER below it.  Isolated nodes
    are labelled UNDEFINED.  Returns the labels in node order as int8 codes,
    each the index of its label in ``CLASSES``.  Raises ValueError when the
    two arrays differ in length, a degree is not an int64 integer, or
    ``tolerance`` is negative or not finite.
    """
    check_tolerance(tolerance)
    nip_node = np.asarray(nip_node, dtype=float)
    degrees = _labels(degrees, "degrees")
    if len(nip_node) != len(degrees):
        raise ValueError(
            f"score/degree length mismatch: {len(nip_node)} vs {len(degrees)}"
        )
    base = node_class_means(class_means, degrees)
    with np.errstate(invalid="ignore"):
        return np.select(
            [
                degrees == 0,
                nip_node > base * (1.0 + tolerance),
                nip_node < base * (1.0 - tolerance),
            ],
            [np.int8(CLASSES.index(label)) for label in (UNDEFINED, OVER, UNDER)],
            default=np.int8(CLASSES.index(AT_PAR)),
        )


def nip_scores(
    g: Graph, scale: str = NORMALIZED, tolerance: float = DEFAULT_TOLERANCE
) -> NipScores:
    """Patrimony bundle: per-node and per-class scores on the requested
    scale, and the per-node classification."""
    per_node = nip_node_correlated(g, scale=scale)
    per_class = nip_class(g, scale=scale)
    return NipScores(
        nip_node=per_node,
        nip_class=per_class,
        classification=classify_performers(per_node, per_class, g.degrees, tolerance=tolerance),
    )

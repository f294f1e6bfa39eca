"""Information-patrimony scores built on the neighbour-degree statistics.

A node's own share of the network's edge endpoints is

    ip_i = d_i / 2m                     (shares sum to 1)

and extending the share one step outward gives the neighbourhood score

    nip_i = (d_i / 2m) * (1 + k_nn,i)

which weights each node by its degree plus the degrees of its neighbours.
The network-level counterpart is nip_network = 1 + <d^2>/<d>; when degrees
are uncorrelated the per-node score factorizes as ip_i * nip_network.

Scores come in two scales: NORMALIZED keeps the 1/2m factor, RAW multiplies
it back out (raw = normalized * 2m identically, so raw_i = d_i * (1 + k_nn,i)).
Per-degree-class means give a baseline to classify nodes as over- or
under-performers relative to peers of the same degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DegreeStats, Graph, degree_stats
from .metrics import KnnProfile, _class_means, knn_global, knn_node

NORMALIZED = "NORMALIZED"
RAW = "RAW"
SCALES = (NORMALIZED, RAW)

OVER = "OVER"
UNDER = "UNDER"
AT_PAR = "AT_PAR"
UNDEFINED = "UNDEFINED"

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NipScores:
    """Per-node and per-class patrimony scores of one graph."""

    ip: np.ndarray = field(repr=False)
    nip_network: float
    nip_node: np.ndarray = field(repr=False)
    nip_class: dict[int, float] = field(repr=False)
    classification: list[str] = field(repr=False)
    scale: str


def ip(g: Graph) -> np.ndarray:
    """Endpoint share d_i / 2m of every node.  ValueError when m == 0."""
    if g.edge_count == 0:
        raise ValueError("ip is undefined for a graph with no edges")
    return g.degrees / (2 * g.edge_count)


def nip_network(stats: DegreeStats) -> float:
    """Network-level score 1 + <d^2>/<d> (strictly greater than 1)."""
    return 1.0 + knn_global(stats)


def nip_node_uncorrelated(g: Graph, stats: DegreeStats | None = None) -> np.ndarray:
    """Per-node score under the no-correlation assumption: ip_i * nip_network."""
    if stats is None:
        stats = degree_stats(g)
    return ip(g) * nip_network(stats)


def _knn_array(knn, g: Graph, workers: int) -> np.ndarray:
    if knn is None:
        return knn_node(g, workers=workers)
    if isinstance(knn, KnnProfile):
        return knn.knn_node
    return np.asarray(knn, dtype=float)


def nip_node_correlated(
    g: Graph,
    knn: KnnProfile | np.ndarray | None = None,
    scale: str = NORMALIZED,
    workers: int = 1,
) -> np.ndarray:
    """Per-node score (d_i / 2m) * (1 + k_nn,i) using measured k_nn,i.

    Isolated nodes score exactly 0.0 (their k_nn,i is undefined but they
    hold no endpoints).  Under RAW the normalized scores are multiplied by
    2m, nothing else changes.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale: {scale!r} (expected NORMALIZED or RAW)")
    knn_values = _knn_array(knn, g, workers)
    normalized = ip(g) * (1.0 + knn_values)
    normalized[g.degrees == 0] = 0.0
    if scale == RAW:
        return normalized * (2 * g.edge_count)
    return normalized


def nip_class(
    g: Graph,
    knn: KnnProfile | np.ndarray | None = None,
    scale: str = NORMALIZED,
    workers: int = 1,
) -> dict[int, float]:
    """Mean per-node score over each occupied degree class d >= 1.

    Keys ascend; averaging runs in node-index order so the values match a
    plain loop over nodes.
    """
    return _class_means(
        g.degrees, nip_node_correlated(g, knn=knn, scale=scale, workers=workers)
    )


def node_class_means(class_means: dict[int, float], degrees: np.ndarray) -> np.ndarray:
    """Each node's degree-class mean from ``class_means``; NaN where its
    degree has no entry."""
    degrees = np.asarray(degrees)
    baseline = np.full(int(degrees.max(initial=0)) + 1, np.nan)
    keys = [d for d in class_means if d < len(baseline)]
    baseline[keys] = [class_means[d] for d in keys]
    return baseline[degrees]


def classify_performers(
    nip_node: np.ndarray,
    class_means: dict[int, float],
    degrees: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Label each node OVER, UNDER or AT_PAR against its degree-class mean.

    A node is AT_PAR when its score lies within ``tolerance`` (relative) of
    the class mean, OVER above that band, UNDER below it.  Isolated nodes
    are labelled UNDEFINED.  Raises ValueError when the two arrays differ
    in length.
    """
    nip_node = np.asarray(nip_node, dtype=float)
    degrees = np.asarray(degrees)
    if len(nip_node) != len(degrees):
        raise ValueError(
            f"score/degree length mismatch: {len(nip_node)} vs {len(degrees)}"
        )
    if len(degrees) == 0:
        return []
    base = node_class_means(class_means, degrees)
    with np.errstate(invalid="ignore"):
        labels = np.select(
            [
                degrees == 0,
                nip_node > base * (1.0 + tolerance),
                nip_node < base * (1.0 - tolerance),
            ],
            [UNDEFINED, OVER, UNDER],
            default=AT_PAR,
        )
    return labels.tolist()


def nip_scores(
    g: Graph,
    scale: str = NORMALIZED,
    tolerance: float = DEFAULT_TOLERANCE,
    stats: DegreeStats | None = None,
    knn: KnnProfile | np.ndarray | None = None,
    workers: int = 1,
) -> NipScores:
    """Full patrimony bundle: shares, network score, per-node and per-class
    scores on the requested scale, and the per-node classification."""
    if stats is None:
        stats = degree_stats(g)
    per_node = nip_node_correlated(g, knn=knn, scale=scale, workers=workers)
    per_class = _class_means(g.degrees, per_node)
    return NipScores(
        ip=ip(g),
        nip_network=nip_network(stats),
        nip_node=per_node,
        nip_class=per_class,
        classification=classify_performers(
            per_node, per_class, g.degrees, tolerance=tolerance
        ),
        scale=scale,
    )

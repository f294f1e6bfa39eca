"""Nearest-neighbour degree statistics and degree assortativity.

For a graph with degree sequence d_1..d_n and m edges:

* global mean neighbour degree   k_nn   = <d^2> / <d>
* per-node mean neighbour degree k_nn,i = (1/d_i) * sum over neighbours j of d_j
  (neighbours counted with multiplicity; undefined for isolated nodes)
* degree-class profile           k_nn(d) = mean of k_nn,i over nodes with degree d
* assortativity r = Pearson correlation of endpoint degrees over the 2m
  ordered edge-endpoint pairs (each edge taken in both orientations).

Undefined values (isolated nodes, zero-variance assortativity) are reported
as NaN rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from .graph import DegreeStats, Graph, degree_stats


@dataclass(frozen=True)
class KnnProfile:
    """Bundle of the neighbour-degree statistics of one graph."""

    knn_global: float
    knn_node: np.ndarray = field(repr=False)
    knn_class: dict[int, float] = field(repr=False)
    assortativity: float


def knn_global(stats: DegreeStats) -> float:
    """Mean neighbour degree of a random edge endpoint: <d^2> / <d>.

    Always at least the mean degree, with equality exactly for regular
    graphs (the gap is variance / mean).  Raises ValueError when every
    degree is zero.
    """
    if stats.mean_degree <= 0:
        raise ValueError("mean neighbour degree is undefined when all degrees are 0")
    # Same ratio as mean_square_degree / mean_degree, but dividing the exact
    # integer sums avoids compounding the two rounded means.
    return stats.degree_square_sum / stats.degree_sum


def neighbour_degree_sums(g: Graph, workers: int = 1) -> np.ndarray:
    """Sum of the neighbours' degrees of every node, as exact int64."""
    return _parallel.row_sums(g.indptr, g.indices, g.degrees, workers=workers)


def knn_node(
    g: Graph, workers: int = 1, sums: np.ndarray | None = None
) -> np.ndarray:
    """Per-node mean neighbour degree; NaN for isolated nodes.

    Neighbour degrees are summed with multiplicity (parallel edges count
    once per copy; a self-loop contributes its own node's degree twice).
    ``sums`` takes ``neighbour_degree_sums(g)`` when the caller has it.
    """
    if sums is None:
        sums = neighbour_degree_sums(g, workers=workers)
    out = np.full(g.node_count, np.nan)
    np.divide(sums, g.degrees, out=out, where=g.degrees > 0)
    return out


def _class_means(degrees: np.ndarray, values: np.ndarray) -> dict[int, float]:
    """Mean of ``values`` over each occupied degree class d >= 1.

    Returns a dict keyed by degree in ascending order.  Averaging runs in
    node-index order, so it reproduces a plain loop over nodes exactly.
    """
    occupied = degrees > 0
    if not occupied.any():
        return {}
    counts = np.bincount(degrees[occupied])
    totals = np.zeros(len(counts))
    np.add.at(totals, degrees[occupied], values[occupied])
    return {int(d): float(totals[d] / counts[d]) for d in np.flatnonzero(counts)}


def knn_class(g: Graph, knn_node_values: np.ndarray) -> dict[int, float]:
    """Mean of k_nn,i over each occupied degree class d >= 1, keyed by
    ascending degree (see ``_class_means``)."""
    return _class_means(g.degrees, knn_node_values)


def _exact_power_sums(degrees: np.ndarray) -> tuple[int, int]:
    """(sum d^2, sum d^3) as exact Python integers."""
    uniq, cnt = np.unique(degrees, return_counts=True)
    s2 = sum(int(c) * int(d) ** 2 for d, c in zip(uniq, cnt))
    s3 = sum(int(c) * int(d) ** 3 for d, c in zip(uniq, cnt))
    return s2, s3


def assortativity(
    g: Graph, workers: int = 1, sums: np.ndarray | None = None
) -> float:
    """Pearson correlation of endpoint degrees over ordered edge endpoints.

    Every edge contributes both (d_u, d_v) and (d_v, d_u), making the two
    marginals identical; self-loops contribute their pair twice.  All sums
    are carried exactly in integers, so the result is deterministic to the
    last bit.  Returns NaN when the endpoint-degree variance is zero
    (e.g. regular graphs); raises ValueError for an edgeless graph.
    ``sums`` takes ``neighbour_degree_sums(g)`` when the caller has it.
    """
    if g.edge_count == 0:
        raise ValueError("assortativity is undefined for a graph with no edges")
    deg = g.degrees
    pair_count = 2 * g.edge_count  # == sum of degrees
    # Over the 2m ordered pairs: sum of x is sum d_i^2, sum of x^2 is sum d_i^3.
    s_x, s_xx = _exact_power_sums(deg)
    if sums is None:
        sums = neighbour_degree_sums(g, workers=workers)
    s_xy = _exact_dot(deg, sums)
    num = pair_count * s_xy - s_x * s_x
    den = pair_count * s_xx - s_x * s_x
    if den == 0:
        return float("nan")
    return num / den


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact integer dot product, falling back to Python ints near overflow."""
    if len(a) == 0:
        return 0
    bound = int(np.abs(a).max()) * int(np.abs(b).max()) * len(a)
    if bound < 2**62:
        return int(np.dot(a, b))
    return sum(int(x) * int(y) for x, y in zip(a, b))


def knn_profile(
    g: Graph, stats: DegreeStats | None = None, workers: int = 1
) -> KnnProfile:
    """Compute the full neighbour-degree bundle from one row-sum pass."""
    if stats is None:
        stats = degree_stats(g)
    sums = neighbour_degree_sums(g, workers=workers)
    per_node = knn_node(g, sums=sums)
    return KnnProfile(
        knn_global=knn_global(stats),
        knn_node=per_node,
        knn_class=knn_class(g, per_node),
        assortativity=assortativity(g, sums=sums),
    )

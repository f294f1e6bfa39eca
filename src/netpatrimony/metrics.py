"""Nearest-neighbour degree statistics and degree assortativity.

For a graph with degree sequence d_1..d_n and m edges:

* global mean neighbour degree   k_nn   = <d^2> / <d>
* per-node mean neighbour degree k_nn,i = (1/d_i) * sum over neighbours j of d_j
  (neighbours counted with multiplicity; undefined for isolated nodes)
* degree-class profile           k_nn(d) = mean of k_nn,i over nodes with degree d
* assortativity r = Pearson correlation of endpoint degrees over the 2m
  ordered edge-endpoint pairs (each edge taken in both orientations).

On RAW_MULTISET graphs parallel edges count once per copy and a self-loop
adds its (d, d) pair twice, in every sum above.  networkx adds a loop's pair
once, and its ``average_neighbor_degree`` ignores edge multiplicity, so its
values differ on such graphs.

k_nn,i = S_i / d_i and k_nn(d) = T_d / (d * N_d) are each one division of
exact integers (S_i: node i's neighbour-degree sum; N_d, T_d: the node count
and S_i total of class d), so no value depends on the edge list's line order.
Every measure reads S_i from ``Graph.neighbour_degree_sums``, one row-sum
pass per graph however many measures are taken.

Undefined values (isolated nodes, zero-variance assortativity) are reported
as NaN rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DegreeStats, Graph


@dataclass(frozen=True)
class KnnProfile:
    """Bundle of the per-node and per-class neighbour-degree statistics of
    one graph; the network-level ``knn_global`` reads its ``DegreeStats``
    and ``assortativity`` its graph."""

    knn_node: np.ndarray = field(repr=False)
    knn_class: dict[int, float] = field(repr=False)


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


def knn_node(g: Graph) -> np.ndarray:
    """Per-node mean neighbour degree; NaN for isolated nodes."""
    out = np.full(g.node_count, np.nan)
    np.divide(g.neighbour_degree_sums, g.degrees, out=out, where=g.degrees > 0)
    return out


def class_totals(g: Graph) -> list[tuple[int, int, int]]:
    """``(d, N_d, T_d)`` for each occupied degree class d >= 1 in ascending
    order: its node count and the exact total of S_i over it, as Python ints
    (whose quotients are correctly rounded)."""
    counts = np.bincount(g.degrees)
    totals = np.zeros(len(counts), dtype=np.int64)
    np.add.at(totals, g.degrees, g.neighbour_degree_sums)
    return [(int(d), int(counts[d]), int(totals[d])) for d in np.flatnonzero(counts) if d >= 1]


def knn_class(g: Graph) -> dict[int, float]:
    """k_nn(d) = T_d / (d * N_d) of each occupied degree class d >= 1 by
    ascending degree."""
    return {d: total / (d * count) for d, count, total in class_totals(g)}


def assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over ordered edge endpoints.

    Every edge contributes both (d_u, d_v) and (d_v, d_u), making the two
    marginals identical; self-loops contribute their pair twice.  All sums
    are carried exactly in integers, so the result is deterministic to the
    last bit.  Returns NaN when the endpoint-degree variance is zero
    (e.g. regular graphs); raises ValueError for an edgeless graph.
    """
    if g.edge_count == 0:
        raise ValueError("assortativity is undefined for a graph with no edges")
    pair_count = 2 * g.edge_count  # == sum of degrees
    # Over the 2m ordered pairs, summed by degree class: sum of x is
    # sum d_i^2, sum of x^2 is sum d_i^3 and sum of x*y is sum d_i * S_i.
    classes = class_totals(g)
    s_x = sum(count * d**2 for d, count, _ in classes)
    s_xx = sum(count * d**3 for d, count, _ in classes)
    s_xy = sum(d * total for d, _, total in classes)
    num = pair_count * s_xy - s_x * s_x
    den = pair_count * s_xx - s_x * s_x
    if den == 0:
        return float("nan")
    return num / den


def knn_profile(g: Graph) -> KnnProfile:
    """Compute the neighbour-degree bundle of ``g``.  Raises ValueError for
    a graph without edges."""
    if g.edge_count == 0:
        raise ValueError("mean neighbour degree is undefined when all degrees are 0")
    return KnnProfile(knn_node=knn_node(g), knn_class=knn_class(g))

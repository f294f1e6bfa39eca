"""Brute-force reference implementations for small graphs.

Everything here works from a dense adjacency-count matrix and plain Python
loops, deliberately sharing no code with the package internals.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def adjacency_matrix(edges, n, multiset):
    """Dense count matrix over internal ids; self-loops add 2 on the diagonal."""
    a = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if multiset:
            if u == v:
                a[u, u] += 2
            else:
                a[u, v] += 1
                a[v, u] += 1
        else:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            a[u, v] = 1
            a[v, u] = 1
    return a


def degrees_of(a):
    return [int(x) for x in a.sum(axis=1)]


def edge_count_of(a):
    return int(a.sum()) // 2


def neighbour_sums(a):
    """S_i: the degrees of node i's neighbours, summed with multiplicity."""
    deg = degrees_of(a)
    out = []
    for i in range(len(deg)):
        total = 0
        for j in range(len(deg)):
            total += int(a[i, j]) * deg[j]
        out.append(total)
    return out


def knn_exact(a):
    """k_nn,i = S_i / d_i of every node as a Fraction; None when isolated."""
    return [Fraction(s, d) if d else None for s, d in zip(neighbour_sums(a), degrees_of(a))]


def knn_per_node(a):
    return [float("nan") if k is None else float(k) for k in knn_exact(a)]


def class_means(values, degrees):
    """Exact mean of values (ints or Fractions) per positive degree class,
    rounded to float once."""
    totals: dict[int, Fraction] = {}
    counts: dict[int, int] = {}
    for value, d in zip(values, degrees):
        d = int(d)
        if d == 0:
            continue
        totals[d] = totals.get(d, 0) + Fraction(value)
        counts[d] = counts.get(d, 0) + 1
    return {d: float(totals[d] / counts[d]) for d in sorted(totals)}


def endpoint_degree_pairs(a):
    """The 2m ordered endpoint-degree pairs, both orientations of each edge."""
    deg = degrees_of(a)
    pairs = []
    for i in range(len(deg)):
        for j in range(len(deg)):
            pairs.extend([(deg[i], deg[j])] * int(a[i, j]))
    return pairs


def pearson(pairs):
    if not pairs:
        return float("nan")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    cov = sum((x - mx) * (y - my) for x, y in pairs)
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return float("nan")
    return cov / math.sqrt(vx * vy)


def nip_exact(a, scale_raw=False):
    """(d_i + S_i) / 2m of every node as a Fraction; the int d_i + S_i when
    ``scale_raw``."""
    deg = degrees_of(a)
    two_m = sum(deg)
    raw = [d + s for d, s in zip(deg, neighbour_sums(a))]
    return raw if scale_raw else [Fraction(r, two_m) for r in raw]


def nip_per_node(a, scale_raw=False):
    return [float(x) for x in nip_exact(a, scale_raw)]


def nip_node_uncorrelated(degrees, m):
    """The no-correlation score (d_i / 2m) * (1 + sum d^2 / sum d) of every
    node as a Fraction: its endpoint share times the network score."""
    deg = [int(d) for d in degrees]
    network = 1 + Fraction(sum(d * d for d in deg), sum(deg))
    return [Fraction(d, 2 * m) * network for d in deg]


def edges_by_row(g):
    """Each edge of ``g`` once as (label of u, label of v), u's internal
    index not above v's, read row by row from the CSR arrays; a self-loop
    fills two slots of its row."""
    labels = g.node_labels.tolist()
    edges = []
    for i in range(g.node_count):
        row = g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()
        edges += [(labels[i], labels[j]) for j in row if j > i]
        edges += [(labels[i], labels[i])] * (row.count(i) // 2)
    return edges


def same_labelled_graph(g1, g2):
    """True when two graphs have identical label sets and edge multisets
    (each edge as its sorted endpoint labels); internal order is ignored."""

    def key(g):
        edges = sorted((min(e), max(e)) for e in edges_by_row(g))
        return g.node_count, g.edge_count, sorted(g.node_labels.tolist()), edges

    return key(g1) == key(g2)


def random_edge_list(rng, n, multiset, allow_empty=False):
    """Random endpoint pairs over ids 0..n-1 in the requested flavour."""
    if multiset:
        k = int(rng.integers(0 if allow_empty else 1, max(2, 3 * n)))
        return [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(k)
        ]
    pool = list(combinations(range(n), 2))
    if not pool:
        return []
    p = rng.uniform(0.15, 0.75)
    edges = [e for e in pool if rng.random() < p]
    if not edges and not allow_empty:
        edges = [pool[int(rng.integers(len(pool)))]]
    return edges


def realizable_sequences(max_len, max_degree):
    """All non-increasing sequences realizable by some simple graph.

    Enumerates every labelled simple graph on up to ``max_len`` nodes and
    collects the sorted degree sequences that occur.
    """
    realizable = set()
    for n in range(1, max_len + 1):
        pool = list(combinations(range(n), 2))
        for mask in range(1 << len(pool)):
            deg = [0] * n
            for bit, (u, v) in enumerate(pool):
                if mask >> bit & 1:
                    deg[u] += 1
                    deg[v] += 1
            if max(deg, default=0) <= max_degree:
                realizable.add(tuple(sorted(deg, reverse=True)))
    return realizable


def simple_realizations(degrees):
    """Every simple graph on nodes 0..n-1 whose node i has degree
    ``degrees[i]``, each as a tuple of its m edges (u, v) with u < v:
    the m-edge subsets of the n(n-1)/2 possible edges that realize the
    degrees, in the order ``combinations`` gives them."""
    degrees = [int(d) for d in degrees]
    pool = list(combinations(range(len(degrees)), 2))
    found = []
    for edges in combinations(pool, sum(degrees) // 2):
        deg = [0] * len(degrees)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if deg == degrees:
            found.append(edges)
    return found


def csv_cell(value) -> str:
    """CSV cell text: %.6g for floats, empty for NaN, str otherwise."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".6g")
    return str(value)


def csv_bytes(header, rows) -> bytes:
    """UTF-8 CSV written one ``writerow`` per row, each cell via ``csv_cell``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([csv_cell(cell) for cell in row])
    return buf.getvalue().encode("utf-8")

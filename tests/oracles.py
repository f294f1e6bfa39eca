"""Brute-force reference implementations for small graphs.

Everything here works from a dense adjacency-count matrix and plain Python
loops, deliberately sharing no code with the package internals.
"""

from __future__ import annotations

import csv
import io
import math
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


def knn_per_node(a):
    deg = degrees_of(a)
    out = []
    for i in range(len(deg)):
        if deg[i] == 0:
            out.append(float("nan"))
            continue
        total = 0
        for j in range(len(deg)):
            total += int(a[i, j]) * deg[j]
        out.append(total / deg[i])
    return out


def class_means(values, degrees):
    """Mean of values per positive degree class, accumulated in node order."""
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    for value, d in zip(values, degrees):
        d = int(d)
        if d == 0:
            continue
        totals[d] = totals.get(d, 0.0) + value
        counts[d] = counts.get(d, 0) + 1
    return {d: totals[d] / counts[d] for d in sorted(totals)}


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


def nip_per_node(a, scale_raw=False):
    deg = degrees_of(a)
    two_m = sum(deg)
    knn = knn_per_node(a)
    out = []
    for i in range(len(deg)):
        if deg[i] == 0:
            out.append(0.0)
            continue
        value = deg[i] / two_m * (1.0 + knn[i])
        out.append(value * two_m if scale_raw else value)
    return out


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

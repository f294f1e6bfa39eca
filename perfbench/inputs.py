"""Seeded synthetic inputs for the benchmark workloads, cached on disk.

The SNAP Amazon files cannot be bundled, so the edge-list workloads use
graphs shaped like the ``amazon0312`` reference row: mean degree 16 and
mean square degree near 506 when every line counts as one edge.  Each line's
source is uniform (bounded out-degree, as in a co-purchase list) and its
target is drawn from lognormal weights (heavy-tailed in-degree).  A stated
share of the lines repeat an earlier line reversed, as reciprocal
``(v, u)`` lines do in SNAP dumps.  Lines are grouped by source.

Alongside each input the generator stores the values the correctness gate
compares against.  They are computed here with numpy alone, never with
``netpatrimony``: node count, line count, and a sort-based dedup of the
simple graph with its per-node degrees and neighbour-degree sums.

Inputs live in ``<cache>/<size>/<workload>/s<seed>-v<GENERATOR_VERSION>/``
and are built once per key.  The cache directory is ignored by git.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Bump when the bytes a seed produces change, so stale cache entries are
#: never reused.
GENERATOR_VERSION = 1

EDGE_FILE = "edges.txt"
SPEC_FILE = "spec.json"
ORACLE_FILE = "oracle.json"
ORACLE_ARRAYS = "oracle.npz"


@dataclass(frozen=True)
class EdgeFileShape:
    """An edge-list text file: ``lines`` lines over about ``nodes`` nodes."""

    nodes: int
    lines: int
    reciprocal_share: float
    sparse_labels: bool


@dataclass(frozen=True)
class CongenShape:
    """A POWERLAW/ERASE ``congen`` spec."""

    n: int
    min_degree: int
    exponent: float = 2.5


#: ``full`` is the ``amazon0312`` size (3.2M lines, about 400k nodes, and
#: about 3.2M generated edges).  ``bench`` is 1/32 of it, small enough that
#: one run holds tens of CLI commands, which the tail latency needs.
#: ``tiny`` is for the benchmark's own tests.
SIZES = {
    "tiny": {
        "nip_dense": EdgeFileShape(250, 2_000, 0.2, False),
        "report_sparse": EdgeFileShape(250, 2_000, 0.2, True),
        "congen_erase": CongenShape(500, 3),
    },
    "bench": {
        "nip_dense": EdgeFileShape(12_500, 100_000, 0.2, False),
        "report_sparse": EdgeFileShape(12_500, 100_000, 0.2, True),
        "congen_erase": CongenShape(20_000, 4),
    },
    "full": {
        "nip_dense": EdgeFileShape(400_000, 3_200_000, 0.2, False),
        "report_sparse": EdgeFileShape(400_000, 3_200_000, 0.2, True),
        "congen_erase": CongenShape(640_000, 4),
    },
}

# Lognormal sigma of the target weights: with uniform sources (Poisson(8)
# out-degree) it puts the degree variance near the reference's 250.
_TARGET_SIGMA = 1.24
# Dense labels are drawn without replacement from [0, span * nodes).
_DENSE_LABEL_SPAN = 1.25
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def edge_pairs(shape: EdgeFileShape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The labelled ``(source, target)`` columns of one edge file."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    n, lines = shape.nodes, shape.lines
    cdf = np.cumsum(rng.lognormal(0.0, _TARGET_SIGMA, n))
    cdf /= cdf[-1]
    base = lines - int(lines * shape.reciprocal_share)
    src = rng.integers(0, n, base)
    dst = np.minimum(np.searchsorted(cdf, rng.random(base), side="right"), n - 1)
    again = rng.choice(base, lines - base, replace=False)
    src, dst = np.concatenate([src, dst[again]]), np.concatenate([dst, src[again]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    if shape.sparse_labels:
        labels = _distinct_wide_labels(rng, n)
    else:
        labels = rng.permutation(int(_DENSE_LABEL_SPAN * n))[:n].astype(np.int64)
    return labels[src], labels[dst]


def _distinct_wide_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct uniform 62-bit labels, two of them the int64 extremes."""
    while True:
        labels = rng.integers(0, 2**62, n, dtype=np.int64)
        labels[0], labels[1] = _INT64_MAX, _INT64_MIN
        if len(np.unique(labels)) == n:
            return labels


def edge_file_oracle(a: np.ndarray, b: np.ndarray) -> tuple[dict, dict]:
    """Expected values of an edge file, from numpy alone.

    Returns a JSON-able summary and a dict of arrays over the sorted
    distinct labels: the simple-graph degree and neighbour-degree sum.
    """
    labels, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = len(labels)
    u, v = inverse[: len(a)], inverse[len(a) :]
    raw_degree = np.bincount(inverse, minlength=n)
    keep = u != v
    key = np.sort(np.minimum(u[keep], v[keep]) * np.int64(n) + np.maximum(u[keep], v[keep]))
    if key.size:
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    lo, hi = key // n, key % n
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    nbr_sum = np.bincount(lo, weights=degree[hi], minlength=n) + np.bincount(
        hi, weights=degree[lo], minlength=n
    )
    summary = {
        "n": int(n),
        "lines": int(len(a)),
        "m_simple": int(len(key)),
        "raw_degree_square_sum": int(np.dot(raw_degree, raw_degree)),
        "simple_degree_sum": int(degree.sum()),
        "simple_degree_square_sum": int(np.dot(degree, degree)),
    }
    return summary, {"labels": labels, "degree": degree, "nbr_sum": nbr_sum}


def powerlaw_sequence(shape: CongenShape, seed: int) -> np.ndarray:
    """The degree sequence a POWERLAW spec describes, drawn with numpy alone.

    Inverse-CDF sampling on ``min_degree .. n-1`` with weights
    ``d ** -exponent``, then single-entry redraws until the sum is even,
    following the documented ``congen`` spec semantics.
    """
    rng = np.random.default_rng(seed)
    support = np.arange(shape.min_degree, shape.n, dtype=np.int64)
    cdf = np.cumsum(support.astype(float) ** (-shape.exponent))
    cdf /= cdf[-1]
    seq = support[np.searchsorted(cdf, rng.random(shape.n), side="left")]
    while int(seq.sum()) % 2:
        pos = int(rng.integers(shape.n))
        seq[pos] = support[np.searchsorted(cdf, rng.random(1), side="left")][0]
    return seq


def congen_spec(shape: CongenShape, seed: int) -> dict:
    return {
        "source": "POWERLAW",
        "params": {"exponent": shape.exponent, "min_degree": shape.min_degree, "n": shape.n},
        "seed": seed,
        "simple_policy": "ERASE",
    }


def _write_edge_file(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# Synthetic undirected edge list (perfbench)\n# FromNodeId\tToNodeId\n")
        fh.write("\n".join(map("{}\t{}".format, a.tolist(), b.tolist())))
        fh.write("\n")


def _generate(shape, seed: int, out: Path) -> None:
    if isinstance(shape, CongenShape):
        (out / SPEC_FILE).write_text(json.dumps(congen_spec(shape, seed), indent=2))
        seq = powerlaw_sequence(shape, seed)
        summary = {"n": shape.n, "stub_pairs": int(seq.sum()) // 2}
        np.savez(out / ORACLE_ARRAYS, degree=seq)
    else:
        a, b = edge_pairs(shape, seed)
        _write_edge_file(out / EDGE_FILE, a, b)
        summary, arrays = edge_file_oracle(a, b)
        np.savez(out / ORACLE_ARRAYS, **arrays)
    (out / ORACLE_FILE).write_text(json.dumps(summary, indent=2))


def ensure_input(cache: Path, size: str, workload: str, seed: int) -> tuple[Path, float]:
    """Directory holding the workload's input and oracle, and the seconds
    spent generating it (0.0 on a cache hit)."""
    shape = SIZES[size][workload]
    entry = cache / size / workload / f"s{seed}-v{GENERATOR_VERSION}"
    if (entry / ORACLE_FILE).is_file():
        return entry, 0.0
    start = time.perf_counter()
    tmp = entry.with_name(f"{entry.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        _generate(shape, seed, tmp)
        shutil.rmtree(entry, ignore_errors=True)
        tmp.rename(entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return entry, time.perf_counter() - start


def load_oracle(entry: Path) -> tuple[dict, dict]:
    summary = json.loads((entry / ORACLE_FILE).read_text())
    with np.load(entry / ORACLE_ARRAYS) as arrays:
        return summary, {k: arrays[k] for k in arrays.files}


def edge_count(summary: dict) -> int:
    """Edges one command handles: input lines, or generated stub pairs."""
    return summary.get("lines", summary.get("stub_pairs"))

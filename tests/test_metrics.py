import math

import numpy as np
import pytest

import oracles
from netpatrimony import (
    RAW_MULTISET,
    SIMPLE,
    assortativity,
    build_graph,
    degree_stats,
    knn_class,
    knn_global,
    knn_node,
    knn_profile,
)


def test_six_node_values(six_node_simple):
    stats = degree_stats(six_node_simple)
    assert knn_global(stats) == 2.875
    # labels 1..6 map to internal 0..5 in file order
    assert knn_node(six_node_simple).tolist() == [3.0, 3.0, 3.5, 2.5, 2.5, 3.0]
    profile = knn_profile(six_node_simple, stats)
    assert profile.knn_class == {2: 3.0, 3: 3.0, 4: 2.5}
    assert profile.assortativity == -3 / 13


def test_modes_agree_when_input_is_already_simple(six_node_simple, six_node_raw):
    simple = knn_profile(six_node_simple)
    raw = knn_profile(six_node_raw)
    assert np.array_equal(simple.knn_node, raw.knn_node)
    assert simple.assortativity == raw.assortativity
    assert simple.knn_class == raw.knn_class


def test_star_is_maximally_disassortative(star5):
    profile = knn_profile(star5)
    assert profile.assortativity == -1.0
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


def test_knn_class_refuses_float_values(six_node_simple):
    # Class totals are exact only over integers; knn_i values are not sums.
    with pytest.raises(TypeError, match="integer"):
        knn_class(six_node_simple, knn_node(six_node_simple))


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

"""Differential property tests: against networkx on SIMPLE graphs, and
against ``tests/oracles.py`` on RAW_MULTISET graphs.

networkx agrees with this package's conventions only on simple graphs: on
a ``MultiGraph`` its neighbour degree ignores edge multiplicity and its
assortativity counts a self-loop's pair once, so multigraphs are checked
against the brute-force oracles instead.  Skipped when networkx or
hypothesis is not installed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import oracles

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from netpatrimony import RAW_MULTISET, SIMPLE, assortativity, build_graph, knn_profile  # noqa: E402
from netpatrimony.congen import is_graphical  # noqa: E402

# Few examples and a fixed example order keep the tier-1 run short and
# reproducible.
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)

# knn values are exact sums divided once, knn(d) and r average in another
# order than networkx: allow a few ulps of a double.
RTOL = 1e-12


@st.composite
def simple_graphs(draw):
    """(package graph, networkx graph) over nodes 0..n-1; the drawn pairs
    may hold loops and repeats, which SIMPLE mode drops, and nodes that no
    pair names stay isolated."""
    n = draw(st.integers(2, 14))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=45))
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from((u, v) for u, v in pairs if u != v)
    return build_graph(pairs, mode=SIMPLE, nodes=range(n)), reference


@EXAMPLES
@given(simple_graphs())
def test_knn_node_matches_average_neighbor_degree(graphs):
    g, reference = graphs
    if g.edge_count == 0:
        return
    expected = nx.average_neighbor_degree(reference)
    knn = knn_profile(g).knn_node
    for i, label in enumerate(g.node_labels.tolist()):
        if g.degrees[i] == 0:
            assert math.isnan(knn[i])  # networkx reports 0 for isolated nodes
        else:
            assert math.isclose(knn[i], expected[label], rel_tol=RTOL)


@EXAMPLES
@given(simple_graphs())
def test_knn_class_matches_average_degree_connectivity(graphs):
    g, reference = graphs
    if g.edge_count == 0:
        return
    expected = {d: v for d, v in nx.average_degree_connectivity(reference).items() if d > 0}
    got = knn_profile(g).knn_class
    assert list(got) == sorted(expected)
    for d, value in got.items():
        assert math.isclose(value, expected[d], rel_tol=RTOL)


@EXAMPLES
@given(simple_graphs())
def test_assortativity_matches_degree_assortativity_coefficient(graphs):
    g, reference = graphs
    if g.edge_count == 0:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 0/0 on regular graphs
        expected = nx.degree_assortativity_coefficient(reference)
    got = assortativity(g)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


I64 = np.iinfo(np.int64)

#: Node labels: small ones of either sign, 2^62-scale ones and the int64 extremes.
LABELS = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2**62), 2**62),
    st.sampled_from([int(I64.min), int(I64.max)]),
)


@st.composite
def multiset_graphs(draw):
    """(package graph, oracle adjacency over the package's internal ids) of
    a RAW_MULTISET graph.  Every label is registered through ``nodes=``, so
    labels no pair names stay isolated; the pairs hold drawn self-loops and
    repeated lines on top of whatever the draw repeats."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=14, unique=True))
    node = st.integers(0, len(labels) - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=45))
    pairs += [(i, i) for i in draw(st.lists(node, max_size=3))]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    g = build_graph([(labels[u], labels[v]) for u, v in pairs], mode=RAW_MULTISET, nodes=labels)
    internal = {label: i for i, label in enumerate(g.node_labels.tolist())}
    edges = [(internal[labels[u]], internal[labels[v]]) for u, v in pairs]
    return g, oracles.adjacency_matrix(edges, g.node_count, multiset=True)


@EXAMPLES
@given(multiset_graphs())
def test_multiset_knn_node_matches_oracle(graphs):
    g, a = graphs
    expected = oracles.knn_per_node(a)
    assert g.degrees.tolist() == oracles.degrees_of(a)
    knn = knn_profile(g).knn_node
    for got, want in zip(knn.tolist(), expected):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert math.isclose(got, want, rel_tol=RTOL)


@EXAMPLES
@given(multiset_graphs())
def test_multiset_knn_class_matches_oracle(graphs):
    g, a = graphs
    expected = oracles.class_means(oracles.knn_per_node(a), oracles.degrees_of(a))
    got = knn_profile(g).knn_class
    assert list(got) == list(expected)
    for d, value in got.items():
        assert math.isclose(value, expected[d], rel_tol=RTOL)


@EXAMPLES
@given(multiset_graphs())
def test_multiset_assortativity_matches_oracle(graphs):
    g, a = graphs
    expected = oracles.pearson(oracles.endpoint_degree_pairs(a))
    got = assortativity(g)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


@EXAMPLES
@given(st.lists(st.integers(0, 12), max_size=14))
def test_is_graphical_matches_networkx(degrees):
    assert is_graphical(np.array(degrees, dtype=np.int64)) == nx.is_graphical(degrees)

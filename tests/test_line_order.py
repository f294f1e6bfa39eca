"""Scores are exact and do not depend on the order of an edge list's lines.

Every ``knn_class`` and ``nip_class`` value must be the correctly rounded
exact class mean, and RAW scores the integers d_i + S_i.  The same pairs
reversed or shuffled, which number the nodes differently, must give the
same class dicts and the same per-label node values, bit for bit.  Skipped
when hypothesis is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from netpatrimony import (  # noqa: E402
    NORMALIZED,
    RAW,
    RAW_MULTISET,
    SIMPLE,
    build_graph,
    knn_class,
    knn_profile,
    nip_class,
    nip_node_correlated,
)

EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True)
MODES = st.sampled_from([RAW_MULTISET, SIMPLE])


@st.composite
def edge_lines(draw):
    """Endpoint pairs over labels 0..n-1, loops and repeats included, and
    the same pairs in a drawn order."""
    n = draw(st.integers(2, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=120))
    assume(any(u != v for u, v in pairs))  # at least one edge in both modes
    return pairs, draw(st.permutations(pairs))


def _scores(pairs, mode):
    """Of the graph of ``pairs``: its node values (knn_i, then nip_i on each
    scale) in ascending label order; and its class dicts (knn(d), then
    nip(d) on each scale)."""
    g = build_graph(pairs, mode=mode)
    profile = knn_profile(g)
    order = np.argsort(g.node_labels)
    per_label = [g.node_labels[order], profile.knn_node[order]]
    per_class = [profile.knn_class]
    for scale in (NORMALIZED, RAW):
        per_label.append(nip_node_correlated(g, scale=scale)[order])
        per_class.append(nip_class(g, scale=scale))
    return per_label, per_class


@EXAMPLES
@given(edge_lines(), MODES)
def test_class_means_are_correctly_rounded_and_raw_is_an_integer(drawn, mode):
    pairs, _ = drawn
    g = build_graph(pairs, mode=mode)
    index = {label: i for i, label in enumerate(g.node_labels.tolist())}
    internal = [(index[u], index[v]) for u, v in pairs]
    a = oracles.adjacency_matrix(internal, g.node_count, mode == RAW_MULTISET)
    assert knn_class(g) == oracles.class_means(oracles.knn_exact(a), g.degrees)
    for scale_raw, scale in ((False, NORMALIZED), (True, RAW)):
        expected = oracles.class_means(oracles.nip_exact(a, scale_raw), g.degrees)
        assert nip_class(g, scale=scale) == expected
    assert nip_node_correlated(g, scale=RAW).tolist() == oracles.nip_exact(a, scale_raw=True)


@EXAMPLES
@given(edge_lines(), MODES)
def test_reversed_and_shuffled_lines_give_identical_scores(drawn, mode):
    pairs, shuffled = drawn
    per_label, per_class = _scores(pairs, mode)
    for other in (pairs[::-1], shuffled):
        other_label, other_class = _scores(other, mode)
        assert other_class == per_class
        for got, expected in zip(other_label, per_label):
            assert np.array_equal(got, expected, equal_nan=True)

import math

import numpy as np
import pytest

import oracles
from netpatrimony import (
    AT_PAR,
    CLASSES,
    NORMALIZED,
    OVER,
    RAW,
    RAW_MULTISET,
    SIMPLE,
    UNDEFINED,
    UNDER,
    build_graph,
    classify_performers,
    degree_stats,
    ip,
    nip_class,
    nip_network,
    nip_node_correlated,
    nip_scores,
)
from netpatrimony.reference import SIX_NODE_EDGES


def labels(codes):
    """The class labels of int8 classification codes."""
    assert codes.dtype == np.int8
    return np.asarray(CLASSES)[codes].tolist()


def test_six_node_scores(six_node_simple):
    g = six_node_simple
    shares = ip(g)
    assert shares.tolist() == [3 / 16, 3 / 16, 2 / 16, 4 / 16, 2 / 16, 2 / 16]
    assert nip_network(degree_stats(g)) == 3.875
    scores = nip_scores(g)
    assert scores.nip_node.tolist() == [0.75, 0.75, 0.5625, 0.875, 0.4375, 0.5]
    assert scores.nip_class == {2: 0.5, 3: 0.75, 4: 0.875}
    assert labels(scores.classification) == [AT_PAR, AT_PAR, OVER, AT_PAR, UNDER, AT_PAR]


def test_six_node_raw_scale(six_node_simple):
    raw = nip_scores(six_node_simple, scale=RAW)
    assert raw.nip_node.tolist() == [12.0, 12.0, 9.0, 14.0, 7.0, 8.0]
    assert raw.nip_class == {2: 8.0, 3: 12.0, 4: 14.0}


def test_shares_sum_to_one(six_node_simple, path5, star5):
    for g in (six_node_simple, path5, star5):
        assert math.isclose(float(ip(g).sum()), 1.0, rel_tol=1e-12)


def test_ip_requires_edges():
    g = build_graph([], nodes=[1, 2])
    with pytest.raises(ValueError):
        ip(g)


@pytest.mark.parametrize("score", [nip_node_correlated, nip_class])
def test_scores_refuse_an_unknown_scale_and_an_edgeless_graph(score, six_node_simple):
    with pytest.raises(ValueError, match="^unknown scale: 'BOGUS'"):
        score(six_node_simple, scale="BOGUS")
    with pytest.raises(ValueError, match="^nip is undefined for a graph with no edges$"):
        score(build_graph([], nodes=[1, 2]))


def test_complete_graph_law(complete5):
    shares = ip(complete5)
    assert shares.tolist() == [1 / 5] * 5
    scores = nip_scores(complete5)
    assert scores.nip_node.tolist() == [1.0] * 5
    assert labels(scores.classification) == [AT_PAR] * 5
    assert scores.nip_class == {4: 1.0}


def test_uncorrelated_form_matches_measured_on_regular_graphs(complete5, ring6):
    for g in (complete5, ring6):
        measured = nip_node_correlated(g)
        factored = oracles.nip_node_uncorrelated(g.degrees, g.edge_count)
        assert measured.tolist() == [float(x) for x in factored]


def test_uncorrelated_scores_sum_to_network_score(six_node_simple, path5):
    for g in (six_node_simple, path5):
        total = sum(oracles.nip_node_uncorrelated(g.degrees, g.edge_count))
        assert math.isclose(total, nip_network(degree_stats(g)), rel_tol=1e-12)


def test_network_score_exceeds_one(six_node_simple, path5, star5, ring6):
    for g in (six_node_simple, path5, star5, ring6):
        assert nip_network(degree_stats(g)) > 1.0


def test_raw_is_normalized_times_two_m():
    # RAW is the integer d_i + S_i itself; NORMALIZED is that integer over 2m,
    # rounded once, so the two differ by 2m up to that rounding.
    rng = np.random.default_rng(99)
    cases = [([(u - 1, v - 1) for u, v in SIX_NODE_EDGES], 6, False)]
    for _ in range(60):
        n = int(rng.integers(2, 12))
        cases.append((oracles.random_edge_list(rng, n, True), n, True))
    for edges, n, multiset in cases:
        g = build_graph(edges, mode=RAW_MULTISET if multiset else SIMPLE, nodes=range(n))
        norm = nip_node_correlated(g, scale=NORMALIZED)
        raw = nip_node_correlated(g, scale=RAW)
        a = oracles.adjacency_matrix(edges, n, multiset)
        assert raw.tolist() == oracles.nip_exact(a, scale_raw=True)
        assert np.allclose(raw, norm * (2 * g.edge_count), rtol=2**-52, atol=0)


def test_class_means_match_loop_oracle():
    rng = np.random.default_rng(2718)
    for multiset in (False, True):
        mode = RAW_MULTISET if multiset else SIMPLE
        for _ in range(120):
            n = int(rng.integers(1, 13))
            edges = oracles.random_edge_list(rng, n, multiset)
            if not edges:
                continue
            g = build_graph(edges, mode=mode, nodes=range(n))
            a = oracles.adjacency_matrix(edges, n, multiset)
            for scale_raw, scale in ((False, NORMALIZED), (True, RAW)):
                expected = oracles.class_means(oracles.nip_exact(a, scale_raw), g.degrees)
                assert nip_class(g, scale=scale) == expected
            assert nip_node_correlated(g).tolist() == oracles.nip_per_node(a)


def test_path_graph_classification(path5):
    scores = nip_scores(path5)
    by_label = dict(zip(path5.node_labels.tolist(), labels(scores.classification)))
    assert by_label == {1: AT_PAR, 2: UNDER, 3: OVER, 4: UNDER, 5: AT_PAR}


def test_isolated_node_is_undefined_with_zero_score():
    g = build_graph([(1, 2), (2, 3)], nodes=[1, 2, 3, 4])
    scores = nip_scores(g)
    assert scores.nip_node[3] == 0.0
    assert ip(g)[3] == 0.0
    assert labels(scores.classification)[3] == UNDEFINED
    assert 0 not in scores.nip_class


def test_low_degree_node_in_rich_neighbourhood_outranks_high_degree_node():
    # x has degree 3 but sits next to three degree-6 hubs; y has degree 4
    # amid leaves.  x ends up with the larger score.
    edges = [("x", h) for h in ("h1", "h2", "h3")]
    edges += [(h, f"{h}_leaf{i}") for h in ("h1", "h2", "h3") for i in range(5)]
    edges += [("y", f"y_leaf{i}") for i in range(4)]
    labels = sorted({u for e in edges for u in e})
    to_id = {name: i for i, name in enumerate(labels)}
    g = build_graph([(to_id[u], to_id[v]) for u, v in edges])
    scores = nip_scores(g)
    x, y = to_id["x"], to_id["y"]
    ix = g.node_labels.tolist().index(x)
    iy = g.node_labels.tolist().index(y)
    assert g.degrees[ix] == 3 and g.degrees[iy] == 4
    assert scores.nip_node[ix] == pytest.approx(21 / 44, rel=1e-12)
    assert scores.nip_node[iy] == pytest.approx(8 / 44, rel=1e-12)
    assert scores.nip_node[ix] > scores.nip_node[iy]


def test_classification_is_scale_invariant():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        edges = oracles.random_edge_list(rng, n, False)
        g = build_graph(edges, mode=SIMPLE, nodes=range(n))
        norm = nip_scores(g, scale=NORMALIZED).classification
        raw = nip_scores(g, scale=RAW).classification
        assert norm.tolist() == raw.tolist()


class TestClassify:
    def test_tolerance_band_is_relative(self):
        scores = np.array([1.0 + 5e-10, 1.0 - 5e-10])
        degrees = np.array([2, 2])
        assert labels(classify_performers(scores, {2: 1.0}, degrees)) == [AT_PAR, AT_PAR]
        tight = classify_performers(scores, {2: 1.0}, degrees, tolerance=1e-12)
        assert labels(tight) == [OVER, UNDER]

    @pytest.mark.parametrize("tolerance", [-0.5, -1e-12, math.nan, math.inf])
    def test_negative_or_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            classify_performers(np.array([1.0]), {1: 1.0}, np.array([1]), tolerance)

    def test_zero_tolerance_splits_at_the_mean(self):
        codes = classify_performers(
            np.array([1.0, 1.0 + 1e-15, 1.0 - 1e-15]), {2: 1.0}, np.array([2, 2, 2]), 0.0
        )
        assert labels(codes) == [AT_PAR, OVER, UNDER]

    def test_non_integer_degrees_rejected(self):
        with pytest.raises(ValueError, match="^degrees must be integers of the int64 range"):
            classify_performers([0.5, 0.5], {1: 0.5}, [1.7, 1.2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            classify_performers(np.array([1.0]), {1: 1.0}, np.array([1, 1]))

    def test_zero_degree_is_undefined(self):
        codes = classify_performers(
            np.array([0.0, 0.5]), {1: 0.5}, np.array([0, 1])
        )
        assert labels(codes) == [UNDEFINED, AT_PAR]

    def test_empty_and_list_inputs(self):
        empty = classify_performers([], {}, [])
        assert isinstance(empty, np.ndarray) and labels(empty) == []
        assert labels(classify_performers([0.0, 0.5], {1: 0.5}, [0, 1])) == [
            UNDEFINED,
            AT_PAR,
        ]

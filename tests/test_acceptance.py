"""Acceptance gate: one test per shipping criterion.

Each test prints a ``[acceptance] ... PASS/FAIL`` line and then asserts, so
the per-criterion verdicts are visible with ``pytest tests/test_acceptance.py
-v -s`` (pytest's -v test list gives the same one-line-per-criterion view
without -s).  The large-dataset criteria skip with download instructions
when the SNAP files are not available locally; everything else is
self-contained.
"""

import math

import numpy as np
import pytest

import oracles
from conftest import amazon_path, require_amazon
from netpatrimony import (
    MULTIGRAPH,
    NORMALIZED,
    RAW,
    RAW_MULTISET,
    SIMPLE,
    DegreeSequenceSpec,
    build_graph,
    degree_stats,
    generate,
    ip,
    is_graphical,
    knn_class,
    knn_global,
    knn_node,
    load_graph,
    nip_class,
    nip_network,
    nip_node_correlated,
    sample_degree_sequence,
)
from netpatrimony.cli import main as cli_main
from netpatrimony.graph import edge_dump_lines
from netpatrimony.metrics import assortativity
from netpatrimony.reference import AMAZON_REFERENCE, AMAZON0601_OUTLIER, SIX_NODE_EDGES


def record(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)


def record_skip(criterion: str, reason: str) -> None:
    print(f"[acceptance] {criterion}: SKIPPED -- {reason}", flush=True)


def dataset_or_skip(criterion: str, name: str):
    if amazon_path(name) is None:
        record_skip(criterion, f"{name}.txt not available locally")
    return require_amazon(name)


# --------------------------------------------------------------------------
# criterion 1: six-node fixture exactness


def test_criterion_1_six_node_fixture():
    crit = "criterion 1 (six-node fixture)"
    g = build_graph(SIX_NODE_EDGES, mode=SIMPLE)
    stats = degree_stats(g)
    per_node = knn_node(g)
    per_class = knn_class(g)
    checks = [
        sorted(g.degrees.tolist(), reverse=True) == [4, 3, 3, 2, 2, 2],
        stats.mean_degree == 8 / 3,
        round(stats.mean_degree, 2) == 2.67,
        stats.mean_square_degree == 23 / 3,
        round(stats.mean_square_degree, 2) == 7.67,
        knn_global(stats) == 2.875,
        round(knn_global(stats), 1) == 2.9,
        [round(v, 1) for v in per_node.tolist()] == [3.0, 3.0, 3.5, 2.5, 2.5, 3.0],
        {d: round(v, 1) for d, v in per_class.items()} == {2: 3.0, 3: 3.0, 4: 2.5},
    ]
    record(crit, all(checks), f"{sum(checks)}/{len(checks)} checks")
    assert all(checks), checks


# --------------------------------------------------------------------------
# criterion 2: reference-statistics reproduction on the SNAP datasets

_C2_TOLERANCES = {
    "n": ("exact", 0.0),
    "m": ("exact", 0.0),
    "mean_degree": ("relative", 0.005),
    "mean_square_degree": ("relative", 0.005),
    "variance": ("relative", 0.005),
    "nip_network": ("relative", 0.005),
    "assortativity": ("absolute", 0.005),
    "density": ("relative", 0.02),
}


def _compute_row(path, mode):
    g = load_graph(path, mode=mode)
    stats = degree_stats(g)
    return {
        "n": stats.node_count,
        "m": stats.edge_count,
        "mean_degree": stats.mean_degree,
        "mean_square_degree": stats.mean_square_degree,
        "variance": stats.variance,
        "density": stats.density,
        "assortativity": assortativity(g),
        "nip_network": nip_network(stats),
    }


def _column_ok(kind, tol, got, want):
    if kind == "exact":
        return got == want
    if kind == "absolute":
        return abs(got - want) <= tol
    return abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("name", sorted(AMAZON_REFERENCE))
def test_criterion_2_reference_reproduction(name):
    crit = f"criterion 2 (reference reproduction, {name})"
    path = dataset_or_skip(crit, name)
    ref = AMAZON_REFERENCE[name]
    rows = {RAW_MULTISET: _compute_row(path, RAW_MULTISET)}
    failures = []
    details = []
    for column, (kind, tol) in _C2_TOLERANCES.items():
        want = getattr(ref, column)
        matched_modes = []
        for mode in (RAW_MULTISET, SIMPLE):
            if mode not in rows:
                # the fallback run is only paid for when the primary misses
                rows[mode] = _compute_row(path, mode)
            if _column_ok(kind, tol, rows[mode][column], want):
                matched_modes.append(mode)
                break
        got = rows[RAW_MULTISET][column]
        if matched_modes:
            if matched_modes[0] != RAW_MULTISET:
                details.append(
                    f"{column}: RAW_MULTISET={got!r} missed {want!r}, "
                    f"matched in {matched_modes[0]} ({rows[matched_modes[0]][column]!r})"
                )
        else:
            failures.append(
                f"{column}: want {want!r} ({kind} tol {tol}), "
                + ", ".join(f"{m}={rows[m][column]!r}" for m in rows)
            )
    detail = "all columns matched in RAW_MULTISET" if not details and not failures else "; ".join(details + failures)
    record(crit, not failures, detail)
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 3: internal consistency of the embedded reference rows


def test_criterion_3_network_score_identity_on_reference_rows():
    crit = "criterion 3 (reference rows: score identity)"
    residuals = {
        row.name: abs(row.nip_network - (1.0 + row.mean_square_degree / row.mean_degree))
        for row in AMAZON_REFERENCE.values()
    }
    ok = all(r <= 0.01 for r in residuals.values())
    record(crit, ok, ", ".join(f"{k}: {v:.4f}" for k, v in residuals.items()))
    assert ok, residuals


def test_criterion_3_variance_identity_on_reference_rows():
    """sigma^2 = <d^2> - <d>^2 on the published rows, with <d> = 2m/n.

    The published ``mean_degree`` column is truncated to 3 decimals, not
    rounded: amazon0302 has 2m/n = 9.42255 stored as 9.422.  Squaring the
    truncated value moves <d>^2 by about 2 * 9.42 * 0.00055 ~ 0.010, more
    than the remaining rounding of ``mean_square_degree`` and ``variance``
    leaves room for.  Every row stores n and m exactly, and <d> is 2m/n by
    definition (as ``degree_stats`` computes it), so the identity takes <d>
    from them; the stored mean is checked to be the same quantity to its
    last published decimal.
    """
    crit = "criterion 3 (reference rows: variance identity)"
    rows = AMAZON_REFERENCE.values()
    mean_gaps = {row.name: abs(2 * row.m / row.n - row.mean_degree) for row in rows}
    residuals = {
        row.name: abs(row.variance - (row.mean_square_degree - (2 * row.m / row.n) ** 2))
        for row in rows
    }
    means_ok = all(g < 1e-3 for g in mean_gaps.values())
    identity_ok = all(r <= 0.01 for r in residuals.values())
    record(crit, means_ok and identity_ok, ", ".join(f"{k}: {v:.4f}" for k, v in residuals.items()))
    assert means_ok, f"stored mean_degree differs from 2m/n by 1e-3 or more: {mean_gaps}"
    assert identity_ok, (
        f"variance identity exceeds +-0.01 on the published rows with <d> = 2m/n: {residuals}"
    )


# --------------------------------------------------------------------------
# criterion 4: best-effort high-degree outlier check (recorded either way)


def test_criterion_4_high_degree_outlier_recorded():
    crit = "criterion 4 (degree-44 outlier, amazon0601)"
    path = dataset_or_skip(crit, AMAZON0601_OUTLIER["name"])
    g = load_graph(path, mode=RAW_MULTISET)
    raw = nip_node_correlated(g, scale=RAW)
    target = AMAZON0601_OUTLIER["raw_nip"]
    degree = AMAZON0601_OUTLIER["degree"]
    at_degree = raw[g.degrees == degree]
    assert np.isfinite(at_degree).all()
    if at_degree.size == 0:
        outcome = f"no degree-{degree} nodes present"
        found = False
    else:
        gaps = np.abs(at_degree - target)
        found = bool((gaps <= 0.02 * target).any())
        closest = float(at_degree[int(np.argmin(gaps))])
        outcome = (
            f"{'FOUND' if found else 'NOT FOUND'}: {int(at_degree.size)} nodes at "
            f"degree {degree}, closest raw score {closest:.2f} vs {target}"
        )
    # Best-effort check: the outcome is recorded either way; only the
    # bookkeeping itself can fail.
    record(crit, True, outcome)
    assert found in (True, False)


# --------------------------------------------------------------------------
# criterion 5: property suite on 1,000 random graphs


def _property_graph_stream(count, seed):
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        n = int(rng.integers(1, 13))
        multiset = bool(rng.integers(2))
        edges = oracles.random_edge_list(rng, n, multiset)
        if not edges:
            continue
        mode = RAW_MULTISET if multiset else SIMPLE
        with_isolated = bool(rng.integers(2))
        nodes = range(n) if with_isolated else None
        yield build_graph(edges, mode=mode, nodes=nodes), edges, n, multiset
        produced += 1


def test_criterion_5_property_suite():
    crit = "criterion 5 (property suite, 1000 random graphs)"
    checked = 0
    for g, edges, n, multiset in _property_graph_stream(1000, seed=90125):
        stats = degree_stats(g)
        shares = ip(g)
        assert abs(float(shares.sum()) - 1.0) <= 1e-9
        nip_n = nip_network(stats)
        assert nip_n > 1.0
        gap = knn_global(stats) - stats.mean_degree
        assert math.isclose(
            gap, stats.variance / stats.mean_degree, rel_tol=1e-12, abs_tol=1e-12
        )
        # brute-force oracle comparisons (matrix over internal ids)
        a = oracles.adjacency_matrix(
            [(int(u), int(v)) for u, v in _internal_edges(g, edges)], g.node_count, multiset
        )
        oracle_knn = oracles.knn_per_node(a)
        got_knn = knn_node(g)
        assert np.array_equal(got_knn, np.array(oracle_knn), equal_nan=True)
        assert knn_class(g) == oracles.class_means(oracles.knn_exact(a), g.degrees)
        norm = nip_node_correlated(g, scale=NORMALIZED)
        raw = nip_node_correlated(g, scale=RAW)
        assert np.array_equal(norm, np.array(oracles.nip_per_node(a)))
        assert raw.tolist() == oracles.nip_exact(a, scale_raw=True)
        for scale_raw, scale in ((False, NORMALIZED), (True, RAW)):
            expected = oracles.class_means(oracles.nip_exact(a, scale_raw), g.degrees)
            assert nip_class(g, scale=scale) == expected
        checked += 1

    # complete-graph law and the regular-graph factorization equivalence
    for n in range(3, 9):
        kn = build_graph(
            [(i, j) for i in range(n) for j in range(i + 1, n)], mode=SIMPLE
        )
        assert ip(kn).tolist() == [1 / n] * n
        assert nip_node_correlated(kn).tolist() == [1.0] * n
    ring = build_graph([(i, (i + 1) % 8) for i in range(8)])
    for regular in (ring, kn):
        factored = oracles.nip_node_uncorrelated(regular.degrees, regular.edge_count)
        assert nip_node_correlated(regular).tolist() == [float(x) for x in factored]
    record(crit, True, f"{checked} graphs checked against oracles")
    assert checked == 1000


def _internal_edges(g, edges):
    label_to_id = {int(label): i for i, label in enumerate(g.node_labels)}
    return [(label_to_id[int(u)], label_to_id[int(v)]) for u, v in edges]


# --------------------------------------------------------------------------
# criterion 6: configuration-model suite


def test_criterion_6_configuration_model_suite():
    crit = "criterion 6 (configuration-model suite)"
    heavy = DegreeSequenceSpec.power_law(2.5, 1, 300, seed=42)
    sequence = sample_degree_sequence(heavy)

    # degree preservation under MULTIGRAPH for every seed in a 100-seed sweep
    for seed in range(100):
        g = generate(sequence, seed=seed, simple_policy=MULTIGRAPH)[0]
        assert np.array_equal(g.degrees, sequence), seed

    # seed determinism: byte-identical dumps
    dump_a = "\n".join(edge_dump_lines(generate(sequence, seed=7)[0]))
    dump_b = "\n".join(edge_dump_lines(generate(sequence, seed=7)[0]))
    dump_c = "\n".join(edge_dump_lines(generate(sequence, seed=8)[0]))
    assert dump_a == dump_b
    assert dump_a != dump_c

    # ensemble-mean neighbour degree vs the degree-moment prediction
    predicted = int(np.dot(sequence, sequence)) / int(sequence.sum())
    means = [
        float(np.mean(knn_node(generate(sequence, seed=seed)[0])))
        for seed in range(200)
    ]
    ensemble_mean = float(np.mean(means))
    deviation = abs(ensemble_mean - predicted) / predicted
    assert deviation <= 0.05, (ensemble_mean, predicted)

    # graphicality test against brute-force realizability
    realizable = oracles.realizable_sequences(max_len=6, max_degree=5)
    from itertools import combinations_with_replacement

    tested = 0
    for length in range(1, 7):
        for seq in combinations_with_replacement(range(6), length):
            seq = tuple(sorted(seq, reverse=True))
            assert is_graphical(seq) == (seq in realizable), seq
            tested += 1
    record(
        crit,
        True,
        f"ensemble deviation {deviation:.4%}; {tested} sequences vs enumeration",
    )
    assert tested > 900


# --------------------------------------------------------------------------
# criterion 7: determinism across worker counts on amazon0302


def test_criterion_7_parallel_determinism(tmp_path):
    crit = "criterion 7 (worker-count determinism, amazon0302)"
    path = dataset_or_skip(crit, "amazon0302")
    payload_files = ("summary.json", "knn_node.csv", "knn_class.csv")
    trees = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        code = cli_main(
            [
                "knn",
                str(path),
                "--output-dir",
                str(out),
                "--mode",
                RAW_MULTISET,
                "--worker-count",
                str(workers),
            ]
        )
        assert code == 0
        trees[workers] = {name: (out / name).read_bytes() for name in payload_files}
    ok = trees[1] == trees[4] == trees[8]
    record(crit, ok, f"{len(payload_files)} payload files compared across 3 runs")
    assert ok

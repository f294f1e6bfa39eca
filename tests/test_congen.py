import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import BAD_SPEC_FIELDS, UNKNOWN_SPEC_KEYS, bad_spec
from netpatrimony import (
    ERASE,
    EXPLICIT,
    MULTIGRAPH,
    POISSON,
    POWERLAW,
    REJECT,
    RAW_MULTISET,
    SIMPLE,
    DegreeSequenceSpec,
    RejectionExhaustedError,
    first_violated_prefix,
    generate,
    is_graphical,
    sample_degree_sequence,
)
from netpatrimony.congen import _match_stubs
from netpatrimony.graph import edge_dump_lines, write_edge_dump


class TestGraphical:
    def test_known_sequences(self):
        assert is_graphical([4, 3, 3, 2, 2, 2])
        assert not is_graphical([3, 3, 1, 1])
        assert is_graphical([0])
        assert is_graphical([])
        assert is_graphical([0, 0, 0])
        assert not is_graphical([1])  # odd sum
        assert not is_graphical([2, 1])  # odd sum
        assert is_graphical([1, 1])

    def test_order_does_not_matter(self):
        assert is_graphical([2, 2, 3, 4, 3, 2])
        assert not is_graphical([1, 3, 1, 3])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            is_graphical([2, -1, 1])

    def test_first_violated_prefix(self):
        assert first_violated_prefix([3, 3, 1, 1]) == 2
        assert first_violated_prefix([4, 3, 3, 2, 2, 2]) is None
        assert first_violated_prefix([5, 1, 1]) == 1

    def test_matches_enumeration_on_sampled_sequences(self):
        realizable = oracles.realizable_sequences(max_len=5, max_degree=4)
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            seq = tuple(sorted(rng.integers(0, 5, size=k).tolist(), reverse=True))
            assert is_graphical(seq) == (seq in realizable), seq


class TestSpec:
    def test_explicit_roundtrip(self):
        spec = DegreeSequenceSpec.explicit([3, 2, 2, 1], seed=5, simple_policy=REJECT)
        again = DegreeSequenceSpec.from_json(spec.to_json())
        assert again == spec
        assert json.loads(spec.to_json())["params"]["degrees"] == [3, 2, 2, 1]

    def test_parametric_roundtrip(self):
        for spec in (
            DegreeSequenceSpec.poisson(2.5, 100, seed=1),
            DegreeSequenceSpec.power_law(2.5, 1, 100, seed=1, simple_policy=ERASE),
        ):
            assert DegreeSequenceSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            dict(source="GAUSSIAN"),
            dict(source=EXPLICIT, degrees=()),
            dict(source=EXPLICIT, degrees=(2, -1)),
            dict(source=POISSON, mean=0.0, n=10),
            dict(source=POISSON, mean=2.0, n=0),
            dict(source=POWERLAW, exponent=1.0, min_degree=1, n=10),
            dict(source=POWERLAW, exponent=2.5, min_degree=0, n=10),
            dict(source=POWERLAW, exponent=2.5, min_degree=10, n=10),
            dict(source=EXPLICIT, degrees=(2, 2), simple_policy="DROP"),
            dict(source=EXPLICIT, degrees=(2, 2), max_attempts=0),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            DegreeSequenceSpec(**bad)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequenceSpec.from_dict({"params": {}})

    @pytest.mark.parametrize("source, field, value", BAD_SPEC_FIELDS)
    def test_mistyped_field_names_the_field(self, source, field, value):
        with pytest.raises(ValueError, match=f"^spec field '{field}"):
            DegreeSequenceSpec.from_dict(bad_spec(source, field, value))

    @pytest.mark.parametrize("data, key", UNKNOWN_SPEC_KEYS)
    def test_unknown_key_is_named(self, data, key):
        with pytest.raises(ValueError, match=f"^unknown spec key '{key}'"):
            DegreeSequenceSpec.from_dict(data)

    def test_spec_echo_holds_plain_ints_and_floats(self):
        """meta.json echoes a spec as it was read: an integer given for a real
        field becomes a float, and a numpy integer a Python int."""
        spec = DegreeSequenceSpec.power_law(np.int64(3), np.int64(2), 10, seed=np.uint8(7))
        assert json.dumps(spec.to_dict()) == json.dumps({
            "source": POWERLAW,
            "params": {"exponent": 3.0, "min_degree": 2, "n": 10},
            "seed": 7,
            "simple_policy": MULTIGRAPH,
            "max_attempts": 100,
        })


class TestSampling:
    def test_explicit_passthrough(self):
        spec = DegreeSequenceSpec.explicit([5, 1, 1, 1])
        assert sample_degree_sequence(spec).tolist() == [5, 1, 1, 1]
        # passthrough applies even when the sum is odd; pairing rejects later
        odd = DegreeSequenceSpec.explicit([1, 1, 1])
        assert sample_degree_sequence(odd).tolist() == [1, 1, 1]

    def test_poisson_mean_and_parity(self):
        spec = DegreeSequenceSpec.poisson(4.0, 10_000, seed=7)
        seq = sample_degree_sequence(spec)
        assert len(seq) == 10_000
        assert int(seq.sum()) % 2 == 0
        # sample mean within 3 standard errors of the requested mean
        assert abs(seq.mean() - 4.0) < 3 * np.sqrt(4.0 / 10_000)

    def test_parity_holds_across_seeds(self):
        for seed in range(30):
            seq = sample_degree_sequence(DegreeSequenceSpec.poisson(2.2, 51, seed=seed))
            assert int(seq.sum()) % 2 == 0
            seq = sample_degree_sequence(
                DegreeSequenceSpec.power_law(2.5, 1, 77, seed=seed)
            )
            assert int(seq.sum()) % 2 == 0

    def test_power_law_support_bounds(self):
        spec = DegreeSequenceSpec.power_law(2.2, 2, 500, seed=3)
        seq = sample_degree_sequence(spec)
        assert seq.min() >= 2
        assert seq.max() <= 499

    def test_same_seed_same_sequence(self):
        spec = DegreeSequenceSpec.power_law(2.5, 1, 200, seed=42)
        a = sample_degree_sequence(spec)
        b = sample_degree_sequence(spec)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, seed, redraws", [(20_000, 7, 8), (640_000, 1, 7)])
    def test_parity_redraws_keep_the_draws_of_a_cdf_per_redraw(self, n, seed, redraws):
        """The CDF is built once per call, but every draw, and so every
        sequence, is the one a support and CDF rebuilt per redraw give."""

        def draw(spec, rng, size):
            support = np.arange(spec.min_degree, spec.n, dtype=np.int64)
            cdf = np.cumsum(support.astype(float) ** (-spec.exponent))
            cdf /= cdf[-1]
            return support[np.searchsorted(cdf, rng.random(size), side="left")]

        spec = DegreeSequenceSpec.power_law(2.5, 4, n, seed=seed)
        rng = np.random.default_rng(seed)
        expected = draw(spec, rng, n)
        done = 0
        while int(expected.sum()) % 2:
            pos = int(rng.integers(n))  # drawn before the new degree
            expected[pos] = draw(spec, rng, 1)[0]
            done += 1
        assert done == redraws
        assert np.array_equal(sample_degree_sequence(spec), expected)

    def test_power_law_tail_exponent(self):
        # The complementary CDF of a d^-gamma sample should fall on a
        # log-log line of slope roughly -(gamma - 1).  The fit is restricted
        # to the well-populated head (ccdf >= 0.02) because the discrete
        # tail of a finite sample is too noisy to regress on, which also
        # biases the slope slightly shallow; hence the broad band.
        gamma = 2.5
        seq = sample_degree_sequence(
            DegreeSequenceSpec.power_law(gamma, 1, 10_000, seed=7)
        )
        values, counts = np.unique(seq, return_counts=True)
        ccdf = 1.0 - np.cumsum(counts) / len(seq)
        keep = ccdf >= 0.02
        assert keep.sum() >= 5  # enough points for a meaningful fit
        slope = np.polyfit(np.log10(values[keep]), np.log10(ccdf[keep]), 1)[0]
        assert abs(slope - -(gamma - 1.0)) <= 0.5


class TestGeneration:
    def test_triangle_is_forced(self):
        for seed in (0, 1, 99):
            g = generate([2, 2, 2], seed=seed, simple_policy=REJECT)[0]
            assert edge_dump_lines(g) == ["0\t1", "0\t2", "1\t2"]
            assert g.mode == SIMPLE

    def test_multigraph_preserves_degrees_exactly(self):
        rng = np.random.default_rng(1)
        for seed in range(30):
            n = int(rng.integers(2, 40))
            seq = rng.integers(0, 6, size=n)
            if int(seq.sum()) % 2:
                seq[0] += 1
            g = generate(seq, seed=seed, simple_policy=MULTIGRAPH)[0]
            assert g.mode == RAW_MULTISET
            assert g.node_count == n
            assert np.array_equal(g.degrees, seq)

    def test_multigraph_dump_is_the_stub_matching(self, tmp_path):
        # Labels are the ids 0..n-1, so the dump is the seed's matching as
        # sorted (min, max) lines: m of them, loops and parallel pairs kept.
        seq = np.array([12, 6, 5, 4, 3, 3, 2, 2, 1, 0, 1, 3])
        loops = 0
        for seed in range(5):
            g = generate(seq, seed=seed, simple_policy=MULTIGRAPH)[0]
            a, b = _match_stubs(seq, np.random.default_rng(seed)).T
            pairs = list(zip(a.tolist(), b.tolist()))
            path = tmp_path / f"edges{seed}.txt"
            write_edge_dump(g, path)
            lines = path.read_text().splitlines(keepends=True)
            assert len(lines) == g.edge_count == int(seq.sum()) // 2
            assert lines == sorted(f"{min(u, v)}\t{max(u, v)}\n" for u, v in pairs)
            loops += sum(u == v for u, v in pairs)
        assert loops > 0  # the matchings above do hold loops

    @pytest.mark.parametrize(
        "policy, degrees, seed, digest",
        [
            (
                MULTIGRAPH,
                [12, 6, 5, 4, 3, 3, 2, 2, 1, 0, 1, 3],
                3,
                "3fd66232fe7fa7c9421f5ea2d0de9c43f2622179db4e422eb2a0474cb76c6a42",
            ),
            (
                ERASE,
                [12, 6, 5, 4, 3, 3, 2, 2, 1, 0, 1, 3],
                4,
                "3ee888e4a9ecaabc86c3a4f8a2dd5fe60958ed454ac72f138274f8e470afffcf",
            ),
            (
                REJECT,
                [3, 3, 2, 2, 2, 2, 1, 1],
                5,
                "eaca7be4969a2b25d52b5baf6acffd920a24481d4037e3d13faa0e1b07e9151a",
            ),
        ],
    )
    def test_dump_bytes_are_pinned(self, tmp_path, policy, degrees, seed, digest):
        """The seeded matching and its dump stay byte for byte what they
        were when stubs were paired by strided slices; REJECT needs two
        attempts here, so a reshuffle is covered too."""
        g, info = generate(degrees, seed=seed, simple_policy=policy)
        path = tmp_path / "edges.txt"
        write_edge_dump(g, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert info["attempts"] == (2 if policy == REJECT else 1)

    def test_generate_and_dump_memory_stay_bounded(self, tmp_path):
        """Traced peaks on a 100,000-node POWERLAW graph, the same on every
        run: ``generate`` holds at most 2.0 times its stub array, and
        ``write_edge_dump`` at most 1.2 times the graph's arrays."""

        def traced_peak(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spec = DegreeSequenceSpec.power_law(2.5, 4, 100_000, seed=1, simple_policy=ERASE)
        degrees = sample_degree_sequence(spec)
        (g, _), peak = traced_peak(lambda: generate(degrees, seed=1, simple_policy=ERASE))
        assert peak <= 2.0 * degrees.sum() * 8
        arrays = g.indptr.nbytes + g.indices.nbytes + g.degrees.nbytes + g.node_labels.nbytes
        _, peak = traced_peak(lambda: write_edge_dump(g, tmp_path / "edges.txt"))
        assert peak <= 1.2 * arrays

    def test_erase_only_removes(self):
        seq = [4, 4, 3, 3, 2, 2, 1, 1]
        g, info = generate(seq, seed=11, simple_policy=ERASE)
        assert g.mode == SIMPLE
        assert (g.degrees <= np.array(seq)).all()
        assert info["erased_edges"] == sum(seq) // 2 - g.edge_count
        assert info["erased_edges"] >= 0

    def test_reject_returns_simple_graph(self):
        g, info = generate([3, 3, 2, 2, 2], seed=4, simple_policy=REJECT)
        assert g.mode == SIMPLE
        assert np.array_equal(g.degrees, [3, 3, 2, 2, 2])
        assert 1 <= info["attempts"] <= 100
        lines = edge_dump_lines(g)
        assert len(set(lines)) == len(lines)  # no parallel edges survived

    def test_reject_exhausts_on_non_graphical(self):
        with pytest.raises(RejectionExhaustedError) as exc:
            generate([3, 3, 1, 1], seed=0, simple_policy=REJECT, max_attempts=5)
        assert exc.value.attempts == 5
        assert "5" in str(exc.value)

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate([1, 1, 1])

    def test_empty_and_negative_rejected(self):
        with pytest.raises(ValueError):
            generate([])
        with pytest.raises(ValueError):
            generate([2, -2])

    def test_degree_sum_of_2_to_the_63_rejected(self):
        # The int64 sum of these degrees wraps to 0, an even total; laying
        # out their stubs must not be attempted.
        with pytest.raises(ValueError, match=r"less than 2\^63, got 18446744073709551616"):
            generate([2**62] * 4)

    def test_zero_degrees_become_isolated_nodes(self):
        g = generate([2, 0, 2, 0], seed=2, simple_policy=MULTIGRAPH)[0]
        assert g.node_count == 4
        assert g.degrees.tolist() == [2, 0, 2, 0]

    def test_seed_determinism_and_variation(self):
        seq = sample_degree_sequence(DegreeSequenceSpec.poisson(3.0, 100, seed=0))
        first = edge_dump_lines(generate(seq, seed=5)[0])
        second = edge_dump_lines(generate(seq, seed=5)[0])
        other = edge_dump_lines(generate(seq, seed=6)[0])
        assert first == second
        assert first != other

    def test_metadata_records_generator(self):
        _, info = generate([2, 2, 2], seed=9)
        assert info["rng"] == "pcg64"
        assert info["seed"] == 9
        assert info["policy"] == MULTIGRAPH

    def test_ensemble_assortativity_is_neutral(self):
        # Random stub matching imposes no degree-degree correlation, so the
        # ensemble mean assortativity of a fixed (non-regular) sequence
        # should be statistically indistinguishable from zero.
        from netpatrimony.metrics import assortativity

        seq = sample_degree_sequence(DegreeSequenceSpec.power_law(2.5, 1, 300, seed=42))
        assert len(np.unique(seq)) > 1
        samples = np.array(
            [
                assortativity(generate(seq, seed=s, simple_policy=MULTIGRAPH)[0])
                for s in range(200)
            ]
        )
        assert np.isfinite(samples).all()
        stderr = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean()) <= 3.0 * stderr

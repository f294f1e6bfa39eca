"""Tests of the benchmark itself, at the ``tiny`` input size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import inputs
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted(run.WORKLOADS)


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 4)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def tiny_run(tmp_path, workload, seed=run.DEFAULT_SEED) -> run.Run:
    return run.Run(workload, seed, "tiny", tmp_path / "cache")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_gate(tmp_path, workload):
    with tiny_run(tmp_path, workload) as r:
        metrics = r.measure(0.1)
        assert r.failures == [] and r.failed == 0
        assert r.attempted == r.samples + 1  # the warm-up is attempted too
        assert set(metrics) == set(run.END_TO_END_UNITS)
        assert all(math.isfinite(v) and v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(tmp_path, workload):
    with tiny_run(tmp_path, workload) as r:
        metrics = r.measure_traced(0.1)
        assert r.failures == [] and r.absent == []
        assert set(metrics) == set(run.PER_LAYER_UNITS)
        layer_self = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
        assert layer_self == pytest.approx(metrics["cli.main.s"], abs=1e-9)
        assert metrics["graph.build_graph.calls"] >= 1
        if workload == "congen_erase":
            assert metrics["graph.dump_bytes"] > 0 and metrics["graph.input_bytes"] == 0
        else:
            assert metrics["graph.input_bytes"] > 0 and metrics["congen.attempts"] == 0


def test_counts_repeat_across_traced_commands(tmp_path):
    with tiny_run(tmp_path, "nip_dense") as r:
        r.warm_up()
        seen = []
        for _ in range(2):
            assert r.command(traced=True)[2]
            doc = json.loads((r.entry / run.SPANS_FILE).read_text())
            metrics = run.span_metrics(doc)
            seen.append({k: v for k, v in metrics.items() if run.PER_LAYER_UNITS[k] != "s"})
        assert seen[0] == seen[1]


CORRUPTIONS = {
    # (file, edit of its lines): a node row, the SIMPLE row, or an edge lost.
    "nip_dense": ("nip_node.csv", lambda rows: rows[:1] + rows[2:]),
    "report_sparse": ("report.csv", lambda rows: rows[:2]),
    "congen_erase": ("edges.txt", lambda rows: rows[1:]),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_gate(tmp_path, workload):
    with tiny_run(tmp_path, workload) as r:
        assert r.warm_up() == []
        name, corrupt = CORRUPTIONS[workload]
        path = r.out / name
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(corrupt(rows)))
        assert gate.check_outputs(workload, r.out, r.oracle, r.arrays)
        assert gate.compare_hashes(r.reference, gate.output_hashes(r.out), "rerun")


def test_rerun_with_changed_bytes_counts_as_failed(tmp_path):
    with tiny_run(tmp_path, "congen_erase") as r:
        r.warm_up()
        r.reference = {**r.reference, "meta.json": "0" * 64}
        assert r.command()[2] is False
        assert r.failed == 1 and "meta.json" in r.failures[0]


def test_golden_hashes_match_at_default_seed(tmp_path):
    for workload in WORKLOADS:
        assert gate.golden_hashes("tiny", workload), f"no golden hashes for {workload}"
        with tiny_run(tmp_path, workload) as r:
            assert r.warm_up() == []


def test_inputs_are_seeded(tmp_path):
    first, _ = inputs.ensure_input(tmp_path / "a", "tiny", "nip_dense", 7)
    again, _ = inputs.ensure_input(tmp_path / "b", "tiny", "nip_dense", 7)
    other, _ = inputs.ensure_input(tmp_path / "c", "tiny", "nip_dense", 8)
    edges = inputs.EDGE_FILE
    assert (first / edges).read_bytes() == (again / edges).read_bytes()
    assert (first / edges).read_bytes() != (other / edges).read_bytes()
    assert inputs.ensure_input(tmp_path / "a", "tiny", "nip_dense", 7)[1] == 0.0  # cache hit


def test_sparse_labels_hit_int64_extremes(tmp_path):
    entry, _ = inputs.ensure_input(tmp_path, "tiny", "report_sparse", 3)
    _, arrays = inputs.load_oracle(entry)
    assert arrays["labels"][0] == -(2**63) and arrays["labels"][-1] == 2**63 - 1


def test_missing_or_broken_hooks_are_reported_absent():
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("netpatrimony.graph", "no_such_function", "graph.gone", None),
            ("netpatrimony.no_such_module", "f", "x.f", None),
        )
    )
    assert tracer.absent == ["netpatrimony.graph.no_such_function", "netpatrimony.no_such_module.f"]

    def broken_counter(counts, args, kwargs, result):
        raise KeyError("edges")

    traced = tracer.wrap("graph.renamed", lambda *a: 42, broken_counter)
    assert traced(1, 2) == 42
    assert tracer.absent[-1] == "graph.renamed counter (KeyError)"
    assert [s[0] for s in tracer.spans] == ["graph.renamed"]


def test_self_times_add_up():
    doc = {
        "spans": [["cli.main", None, 0.0, 10.0], ["graph.load_graph", 0, 1.0, 5.0],
                  ["graph.build_graph", 1, 2.0, 4.0], ["nip.nip_scores", 0, 6.0, 7.5]],
        "counts": {},
    }
    metrics = run.span_metrics(doc)
    assert metrics["cli.self_s"] == 4.5
    assert metrics["graph.self_s"] == 4.0 and metrics["graph.build_graph.s"] == 2.0
    assert sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS) == metrics["cli.main.s"]


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75)
    assert run.tail(values[:5]) == (4.0, 100)


def test_timings_are_scaled_by_the_probes_around_them():
    ref = run.REFERENCE_PROBE_S
    assert run.at_reference_speed([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # A host at half speed doubles every time; scaling takes that out.
    assert run.at_reference_speed([2.0, 4.0], [2 * ref, 2 * ref, 2 * ref]) == [1.0, 2.0]
    # The speed during a command is taken from the mean of its two probes.
    assert run.at_reference_speed([1.5], [ref, 2 * ref]) == pytest.approx([1.0])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_command_line_contract(tmp_path):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "congen_erase",
            "--seed", "5", "--seconds", "0.1", "--trace", "0", "--size", "tiny",
            "--cache-dir", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "nip_dense", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_failing_program_is_counted_and_the_run_ends(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "nip_dense", ["nip", "no_such_file.txt"])
    with tiny_run(tmp_path, "nip_dense") as r:
        metrics = r.measure(0.1)
        assert r.failed == r.attempted == run.MIN_SAMPLES + 1
        assert r.failures[0].startswith("exit code 1")
        assert all(math.isfinite(v) for v in metrics.values())


def test_peak_rss_is_the_commands_own(tmp_path):
    ballast = np.ones(160 * 2**20 // 8)  # this process now peaks above 160 MB
    with tiny_run(tmp_path, "nip_dense") as r:
        _, rss, code = r.launcher.spawn([sys.executable, "-c", "pass"], r.entry)
    del ballast
    assert code == 0 and rss < 64

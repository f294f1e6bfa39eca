"""Benchmark of the ``netpatrimony`` CLI on seeded synthetic graphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Each operation is one real CLI command in a fresh process,
sent by a single client in a closed loop (the next command starts when the
previous one has exited), always with ``--worker-count 1``.

A run generates (or reuses) the workload's input, times a fresh
``import netpatrimony.cli`` several times (``setup_s``), runs one untimed
warm-up command whose outputs must pass the independent checks in
``gate.py`` (and match ``golden.json`` at the default seed), and then runs
commands for ``--seconds``.  Every timed command must exit 0 and write the
same bytes as the warm-up, or it counts as failed.

On a shared host the speed of the CPU can drift by tens of percent over tens
of seconds, which moves every command's time with it.  So each timed process (command or import) is
bracketed by runs of the fixed ``probe.py``, and the end-to-end timings are
reported at reference speed: each sample's wall time is multiplied by
``REFERENCE_PROBE_S`` over the mean wall time of the two probes around it.
A program that gets 10% faster reports 10% less at any host speed.  The
unscaled medians are printed on the human-readable lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced commands with commands run under ``tracing.py`` and reports the
per-layer metrics of the traced command with the median ``cli.main`` time,
so its self times add up to its ``cli.main.s``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import gate
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_SAMPLES = 9
# The probe's typical wall time on the reference host (2 vCPU Xeon,
# Python 3.11, numpy 2.4), so scaled timings read close to unscaled ones.
REFERENCE_PROBE_S = 0.4
# The tail latency is the highest percentile with at least ten samples
# beyond it, so a run needs more than ten.
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND
COMMAND_TIMEOUT_S = 60

OUT_DIR = "out"
SPANS_FILE = "spans.json"
STDERR_FILE = "stderr.txt"
COMMON_ARGS = ["--output-dir", OUT_DIR, "--worker-count", "1"]

#: CLI arguments of each workload; input file names are relative to the
#: input's cache entry, which is the command's working directory.
WORKLOADS = {
    "nip_dense": ["nip", inputs.EDGE_FILE, "--mode", "SIMPLE"],
    "report_sparse": ["report", "--both-modes", inputs.EDGE_FILE],
    "congen_erase": ["congen", inputs.SPEC_FILE],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics taken from the spans of one traced command.
SPAN_SECONDS = (
    "graph.build_graph",
    "graph.load_edge_file",
    "graph.edge_dump_lines",
    "graph.degree_stats",
    "metrics.knn_profile",
    "metrics.knn_node",
    "metrics.knn_class",
    "metrics.assortativity",
    "parallel.row_sums",
    "nip.nip_scores",
    "nip.classify_performers",
    "congen.sample_degree_sequence",
    "cli.main",
)
SPAN_CALLS = (
    "graph.build_graph",
    "graph.load_edge_file",
    "parallel.row_sums",
    "nip.nip_node_correlated",
)
SPAN_SELF = ("graph.write_edge_dump", "congen.generate")
LAYERS = ("graph", "metrics", "parallel", "nip", "congen", "cli")
COUNTERS = (
    ("graph.build_graph.pairs_in", "count"),
    ("graph.input_bytes", "bytes"),
    ("graph.dump_bytes", "bytes"),
    ("parallel.row_sums.entries", "count"),
    ("congen.attempts", "count"),
)

PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **dict(COUNTERS),
    "graph.edge_keep_ratio": "ratio",
    "congen.erased_ratio": "ratio",
    "cli.load_graph.calls": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Launcher:
    """Runs child processes through ``launcher.py`` (see there for why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )

    def spawn(self, argv: list[str], cwd: Path, stdout: Path | None = None) -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
        request = {
            "argv": argv,
            "cwd": str(cwd),
            "stdout": str(stdout) if stdout else None,
            "stderr": str(cwd / STDERR_FILE),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["wall"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(values: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def at_reference_speed(walls: list[float], probes: list[float]) -> list[float]:
    """Scale ``walls[i]`` by the probes before and after it, ``probes[i]``
    and ``probes[i + 1]``, to the host speed where a probe takes
    ``REFERENCE_PROBE_S``."""
    return [w * 2 * REFERENCE_PROBE_S / (a + b) for w, a, b in zip(walls, probes, probes[1:])]


def span_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans and counters."""
    spans, counts = doc["spans"], doc["counts"]
    duration = [end - start for _, _, start, end in spans]
    own = list(duration)
    for (_, parent, _, _), d in zip(spans, duration):
        if parent is not None:
            own[parent] -= d
    total, own_total, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, *_), d, o in zip(spans, duration, own):
        total[name] += d
        own_total[name] += o
        own_total[name.split(".")[0]] += o
        calls[name] += 1

    pairs = counts.get("graph.build_graph.pairs_in", 0)
    stubs = counts.get("congen.stub_pairs", 0)
    return {
        **{f"{name}.s": total[name] for name in SPAN_SECONDS},
        **{f"{name}.calls": calls[name] for name in SPAN_CALLS},
        **{f"{name}.self_s": own_total[name] for name in SPAN_SELF + LAYERS},
        **{name: counts.get(name, 0) for name, _ in COUNTERS},
        "graph.edge_keep_ratio": counts.get("graph.build_graph.edges_out", 0) / pairs if pairs else 0.0,
        "congen.erased_ratio": counts.get("congen.erased_edges", 0) / stubs if stubs else 0.0,
        "cli.load_graph.calls": calls["graph.load_graph"],
    }


def rounds(seconds: float, at_least: int):
    """Yield until ``seconds`` have passed and ``at_least`` rounds ran."""
    deadline = time.perf_counter() + seconds
    done = 0
    while time.perf_counter() < deadline or done < at_least:
        yield done
        done += 1


class Run:
    """One benchmark run of one workload; close it to stop its launcher."""

    def __init__(self, workload: str, seed: int, size: str, cache: Path):
        self.workload, self.seed, self.size = workload, seed, size
        self.entry, self.gen_s = inputs.ensure_input(cache, size, workload, seed)
        self.oracle, self.arrays = inputs.load_oracle(self.entry)
        self.launcher = Launcher()
        self.out = self.entry / OUT_DIR
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}
        self.unscaled: dict[str, float] = {}

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.close()

    def _argv(self, traced: bool) -> list[str]:
        head = [str(HERE / "tracing.py"), SPANS_FILE] if traced else ["-m", "netpatrimony.cli"]
        return [sys.executable, *head, *WORKLOADS[self.workload], *COMMON_ARGS]

    def _execute(self, traced: bool) -> tuple[float, float, list[str]]:
        """Run one CLI command into a fresh output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        wall, rss, code = self.launcher.spawn(self._argv(traced), self.entry, self.out / gate.STDOUT_FILE)
        self.attempted += 1
        if code == 0:
            return wall, rss, []
        err = (self.entry / STDERR_FILE).read_text(errors="replace").strip()
        return wall, rss, [f"exit code {code}: {err[-300:]}"]

    def _record(self, problems: list[str]) -> bool:
        self.failures += problems
        self.failed += bool(problems)
        return not problems

    def command(self, traced: bool = False) -> tuple[float, float, bool]:
        """Run one timed command; it must write the warm-up's bytes."""
        wall, rss, problems = self._execute(traced)
        if not problems:
            problems = gate.compare_hashes(self.reference, gate.output_hashes(self.out), "rerun")
        return wall, rss, self._record(problems)

    def warm_up(self) -> list[str]:
        """First command: fills caches and sets the reference output bytes.

        Its outputs go through the independent checks, and through the
        golden hashes at the default seed.
        """
        _, _, problems = self._execute(False)
        if not problems:
            problems = gate.check_outputs(self.workload, self.out, self.oracle, self.arrays)
            self.reference = gate.output_hashes(self.out)
            golden = gate.golden_hashes(self.size, self.workload)
            if self.seed == DEFAULT_SEED and golden is not None:
                problems += gate.compare_hashes(golden, self.reference, "golden")
        self._record(problems)
        return problems

    def probe(self) -> float:
        """Wall seconds of one run of ``probe.py``."""
        wall, _, code = self.launcher.spawn([sys.executable, str(HERE / "probe.py")], self.entry)
        if code != 0:
            raise RuntimeError(f"probe.py exited with code {code}")
        return wall

    def setup_seconds(self) -> float:
        argv = [sys.executable, "-c", "import netpatrimony.cli"]
        self.launcher.spawn(argv, self.entry)  # compiles bytecode on a fresh checkout
        walls, probes = [], [self.probe()]
        for _ in range(SETUP_SAMPLES):
            walls.append(self.launcher.spawn(argv, self.entry)[0])
            probes.append(self.probe())
        self.unscaled["setup_s"] = statistics.median(walls)
        return statistics.median(at_reference_speed(walls, probes))

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    def measure(self, seconds: float) -> dict[str, float]:
        setup_s = self.setup_seconds()
        self.warm_up()
        runs, probes = [], [self.probe()]
        for _ in rounds(seconds, MIN_SAMPLES):
            runs.append(self.command())
            probes.append(self.probe())
        raw = [wall for wall, _, _ in runs]
        rows = [(s, r, rss, ok) for s, r, (_, rss, ok) in zip(at_reference_speed(raw, probes), raw, runs)]
        # Failed commands are counted, not timed; keep all if none passed.
        timed = [row for row in rows if row[3]] or rows
        walls = [wall for wall, _, _, _ in timed]
        wall_s = statistics.median(walls)
        tail_s, self.tail_pct = tail(walls)
        self.samples = len(walls)
        self.unscaled["wall_s"] = statistics.median(r for _, r, _, _ in timed)
        self.unscaled["probe_s"] = statistics.median(probes)
        return {
            "wall_s": wall_s,
            "wall_tail_s": tail_s,
            "edges_per_s": inputs.edge_count(self.oracle) / wall_s,
            "peak_rss_mb": statistics.median(rss for _, _, rss, _ in timed),
            "setup_s": setup_s,
        }

    def measure_traced(self, seconds: float) -> dict[str, float]:
        self.warm_up()
        plain, traced, docs = [], [], []
        for _ in rounds(seconds, MIN_SAMPLES // 2):
            wall, _, ok = self.command()
            if ok:
                plain.append(wall)
            wall, _, ok = self.command(traced=True)
            if ok:
                traced.append(wall)
                doc = json.loads((self.entry / SPANS_FILE).read_text())
                doc["output_bytes"] = self.output_bytes()
                docs.append(doc)
        self.samples, self.absent = len(docs), []
        if not (docs and plain):
            return dict.fromkeys(PER_LAYER_UNITS, 0.0)
        per_command = [span_metrics(doc) for doc in docs]
        order = sorted(range(len(docs)), key=lambda i: per_command[i]["cli.main.s"])
        pick = order[(len(order) - 1) // 2]
        self.absent = docs[pick]["absent"]
        metrics = per_command[pick]
        metrics["cli.output_bytes"] = docs[pick]["output_bytes"]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics


def machine_info() -> dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=sorted(inputs.SIZES), default="bench")
    p.add_argument("--cache-dir", type=Path, default=ROOT / ".bench_cache")
    p.add_argument(
        "--write-golden",
        action="store_true",
        help="record the warm-up's output hashes in golden.json (default seed only)",
    )
    return p.parse_args(argv)


def execute(run: Run, args: argparse.Namespace) -> int:
    """Run the requested mode and print its report; returns the exit code."""
    shape = inputs.SIZES[args.size][args.workload]
    print(f"workload {args.workload}  size {args.size} {shape}  seed {args.seed}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine_info().items()))
    print(f"input    {run.entry}  gen_s={run.gen_s:.3f}  oracle={run.oracle}")

    if args.write_golden:
        if args.seed != DEFAULT_SEED:
            print(f"error: golden hashes are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
            return 1
        problems = run.warm_up()
        if problems:
            print("error: outputs fail the gate:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        gate.record_golden(args.size, args.workload, run.reference)
        print(f"recorded {len(run.reference)} hashes in {gate.GOLDEN_FILE}")
        return 0

    if args.trace:
        metrics, units = run.measure_traced(args.seconds), PER_LAYER_UNITS
        print(f"traced   {run.samples} traced commands; absent: {run.absent or 'none'}")
    else:
        metrics, units = run.measure(args.seconds), END_TO_END_UNITS
        print(
            f"samples  {run.samples} timed commands; wall_tail_s is "
            f"p{run.tail_pct} ({TAIL_BEYOND} samples beyond it); timings at reference speed"
        )
        print("unscaled " + "  ".join(f"{k}={v:.6g}" for k, v in run.unscaled.items()))
    failed = run.failed
    print(f"{'fail_ratio':<32} {failed / run.attempted:.6g} ratio ({failed}/{run.attempted})")
    for problem in run.failures[:10]:
        print(f"  FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:.6g} {units[name]}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netpatrimony" / "cli.py").is_file():
        print(f"error: no netpatrimony sources under {SRC}", file=sys.stderr)
        return 2
    with Run(args.workload, args.seed, args.size, args.cache_dir) as run:
        return execute(run, args)


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate for the benchmark's CLI outputs.

Two checks, neither of which imports ``netpatrimony``:

* ``check_outputs`` compares one command's output files with the oracle
  values ``inputs`` stored next to the input (node and edge counts from an
  independent sort-based dedup, per-node degrees and neighbour degrees,
  report consistency, and ``m + erased_edges == stubs / 2`` for congen).
* ``output_hashes`` fingerprints every output file, so each later command
  in a run is checked for byte equality with the first, and the first is
  checked against ``golden.json`` at the default seed.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_FILE = Path(__file__).with_name("golden.json")
STDOUT_FILE = "stdout.txt"

# CSV floats are written with 6 significant digits.
_CSV_RTOL = 1e-5
_CLASSES = {"OVER", "UNDER", "AT_PAR", "UNDEFINED"}


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def golden_hashes(size: str, workload: str) -> dict[str, str] | None:
    """Recorded hashes at the default seed, or None when none are recorded."""
    if not GOLDEN_FILE.is_file():
        return None
    return json.loads(GOLDEN_FILE.read_text()).get(size, {}).get(workload)


def record_golden(size: str, workload: str, hashes: dict[str, str]) -> None:
    data = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.is_file() else {}
    data.setdefault(size, {})[workload] = hashes
    GOLDEN_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def compare_hashes(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    if expected == actual:
        return []
    changed = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    return [f"{what}: output bytes differ in {', '.join(changed)}"]


def _close(x: float, y: float, rtol: float = _CSV_RTOL) -> bool:
    return math.isclose(x, y, rel_tol=rtol)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_nip(out: Path, oracle: dict, arrays: dict) -> list[str]:
    problems = []
    n, m = oracle["n"], oracle["m_simple"]
    summary = json.loads((out / "summary.json").read_text())
    if (summary["n"], summary["m"]) != (n, m):
        problems.append(f"summary.json n, m = {summary['n']}, {summary['m']}; expected {n}, {m}")
    expected_nip = 1.0 + oracle["simple_degree_square_sum"] / oracle["simple_degree_sum"]
    if not _close(summary["nip_network"], expected_nip, 1e-12):
        problems.append(f"nip_network {summary['nip_network']} != {expected_nip}")

    header, rows = _read_csv(out / "nip_node.csv")
    if header[:2] != ["node_label", "degree"] or len(header) != 8:
        return problems + [f"nip_node.csv has unexpected header {header}"]
    if len(rows) != n:
        return problems + [f"nip_node.csv has {len(rows)} rows; expected n = {n}"]
    labels = np.array([int(r[0]) for r in rows], dtype=np.int64)
    order = np.argsort(labels)
    if not np.array_equal(labels[order], arrays["labels"]):
        return problems + ["nip_node.csv labels differ from the input's node set"]
    degree = np.array([int(r[1]) for r in rows], dtype=np.int64)[order]
    if not np.array_equal(degree, arrays["degree"]):
        problems.append("nip_node.csv degrees differ from the independent dedup")
    knn = np.array([float(r[2]) if r[2] else math.nan for r in rows])[order]
    nip = np.array([float(r[4]) for r in rows])[order]
    live = degree > 0
    want_knn = arrays["nbr_sum"][live] / degree[live]
    if not np.allclose(knn[live], want_knn, rtol=_CSV_RTOL, atol=0):
        problems.append("nip_node.csv knn_i differs from the independent row sums")
    want_nip = degree[live] / (2 * m) * (1.0 + want_knn)
    if not np.allclose(nip[live], want_nip, rtol=_CSV_RTOL, atol=0):
        problems.append("nip_node.csv nip differs from d/2m * (1 + knn_i)")
    classes = {r[6] for r in rows}
    if not classes <= _CLASSES:
        problems.append(f"nip_node.csv has unknown classes {sorted(classes - _CLASSES)}")

    _, class_rows = _read_csv(out / "nip_class.csv")
    if sum(int(r[1]) for r in class_rows) != int(live.sum()):
        problems.append("nip_class.csv class sizes do not cover the non-isolated nodes")
    return problems


def _check_report(out: Path, oracle: dict) -> list[str]:
    header, rows = _read_csv(out / "report.csv")
    table = [dict(zip(header, r)) for r in rows]
    if [r.get("mode") for r in table] != ["RAW_MULTISET", "SIMPLE"]:
        return [f"report.csv rows are {[r.get('mode') for r in table]}; expected both modes"]
    problems = []
    expected = {
        "RAW_MULTISET": (oracle["lines"], oracle["raw_degree_square_sum"]),
        "SIMPLE": (oracle["m_simple"], oracle["simple_degree_square_sum"]),
    }
    n = oracle["n"]
    for row in table:
        m, square_sum = expected[row["mode"]]
        if (int(row["n"]), int(row["m"])) != (n, m):
            problems.append(f"report {row['mode']}: n, m = {row['n']}, {row['m']}; expected {n}, {m}")
        if float(row["consistency"]) != 0.0:
            problems.append(f"report {row['mode']}: consistency {row['consistency']} != 0")
        if not _close(float(row["mean_degree"]), 2 * m / n):
            problems.append(f"report {row['mode']}: mean_degree {row['mean_degree']} != 2m/n")
        if not _close(float(row["mean_square_degree"]), square_sum / n):
            problems.append(f"report {row['mode']}: mean_square_degree {row['mean_square_degree']}")
    return problems


def _check_congen(out: Path, oracle: dict, arrays: dict) -> list[str]:
    meta = json.loads((out / "meta.json").read_text())
    n, m = oracle["n"], meta["m"]
    problems = []
    if meta["n"] != n:
        problems.append(f"meta.json n = {meta['n']}; expected {n}")
    if m + meta.get("erased_edges", -1) != oracle["stub_pairs"]:
        problems.append(
            f"meta.json m + erased_edges = {m} + {meta.get('erased_edges')}; "
            f"expected stubs / 2 = {oracle['stub_pairs']}"
        )
    text = (out / "edges.txt").read_text()
    pairs = np.array(text.split(), dtype=np.int64).reshape(-1, 2)
    if len(pairs) != m:
        return problems + [f"edges.txt has {len(pairs)} edges; meta.json says m = {m}"]
    a, b = pairs[:, 0], pairs[:, 1]
    if ((a < 0) | (a >= n) | (b < 0) | (b >= n)).any():
        return problems + ["edges.txt has labels outside 0..n-1"]
    if (a == b).any():
        problems.append("edges.txt has a self-loop after ERASE")
    key = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    if len(np.unique(key)) != m:
        problems.append("edges.txt has a parallel edge after ERASE")
    if (np.bincount(np.concatenate([a, b]), minlength=n) > arrays["degree"]).any():
        problems.append("edges.txt gives a node more edges than its sampled degree")
    return problems


def check_outputs(workload: str, out: Path, oracle: dict, arrays: dict) -> list[str]:
    """Problems found in one command's outputs; empty when they are correct."""
    try:
        if workload == "nip_dense":
            return _check_nip(out, oracle, arrays)
        if workload == "report_sparse":
            return _check_report(out, oracle)
        return _check_congen(out, oracle, arrays)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

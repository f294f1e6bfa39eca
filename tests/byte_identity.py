"""Byte-identity differential of the command line between two source trees.

    python tests/byte_identity.py --parent <src dir> --change <src dir>

Each case of a fixed, seeded case list runs once per tree, in a fresh
``python -m netpatrimony.cli`` process whose ``PYTHONPATH`` is that tree.
Every run has its own working directory holding the case's inputs, and
takes relative input paths and ``--output-dir out``, so the two sides'
``output_dir`` echoes and error messages agree and nothing is excluded.
Every output file, stdout, stderr and the exit code are compared.

One JSON line is printed: the counts of ``cases``, ``runs`` and compared
output ``files``, and ``mismatches``, each mismatching case with what
differed.  The exit code is 1 on any mismatch.  Both trees are only read;
the inputs are written by this script, so no network and no ``git`` are
needed.  With ``--parent src --change src`` it checks that every command
reruns byte-identically in a fresh process.
"""

from __future__ import annotations

import argparse
import bz2
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SIX_NODE = (Path(__file__).parent / "data" / "six_node.txt").read_bytes()
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def _random_graph(seed: int, labels: str) -> bytes:
    """An edge list of 40 nodes and 160 lines with self-loops, repeated and
    reversed lines, a comment and a blank line; ``labels`` is ``dense``
    (0..39), ``spaced`` (1000 + 97 i) or ``wide`` (uniform 64-bit labels
    with both int64 extremes)."""
    rng = random.Random(seed)
    if labels == "dense":
        nodes = list(range(40))
    elif labels == "spaced":
        nodes = [1000 + 97 * i for i in range(40)]
    else:
        nodes = [rng.randrange(I64_MIN, I64_MAX + 1) for _ in range(38)] + [I64_MIN, I64_MAX]
    lines = ["# seeded test graph", ""]
    for _ in range(160):
        roll = rng.random()
        if roll < 0.1 and len(lines) > 2:
            lines.append(rng.choice(lines[2:]))  # a repeated line
        elif roll < 0.2 and len(lines) > 2:
            lines.append(" ".join(reversed(rng.choice(lines[2:]).split())))
        elif roll < 0.25:
            u = rng.choice(nodes)
            lines.append(f"{u}\t{u}")
        else:
            lines.append(f"{rng.choice(nodes)}\t{rng.choice(nodes)}")
    return ("\n".join(lines) + "\n").encode()


#: Edge files by name; ``missing.txt`` is named by cases but never written.
EDGE_FILES = {
    "six_node.txt": SIX_NODE,
    "ring.txt": b"1 2\n2 3\n3 4\n4 1\n",
    "loops.txt": b"1 1\n2 2\n",
    "multigraph.txt": b"1 2\n1 2\n2 1\n2 3\n3 3\n3 4\n4 1\n1 4\n1 4\n",
    "empty.txt": b"",
    "malformed.txt": b"1 2\n2 x\n",
    "dense.txt": _random_graph(1, "dense"),
    "spaced.txt": _random_graph(2, "spaced"),
    "wide.txt": _random_graph(3, "wide"),
}
EDGE_INPUTS = [*EDGE_FILES, "missing.txt"]

#: congen specs by name, each with the policy its case name carries.
SPECS = {
    "erase": {
        "source": "POWERLAW",
        "params": {"exponent": 2.5, "min_degree": 1, "n": 300},
        "seed": 42,
        "simple_policy": "ERASE",
    },
    "multigraph": {"source": "POISSON", "params": {"mean": 3.0, "n": 200}, "seed": 1},
    # Two leading isolated nodes; REJECT takes 6 attempts at seed 0.
    "reject": {
        "source": "EXPLICIT",
        "params": {"degrees": [0, 0, 3, 3, 2, 2, 2]},
        "simple_policy": "REJECT",
    },
    "reject_exhausted": {
        "source": "EXPLICIT",
        "params": {"degrees": [0, 0, 3, 3, 2, 2, 2]},
        "simple_policy": "REJECT",
        "max_attempts": 2,
    },
    "not_graphical": {
        "source": "EXPLICIT",
        "params": {"degrees": [3, 3, 1, 1]},
        "simple_policy": "REJECT",
    },
    # A hub of 40,000 stubs: its SIMPLE row (20,022 entries at seed 3) is longer than
    # a row block of 16,384 entries, and the SIMPLE derive and the dump span 4 blocks.
    "star": {
        "source": "EXPLICIT",
        "params": {"degrees": [40_000] + [1] * 40_000},
        "seed": 3,
        "simple_policy": "ERASE",
    },
    # Every draw is 1, so no redraw makes n = 3 degrees even: exit 2.
    "parity_exhausted": {
        "source": "POWERLAW",
        "params": {"exponent": 50, "min_degree": 1, "n": 3},
    },
}
SPEC_FILES = {f"{name}.json": json.dumps(spec).encode() for name, spec in SPECS.items()}

OUT = ["--output-dir", "out"]


def full_cases() -> dict[str, list[str]]:
    """The case list: each case's name and its command-line arguments."""
    cases = {}
    for name in EDGE_INPUTS:
        stem = name.split(".")[0]
        for command in ("stats", "knn", "nip"):
            for mode in ("SIMPLE", "RAW_MULTISET"):
                cases[f"{command}-{stem}-{mode}"] = [command, name, "--mode", mode, *OUT]
        cases[f"nip-{stem}-scale_raw"] = ["nip", name, "--scale", "RAW", *OUT]
        cases[f"nip-{stem}-tolerance_0"] = ["nip", name, "--tolerance", "0", *OUT]
        cases[f"stats-{stem}-half"] = ["stats", name, "--density-convention", "HALF", *OUT]
        cases[f"report-{stem}"] = ["report", name, *OUT]
        cases[f"report-{stem}-both_modes"] = ["report", name, "--both-modes", *OUT]
    # Every readable input, and a compressed one; a malformed file fails the whole report.
    everything = [*(name for name in EDGE_INPUTS if name != "malformed.txt"), "dense.txt.bz2"]
    cases["report-all-both_modes"] = ["report", *everything, "--both-modes", *OUT]
    cases["report-all-stdout"] = ["report", *everything]
    cases["report-missing-stdout"] = ["report", "missing.txt"]  # exit 3
    # The --mode row first, then the other; the multigraph's two rows differ.
    cases["report-multigraph-both_modes_simple"] = [
        "report", "multigraph.txt", "--both-modes", "--mode", "SIMPLE", *OUT
    ]
    for spec in SPECS:
        cases[f"congen-{spec}"] = ["congen", f"{spec}.json", *OUT]
    cases["congen-multigraph-seed_9"] = ["congen", "multigraph.json", "--seed", "9", *OUT]
    return cases


def _inputs() -> dict[str, bytes]:
    compressed = {"dense.txt.bz2": bz2.compress(EDGE_FILES["dense.txt"])}
    return {**EDGE_FILES, **compressed, **SPEC_FILES}


def _run(src: Path, argv: list[str], workdir: Path, inputs: dict[str, bytes]) -> dict:
    """Run one command from ``src`` in a new ``workdir`` holding ``inputs``;
    its exit code, stdout, stderr and every file it wrote, by path."""
    workdir.mkdir(parents=True)
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    proc = subprocess.run(
        [sys.executable, "-m", "netpatrimony.cli", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        timeout=300,
    )
    result = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(workdir.rglob("*")):
        name = path.relative_to(workdir).as_posix()
        if path.is_file() and name not in inputs:
            result[name] = path.read_bytes()
    return result


def compare(parent: Path, change: Path, cases: dict[str, list[str]], workdir: Path) -> dict:
    """Run every case from both trees under ``workdir``; the counts and the
    mismatches, as the script prints them."""
    inputs = _inputs()
    files = 0
    mismatches = {}
    for name, argv in cases.items():
        before = _run(parent, argv, workdir / "parent" / name, inputs)
        after = _run(change, argv, workdir / "change" / name, inputs)
        keys = sorted(before.keys() | after.keys())
        files += len(keys) - 3  # exit code, stdout and stderr are not files
        differ = [key for key in keys if before.get(key) != after.get(key)]
        if differ:
            mismatches[name] = differ
    return {"cases": len(cases), "runs": 2 * len(cases), "files": files, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree holding netpatrimony/")
    parser.add_argument("--change", type=Path, required=True, help="source tree holding netpatrimony/")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        result = compare(args.parent, args.change, full_cases(), Path(tmp))
    print(json.dumps(result))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line interface.

Subcommands: ``stats``, ``knn``, ``nip`` (analysis of one edge-list file),
``congen`` (graph generation from a JSON spec), ``report`` (summary table
for several datasets with diffs against the embedded reference values).

Exit codes: 0 success, 1 input error (missing/malformed files, bad
configuration), 2 computation error, 3 report produced no computed rows.

Every run writes ``run_config.json`` echoing the effective configuration
next to its outputs; no output embeds timestamps, so reruns with equal
inputs are byte-identical.  Each command takes only the options it reads,
but ``run_config.json`` and ``summary.json`` echo ``density_convention``,
``scale`` and ``tolerance`` at their defaults where a command takes none.
``summary.json`` and each computed ``report`` row take their network-level
numbers from one routine, ``_summary``.

A CLI process enters through ``run``, which freezes the garbage collector's
objects once ``main`` returns, so interpreter shutdown does not collect them
again; ``main`` called in-process does not freeze.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import graph, metrics, nip
from .graph import (
    DENSITY_CONVENTIONS,
    MODES,
    RAW_MULTISET,
    SIMPLE,
    TABLE1,
    Graph,
    degree_stats,
    load_graph,
    write_edge_dump,
)

REPORT_METRICS = (
    "n",
    "m",
    "density",
    "mean_degree",
    "mean_square_degree",
    "variance",
    "assortativity",
    "nip_network",
)
_REPORT_COLUMNS = ["dataset", "mode", "status", *REPORT_METRICS, "consistency"]
_DIFF_COLUMNS = [f"diff_{key}" for key in REPORT_METRICS]


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors (exit 1), not computation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _fmt(value) -> str:
    """CSV cell: %.6g for floats, empty for NaN and None, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".6g")
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _quote(cell: str) -> str:
    """A cell as ``csv.QUOTE_MINIMAL`` writes it, inner quotes doubled."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell_table(column) -> tuple[np.ndarray, np.ndarray | None]:
    """A column's CSV cells as a NUL-padded ``S`` array of UTF-8 bytes and
    each row's code in it (None: row i is cell i).  A column is a numpy array,
    a list, or ``(values, codes)`` with row i ``values[codes[i]]``.  Each
    distinct float bit pattern is formatted once (so ``-0.0`` keeps its sign
    and NaN is empty), integers by ``graph._label_text``, the rest by cell."""
    if isinstance(column, tuple):
        cells, inner = _cell_table(column[0])
        return (cells if inner is None else cells[inner]), column[1]
    if isinstance(column, np.ndarray) and column.dtype.kind == "i":
        text, w = graph._label_text(column.astype(np.int64, copy=False))
        return text[:, :w].view(f"S{w}")[:, 0], None
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        bits, codes = np.unique(column.view(np.int64), return_inverse=True)
        cells = np.array(list(map("%.6g".__mod__, bits.view(float).tolist())), dtype="S")
        cells[np.isnan(bits.view(float))] = b""  # as _fmt gives a NaN
        return cells, codes
    return np.array([_quote(_fmt(x)).encode() for x in column], dtype="S"), None


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (see ``_cell_table``) under ``header`` in
    the bytes ``csv.writer`` writes: CRLF line ends, minimal quoting."""
    tables = [_cell_table(col) for col in columns]
    rows = max(len(cells if codes is None else codes) for cells, codes in tables)

    def gather(lo: int, hi: int) -> list[np.ndarray]:
        return [cells[lo:hi] if codes is None else cells[codes[lo:hi]] for cells, codes in tables]

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        graph._write_rows(fh, [cells.itemsize for cells, _ in tables], rows, gather, b",", b"\r\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_config(args, outdir: Path, inputs: list, mode: str, seed=None) -> None:
    """Echo the effective configuration of this run to run_config.json."""
    config = {
        "command": args.command,
        "input_paths": [str(p) for p in inputs],
        "mode": mode,
        "density_convention": args.density_convention,
        "scale": args.scale,
        "output_dir": args.output_dir,
        "seed": seed,
        "tolerance": args.tolerance,
        "worker_count": args.worker_count,
    }
    _write_json(outdir / "run_config.json", config)


def _ensure_outdir(args) -> Path:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _worker_count(text: str) -> int:
    """``--worker-count``: an integer >= 1, echoed in run_config.json only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"worker count must be an integer >= 1, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"worker count must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        return nip.check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_class_table(path: Path, g: Graph, column: str, class_means: dict[int, float]) -> None:
    """A per-degree-class table: each class's ``d`` and ``N_d`` from
    ``g.class_totals``, which ``class_means`` was computed from in the same
    ascending order, then its mean under ``column``."""
    table = np.array(g.class_totals, dtype=np.int64).reshape(-1, 3)
    means = np.fromiter(class_means.values(), dtype=float, count=len(class_means))
    _write_csv(path, ["degree", "class_size", column], [table[:, 0], table[:, 1], means])


_NODE_HEADER = ["node_label", "degree", "knn_i"]


def _node_columns(g: Graph, profile: metrics.KnnProfile) -> tuple[np.ndarray, list]:
    """The table by degree that degree-valued cells come from, and the
    ``_NODE_HEADER`` columns that open knn_node.csv and nip_node.csv."""
    degree = np.arange(g.degrees.max(initial=0) + 1)
    return degree, [g.node_labels, (degree, g.degrees), profile.knn_node]


def _summary(g: Graph, density_convention: str) -> dict:
    """The network-level measures of one graph: summary.json's metrics and
    the computed columns of a report row.  The three that need an edge are
    None on a graph without edges."""
    # Looked up on the modules, so the benchmark's tracing hooks see them.
    stats = degree_stats(g, density_convention=density_convention)
    edged = g.edge_count > 0
    return {
        "n": stats.node_count,
        "m": stats.edge_count,
        "mean_degree": stats.mean_degree,
        "mean_square_degree": stats.mean_square_degree,
        "variance": stats.variance,
        "density": stats.density,
        "density_convention": stats.density_convention,
        "knn_global": metrics.knn_global(stats) if edged else None,
        "assortativity": metrics.assortativity(g) if edged else None,
        "nip_network": nip.nip_network(stats) if edged else None,
    }


def _analyse(args) -> tuple[Path, Graph, metrics.KnnProfile | None]:
    """Shared head of ``stats``/``knn``/``nip``: load the graph, take its
    network-level measures and, for ``knn``/``nip``, its neighbour-degree
    profile, then write summary.json and run_config.json."""
    g = load_graph(args.input, mode=args.mode)
    profile = None if args.command == "stats" else metrics.knn_profile(g)
    summary = _summary(g, args.density_convention)
    outdir = _ensure_outdir(args)
    summary = {key: _json_safe(value) for key, value in summary.items()}
    _write_json(outdir / "summary.json", {**summary, "scale": args.scale, "mode": args.mode})
    _write_run_config(args, outdir, [args.input], args.mode)
    return outdir, g, profile


def cmd_stats(args) -> int:
    outdir, g, _ = _analyse(args)
    counts = np.bincount(g.degrees)
    occurring = np.flatnonzero(counts)
    _write_csv(outdir / "degree_dist.csv", ["degree", "count"], [occurring, counts[occurring]])
    return 0


def cmd_knn(args) -> int:
    outdir, g, profile = _analyse(args)
    _write_csv(outdir / "knn_node.csv", _NODE_HEADER, _node_columns(g, profile)[1])
    _write_class_table(outdir / "knn_class.csv", g, "knn_d", profile.knn_class)
    return 0


def cmd_nip(args) -> int:
    outdir, g, profile = _analyse(args)
    scores = nip.nip_scores(g, scale=args.scale, tolerance=args.tolerance)
    degree, node_columns = _node_columns(g, profile)
    _write_csv(
        outdir / "nip_node.csv",
        [*_NODE_HEADER, "ip", "nip", "class_nip", "classification", "scale"],
        [
            *node_columns,
            (degree / (2 * g.edge_count), g.degrees),
            scores.nip_node,
            (nip.node_class_means(scores.nip_class, degree), g.degrees),
            (list(nip.CLASSES), scores.classification),
            ([args.scale], np.broadcast_to(np.int8(0), g.node_count)),
        ],
    )
    _write_class_table(outdir / "nip_class.csv", g, "nip_d", scores.nip_class)
    return 0


def cmd_congen(args) -> int:
    from . import congen as cg  # imported by ``congen`` alone

    spec_path = Path(args.spec)
    spec = cg.DegreeSequenceSpec.from_json(spec_path.read_text(encoding="utf-8"))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    sequence = cg.sample_degree_sequence(spec)
    # Under REJECT, fail fast with a diagnosis instead of burning shuffle attempts.
    if spec.simple_policy == cg.REJECT and (k := cg.first_violated_prefix(sequence)) is not None:
        raise ValueError(
            f"sequence is not graphical; the top-{k} prefix of the "
            "sorted sequence already exceeds its available endpoints"
        )
    g, info = cg.generate(
        sequence,
        seed=spec.seed,
        simple_policy=spec.simple_policy,
        max_attempts=spec.max_attempts,
    )
    outdir = _ensure_outdir(args)
    write_edge_dump(g, outdir / "edges.txt")
    # generate's record fills the rng and attempts slots; any other key it
    # records follows mode.
    slots = {"spec": spec.to_dict(), "rng": None, "attempts": None}
    slots.update(n=g.node_count, m=g.edge_count, mode=g.mode)
    _write_json(outdir / "meta.json", {**slots, **info})
    _write_run_config(args, outdir, [spec_path], g.mode, seed=spec.seed)
    return 0


def _report_rows(path: Path, modes: list[str], density_convention: str) -> list[dict]:
    """One row per mode for an edge file, parsed and built once; one
    SKIPPED row if the file is missing, and NO_EDGES rows of ``n = m = 0``
    if it holds no edge line.  The dataset is named by the file's stem,
    taken after a compression suffix is stripped."""
    base = path.with_suffix("") if path.suffix in graph._DECOMPRESSORS else path
    name = base.stem.lower()
    if not path.is_file():
        return [{"dataset": name, "mode": modes[0], "status": "SKIPPED"}]
    # Looked up on the module, so the benchmark's tracing hooks see them.
    pairs = graph.load_edge_file(path)
    if len(pairs) == 0:
        empty = {"dataset": name, "status": "NO_EDGES", "n": 0, "m": 0}
        return [{**empty, "mode": mode} for mode in modes]
    raw = graph.build_graph(pairs, mode=RAW_MULTISET, overwrite_edges=True)
    graphs = (raw if mode == RAW_MULTISET else graph.simple_graph(raw) for mode in modes)
    return [_report_row(name, g, density_convention) for g in graphs]


def _report_row(name: str, g: Graph, density_convention: str) -> dict:
    from .reference import AMAZON_REFERENCE  # imported by ``report`` alone

    row = {"dataset": name, "mode": g.mode, "status": "OK", **_summary(g, density_convention)}
    if g.edge_count == 0:
        # knn_global, assortativity and nip_network, and so the rest, need an edge.
        return {**row, "status": "NO_EDGES"}
    # nip_network is defined as 1 + knn_global, so this residual is zero by
    # construction; a nonzero value would flag an internal inconsistency.
    row["consistency"] = row["nip_network"] - (1.0 + row["knn_global"])
    ref = AMAZON_REFERENCE.get(name)
    if ref is not None:
        for key in REPORT_METRICS:
            row[f"diff_{key}"] = row[key] - getattr(ref, key)
    else:
        row["status"] = "NO_REFERENCE"
    return row


def _print_table(columns: list[str], rows: list[dict]) -> None:
    """Right-aligned columns with a rule under the header."""
    table = [columns, *([_fmt(row.get(c, "")) for c in columns] for row in rows)]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    print("  ".join(cell.rjust(w) for cell, w in zip(columns, widths)))
    print("  ".join("-" * w for w in widths))
    for line in table[1:]:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


def _print_report_table(rows: list[dict]) -> None:
    _print_table(_REPORT_COLUMNS, rows)
    with_ref = [r for r in rows if "diff_nip_network" in r]
    if with_ref:
        print()
        print("deviation from embedded reference values (computed - reference):")
        _print_table(["dataset", "mode", *_DIFF_COLUMNS], with_ref)


def cmd_report(args) -> int:
    modes = [args.mode, *(m for m in MODES if args.both_modes and m != args.mode)]
    rows = [
        row
        for path in args.inputs
        for row in _report_rows(Path(path), modes, args.density_convention)
    ]
    _print_report_table(rows)
    if args.output_dir is not None:
        outdir = _ensure_outdir(args)
        columns = [*_REPORT_COLUMNS, *_DIFF_COLUMNS]
        _write_csv(
            outdir / "report.csv",
            columns,
            [[row.get(c, "") for row in rows] for c in columns],
        )
        _write_run_config(args, outdir, args.inputs, args.mode)
    if not any(row["status"] != "SKIPPED" for row in rows):
        return 3
    return 0


def _add_common(parser, default_mode=SIMPLE):
    parser.add_argument("--mode", choices=MODES, default=default_mode)
    parser.add_argument(
        "--density-convention", choices=DENSITY_CONVENTIONS, default=TABLE1
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netpatrimony",
        description="Degree correlations and information-patrimony scores of networks.",
        epilog="exit codes: 0 success, 1 input error (missing or malformed file, bad "
        "option or spec), 2 computation error, 3 report computed no row.",
    )
    parser.set_defaults(  # echoed by commands without these options
        density_convention=TABLE1, scale=nip.NORMALIZED, tolerance=nip.DEFAULT_TOLERANCE
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    for name, func, text in (
        ("stats", cmd_stats, "degree moments, density, summary scores"),
        ("knn", cmd_knn, "per-node and per-class neighbour degrees"),
        ("nip", cmd_nip, "per-node patrimony scores and classification"),
    ):
        p_analysis = sub.add_parser(name, help=text)
        p_analysis.add_argument("input")
        p_analysis.add_argument("--output-dir", required=True)
        _add_common(p_analysis)
        if name == "nip":
            p_analysis.add_argument("--scale", choices=nip.SCALES, default=nip.NORMALIZED)
            p_analysis.add_argument("--tolerance", type=_tolerance, default=nip.DEFAULT_TOLERANCE)
        p_analysis.set_defaults(func=func)

    p_congen = sub.add_parser("congen", help="sample a configuration-model graph")
    p_congen.add_argument("spec", help="degree-sequence spec JSON")
    p_congen.add_argument("--output-dir", required=True)
    p_congen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_congen.set_defaults(func=cmd_congen)

    p_report = sub.add_parser(
        "report", help="summary table for several datasets, with reference diffs"
    )
    p_report.add_argument("inputs", nargs="+")
    p_report.add_argument("--output-dir", default=None)
    p_report.add_argument(
        "--both-modes",
        action="store_true",
        help="add rows for the non-default preprocessing mode",
    )
    _add_common(p_report, default_mode=RAW_MULTISET)
    p_report.set_defaults(func=cmd_report)
    for p_command in sub.choices.values():
        p_command.add_argument("--worker-count", type=_worker_count, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # includes parse and config errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # generation/computation failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry: exit with ``main()``'s code.  Every output file is
    closed once ``main`` returns, so all tracked objects are frozen first and
    the collections of interpreter shutdown no longer walk them; exit codes,
    atexit handlers and the flushing of stdout and stderr are unchanged."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

"""Batch command-line interface.

Subcommands: ``stats``, ``knn``, ``nip`` (analysis of one edge-list file),
``congen`` (graph generation from a JSON spec), ``report`` (summary table
for several datasets with diffs against the embedded reference values).

Exit codes: 0 success, 1 input error (missing/malformed files, bad
configuration), 2 computation error, 3 report produced no computed rows.

Every run writes ``run_config.json`` echoing the effective configuration
next to its outputs; no output embeds timestamps, so reruns with equal
inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import congen as cg
from . import graph, metrics, nip
from ._parallel import resolve_workers
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
from .reference import AMAZON_REFERENCE

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


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI run, echoed to run_config.json."""

    command: str
    input_paths: list[str]
    mode: str
    density_convention: str
    scale: str
    output_dir: str | None
    seed: int | None
    tolerance: float
    worker_count: int


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors (exit 1), not computation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _fmt(value) -> str:
    """CSV cell: %.6g for floats, empty for NaN, str otherwise."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".6g")
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


#: Rows formatted per batch by ``_write_csv``; bounds the temporary
#: Python strings alive at once.  Each batch's cells go straight into
#: ``writerows`` so they are freed before the next batch is built.
_CSV_CHUNK = 4096


def _column_cells(column) -> list[str]:
    """CSV cells of one column as ``_fmt`` gives them; arrays are formatted
    in bulk (``"%.6g" %`` equals ``format(x, ".6g")`` and is faster)."""
    if not isinstance(column, np.ndarray):
        return [_fmt(value) for value in column]
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    cells = list(map("%.6g".__mod__, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (numpy arrays or lists) under ``header``."""
    import csv

    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, rows, _CSV_CHUNK):
            writer.writerows(
                zip(*[_column_cells(col[lo : lo + _CSV_CHUNK]) for col in columns])
            )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_config(outdir: Path, cfg: RunConfig) -> None:
    _write_json(outdir / "run_config.json", asdict(cfg))


def _ensure_outdir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _config_from_args(args, command: str, inputs: list[str]) -> RunConfig:
    return RunConfig(
        command=command,
        input_paths=[str(p) for p in inputs],
        mode=args.mode,
        density_convention=args.density_convention,
        scale=args.scale,
        output_dir=args.output_dir,
        seed=getattr(args, "seed", None),
        tolerance=args.tolerance,
        worker_count=resolve_workers(args.worker_count),
    )


def _analysis_summary(stats, knn_g, assort, nip_n, cfg: RunConfig) -> dict:
    return {
        "n": stats.node_count,
        "m": stats.edge_count,
        "mean_degree": stats.mean_degree,
        "mean_square_degree": stats.mean_square_degree,
        "variance": stats.variance,
        "density": stats.density,
        "density_convention": stats.density_convention,
        "knn_global": knn_g,
        "assortativity": _json_safe(assort),
        "nip_network": nip_n,
        "scale": cfg.scale,
        "mode": cfg.mode,
    }


def _load_for_analysis(cfg: RunConfig) -> tuple[Graph, object]:
    g = load_graph(cfg.input_paths[0], mode=cfg.mode)
    return g, degree_stats(g, density_convention=cfg.density_convention)


def _class_columns(g: Graph, class_means: dict[int, float]) -> list[np.ndarray]:
    """Degree, class size and mean columns of a per-degree-class table."""
    degrees = np.fromiter(class_means, dtype=np.int64, count=len(class_means))
    class_sizes = np.bincount(g.degrees)
    values = np.fromiter(class_means.values(), dtype=float, count=len(class_means))
    return [degrees, class_sizes[degrees], values]


def cmd_stats(args) -> int:
    cfg = _config_from_args(args, "stats", [args.input])
    g, stats = _load_for_analysis(cfg)
    knn_g = metrics.knn_global(stats)
    assort = metrics.assortativity(g, workers=cfg.worker_count)
    nip_n = nip.nip_network(stats)
    outdir = _ensure_outdir(cfg)
    _write_json(outdir / "summary.json", _analysis_summary(stats, knn_g, assort, nip_n, cfg))
    _write_csv(
        outdir / "degree_dist.csv",
        ["degree", "count"],
        list(np.unique(g.degrees, return_counts=True)),
    )
    _write_run_config(outdir, cfg)
    return 0


def cmd_knn(args) -> int:
    cfg = _config_from_args(args, "knn", [args.input])
    g, stats = _load_for_analysis(cfg)
    profile = metrics.knn_profile(g, stats=stats, workers=cfg.worker_count)
    nip_n = nip.nip_network(stats)
    outdir = _ensure_outdir(cfg)
    _write_json(
        outdir / "summary.json",
        _analysis_summary(stats, profile.knn_global, profile.assortativity, nip_n, cfg),
    )
    _write_csv(
        outdir / "knn_node.csv",
        ["node_label", "degree", "knn_i"],
        [g.node_labels, g.degrees, profile.knn_node],
    )
    _write_csv(
        outdir / "knn_class.csv",
        ["degree", "class_size", "knn_d"],
        _class_columns(g, profile.knn_class),
    )
    _write_run_config(outdir, cfg)
    return 0


def cmd_nip(args) -> int:
    cfg = _config_from_args(args, "nip", [args.input])
    g, stats = _load_for_analysis(cfg)
    profile = metrics.knn_profile(g, stats=stats, workers=cfg.worker_count)
    scores = nip.nip_scores(
        g,
        scale=cfg.scale,
        tolerance=cfg.tolerance,
        stats=stats,
        knn=profile,
        workers=cfg.worker_count,
    )
    outdir = _ensure_outdir(cfg)
    _write_json(
        outdir / "summary.json",
        _analysis_summary(stats, profile.knn_global, profile.assortativity, scores.nip_network, cfg),
    )
    _write_csv(
        outdir / "nip_node.csv",
        ["node_label", "degree", "knn_i", "ip", "nip", "class_nip", "classification", "scale"],
        [
            g.node_labels,
            g.degrees,
            profile.knn_node,
            scores.ip,
            scores.nip_node,
            nip.node_class_means(scores.nip_class, g.degrees),
            scores.classification,
            np.broadcast_to(np.array(cfg.scale), g.node_count),
        ],
    )
    _write_csv(
        outdir / "nip_class.csv",
        ["degree", "class_size", "nip_d"],
        _class_columns(g, scores.nip_class),
    )
    _write_run_config(outdir, cfg)
    return 0


def cmd_congen(args) -> int:
    spec_path = Path(args.spec)
    spec = cg.DegreeSequenceSpec.from_json(spec_path.read_text(encoding="utf-8"))
    if args.seed is not None:
        spec = cg.DegreeSequenceSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    cfg = RunConfig(
        command="congen",
        input_paths=[str(spec_path)],
        mode=RAW_MULTISET if spec.simple_policy == cg.MULTIGRAPH else SIMPLE,
        density_convention=args.density_convention,
        scale=args.scale,
        output_dir=args.output_dir,
        seed=spec.seed,
        tolerance=args.tolerance,
        worker_count=resolve_workers(args.worker_count),
    )
    sequence = cg.sample_degree_sequence(spec)
    if spec.simple_policy == cg.REJECT:
        # Fail fast with a diagnosis instead of burning shuffle attempts.
        if int(sequence.sum()) % 2:
            print("error: degree sum is odd; no matching exists", file=sys.stderr)
            return 1
        k = cg.first_violated_prefix(sequence)
        if k is not None:
            print(
                f"error: sequence is not graphical; the top-{k} prefix of the "
                "sorted sequence already exceeds its available endpoints",
                file=sys.stderr,
            )
            return 1
    g, info = cg.generate(
        sequence,
        seed=spec.seed,
        simple_policy=spec.simple_policy,
        max_attempts=spec.max_attempts,
    )
    outdir = _ensure_outdir(cfg)
    write_edge_dump(g, outdir / "edges.txt")
    meta = {
        "spec": spec.to_dict(),
        "rng": info["rng"],
        "attempts": info["attempts"],
        "n": g.node_count,
        "m": g.edge_count,
        "mode": g.mode,
    }
    if "erased_edges" in info:
        meta["erased_edges"] = info["erased_edges"]
    _write_json(outdir / "meta.json", meta)
    _write_run_config(outdir, cfg)
    return 0


def _report_rows(name: str, modes: list[str], path: Path, cfg: RunConfig) -> list[dict]:
    """One row per mode for an edge file, parsed once; one SKIPPED row if
    the file is missing."""
    if not path.is_file():
        return [{"dataset": name, "mode": modes[0], "status": "SKIPPED"}]
    # Looked up on the module, so the benchmark's tracing hooks see them.
    edges = graph.load_edge_file(path)
    return [_report_row(name, graph.build_graph(edges, mode=mode), cfg) for mode in modes]


def _report_row(name: str, g: Graph, cfg: RunConfig) -> dict:
    stats = degree_stats(g, density_convention=cfg.density_convention)
    row = {
        "dataset": name,
        "mode": g.mode,
        "status": "OK",
        "n": stats.node_count,
        "m": stats.edge_count,
        "density": stats.density,
        "mean_degree": stats.mean_degree,
        "mean_square_degree": stats.mean_square_degree,
        "variance": stats.variance,
        "assortativity": metrics.assortativity(g, workers=cfg.worker_count),
        "nip_network": nip.nip_network(stats),
    }
    # nip_network is defined as 1 + knn_global, so this residual is zero by
    # construction; a nonzero value would flag an internal inconsistency.
    row["consistency"] = row["nip_network"] - (1.0 + metrics.knn_global(stats))
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
    _print_table(["dataset", "mode", "status", *REPORT_METRICS, "consistency"], rows)
    with_ref = [r for r in rows if "diff_nip_network" in r]
    if with_ref:
        print()
        print("deviation from embedded reference values (computed - reference):")
        _print_table(["dataset", "mode", *[f"diff_{k}" for k in REPORT_METRICS]], with_ref)


def cmd_report(args) -> int:
    cfg = _config_from_args(args, "report", list(args.inputs))
    modes = [cfg.mode] if not args.both_modes else [cfg.mode] + [
        m for m in MODES if m != cfg.mode
    ]
    rows = []
    for raw_path in cfg.input_paths:
        path = Path(raw_path)
        rows += _report_rows(path.stem.lower(), modes, path, cfg)
    _print_report_table(rows)
    if cfg.output_dir is not None:
        outdir = _ensure_outdir(cfg)
        columns = [
            "dataset",
            "mode",
            "status",
            *REPORT_METRICS,
            "consistency",
            *[f"diff_{k}" for k in REPORT_METRICS],
        ]
        _write_csv(
            outdir / "report.csv",
            columns,
            [[row.get(c, "") for row in rows] for c in columns],
        )
        _write_run_config(outdir, cfg)
    if not any(row["status"] != "SKIPPED" for row in rows):
        return 3
    return 0


def _add_common(parser, default_mode=SIMPLE, with_mode=True):
    if with_mode:
        parser.add_argument("--mode", choices=MODES, default=default_mode)
    parser.add_argument(
        "--density-convention", choices=DENSITY_CONVENTIONS, default=TABLE1
    )
    parser.add_argument("--scale", choices=nip.SCALES, default=nip.NORMALIZED)
    parser.add_argument("--tolerance", type=float, default=nip.DEFAULT_TOLERANCE)
    parser.add_argument("--worker-count", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netpatrimony", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_stats = sub.add_parser("stats", help="degree moments, density, summary scores")
    p_stats.add_argument("input")
    p_stats.add_argument("--output-dir", required=True)
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_knn = sub.add_parser("knn", help="per-node and per-class neighbour degrees")
    p_knn.add_argument("input")
    p_knn.add_argument("--output-dir", required=True)
    _add_common(p_knn)
    p_knn.set_defaults(func=cmd_knn)

    p_nip = sub.add_parser("nip", help="per-node patrimony scores and classification")
    p_nip.add_argument("input")
    p_nip.add_argument("--output-dir", required=True)
    _add_common(p_nip)
    p_nip.set_defaults(func=cmd_nip)

    p_congen = sub.add_parser("congen", help="sample a configuration-model graph")
    p_congen.add_argument("spec", help="degree-sequence spec JSON")
    p_congen.add_argument("--output-dir", required=True)
    p_congen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_common(p_congen, with_mode=False)  # mode follows the simple policy
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


if __name__ == "__main__":
    sys.exit(main())

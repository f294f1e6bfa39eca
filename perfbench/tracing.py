"""Traced CLI run: wraps the library functions the CLI calls and records spans.

Run as ``python3 perfbench/tracing.py SPANS_JSON CLI_ARGS...`` with
``netpatrimony`` importable.  Before calling ``netpatrimony.cli.main`` it
replaces each target in ``HOOKS`` (at the module attribute the caller looks
up) with a wrapper that records a span ``[name, parent, start, end]`` and
updates counters.  Spans stay in memory and are written to SPANS_JSON when
the command ends, with the CLI's exit code as this process's exit code.

A target that is missing or not callable is listed under ``absent`` and
its span is simply never recorded; a counter that cannot read its
arguments is listed the same way.  Neither stops the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import runpy
import sys
import time
from collections import Counter


def _pairs_in(counts, args, kwargs, result):
    edges = args[0] if args else kwargs["edges"]
    counts["graph.build_graph.pairs_in"] += len(edges)
    counts["graph.build_graph.edges_out"] += result.edge_count


def _input_bytes(counts, args, kwargs, result):
    counts["graph.input_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _dump_bytes(counts, args, kwargs, result):
    counts["graph.dump_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _generate_counts(counts, args, kwargs, result):
    degrees = args[0] if args else kwargs["degrees"]
    info = result[1]
    counts["congen.attempts"] += info["attempts"]
    counts["congen.erased_edges"] += info.get("erased_edges", 0)
    counts["congen.stub_pairs"] += int(sum(degrees)) // 2


def _row_entries(counts, args, kwargs, result):
    indptr = args[0] if args else kwargs["indptr"]
    counts["parallel.row_sums.entries"] += int(indptr[-1])


#: (module, attribute, span name, counter).  Each target is patched where
#: its caller looks it up: the CLI binds the ``graph`` helpers to its own
#: module names, and ``congen`` imports ``build_graph`` by name.
HOOKS = (
    ("netpatrimony.cli", "load_graph", "graph.load_graph", None),
    ("netpatrimony.cli", "degree_stats", "graph.degree_stats", None),
    ("netpatrimony.cli", "write_edge_dump", "graph.write_edge_dump", _dump_bytes),
    ("netpatrimony.graph", "load_edge_file", "graph.load_edge_file", _input_bytes),
    ("netpatrimony.graph", "build_graph", "graph.build_graph", _pairs_in),
    ("netpatrimony.graph", "edge_dump_lines", "graph.edge_dump_lines", None),
    ("netpatrimony.congen", "build_graph", "graph.build_graph", _pairs_in),
    ("netpatrimony.congen", "sample_degree_sequence", "congen.sample_degree_sequence", None),
    ("netpatrimony.congen", "generate", "congen.generate", _generate_counts),
    ("netpatrimony.metrics", "knn_profile", "metrics.knn_profile", None),
    ("netpatrimony.metrics", "knn_node", "metrics.knn_node", None),
    ("netpatrimony.metrics", "knn_class", "metrics.knn_class", None),
    ("netpatrimony.metrics", "assortativity", "metrics.assortativity", None),
    ("netpatrimony.nip", "nip_scores", "nip.nip_scores", None),
    ("netpatrimony.nip", "nip_node_correlated", "nip.nip_node_correlated", None),
    ("netpatrimony.nip", "classify_performers", "nip.classify_performers", None),
    ("netpatrimony._parallel", "row_sums", "parallel.row_sums", _row_entries),
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (LookupError, TypeError, AttributeError, OSError, ValueError) as exc:
                    note = f"{name} counter ({type(exc).__name__})"
                    if note not in self.absent:
                        self.absent.append(note)
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name, counter in hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, counter))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("netpatrimony.cli")
        entry = getattr(cli, "main", None)
        if callable(entry):
            return tracer.wrap("cli.main", entry)(cli_args)
        # Without a main() to wrap, run the module as ``python -m`` would.
        tracer.absent.append("netpatrimony.cli.main")
        sys.argv = ["netpatrimony", *cli_args]
        try:
            runpy.run_module("netpatrimony.cli", run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return 0
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

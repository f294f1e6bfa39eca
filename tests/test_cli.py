import bz2
import csv
import functools
import gc
import gzip
import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import netpatrimony
from netpatrimony import (
    CLASSES,
    NORMALIZED,
    RAW,
    RAW_MULTISET,
    SIMPLE,
    assortativity,
    degree_stats,
    ip,
    knn_profile,
    load_graph,
    nip_scores,
)
from netpatrimony import cli
from netpatrimony.cli import main
from conftest import (
    BAD_SPEC_FIELDS,
    SIX_NODE_FILE,
    UNKNOWN_SPEC_KEYS,
    VALID_SPECS,
    bad_spec,
    require_amazon,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_stats_summary_values(tmp_path):
    out = tmp_path / "out"
    assert main(["stats", str(SIX_NODE_FILE), "--output-dir", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["n"] == 6
    assert summary["m"] == 8
    assert summary["mean_degree"] == 8 / 3
    assert summary["mean_square_degree"] == 23 / 3
    assert summary["density"] == 8 / 30
    assert summary["density_convention"] == "TABLE1"
    assert summary["knn_global"] == 2.875
    assert summary["assortativity"] == -3 / 13
    assert summary["nip_network"] == 3.875
    assert summary["mode"] == "SIMPLE"
    dist = read_csv(out / "degree_dist.csv")
    assert dist == [["degree", "count"], ["2", "3"], ["3", "2"], ["4", "1"]]
    config = read_json(out / "run_config.json")
    assert config["command"] == "stats"
    assert config["worker_count"] == 1
    assert config["input_paths"] == [str(SIX_NODE_FILE)]


def test_knn_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["knn", str(SIX_NODE_FILE), "--output-dir", str(out)]) == 0
    rows = read_csv(out / "knn_node.csv")
    assert rows[0] == ["node_label", "degree", "knn_i"]
    by_label = {r[0]: r[1:] for r in rows[1:]}
    assert by_label["4"] == ["4", "2.5"]
    assert by_label["3"] == ["2", "3.5"]
    assert read_csv(out / "knn_class.csv") == [
        ["degree", "class_size", "knn_d"],
        ["2", "3", "3"],
        ["3", "2", "3"],
        ["4", "1", "2.5"],
    ]


def test_nip_outputs_normalized_and_raw(tmp_path):
    out_norm = tmp_path / "norm"
    out_raw = tmp_path / "raw"
    assert main(["nip", str(SIX_NODE_FILE), "--output-dir", str(out_norm)]) == 0
    assert (
        main(["nip", str(SIX_NODE_FILE), "--output-dir", str(out_raw), "--scale", "RAW"])
        == 0
    )
    rows = read_csv(out_norm / "nip_node.csv")
    assert rows[0] == [
        "node_label", "degree", "knn_i", "ip", "nip", "class_nip", "classification", "scale",
    ]
    by_label = {r[0]: r for r in rows[1:]}
    assert by_label["4"][1:] == ["4", "2.5", "0.25", "0.875", "0.875", "AT_PAR", "NORMALIZED"]
    assert by_label["3"][4:7] == ["0.5625", "0.5", "OVER"]
    assert by_label["5"][4:7] == ["0.4375", "0.5", "UNDER"]
    raw_rows = read_csv(out_raw / "nip_node.csv")
    raw_by_label = {r[0]: r for r in raw_rows[1:]}
    assert raw_by_label["4"][4:7] == ["14", "14", "AT_PAR"]
    assert raw_by_label["3"][4:7] == ["9", "8", "OVER"]
    assert read_csv(out_raw / "nip_class.csv") == [
        ["degree", "class_size", "nip_d"],
        ["2", "3", "8"],
        ["3", "2", "12"],
        ["4", "1", "14"],
    ]


def test_complete_graph_scores_all_at_par(tmp_path):
    edges = tmp_path / "k5.txt"
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges.write_text("".join(f"{i}\t{j}\n" for i, j in pairs))
    out = tmp_path / "out"
    assert main(["nip", str(edges), "--output-dir", str(out)]) == 0
    rows = read_csv(out / "nip_node.csv")
    assert len(rows) == 6
    for row in rows[1:]:
        assert row[4] == "1"  # every node carries an equal share
        assert row[6] == "AT_PAR"


def test_isolated_node_fields_are_empty(tmp_path):
    edges = tmp_path / "iso.txt"
    edges.write_text("1 2\n2 3\n3 1\n4 4\n")  # node 4 only self-loops
    out = tmp_path / "out"
    assert main(["nip", str(edges), "--output-dir", str(out)]) == 0
    rows = read_csv(out / "nip_node.csv")
    row4 = next(r for r in rows[1:] if r[0] == "4")
    assert row4[1] == "0"  # SIMPLE mode dropped the loop
    assert row4[2] == ""  # knn_i undefined -> empty cell
    assert row4[6] == "UNDEFINED"


def test_rerun_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(
            ["nip", str(SIX_NODE_FILE), "--output-dir", str(out), "--scale", "RAW"]
        )
        assert code == 0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    assert t1.keys() == t2.keys()
    # run_config echoes the differing output dirs; all payload files match
    for name in t1:
        if name != "run_config.json":
            assert t1[name] == t2[name], name


def test_worker_count_does_not_change_output_bytes(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    assert main(["knn", str(SIX_NODE_FILE), "--output-dir", str(out1)]) == 0
    assert (
        main(["knn", str(SIX_NODE_FILE), "--output-dir", str(out2), "--worker-count", "4"])
        == 0
    )
    for name in ("summary.json", "knn_node.csv", "knn_class.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_zero_worker_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["stats", str(SIX_NODE_FILE), "--output-dir", str(out), "--worker-count", "0"]
    assert main(argv) == 1
    assert "argument --worker-count: worker count must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_worker_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["stats", str(SIX_NODE_FILE), "--output-dir", str(out), "--worker-count", "x"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "argument --worker-count: worker count must be an integer >= 1, got 'x'" in err
    assert "_worker_count" not in err
    assert not out.exists()


def test_stats_on_edgeless_graph_writes_moments(tmp_path, capsys):
    """Two self-loops leave no SIMPLE edge: ``stats`` writes the moments and
    nulls for the measures that need an edge; ``knn`` and ``nip`` still
    exit 1 and write nothing."""
    loops = tmp_path / "loops.txt"
    loops.write_text("1 1\n2 2\n")
    out = tmp_path / "out"
    assert main(["stats", str(loops), "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "degree_dist.csv", "run_config.json", "summary.json"
    ]
    summary = read_json(out / "summary.json")
    assert [summary[k] for k in ("n", "m", "mean_degree", "variance", "density")] == [2, 0, 0, 0, 0]
    assert [summary[k] for k in ("knn_global", "assortativity", "nip_network")] == [None] * 3
    assert read_csv(out / "degree_dist.csv") == [["degree", "count"], ["0", "2"]]
    for command in ("knn", "nip"):
        other = tmp_path / command
        assert main([command, str(loops), "--output-dir", str(other)]) == 1
        err = capsys.readouterr().err
        assert "error: mean neighbour degree is undefined when all degrees are 0" in err
        assert not other.exists()


def test_stats_takes_no_neighbour_degree_profile(tmp_path, monkeypatch):
    """``stats`` writes no per-node or per-class knn, so it computes none;
    ``stats`` and ``nip`` each take assortativity once, from the graph."""
    calls = {}

    def spy(name, func):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)

        return counted

    for name in ("knn_profile", "knn_node", "knn_class", "assortativity"):
        monkeypatch.setattr(cli.metrics, name, spy(name, getattr(cli.metrics, name)))
    assert main(["stats", str(SIX_NODE_FILE), "--output-dir", str(tmp_path / "stats")]) == 0
    assert calls == {"assortativity": 1}
    calls.clear()
    assert main(["nip", str(SIX_NODE_FILE), "--output-dir", str(tmp_path / "nip")]) == 0
    assert calls["assortativity"] == 1


@pytest.mark.parametrize(
    "text, mode, status",
    [
        (SIX_NODE_FILE.read_text(), RAW_MULTISET, "NO_REFERENCE"),
        (SIX_NODE_FILE.read_text(), SIMPLE, "NO_REFERENCE"),
        ("1 2\n2 3\n3 4\n4 1\n", SIMPLE, "NO_REFERENCE"),  # regular: NaN assortativity
        ("1 1\n2 2\n", SIMPLE, "NO_EDGES"),
    ],
    ids=["six_node-raw", "six_node-simple", "ring4", "loops-simple"],
)
def test_summary_and_report_row_agree(tmp_path, text, mode, status):
    """``stats``'s summary.json and the (file, mode) row of ``report`` hold
    the same network-level numbers, a JSON null matching an empty cell."""
    edges = tmp_path / "net.txt"
    edges.write_text(text)
    argv = ["--mode", mode, "--output-dir"]
    assert main(["stats", str(edges), *argv, str(tmp_path / "stats")]) == 0
    assert main(["report", str(edges), *argv, str(tmp_path / "report")]) == 0
    summary = read_json(tmp_path / "stats" / "summary.json")
    header, row = read_csv(tmp_path / "report" / "report.csv")
    cells = dict(zip(header, row))
    assert (cells["mode"], cells["status"]) == (mode, status)
    for key in cli.REPORT_METRICS:
        value = summary[key]
        expected = "" if value is None else format(value, ".6g") if isinstance(value, float) else str(value)
        assert cells[key] == expected, key


@pytest.mark.parametrize("value", ["-0.5", "nan", "-inf"])
@pytest.mark.parametrize("command", ["stats", "knn", "nip", "congen", "report"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, command, value):
    """A bad ``--tolerance`` exits 1 before any output is written: ``nip``
    rejects the value, and every other command rejects the option itself."""
    out = tmp_path / "o"
    source = str(tmp_path / "spec.json") if command == "congen" else str(SIX_NODE_FILE)
    argv = [command, source, "--output-dir", str(out), f"--tolerance={value}"]
    assert main(argv) == 1
    expected = {"nip": "argument --tolerance: tolerance must be finite and >= 0"}.get(
        command, f"error: unrecognized arguments: --tolerance={value}\n"
    )
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--scale") for c in ("stats", "knn", "report", "congen")]
    + [("congen", "--density-convention")],
    ids=lambda x: x.lstrip("-"),
)
def test_option_the_command_does_not_read_is_usage_error(tmp_path, capsys, command, flag):
    """Each command takes only the options it reads: another command's
    option, even at a valid value, exits 1 naming it and writes nothing.
    ``--tolerance`` on these commands is covered above."""
    source = SIX_NODE_FILE
    if command == "congen":
        source = tmp_path / "spec.json"
        source.write_text(json.dumps(VALID_SPECS["EXPLICIT"]))
    out = tmp_path / "o"
    value = {"--scale": "RAW", "--density-convention": "HALF"}[flag]
    argv = [command, str(source), "--output-dir", str(out)]
    assert main([*argv, flag, value]) == 1
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0  # the same run without the option


@pytest.mark.parametrize("value", ["-1e-12", "-inf"])
def test_space_separated_negative_tolerance_is_usage_error(tmp_path, capsys, value):
    """argparse takes a space-separated ``-1e-12`` for an option, so it fails
    before the validator (only ``--tolerance=-1e-12`` reaches it); either
    way the run exits 1 before any output is written."""
    out = tmp_path / "o"
    argv = ["nip", str(SIX_NODE_FILE), "--output-dir", str(out), "--tolerance", value]
    assert main(argv) == 1
    assert "argument --tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_zero_tolerance_is_accepted(tmp_path):
    out = tmp_path / "o"
    argv = ["nip", str(SIX_NODE_FILE), "--output-dir", str(out), "--tolerance", "0"]
    assert main(argv) == 0
    assert read_json(out / "run_config.json")["tolerance"] == 0.0


@pytest.mark.parametrize(
    "command, extra, policy, mode, seed",
    [
        ("stats", [], None, SIMPLE, None),
        ("report", ["--both-modes"], None, RAW_MULTISET, None),
        ("congen", ["--seed", "9"], "ERASE", SIMPLE, 9),
        ("congen", [], "MULTIGRAPH", RAW_MULTISET, 3),
    ],
    ids=["stats", "report", "congen-erase", "congen-multigraph"],
)
def test_run_config_echoes_every_key_in_order(
    tmp_path, capsys, command, extra, policy, mode, seed
):
    source = str(SIX_NODE_FILE)
    if policy is not None:
        source = str(tmp_path / "spec.json")
        Path(source).write_text(
            json.dumps(
                {"source": "EXPLICIT", "params": {"degrees": [2, 2, 2]}, "seed": 3,
                 "simple_policy": policy}
            )
        )
    out = str(tmp_path / "out")
    assert main([command, *extra, source, "--output-dir", out]) == 0
    capsys.readouterr()
    assert list(read_json(tmp_path / "out" / "run_config.json").items()) == [
        ("command", command),
        ("input_paths", [source]),
        ("mode", mode),
        ("density_convention", "TABLE1"),
        ("scale", "NORMALIZED"),
        ("output_dir", out),
        ("seed", seed),
        ("tolerance", 1e-9),
        ("worker_count", 1),
    ]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def write_random_edge_file(path: Path, seed: int) -> None:
    """Random edges over negative, int64-extreme and 12-digit labels.  Two
    labels occur only in self-loops, so SIMPLE mode leaves them isolated."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate(
        [[INT64_MIN, INT64_MAX, -1, 0], rng.integers(-(10**12), 10**12, size=12)]
    )
    k = int(rng.integers(4, 50))
    pairs = [(INT64_MIN, INT64_MAX)]
    pairs += zip(rng.choice(pool, size=k).tolist(), rng.choice(pool, size=k).tolist())
    pairs += [(-5 * 10**12, -5 * 10**12), (7 * 10**12, 7 * 10**12)]
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs))


@pytest.mark.parametrize("mode", [SIMPLE, RAW_MULTISET])
def test_analysis_csv_bytes_match_row_wise_writer(tmp_path, mode):
    for seed in range(12):
        edges = tmp_path / f"g{seed}.txt"
        write_random_edge_file(edges, seed)
        g = load_graph(edges, mode=mode)
        profile = knn_profile(g)
        dist = {}
        for d in g.degrees.tolist():
            dist[d] = dist.get(d, 0) + 1
        class_sizes = np.bincount(g.degrees)
        expected = {
            ("stats", "degree_dist.csv"): oracles.csv_bytes(
                ["degree", "count"], sorted(dist.items())
            ),
            ("knn", "knn_node.csv"): oracles.csv_bytes(
                ["node_label", "degree", "knn_i"],
                zip(g.node_labels.tolist(), g.degrees.tolist(), profile.knn_node.tolist()),
            ),
            ("knn", "knn_class.csv"): oracles.csv_bytes(
                ["degree", "class_size", "knn_d"],
                [[d, int(class_sizes[d]), v] for d, v in profile.knn_class.items()],
            ),
        }
        for scale in (NORMALIZED, RAW):
            scores = nip_scores(g, scale=scale)
            rows = [
                [label, d, k, share, score, scores.nip_class.get(d, float("nan")), cls, scale]
                for label, d, k, share, score, cls in zip(
                    g.node_labels.tolist(),
                    g.degrees.tolist(),
                    profile.knn_node.tolist(),
                    ip(g).tolist(),
                    scores.nip_node.tolist(),
                    np.asarray(CLASSES)[scores.classification].tolist(),
                )
            ]
            expected[("nip", scale, "nip_node.csv")] = oracles.csv_bytes(
                ["node_label", "degree", "knn_i", "ip", "nip", "class_nip", "classification", "scale"],
                rows,
            )
            expected[("nip", scale, "nip_class.csv")] = oracles.csv_bytes(
                ["degree", "class_size", "nip_d"],
                [[d, int(class_sizes[d]), v] for d, v in scores.nip_class.items()],
            )
        if mode == SIMPLE:
            assert (g.degrees == 0).sum() == 2  # NaN knn_i and class_nip cells
        for key, want in expected.items():
            command, *scale, name = key
            out = tmp_path / f"{seed}-{'-'.join(key[:-1])}"
            argv = [command, str(edges), "--output-dir", str(out), "--mode", mode]
            assert main(argv + ["--scale", *scale] if scale else argv) == 0
            assert (out / name).read_bytes() == want, (seed, key)


def test_report_csv_bytes_match_row_wise_writer(tmp_path, capsys, monkeypatch):
    """Both rows come from one build of the file: the SIMPLE graph is
    derived from the RAW_MULTISET one, and the bytes match separate builds."""
    edges = tmp_path / "net,work.txt"
    write_random_edge_file(edges, 99)
    missing = tmp_path / "gone.txt"
    out = tmp_path / "out"
    builds = []
    build_graph = cli.graph.build_graph

    def counted(*args, **kwargs):
        builds.append(kwargs)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(cli.graph, "build_graph", counted)
    assert main(["report", str(edges), str(missing), "--both-modes", "--output-dir", str(out)]) == 0
    assert builds == [{"mode": RAW_MULTISET, "overwrite_edges": True}]
    monkeypatch.undo()
    capsys.readouterr()
    metrics = ["n", "m", "density", "mean_degree", "mean_square_degree", "variance",
               "assortativity", "nip_network"]
    header = ["dataset", "mode", "status", *metrics, "consistency", *[f"diff_{k}" for k in metrics]]
    rows = []
    for mode in (RAW_MULTISET, SIMPLE):
        g = load_graph(edges, mode=mode)
        s = degree_stats(g)
        knn_g = s.degree_square_sum / s.degree_sum
        nip_net = 1.0 + knn_g
        rows.append(
            ["net,work", mode, "NO_REFERENCE", s.node_count, s.edge_count, s.density,
             s.mean_degree, s.mean_square_degree, s.variance, assortativity(g), nip_net,
             nip_net - (1.0 + knn_g)] + [""] * len(metrics)
        )
    rows.append(["gone", RAW_MULTISET, "SKIPPED"] + [""] * (len(header) - 3))
    got = (out / "report.csv").read_bytes()
    assert got == oracles.csv_bytes(header, rows)
    assert b'\r\n"net,work",RAW_MULTISET,NO_REFERENCE,' in got


@pytest.mark.parametrize("batch_rows", [1, 2, 3, pytest.param(None, id="default")])
def test_write_csv_quotes_text_cells_like_csv_writer(tmp_path, monkeypatch, batch_rows):
    """Text cells holding quotes, commas, line breaks and non-ASCII
    characters, in lists and in str, object and broadcast arrays, next to
    floats of either sign (zero, NaN, infinity), an all-NaN column, integers
    and coded columns, under byte budgets of 1-row batches (a budget below
    one line), 2-row batches (the last of the 9 rows alone), 3-row batches
    and the default."""
    texts = ['say "hi"', "a,b", "two\nlines", "cr\rhere", "", 'x,"y"\n', "plain", "café", "naïve,ü"]
    negative_nan = np.copysign(np.nan, -1.0)
    floats = np.array([0.5, np.nan, 1e-7, 123456789.0, -0.0, negative_nan, -np.inf, np.inf, 0.0])
    assert len(np.unique(floats.view(np.int64))) == len(floats)  # both NaNs and zeros differ
    ints = np.array([1, -2, 2**62, 0, 5, 6, -(2**63), 2**63 - 1, -(10**12)])
    mixed = [1.5, float("nan"), 7, "t,u", "", "v", 'w"', -0.0, "ü"]
    reversed_texts = texts[::-1]
    codes = np.array([2, 0, 1, 1, 2, 0, 0, 1, 2])
    coded_floats, coded_texts = np.array([-0.0, negative_nan, 2.5]), ["é", "q,r", 'z"']
    header = ["text", "float", "int", "mixed", "str_array", "object_array", "all_nan",
              "broadcast", "coded_float", "coded_text"]
    columns = [texts, floats, ints, mixed, np.array(texts), np.array(reversed_texts, dtype=object),
               np.full(len(texts), np.nan),
               np.broadcast_to(np.array("ö,x", dtype=object), len(texts)),
               (coded_floats, codes), (coded_texts, codes)]
    width = sum(cli._cell_table(col)[0].itemsize + 1 for col in columns) + 1
    if batch_rows is not None:
        budget = 1 if batch_rows == 1 else (batch_rows + 1) * width - 1
        monkeypatch.setattr(cli.graph, "_BATCH_BYTES", budget)
    path = tmp_path / "t.csv"
    cli._write_csv(path, header, columns)
    rows = zip(texts, floats.tolist(), ints.tolist(), mixed, texts, reversed_texts,
               [float("nan")] * len(texts), ["ö,x"] * len(texts),
               coded_floats[codes].tolist(), [coded_texts[c] for c in codes])
    assert path.read_bytes() == oracles.csv_bytes(header, rows)
    cli._write_csv(path, header[:3], [[], np.array([]), np.array([], dtype=np.int64)])
    assert path.read_bytes() == oracles.csv_bytes(header[:3], [])


def test_missing_input_is_input_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "no.txt"), "--output-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# ok\n1 2\n3 oops\n")
    assert main(["stats", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert ":3:" in err


LINE_4 = ":4: non-integer node id"
TRUNCATED = ": Compressed file ended before the end-of-stream marker was reached"
LZMA_ALONE = functools.partial(lzma.open, format=lzma.FORMAT_ALONE)


@pytest.mark.parametrize(
    "suffix, opener, keep, message",
    [
        pytest.param(".gz", gzip.open, None, LINE_4, id=".gz-open"),
        pytest.param(".bz2", bz2.open, None, LINE_4, id=".bz2-open"),
        pytest.param(".xz", lzma.open, None, LINE_4, id=".xz-open"),
        pytest.param(".lzma", LZMA_ALONE, None, LINE_4, id=".lzma-open"),
        pytest.param(".gz", gzip.open, 12, TRUNCATED, id=".gz-truncated"),
        pytest.param(".bz2", bz2.open, 12, TRUNCATED, id=".bz2-truncated"),
        pytest.param(".xz", lzma.open, 12, TRUNCATED, id=".xz-truncated"),
    ],
)
def test_malformed_compressed_input_reports_line(
    tmp_path, capsys, suffix, opener, keep, message
):
    """A bad line 4 is located in the decompressed text; a file cut after
    ``keep`` bytes is reported against its path, not as a traceback."""
    bad = tmp_path / f"bad.txt{suffix}"
    with opener(bad, "wt") as fh:
        fh.write("# ok\n1 2\n2 3\n3 x\n")
    bad.write_bytes(bad.read_bytes()[:keep])
    assert main(["stats", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {bad}{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suffix, opener", [(".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open)]
)
def test_corrupt_compressed_input_names_the_file(tmp_path, capsys, suffix, opener):
    bad = tmp_path / f"bad.txt{suffix}"
    with opener(bad, "wt") as fh:
        fh.write("".join(f"{i} {i + 1}\n" for i in range(50)))
    data = bytearray(bad.read_bytes())
    data[len(data) // 2 : len(data) // 2 + 4] = b"\xff" * 4
    bad.write_bytes(bytes(data))
    assert main(["stats", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {bad}: " in capsys.readouterr().err


def test_comment_only_input_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["nip", str(empty), "--output-dir", str(tmp_path / "o")]) == 1
    assert "empty" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["stats"]) == 1  # missing input and --output-dir
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_is_for_users(capsys):
    # The commands and exit codes, without the module's maintainer notes.
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    listed = [line.split()[0] for line in text.splitlines() if line.startswith("    ")]
    assert listed == ["stats", "knn", "nip", "congen", "report"]
    out = " ".join(text.split())
    assert "exit codes: 0 success, 1 input error" in out
    assert "2 computation error, 3 report computed no row" in out
    assert "gc.freeze" not in out and "run_config.json" not in out


class TestCongenCommand:
    def write_spec(self, tmp_path, payload) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_reject_triangle(self, tmp_path):
        spec = self.write_spec(
            tmp_path,
            {
                "source": "EXPLICIT",
                "params": {"degrees": [2, 2, 2]},
                "seed": 3,
                "simple_policy": "REJECT",
            },
        )
        out = tmp_path / "out"
        assert main(["congen", str(spec), "--output-dir", str(out)]) == 0
        assert (out / "edges.txt").read_text() == "0\t1\n0\t2\n1\t2\n"
        meta = read_json(out / "meta.json")
        assert meta["rng"] == "pcg64"
        assert meta["attempts"] >= 1
        assert meta["m"] == 3
        assert meta["spec"]["seed"] == 3

    def test_meta_json_keeps_every_generator_key(self, tmp_path, monkeypatch):
        # meta.json is written from generate's record as returned: a key the
        # generator adds reaches the file, after the graph's own fields.
        from netpatrimony import congen

        generate = congen.generate

        def generate_with_swaps(*args, **kwargs):
            g, info = generate(*args, **kwargs)
            return g, {**info, "swaps": 7}

        monkeypatch.setattr(congen, "generate", generate_with_swaps)
        spec = self.write_spec(tmp_path, {**VALID_SPECS["EXPLICIT"], "simple_policy": "ERASE"})
        out = tmp_path / "out"
        assert main(["congen", str(spec), "--output-dir", str(out)]) == 0
        meta = read_json(out / "meta.json")
        assert list(meta) == ["spec", "rng", "attempts", "n", "m", "mode", "erased_edges", "swaps"]
        assert meta["swaps"] == 7

    def test_seed_override_changes_run_config(self, tmp_path):
        spec = self.write_spec(
            tmp_path,
            {"source": "POISSON", "params": {"mean": 2.0, "n": 30}, "seed": 1},
        )
        out = tmp_path / "out"
        assert main(["congen", str(spec), "--output-dir", str(out), "--seed", "9"]) == 0
        assert read_json(out / "run_config.json")["seed"] == 9
        assert read_json(out / "meta.json")["spec"]["seed"] == 9

    def test_same_spec_same_bytes(self, tmp_path):
        spec = self.write_spec(
            tmp_path,
            {
                "source": "POWERLAW",
                "params": {"exponent": 2.5, "min_degree": 1, "n": 120},
                "seed": 42,
                "simple_policy": "ERASE",
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["congen", str(spec), "--output-dir", str(out1)]) == 0
        assert main(["congen", str(spec), "--output-dir", str(out2)]) == 0
        assert (out1 / "edges.txt").read_bytes() == (out2 / "edges.txt").read_bytes()
        assert (out1 / "meta.json").read_bytes() == (out2 / "meta.json").read_bytes()
        assert "erased_edges" in read_json(out1 / "meta.json")

    def test_non_graphical_reject_fails_fast(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            {
                "source": "EXPLICIT",
                "params": {"degrees": [3, 3, 1, 1]},
                "simple_policy": "REJECT",
            },
        )
        assert main(["congen", str(spec), "--output-dir", str(tmp_path / "o")]) == 1
        assert "not graphical" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["MULTIGRAPH", "REJECT"])
    def test_odd_sum_is_input_error(self, tmp_path, capsys, policy):
        spec = self.write_spec(
            tmp_path,
            {"source": "EXPLICIT", "params": {"degrees": [1, 1, 1]}, "simple_policy": policy},
        )
        assert main(["congen", str(spec), "--output-dir", str(tmp_path / "o")]) == 1
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("source, field, value", BAD_SPEC_FIELDS)
    def test_mistyped_spec_field_is_input_error(self, tmp_path, capsys, source, field, value):
        spec = self.write_spec(tmp_path, bad_spec(source, field, value))
        out = tmp_path / "o"
        assert main(["congen", str(spec), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: spec field '{field}") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("data, key", UNKNOWN_SPEC_KEYS)
    def test_unknown_spec_key_is_input_error(self, tmp_path, capsys, data, key):
        spec = self.write_spec(tmp_path, data)
        out = tmp_path / "o"
        assert main(["congen", str(spec), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown spec key '{key}'") and err.count("\n") == 1, err
        assert not out.exists()

    def test_seed_override_is_validated(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, VALID_SPECS["EXPLICIT"])
        assert main(["congen", str(spec), "--output-dir", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: spec field 'seed'")
        assert not (tmp_path / "o").exists()

    def test_invalid_spec_json(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert main(["congen", str(spec), "--output-dir", str(tmp_path / "o")]) == 1
        capsys.readouterr()


class TestReportCommand:
    def test_unknown_dataset_has_no_reference(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["report", str(SIX_NODE_FILE), "--output-dir", str(out)])
        assert code == 0
        rows = read_csv(out / "report.csv")
        header, data = rows[0], rows[1:]
        row = dict(zip(header, data[0]))
        assert row["dataset"] == "six_node"
        assert row["status"] == "NO_REFERENCE"
        assert row["mode"] == "RAW_MULTISET"
        assert row["n"] == "6"
        assert float(row["nip_network"]) == 3.875
        assert row["consistency"] == "0"
        assert row["diff_n"] == ""
        assert "six_node" in capsys.readouterr().out

    def test_missing_files_are_skipped(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "report",
                str(SIX_NODE_FILE),
                str(tmp_path / "amazon0302.txt"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "report.csv")
        statuses = {r[0]: r[2] for r in rows[1:]}
        assert statuses == {"six_node": "NO_REFERENCE", "amazon0302": "SKIPPED"}
        capsys.readouterr()

    def test_all_missing_exits_three(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "amazon0302.txt")])
        assert code == 3
        assert "SKIPPED" in capsys.readouterr().out

    def test_both_modes_adds_rows(self, tmp_path, capsys):
        code = main(["report", str(SIX_NODE_FILE), "--both-modes"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("six_node") == 2
        assert "SIMPLE" in out

    def test_edgeless_graph_gets_a_no_edges_row(self, tmp_path, capsys):
        """A file of self-loops has no SIMPLE edges: that row keeps its size
        and moments and leaves the edge-based cells empty, and every other
        row is computed as usual."""
        loops = tmp_path / "amazon0302.txt"
        loops.write_text("1 1\n2 2\n")
        out = tmp_path / "out"
        argv = ["report", "--both-modes", str(SIX_NODE_FILE), str(loops)]
        assert main([*argv, "--output-dir", str(out)]) == 0
        header, *data = read_csv(out / "report.csv")
        rows = [dict(zip(header, line)) for line in data]
        assert [(r["dataset"], r["mode"], r["status"]) for r in rows] == [
            ("six_node", "RAW_MULTISET", "NO_REFERENCE"),
            ("six_node", "SIMPLE", "NO_REFERENCE"),
            ("amazon0302", "RAW_MULTISET", "OK"),
            ("amazon0302", "SIMPLE", "NO_EDGES"),
        ]
        edgeless = rows[3]
        moments = ["n", "m", "density", "mean_degree", "mean_square_degree", "variance"]
        assert [edgeless[c] for c in moments] == ["2", "0", "0", "0", "0", "0"]
        diffs = [c for c in header if c.startswith("diff_")]
        empty = ["assortativity", "nip_network", "consistency", *diffs]
        assert all(edgeless[c] == "" for c in empty)
        assert rows[2]["diff_n"] == str(2 - 262111)
        assert "NO_EDGES" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", "# FromNodeId\tToNodeId\n\n"])
    def test_file_without_edge_lines_gets_no_edges_rows(self, tmp_path, capsys, text):
        """A file with no edge line gets one NO_EDGES row per mode with
        n = m = 0 and every other cell empty; the other files' rows are
        computed and the exit code is 0."""
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        out = tmp_path / "out"
        argv = ["report", "--both-modes", str(SIX_NODE_FILE), str(empty), "--output-dir", str(out)]
        assert main(argv) == 0
        header, *data = read_csv(out / "report.csv")
        rows = [dict(zip(header, line)) for line in data]
        assert [(r["dataset"], r["mode"], r["status"]) for r in rows] == [
            ("six_node", "RAW_MULTISET", "NO_REFERENCE"),
            ("six_node", "SIMPLE", "NO_REFERENCE"),
            ("empty", "RAW_MULTISET", "NO_EDGES"),
            ("empty", "SIMPLE", "NO_EDGES"),
        ]
        assert rows[0]["n"] == "6"
        for row in rows[2:]:
            assert (row["n"], row["m"]) == ("0", "0")
            filled = {"dataset", "mode", "status", "n", "m"}
            assert all(row[c] == "" for c in header if c not in filled)
        assert capsys.readouterr().out.count("NO_EDGES") == 2

    @pytest.mark.parametrize(
        "suffix, opener", [(".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open)]
    )
    def test_compressed_file_is_named_by_its_dataset(self, tmp_path, capsys, suffix, opener):
        path = tmp_path / f"amazon0302.txt{suffix}"
        with opener(path, "wt") as fh:
            fh.write(SIX_NODE_FILE.read_text())
        out = tmp_path / "out"
        assert main(["report", str(path), "--output-dir", str(out)]) == 0
        header, data = read_csv(out / "report.csv")
        row = dict(zip(header, data))
        assert (row["dataset"], row["status"]) == ("amazon0302", "OK")
        assert row["diff_n"] == str(6 - 262111)
        assert "deviation from embedded reference values" in capsys.readouterr().out

    def test_report_reruns_byte_identical(self, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["report", str(SIX_NODE_FILE), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()


def test_copurchase_degree_distribution_shape(tmp_path):
    # Co-purchase networks peak at small degree and stretch into a long
    # right tail; the published high scorers live in that tail.
    path = require_amazon("amazon0601")
    out = tmp_path / "out"
    code = main(
        ["stats", str(path), "--output-dir", str(out), "--mode", "RAW_MULTISET"]
    )
    assert code == 0
    dist = read_csv(out / "degree_dist.csv")[1:]
    counts = {int(d): int(c) for d, c in dist}
    mode_degree = max(counts, key=counts.get)
    assert mode_degree <= 5
    assert max(counts) >= 100 * mode_degree


@pytest.mark.parametrize(
    "preset, numpy_first, expected",
    [(None, False, "1"), ("3", False, "3"), (None, True, "None")],
)
def test_import_starts_openblas_with_one_thread(preset, numpy_first, expected):
    """Importing the package before numpy sets OPENBLAS_NUM_THREADS to 1,
    keeps a value already set, and sets nothing once numpy is loaded."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    package_root = str(Path(netpatrimony.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import os, netpatrimony; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    if numpy_first:
        code = "import numpy; " + code
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == expected


#: The two ways a process enters the CLI: ``python -m`` and the console
#: script's wrapper, which calls ``sys.exit(run())``.
ENTRY_ROUTES = {
    "module": ["-m", "netpatrimony.cli"],
    "script": ["-c", "import sys; from netpatrimony.cli import run; sys.exit(run())"],
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    # Without PYTHONUNBUFFERED stdout is block-buffered, as in a shell pipe,
    # so an exit that skipped the final flush would lose the report table.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    package_root = str(Path(netpatrimony.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _entry_cases(tmp_path: Path) -> dict:
    spec = tmp_path / "reject.json"
    # Graphical, but seed 1's one permitted matching is not simple.
    spec.write_text(
        '{"source": "EXPLICIT", "params": {"degrees": [3, 3, 3, 3]}, "seed": 1,'
        ' "simple_policy": "REJECT", "max_attempts": 1}'
    )
    out = str(tmp_path / "out")
    return {
        0: ["report", "--both-modes", str(SIX_NODE_FILE)],
        1: ["nip", str(tmp_path / "missing.txt"), "--output-dir", out],
        2: ["congen", str(spec), "--output-dir", out],
        3: ["report", str(tmp_path / "none.txt")],
    }


@pytest.mark.parametrize("route", sorted(ENTRY_ROUTES))
@pytest.mark.parametrize("expected", [0, 1, 2, 3])
def test_process_entry_exits_with_main_code_and_full_streams(tmp_path, capsys, route, expected):
    """A CLI process exits with ``main``'s code, and its stdout (the
    ``report`` table) and stderr (the ``error:`` line) arrive complete, equal
    to what ``main`` prints in-process."""
    argv = _entry_cases(tmp_path)[expected]
    assert main(argv) == expected
    printed = capsys.readouterr()
    run = run_python(*ENTRY_ROUTES[route], *argv)
    assert (run.returncode, run.stdout, run.stderr) == (expected, printed.out, printed.err)
    if expected in (0, 3):
        assert run.stdout.split()[:2] == ["dataset", "mode"]  # the table's header
    else:
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_process_entry_freezes_and_keeps_atexit_handlers(tmp_path):
    """The entry freezes the collector's objects before the interpreter
    exits; atexit handlers still run, and still print to stdout."""
    code = (
        "import atexit, gc, sys\n"
        "from netpatrimony.cli import run\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "run()"
    )
    out = tmp_path / "out"
    run = run_python("-c", code, "stats", str(SIX_NODE_FILE), "--output-dir", str(out))
    assert (run.returncode, run.stdout, run.stderr) == (0, "frozen True\n", "")
    assert read_json(out / "summary.json")["n"] == 6


def test_in_process_main_does_not_freeze(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["report", str(SIX_NODE_FILE)]) == 0
    assert main(["nip", str(SIX_NODE_FILE), "--output-dir", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before

import bz2
import csv
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from netpatrimony import (
    NORMALIZED,
    RAW,
    RAW_MULTISET,
    SIMPLE,
    assortativity,
    degree_stats,
    knn_profile,
    load_graph,
    nip_scores,
)
from netpatrimony.cli import main
from conftest import SIX_NODE_FILE, require_amazon


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


def test_worker_count_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPATRIMONY_WORKERS", "3")
    out = tmp_path / "out"
    assert main(["stats", str(SIX_NODE_FILE), "--output-dir", str(out)]) == 0
    assert read_json(out / "run_config.json")["worker_count"] == 3


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
        stats = degree_stats(g)
        profile = knn_profile(g, stats=stats)
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
            scores = nip_scores(g, scale=scale, stats=stats, knn=profile)
            rows = [
                [label, d, k, share, score, scores.nip_class.get(d, float("nan")), cls, scale]
                for label, d, k, share, score, cls in zip(
                    g.node_labels.tolist(),
                    g.degrees.tolist(),
                    profile.knn_node.tolist(),
                    scores.ip.tolist(),
                    scores.nip_node.tolist(),
                    scores.classification,
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


def test_report_csv_bytes_match_row_wise_writer(tmp_path, capsys):
    edges = tmp_path / "net,work.txt"
    write_random_edge_file(edges, 99)
    missing = tmp_path / "gone.txt"
    out = tmp_path / "out"
    assert main(["report", str(edges), str(missing), "--both-modes", "--output-dir", str(out)]) == 0
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


def test_missing_input_is_input_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "no.txt"), "--output-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# ok\n1 2\n3 oops\n")
    assert main(["stats", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert ":3:" in err


@pytest.mark.parametrize("suffix, opener", [(".gz", gzip.open), (".bz2", bz2.open)])
def test_malformed_compressed_input_reports_line(tmp_path, capsys, suffix, opener):
    bad = tmp_path / f"bad.txt{suffix}"
    with opener(bad, "wt") as fh:
        fh.write("# ok\n1 2\n2 3\n3 x\n")
    assert main(["stats", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    assert f"bad.txt{suffix}:4: non-integer node id" in capsys.readouterr().err


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

    def test_odd_sum_is_input_error(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, {"source": "EXPLICIT", "params": {"degrees": [1, 1, 1]}}
        )
        assert main(["congen", str(spec), "--output-dir", str(tmp_path / "o")]) == 1
        assert "even" in capsys.readouterr().err

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

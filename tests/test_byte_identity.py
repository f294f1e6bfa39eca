"""The byte-identity differential (``tests/byte_identity.py``) on a tiny case
list: the working tree against itself, and against a copy with one byte
changed."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import byte_identity

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = ("knn-six_node-SIMPLE", "report-six_node-both_modes", "congen-erase")


@pytest.fixture
def tiny_cases(monkeypatch):
    cases = {name: byte_identity.full_cases()[name] for name in TINY}
    monkeypatch.setattr(byte_identity, "full_cases", lambda: cases)


def run_main(capsys, change: Path) -> tuple[int, dict]:
    code = byte_identity.main(["--parent", str(SRC), "--change", str(change)])
    line = capsys.readouterr().out
    assert line.count("\n") == 1
    return code, json.loads(line)


def test_working_tree_matches_itself(tiny_cases, capsys):
    code, result = run_main(capsys, SRC)
    assert code == 0
    # knn: 4 files; report --both-modes: 2; congen: 3.
    assert result == {"cases": 3, "runs": 6, "files": 9, "mismatches": {}}


def test_one_changed_byte_is_reported_by_case_and_file(tiny_cases, capsys, tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "netpatrimony" / "cli.py"
    text = cli.read_text()
    assert text.count('"knn_d"') == 1
    cli.write_text(text.replace('"knn_d"', '"knn_e"'))
    code, result = run_main(capsys, change)
    assert code == 1
    assert result["mismatches"] == {"knn-six_node-SIMPLE": ["out/knn_class.csv"]}

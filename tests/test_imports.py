"""The package namespace resolves its names on first use, and each command
imports only the modules it runs (checked in fresh interpreters)."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netpatrimony
from conftest import SIX_NODE_FILE

PACKAGE_ROOT = str(Path(netpatrimony.__file__).resolve().parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run


def last_json_line(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter and decode its last stdout line."""
    return json.loads(run_python("-c", code, *argv).stdout.splitlines()[-1])


def test_every_name_is_the_object_of_its_defining_module():
    for name, module_name in netpatrimony._EXPORTS.items():
        module = importlib.import_module(f"netpatrimony.{module_name}")
        value = getattr(netpatrimony, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from netpatrimony import *", namespace)
    for name in netpatrimony.__all__:
        assert namespace[name] is getattr(netpatrimony, name), name


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        netpatrimony.no_such_name


def test_fresh_import_loads_no_submodule_and_lists_every_name():
    loaded, names = last_json_line(
        "import json, sys, netpatrimony\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('netpatrimony.'))\n"
        "print(json.dumps([loaded, dir(netpatrimony)]))"
    )
    assert loaded == []
    assert set(netpatrimony.__all__) <= set(names)


def test_dir_lists_every_name_without_importing_a_submodule(monkeypatch):
    """The same promise in this process, with the submodules unloaded."""
    for module in [m for m in sys.modules if m.startswith("netpatrimony.")]:
        monkeypatch.delitem(sys.modules, module)
    assert set(netpatrimony.__all__) <= set(dir(netpatrimony))
    assert [m for m in sys.modules if m.startswith("netpatrimony.")] == []


#: Prints the exit code and the modules the command loaded beyond those of
#: ``import numpy`` (numpy 1.x loads ``numpy.random`` there, numpy 2 on first use).
_COMMAND_MODULES = """
import json, sys
import numpy
before = set(sys.modules)
from netpatrimony.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize(
    "command, left_out",
    [
        ("nip", {"netpatrimony.congen", "netpatrimony.reference", "numpy.random"}),
        ("knn", {"netpatrimony.congen", "netpatrimony.reference", "numpy.random"}),
        ("stats", {"netpatrimony.congen", "netpatrimony.reference", "numpy.random"}),
        ("report", {"netpatrimony.congen", "numpy.random"}),
        ("congen", {"netpatrimony.reference"}),
    ],
)
def test_command_imports_only_what_it_runs(tmp_path, command, left_out):
    """Each command loads neither the modules it does not run nor, unless it
    samples, ``numpy.random`` (which loads ``secrets``, ``hashlib`` and
    OpenSSL)."""
    source = SIX_NODE_FILE
    if command == "congen":
        source = tmp_path / "spec.json"
        source.write_text('{"source": "EXPLICIT", "params": {"degrees": [2, 2, 2]}, "seed": 1}')
    code, modules = last_json_line(
        _COMMAND_MODULES, command, str(source), "--output-dir", str(tmp_path / "out")
    )
    assert code == 0
    assert "netpatrimony.graph" in modules
    assert not left_out & set(modules)


def test_module_run_starts_without_warnings(tmp_path):
    """``python -W error -m netpatrimony.cli`` runs: the package namespace
    never imports ``cli`` ahead of runpy."""
    run_python(
        "-W", "error", "-m", "netpatrimony.cli",
        "nip", str(SIX_NODE_FILE), "--output-dir", str(tmp_path / "out"),
    )
    assert (tmp_path / "out" / "nip_node.csv").is_file()

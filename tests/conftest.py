"""Shared fixtures: small canonical graphs and optional large datasets.

The SNAP Amazon files are not bundled.  Tests that need them look in
``$NETPATRIMONY_DATA_DIR`` (default: ``<repo>/data``) for
``amazon0302.txt`` etc. and skip with a clear message when absent.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from netpatrimony import RAW_MULTISET, SIMPLE, build_graph
from netpatrimony.reference import AMAZON_REFERENCE, SIX_NODE_EDGES

DATA_ENV = "NETPATRIMONY_DATA_DIR"

SIX_NODE_FILE = Path(__file__).parent / "data" / "six_node.txt"


#: A valid ``congen`` spec per source, and each spec field with values of the
#: wrong type for it: null, a bool, a string, a fraction where an integer is
#: due, a list where a number is due or a non-list where a list is, and
#: numbers out of range (beyond int64, not finite, degrees summing past int64).
VALID_SPECS = {
    "EXPLICIT": {"source": "EXPLICIT", "params": {"degrees": [2, 2, 2]}},
    "POISSON": {"source": "POISSON", "params": {"mean": 2.0, "n": 10}},
    "POWERLAW": {"source": "POWERLAW", "params": {"exponent": 2.5, "min_degree": 1, "n": 10}},
}
_BAD_INTEGERS = [None, True, "2", 2.5, 2.0, [2], 2**63]
_BAD_REALS = [None, False, "2.5", [2.5], float("inf"), float("nan")]
BAD_SPEC_FIELDS = [
    *(("EXPLICIT", field, v) for field in ("seed", "max_attempts") for v in _BAD_INTEGERS),
    *(
        ("EXPLICIT", "degrees", v)
        for v in [None, True, "2", 2, {"0": 2}, [2, 1.5], [True], [None], [2**62] * 4]
    ),
    *(("POISSON", "mean", v) for v in _BAD_REALS),
    pytest.param("POISSON", "mean", 10**400, id="POISSON-mean-10**400"),  # too large for a float
    *(("POISSON", "n", v) for v in _BAD_INTEGERS),
    *(("POWERLAW", "exponent", v) for v in _BAD_REALS),
    *(("POWERLAW", field, v) for field in ("min_degree", "n") for v in _BAD_INTEGERS),
]

#: Specs holding a key the reader does not know, at the top level or in
#: ``params`` (a misspelling, or another source's parameter), and that key.
UNKNOWN_SPEC_KEYS = [
    pytest.param({**VALID_SPECS[src], **extra}, key, id=key)
    for src, extra, key in [
        ("EXPLICIT", {"simple_polcy": "REJECT"}, "simple_polcy"),
        ("EXPLICIT", {"params": {"degrees": [2, 2, 2], "degreez": [2]}}, "params.degreez"),
        ("POISSON", {"params": {"mean": 2.0, "n": 10, "degrees": [2]}}, "params.degrees"),
    ]
]


def bad_spec(source: str, field: str, value) -> dict:
    """The valid spec of ``source`` with ``field`` set to ``value``."""
    spec = {**VALID_SPECS[source], "params": dict(VALID_SPECS[source]["params"])}
    (spec if field in ("seed", "max_attempts") else spec["params"])[field] = value
    return spec


def data_dir() -> Path:
    return Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parents[1] / "data"))


def amazon_path(name: str) -> Path | None:
    path = data_dir() / f"{name}.txt"
    return path if path.is_file() else None


def require_amazon(name: str) -> Path:
    path = amazon_path(name)
    if path is None:
        pytest.skip(
            f"{name}.txt not found in {data_dir()} "
            f"(download from https://snap.stanford.edu/data/ and set ${DATA_ENV})"
        )
    return path


@pytest.fixture
def six_node_simple():
    return build_graph(SIX_NODE_EDGES, mode=SIMPLE)


@pytest.fixture
def six_node_raw():
    return build_graph(SIX_NODE_EDGES, mode=RAW_MULTISET)


@pytest.fixture
def path5():
    """Path graph 1-2-3-4-5."""
    return build_graph([(1, 2), (2, 3), (3, 4), (4, 5)], mode=SIMPLE)


@pytest.fixture
def star5():
    """Star with centre 0 and four leaves."""
    return build_graph([(0, i) for i in range(1, 5)], mode=SIMPLE)


@pytest.fixture
def complete5():
    return build_graph(
        [(i, j) for i in range(5) for j in range(i + 1, 5)], mode=SIMPLE
    )


@pytest.fixture
def ring6():
    return build_graph([(i, (i + 1) % 6) for i in range(6)], mode=SIMPLE)


@pytest.fixture(params=sorted(AMAZON_REFERENCE))
def amazon_dataset(request):
    """(name, path) for each reference dataset; skips when the file is absent."""
    return request.param, require_amazon(request.param)

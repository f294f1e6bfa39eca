"""Configuration-model sampling from explicit or parametric degree sequences.

Generation is plain stub matching: each node contributes as many stubs as
its degree, the stub array is shuffled once with a seeded generator and
consecutive stubs are paired.  Matching may produce self-loops and parallel
edges; three policies handle them:

* ``MULTIGRAPH`` keeps everything (degrees preserved exactly),
* ``ERASE`` is ``build_graph``'s SIMPLE mode of the matching: self-loops
  dropped, parallel edges collapsed (degrees may shrink; isolated nodes kept),
* ``REJECT`` refuses a non-graphical sequence before any matching, then
  re-shuffles until that SIMPLE build drops nothing, at most ``max_attempts`` times.

Randomness comes from ``numpy.random.default_rng`` (PCG64); equal seeds
give byte-identical graphs.  For ensembles, derive independent streams by
seeding member i with ``default_rng([seed, i])`` instead of sharing one
generator across members.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import RAW_MULTISET, SIMPLE, Graph, _labels, build_graph

MULTIGRAPH = "MULTIGRAPH"
ERASE = "ERASE"
REJECT = "REJECT"
SIMPLE_POLICIES = (MULTIGRAPH, ERASE, REJECT)

EXPLICIT = "EXPLICIT"
POISSON = "POISSON"
POWERLAW = "POWERLAW"
SOURCES = (EXPLICIT, POISSON, POWERLAW)

RNG_NAME = "pcg64"
_PARITY_ATTEMPTS = 1000


class RejectionExhaustedError(RuntimeError):
    """REJECT policy failed to produce a simple matching within the budget."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no simple stub matching found in {attempts} attempts of a graphical "
            "sequence; the ERASE policy or a larger max_attempts avoids this error"
        )
        self.attempts = attempts


#: Each source's parameters in ``to_dict`` order as (type, bound): an
#: ``int`` is a 64-bit integer >= bound, a ``float`` a finite number > bound,
#: a ``list`` a non-empty list of such ints.
_PARAMS = {
    EXPLICIT: {"degrees": (list, 0)},
    POISSON: {"mean": (float, 0), "n": (int, 1)},
    POWERLAW: {"exponent": (float, 1), "min_degree": (int, 1), "n": (int, 1)},
}

#: The keys of a spec object, whose ``params`` holds its source's ``_PARAMS``.
_SPEC_KEYS = ("source", "params", "seed", "simple_policy", "max_attempts")


def _degree_total(degrees: np.ndarray, name: str = "degrees") -> int:
    """Exact sum of the non-negative int64 ``degrees``; ValueError naming
    ``name`` unless it is below 2^63, so that the stubs fit an int64 array."""
    wraps = degrees.size and int(degrees.max()) * degrees.size >= 2**63
    total = sum(degrees.tolist()) if wraps else int(degrees.sum())
    if total >= 2**63:
        raise ValueError(f"{name} must sum to less than 2^63, got {total}")
    return total


def _typed(name: str, value, kind: type, bound):
    """``value`` of spec field ``name`` if ``kind`` and ``bound`` allow it
    (see ``_PARAMS``; never a bool), a list (or tuple, or 1-d array) as a
    tuple; otherwise ValueError naming the field."""
    if kind is list:
        value = value.tolist() if isinstance(value, np.ndarray) else value
        if isinstance(value, (list, tuple)) and value:
            return tuple(_typed(f"{name}[{i}]", v, int, bound) for i, v in enumerate(value))
        expected = "a non-empty list of integers"
    elif kind is int:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            if bound <= int(value) < 2**63:
                return int(value)
        expected = f"a 64-bit integer >= {bound}"
    else:
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            # Refuses inf, NaN and (where math.isfinite raises) ints beyond a float.
            if bound < value <= sys.float_info.max:
                return float(value)
        expected = f"a finite number > {bound}"
    got = json.dumps(value, default=repr)
    raise ValueError(f"spec field {name!r} must be {expected}, got {got}")


@dataclass(frozen=True)
class DegreeSequenceSpec:
    """Declarative description of where a degree sequence comes from.

    Exactly one source is active: EXPLICIT uses ``degrees`` verbatim,
    POISSON draws ``n`` samples with the given ``mean``, POWERLAW draws
    ``n`` samples with tail exponent ``exponent`` on the support
    ``min_degree .. n-1``.  ``seed``, ``max_attempts`` and the source's
    parameters are read by ``_typed`` as ``_PARAMS`` says; the other
    sources' parameters are ignored (``from_dict`` refuses them).
    """

    source: str
    seed: int = 0
    simple_policy: str = MULTIGRAPH
    max_attempts: int = 100
    degrees: tuple[int, ...] | None = None
    mean: float | None = None
    exponent: float | None = None
    min_degree: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown degree-sequence source: {self.source!r}")
        if self.simple_policy not in SIMPLE_POLICIES:
            raise ValueError(f"unknown simple policy: {self.simple_policy!r}")
        fields = {"seed": (int, 0), "max_attempts": (int, 1), **_PARAMS[self.source]}
        for name, (kind, bound) in fields.items():
            object.__setattr__(self, name, _typed(name, getattr(self, name), kind, bound))
        if self.source == EXPLICIT:
            _degree_total(np.array(self.degrees, dtype=np.int64), "spec field 'degrees'")
        if self.source == POWERLAW and self.min_degree > self.n - 1:
            raise ValueError(
                f"min_degree {self.min_degree} exceeds the largest possible "
                f"degree {self.n - 1}"
            )

    @classmethod
    def explicit(cls, degrees: Sequence[int], **kw) -> "DegreeSequenceSpec":
        return cls(source=EXPLICIT, degrees=degrees, **kw)

    @classmethod
    def poisson(cls, mean: float, n: int, **kw) -> "DegreeSequenceSpec":
        return cls(source=POISSON, mean=mean, n=n, **kw)

    @classmethod
    def power_law(cls, exponent: float, min_degree: int, n: int, **kw) -> "DegreeSequenceSpec":
        return cls(source=POWERLAW, exponent=exponent, min_degree=min_degree, n=n, **kw)

    def to_dict(self) -> dict:
        params = {
            name: list(getattr(self, name)) if kind is list else getattr(self, name)
            for name, (kind, _) in _PARAMS[self.source].items()
        }
        return {
            "source": self.source,
            "params": params,
            "seed": self.seed,
            "simple_policy": self.simple_policy,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegreeSequenceSpec":
        """The spec of a JSON object: ``source``, its ``params`` object, and
        optionally ``seed``, ``simple_policy`` and ``max_attempts``.  Any
        other key, or a parameter the source does not take, is a ValueError
        naming it."""
        params = data.get("params", {}) if isinstance(data, dict) else None
        if not isinstance(params, dict) or "source" not in data:
            raise ValueError("spec must be an object with a 'source' and a 'params' object")
        # An unknown source is reported by __post_init__, whatever its params.
        names = _PARAMS[data["source"]] if data["source"] in SOURCES else params
        unknown = [k for k in data if k not in _SPEC_KEYS]
        unknown += [f"params.{k}" for k in params if k not in names]
        if unknown:
            raise ValueError(f"unknown spec key {unknown[0]!r}")
        settings = {k: data[k] for k in ("seed", "simple_policy", "max_attempts") if k in data}
        return cls(source=data["source"], **settings, **{k: params.get(k) for k in names})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DegreeSequenceSpec":
        return cls.from_dict(json.loads(text))


def _eg_slack(sorted_desc: np.ndarray) -> np.ndarray:
    """Erdos-Gallai slack rhs(k) - lhs(k) for k = 1..n over a sorted sequence."""
    d = sorted_desc.astype(np.int64)
    n = len(d)
    prefix = np.concatenate(([0], np.cumsum(d)))
    suffix = prefix[n] - prefix
    ks = np.arange(1, n + 1, dtype=np.int64)
    # Count of entries >= k (the array is non-increasing).
    count_ge = np.searchsorted(-d, -ks, side="right")
    big = np.maximum(count_ge - ks, 0)  # entries beyond index k that are >= k
    split = np.maximum(ks, count_ge)
    rhs = ks * (ks - 1) + big * ks + suffix[split]
    lhs = prefix[ks]
    return rhs - lhs


def is_graphical(degrees: Sequence[int] | np.ndarray) -> bool:
    """Whether some simple graph realizes the degree sequence.

    Uses the Erdos-Gallai criterion: the degree sum must be even and every
    prefix of the non-increasing sequence must satisfy
    sum(d_1..d_k) <= k(k-1) + sum(min(d_j, k) for j > k).
    The empty sequence and all-zero sequences are graphical.  Degrees are
    checked as in ``first_violated_prefix``.
    """
    d = _labels(degrees, "degrees")
    return first_violated_prefix(d) is None and int(d.sum()) % 2 == 0


def first_violated_prefix(degrees: Sequence[int] | np.ndarray) -> int | None:
    """Smallest k whose Erdos-Gallai inequality fails, or None.

    Parity is not checked here; an odd-sum sequence can still return None.
    Raises ValueError unless the degrees are non-negative int64 integers.
    """
    d = _labels(degrees, "degrees")
    if (d < 0).any():
        raise ValueError("degrees must be non-negative")
    if d.size == 0:
        return None
    slack = _eg_slack(np.sort(d)[::-1])
    bad = np.flatnonzero(slack < 0)
    return int(bad[0]) + 1 if bad.size else None


def _sampler(spec: DegreeSequenceSpec) -> Callable[[np.random.Generator, int], np.ndarray]:
    """``draw(rng, size)``: ``size`` degrees of a parametric ``spec``.  The
    POWERLAW CDF is built here once, so a parity redraw costs one uniform
    draw and one binary search."""
    if spec.source == POISSON:
        return lambda rng, size: rng.poisson(spec.mean, size).astype(np.int64)
    # POWERLAW: inverse-CDF sampling on the integer support min_degree..n-1,
    # weighting degree d by d**-exponent.
    cdf = np.cumsum(np.arange(spec.min_degree, spec.n, dtype=float) ** (-spec.exponent))
    cdf /= cdf[-1]
    return lambda rng, size: spec.min_degree + np.searchsorted(cdf, rng.random(size), side="left")


def sample_degree_sequence(spec: DegreeSequenceSpec) -> np.ndarray:
    """Materialize the degree sequence described by ``spec``.

    EXPLICIT sequences pass through untouched.  Parametric draws use the
    spec's seed; while the sum is odd, one uniformly chosen entry is
    redrawn, and RuntimeError is raised if ``_PARITY_ATTEMPTS`` leave it odd.
    """
    if spec.source == EXPLICIT:
        return np.asarray(spec.degrees, dtype=np.int64)
    rng = np.random.default_rng(spec.seed)
    draw = _sampler(spec)
    seq = draw(rng, spec.n)
    for _ in range(_PARITY_ATTEMPTS):
        if int(seq.sum()) % 2 == 0:
            return seq
        pos = int(rng.integers(spec.n))
        seq[pos] = draw(rng, 1)[0]
    if int(seq.sum()) % 2:
        raise RuntimeError(f"could not reach an even degree sum after {_PARITY_ATTEMPTS} redraws")
    return seq


def _match_stubs(degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The shuffled stubs paired consecutively: the stub array itself, of
    even length, reshaped in place to ``(m, 2)``, so it still owns its data
    and ``build_graph`` may build in it."""
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    stubs.shape = (-1, 2)
    return stubs


def generate(
    degrees: Sequence[int] | np.ndarray,
    seed: int = 0,
    simple_policy: str = MULTIGRAPH,
    max_attempts: int = 100,
) -> tuple[Graph, dict]:
    """Configuration-model graph plus generation metadata.

    Returns ``(graph, info)`` where ``info`` records only what generation
    found: the rng, the number of matching attempts and, under ERASE, how
    many edges were removed.  MULTIGRAPH builds each matching in
    ``build_graph``'s RAW_MULTISET mode, ERASE and REJECT in its SIMPLE mode.
    The graph always contains all ``len(degrees)`` nodes (labelled 0..n-1),
    so zero-degree entries become isolated nodes.

    Raises ValueError for an unknown policy, ``max_attempts`` below 1, an
    empty sequence, a degree not a non-negative int64 integer, a sum of 2^63
    or more, under REJECT a non-graphical sequence (before any matching), or
    an odd degree sum; RejectionExhaustedError when REJECT runs out of attempts.
    """
    if simple_policy not in SIMPLE_POLICIES:
        raise ValueError(f"unknown simple policy: {simple_policy!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    deg = _labels(degrees, "degrees")
    if deg.size == 0:
        raise ValueError("degree sequence is empty")
    if (deg < 0).any():
        raise ValueError("degrees must be non-negative")
    total = _degree_total(deg)
    if simple_policy == REJECT and (k := first_violated_prefix(deg)) is not None:
        raise ValueError(
            f"sequence is not graphical; the top-{k} prefix of the "
            "sorted sequence already exceeds its available endpoints"
        )
    if total % 2:
        raise ValueError(f"degree sum must be even to pair stubs, got {total}")
    nodes = np.arange(len(deg), dtype=np.int64)
    mode = RAW_MULTISET if simple_policy == MULTIGRAPH else SIMPLE
    rng = np.random.default_rng(seed)
    info = {"rng": RNG_NAME}

    for attempt in range(1, (max_attempts if simple_policy == REJECT else 1) + 1):
        info["attempts"] = attempt
        g = build_graph(_match_stubs(deg, rng), mode, nodes, overwrite_edges=True)
        erased = total // 2 - g.edge_count  # a RAW_MULTISET build keeps every stub pair
        if simple_policy == ERASE:
            info["erased_edges"] = erased
        if simple_policy != REJECT or erased == 0:
            return g, info
        del g  # freed before the next matching is laid out
    raise RejectionExhaustedError(max_attempts)

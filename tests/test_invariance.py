"""Verdicts that do not depend on where, or in what units, a line is sampled.

By the definitions each of the four properties is unchanged by the
reflection t -> -t, by f -> a*f + b with a > 0, and by f -> exp(f).  On 420
functions, the 1-D golden battery and ``random_battery(200)`` on seeds 1 and
4242, every property is decided by both methods before and after a
transformation, and the outcomes are compared.  A grid refined from n to
2n - 1 points holds the first grid, so with the band fixed a failure seen on
the first is seen again: no ``fails`` becomes ``holds``.

The tolerances are absolute (ROADMAP item 19), so 1e-6*f, f + 1e6 and
exp(f) move verdicts today: those cases are strict xfails.
"""

import functools
import time

import numpy as np
import pytest

from dinicvx.battery import golden_battery, random_battery
from dinicvx.charact import properties
from dinicvx.domain import Interval, LineGrids, make_grid, parse_interval
from dinicvx.oracle import SampledProblem

from conftest import phi_of

ENTRIES = ([e for e in golden_battery() if e.arity == 1] + list(random_battery(200, seed=1))
           + list(random_battery(200, seed=4242)))
# Seconds one pass over the 420 functions may take.  A pass took 0.6 s at
# 257 points and 1.1 s at 4097 on a 2-core VM.
PASS_LIMIT = 20.0


def mirrored(dom: LineGrids) -> LineGrids:
    """The grid of t -> -t: the points negated and reversed, the interval
    with them."""
    [iv] = dom.interval
    return LineGrids((Interval(-iv.hi, -iv.lo, iv.hi_closed, iv.lo_closed),),
                     -dom.points[:, ::-1], dom.n)


def outcomes(n: int, transform=None, mirror: bool = False, tol: float | None = None) -> list:
    """The outcome of every property by every method, entry by entry, at
    ``n`` points: of ``transform(phi)`` (phi itself when None), on the
    mirrored grid of ``phi(-t)`` when ``mirror``, with the band ``tol``."""
    start = time.perf_counter()
    out = []
    for entry in ENTRIES:
        phi, dom = phi_of(entry.expression), make_grid(parse_interval(entry.domain), n)
        if mirror:
            phi, dom = (lambda ts, phi=phi: phi(-ts)), mirrored(dom)
        p = SampledProblem(transform(phi) if transform else phi, dom, tol=tol)
        out.append({(prop.check, name): verdicts[0].outcome for prop in properties()
                    for name, verdicts in prop.verdicts(p).items()})
    elapsed = time.perf_counter() - start
    assert elapsed < PASS_LIMIT, f"one pass took {elapsed:.1f} s"
    return out


@functools.cache
def plain(n: int, tol: float | None = None) -> list:
    return outcomes(n, tol=tol)


def moved(before: list, after: list, changed=lambda a, b: a != b) -> list:
    """Each (entry, property, method, before, after) the relation breaks."""
    return [(entry.id, *key, a[key], b[key]) for entry, a, b in zip(ENTRIES, before, after)
            for key in a if changed(a[key], b[key])]


def test_the_inputs_are_420_functions_of_eight_verdicts_each():
    assert len(ENTRIES) == 420
    assert all(len(found) == 8 for found in plain(257))


@pytest.mark.parametrize("n", [257, 4097])
def test_reflection_on_the_mirrored_grid_moves_no_verdict(n):
    assert moved(plain(n), outcomes(n, mirror=True)) == []


def test_refining_a_nested_grid_turns_no_fails_into_holds():
    # 513 points hold the 257 bit for bit; the band is fixed, not scaled
    coarse = make_grid(parse_interval("[-2,2]"), 257).points
    assert np.array_equal(coarse, make_grid(parse_interval("[-2,2]"), 513).points[:, ::2])
    assert moved(plain(257, 1e-9), plain(513, 1e-9),
                 lambda a, b: a == "fails" and b == "holds") == []


def _units_xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=f"item 19: absolute tolerances; {reason}")


@pytest.mark.parametrize("transform", [
    pytest.param(lambda phi: lambda ts: 1000 * phi(ts), id="1000f"),
    pytest.param(lambda phi: lambda ts: phi(ts) + 10, id="f+10"),
    pytest.param(lambda phi: lambda ts: 1e-6 * phi(ts), id="1e-6f",
                 marks=_units_xfail("157 verdicts move")),
    pytest.param(lambda phi: lambda ts: phi(ts) + 1e6, id="f+1e6",
                 marks=_units_xfail("69 verdicts move")),
    pytest.param(lambda phi: lambda ts: np.exp(phi(ts)), id="exp",
                 marks=_units_xfail("8 verdicts move")),
])
def test_a_change_of_units_moves_no_verdict(transform):
    assert moved(plain(257), outcomes(257, transform)) == []

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

Every comparison up to the band reads one rule, ``SampledProblem.beyond``,
``at_min`` and ``steps``.  With those three reading ``WIDE`` times the band,
and the band itself (the ``tol`` a verdict reports) left as it is, every
property by both methods and T4 and T7 decide as with ``tol`` set to
``WIDE`` times the band: a site that compared against the band itself
would decide as before.  So does T6 on lines of the 2-D golden entries.
"""

import functools
import time
from functools import cached_property

import numpy as np
import pytest

from dinicvx.battery import golden_battery, random_battery
from dinicvx.charact import properties
from dinicvx.domain import MARGIN, Interval, LineGrids, make_grid, parse_interval
from dinicvx.oracle import SampledProblem
from dinicvx.theorems import (SUITE_SCHEDULE, check_t4, check_t6, check_t7, line_problems,
                              sample_pairs)

from conftest import phi_of

ENTRIES = ([e for e in golden_battery() if e.arity == 1] + list(random_battery(200, seed=1))
           + list(random_battery(200, seed=4242)))
# Seconds one pass over the 420 functions may take.  A pass took 0.6 s at
# 257 points and 1.1 s at 4097 on a 2-core VM.
PASS_LIMIT = 20.0
# The factor the band-swap test widens the rule's band by.  A factor of 3
# or 1e3 moves the outcomes of almost no function, so it would not show a
# site that skips the rule.
WIDE = 1e7


def mirrored(dom: LineGrids) -> LineGrids:
    """The grid of t -> -t: the points negated and reversed, the interval
    with them."""
    [iv] = dom.interval
    return LineGrids((Interval(-iv.hi, -iv.lo, iv.hi_closed, iv.lo_closed),),
                     -dom.points[:, ::-1], dom.n)


def decided(p: SampledProblem, theorems: bool = False) -> dict:
    """The outcome of every property by every method on ``p``, and with
    ``theorems`` the status of T4 and T7."""
    out = {(prop.check, name): verdicts[0].outcome for prop in properties()
           for name, verdicts in prop.verdicts(p).items()}
    if theorems:
        out.update({check.__name__: check(p).status for check in (check_t4, check_t7)})
    return out


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
        out.append(decided(SampledProblem(transform(phi) if transform else phi, dom, tol=tol)))
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


class _WideBand:
    """``p`` as the rule's members read it, with ``WIDE`` times its band."""

    def __init__(self, p: SampledProblem):
        self.p, self.band = p, WIDE * p.band

    def __getattr__(self, name: str):
        return getattr(self.p, name)


def _theorem_pass(tols: list) -> list:
    """Every outcome, T4 and T7 included, of each entry at 257 points with
    the band ``tols[k]`` of entry k (None: the default)."""
    start = time.perf_counter()
    out = [decided(SampledProblem(phi_of(entry.expression),
                                  make_grid(parse_interval(entry.domain), 257), tol=tol), True)
           for entry, tol in zip(ENTRIES, tols)]
    elapsed = time.perf_counter() - start
    assert elapsed < PASS_LIMIT, f"one pass took {elapsed:.1f} s"
    return out


def _widen_the_rule(monkeypatch) -> None:
    """Patch the rule's members to read ``WIDE`` times the band."""
    for name in ("beyond", "at_min", "steps"):
        member = SampledProblem.__dict__[name]
        if isinstance(member, cached_property):
            monkeypatch.setattr(SampledProblem, name, property(
                lambda self, read=member.func: read(_WideBand(self))))
        else:
            monkeypatch.setattr(SampledProblem, name,
                                lambda self, *args, read=member: read(_WideBand(self), *args))


def test_every_band_comparison_reads_the_rule(monkeypatch):
    wide_tols = [float(WIDE * SampledProblem(phi_of(entry.expression),
                                             make_grid(parse_interval(entry.domain), 257)).band[0])
                 for entry in ENTRIES]
    unpatched, wide = _theorem_pass([None] * len(ENTRIES)), _theorem_pass(wide_tols)
    _widen_the_rule(monkeypatch)
    patched = _theorem_pass([None] * len(ENTRIES))
    assert moved(wide, patched) == []
    # the factor moves most functions, so a site that skipped the rule shows
    assert sum(a != b for a, b in zip(unpatched, wide)) > len(ENTRIES) // 2


def _t6_pass(wide_tol: bool = False) -> list:
    """T6's status and detail on each line of the 2-D golden entries,
    one line a batch, with ``WIDE`` times the line's band as ``tol`` when
    ``wide_tol``.  The lines are each entry's explicit pairs, three sampled
    ones and the pair from the origin to (-0.01, 1): on cube-x1 that line's
    values span 2e-6, inside ``WIDE`` times the band, but f(y) lies 1e-6
    below f(x), beyond the band itself, and t=0 is stationary.  There T6
    reads the rule to ask whether t=0 is a stationary origin."""
    out = []
    for entry in golden_battery():
        if entry.arity != 2:
            continue
        f, box = phi_of(entry.expression, 2), tuple(map(parse_interval, entry.box))
        for pair in [*(entry.pairs or ()), ((0.0, 0.0), (-0.01, 1.0)),
                     *sample_pairs(box, 3, seed=1)]:
            def batches(tol):
                return list(line_problems(f, [tuple(np.asarray(pair, dtype=float))], box, 257,
                                          MARGIN, SUITE_SCHEDULE, tol, 1e-7))
            found = batches(None)
            if wide_tol:
                found = batches(WIDE * float(found[0][3].band[0]))
            rep = check_t6(found, entry.id)
            out.append((entry.id, rep.status, rep.detail))
    return out


def test_t6_reads_the_rule(monkeypatch):
    unpatched, wide = _t6_pass(), _t6_pass(wide_tol=True)
    _widen_the_rule(monkeypatch)
    assert _t6_pass() == wide
    assert unpatched != wide

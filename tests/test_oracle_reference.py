"""The whole-array oracles and structural scans against their references.

``oracle_reference`` keeps the per-index scans that the package replaced,
and literal pair and triple loops.  The package's verdicts, decompositions
and stationarity witnesses must be ``repr``-identical to the scans', and its
outcomes must equal the loops'.  A last test bounds the oracles' time on a
fine grid, so that a scan quadratic in the grid size cannot come back.
"""

import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as ref
from dinicvx import (
    SUITE_SCHEDULE,
    SampledProblem,
    charact,
    golden_battery,
    oracle,
    random_battery,
)
from dinicvx.dini import GridDiniProfile
from dinicvx.domain import Interval, LineGrids

from conftest import grid_for, phi_of

ORACLES = ("pseudoconvex_def", "strictly_pseudoconvex_def", "quasiconvex_def",
           "semistrictly_quasiconvex_def")
STAT_TOL = 1e-7

# One direction of a profile row: (unit value, converged, feasible).
ROWS = {
    "descends": (-1.0, True, True),
    "descends_unconverged": (-1.0, False, True),  # a running minimum: final
    "at_bar": (-STAT_TOL, True, True),
    "at_bar_unconverged": (-STAT_TOL, False, True),
    "flat": (0.0, True, True),
    "flat_unconverged": (0.0, False, True),
    "rises": (1.0, True, True),
    "infeasible": (np.nan, False, False),
}


def table_problem(vals, lo_closed=True, hi_closed=True, tol=None, rows=None):
    """A problem of one line whose phi takes ``vals`` on its grid over [0,1]
    (any n >= 1), with the Dini profile given by ``rows`` (pairs of ROWS
    keys) if set."""
    n = len(vals)
    pts = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5])
    dom = LineGrids((Interval(-1e-3, 1.001, lo_closed, hi_closed),), pts[None], np.array([n]))
    table = np.asarray(vals, dtype=float)
    p = SampledProblem(lambda ts: table[np.searchsorted(pts, ts)], dom,
                       tol=tol, stat_tol=STAT_TOL)
    if rows is not None:
        # (value, converged, feasible) x side x point
        entries = np.array([[ROWS[m] for m, _ in rows], [ROWS[q] for _, q in rows]],
                           dtype=object).transpose(2, 0, 1)
        vars(p)["profile"] = GridDiniProfile(
            entries[0].astype(float)[None], entries[1].astype(bool)[None],
            entries[2].astype(bool)[None], np.ones((1, 2, n), dtype=bool),
        )
    return p


@st.composite
def problems(draw):
    # runs of small integers: ties, plateaus, and with tol = scale values
    # exactly one band apart
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 8)),
                         min_size=1, max_size=12))
    scale = draw(st.sampled_from([1.0, 0.1, 1e6]))
    vals = [v * scale for v, k in runs for _ in range(k)][:40]
    undefined_at = draw(st.integers(0, 400))
    if undefined_at < len(vals):
        vals[undefined_at] = np.nan
    tol = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
    rows = draw(st.lists(st.tuples(st.sampled_from(sorted(ROWS)), st.sampled_from(sorted(ROWS))),
                         min_size=len(vals), max_size=len(vals)))
    return table_problem(vals, draw(st.booleans()), draw(st.booleans()),
                         None if tol is None else tol * scale, rows)


@given(problems())
@settings(max_examples=600, deadline=None)
def test_oracles_match_reference_scans_and_loops(p):
    for name in ORACLES:
        got = getattr(oracle, name)(p)[0]
        assert repr(got) == repr(getattr(ref, name)(p)), name
        if not p.undefined[0]:
            vals, tol = p.values[0], p.band[0]
            literal = {
                "pseudoconvex_def": lambda: ref.pair_loop(p, strict=False),
                "strictly_pseudoconvex_def": lambda: ref.pair_loop(p, strict=True),
                "quasiconvex_def": lambda: ref.quasiconvex_triple_loop(vals, tol),
                "semistrictly_quasiconvex_def": lambda: ref.semistrict_triple_loop(vals, tol),
            }[name]()
            assert got.outcome == literal, name


def outside_band(p, dec):
    """The mask of the grid points of ``p``'s one line outside the minimum
    band of ``dec``."""
    idx = np.arange(p.dom.points.shape[1])
    return p.dom.valid & ((idx < dec.i_hat[0]) | (idx >= dec.i_hat[1]))


@given(problems())
@settings(max_examples=600, deadline=None)
def test_structural_scans_match_reference(p):
    assert repr(charact.martos_segments(p)[0]) == repr(ref.martos_segments(p))
    dec = charact.decompose(p)[0]
    assert repr(dec) == repr(ref.decompose(p))
    if not p.undefined[0]:
        found = p.stationary(outside_band(p, dec))
        assert repr(charact._stationarity_scan(p, 0, found)) == repr(ref.stationarity_scan(p, dec))


# Each line's values open windows of every small length both ways: after
# 3, 1 the window past the neighbour is empty before 0, one point long
# before 2, 0 and two before 2, 2, 0; with tol = scale, 4, 3 puts x + 1
# exactly one band below x.
@st.composite
def batches(draw):
    scale = draw(st.sampled_from([1.0, 0.1, 1e6]))
    tol = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
    motifs = st.sampled_from([[3, 1, 0], [3, 1, 2, 0], [3, 1, 2, 2, 0], [0, 2, 2, 1, 3],
                              [0, 2, 1, 3], [0, 1, 3], [4, 3], [3, 4]])
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        parts = draw(st.lists(motifs | st.lists(st.integers(0, 4), min_size=1, max_size=4),
                              min_size=1, max_size=4))
        lines.append([v * scale for part in parts for v in part][:16])
    undefined = draw(st.integers(-1, len(lines) - 1))
    if undefined >= 0:
        lines[undefined][draw(st.integers(0, len(lines[undefined]) - 1))] = np.nan
    return lines, None if tol is None else tol * scale


@given(batches())
# seven points with a hit rightward, then one whose leftward hit is decided
# by its neighbour and whose rightward hit, reported eighth, needs the search
@example(([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.4, 2.0, 9.0, 0.0]], 0.5))
@settings(max_examples=400, deadline=None)
def test_semistrict_batch_lines_match_each_line_alone(batch):
    lines, tol = batch
    n = np.array([len(v) for v in lines])
    pts = np.full((len(lines), n.max()), np.nan)
    table = np.full(pts.shape, np.nan)
    for i, vals in enumerate(lines):
        pts[i, : n[i]] = np.linspace(0.0, 1.0, n[i]) if n[i] > 1 else 0.5
        table[i, : n[i]] = vals
    dom = LineGrids((Interval(-1e-3, 1.001),) * len(lines), pts, n)
    got = oracle.semistrictly_quasiconvex_def(
        SampledProblem(lambda ts: table.copy(), dom, tol=tol, stat_tol=STAT_TOL))
    for i, vals in enumerate(lines):
        alone = table_problem(vals, tol=tol)
        assert repr(got[i]) == repr(ref.semistrictly_quasiconvex_def(alone)), i
        assert repr(got[i]) == repr(oracle.semistrictly_quasiconvex_def(alone)[0]), i
        if not alone.undefined[0]:
            assert got[i].outcome == ref.semistrict_triple_loop(alone.values[0], alone.band[0]), i


@pytest.mark.parametrize("source,domain", [
    ("t^2", "[-1,1]"), ("abs(t)", "[-1,1]"), ("max(0, abs(t) - 1)", "[-2,2]"),
    ("piecewise(t < 0: -t, else: t - 1)", "[-2,2]"),
])
def test_semistrict_on_a_valley_line_makes_no_window_search(monkeypatch, source, domain):
    # no x of a valley line needs the search, so _window_max is never called
    calls = []
    real = oracle._window_max
    monkeypatch.setattr(oracle, "_window_max", lambda *a: calls.append(a) or real(*a))
    p = SampledProblem(phi_of(source), grid_for(domain), stat_tol=STAT_TOL)
    got = oracle.semistrictly_quasiconvex_def(p)
    assert calls == []
    assert repr(got[0]) == repr(ref.semistrictly_quasiconvex_def(p))
    assert got[0].outcome == ref.semistrict_triple_loop(p.values[0], p.band[0]) == "holds"
    # the search still runs where an x needs it: the rightward hit of 7.4
    p = table_problem([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.4, 2.0, 9.0, 0.0], tol=0.5)
    got = oracle.semistrictly_quasiconvex_def(p)
    assert len(calls) == 1
    assert repr(got[0]) == repr(ref.semistrictly_quasiconvex_def(p))


def test_one_point_grid():
    p = table_problem([2.0], rows=[("infeasible", "infeasible")])
    for name in ORACLES:
        assert getattr(oracle, name)(p)[0].outcome == "holds"
        assert repr(getattr(oracle, name)(p)[0]) == repr(getattr(ref, name)(p))


def test_witness_cap_in_pair_order():
    # every point but the last has a lower point on its right and none
    # descends: the first eight (x, side) entries are reported, in order
    vals = [float(v) for v in (5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0)]
    p = table_problem(vals, rows=[("flat", "flat")] * len(vals))
    got = oracle.pseudoconvex_def(p)[0]
    assert repr(got) == repr(ref.pseudoconvex_def(p))
    assert len(got.witnesses) == oracle._WITNESS_CAP


def fine_and_battery_cases():
    entries = [e for e in golden_battery() if e.arity == 1]
    seeded = [e for e in random_battery(16, seed=20261018) if e.arity == 1]
    for n in (257, 4097):
        for e in entries + seeded:
            yield pytest.param(e.expression, e.domain, n, id=f"{e.id}-{n}")


@pytest.mark.parametrize("expression, domain, n", list(fine_and_battery_cases()))
def test_battery_grids_match_reference(expression, domain, n):
    p = SampledProblem(phi_of(expression), grid_for(domain, n), SUITE_SCHEDULE)
    for name in ORACLES:
        assert repr(getattr(oracle, name)(p)[0]) == repr(getattr(ref, name)(p)), name
    assert repr(charact.martos_segments(p)[0]) == repr(ref.martos_segments(p))
    dec = charact.decompose(p)[0]
    assert repr(dec) == repr(ref.decompose(p))
    if not p.undefined[0]:
        found = p.stationary(outside_band(p, dec))
        assert repr(charact._stationarity_scan(p, 0, found)) == repr(ref.stationarity_scan(p, dec))


class _TooSlow(BaseException):
    """Raised by the alarm; a BaseException, so nothing on the way catches it."""


def _alarm(signum, frame):
    raise _TooSlow()


@pytest.mark.parametrize("expression", ["t^2", "t^3"])
def test_oracles_scale_to_fine_grids(expression):
    # about 0.5 s here; the per-index scans took minutes at this size
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        p = SampledProblem(phi_of(expression), grid_for("[-1,1]", 65537))
        verdicts = [getattr(oracle, name)(p)[0] for name in ORACLES]
    except _TooSlow:
        pytest.fail(f"the four oracles on {expression} at 65537 points took over 5 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the strict and semistrict verdicts are left out: at this spacing the
    # band holds several grid points around 0, which they count as ties
    pc, _, qc, _ = (v.outcome for v in verdicts)
    assert (pc, qc) == ("holds" if expression == "t^2" else "fails", "holds")

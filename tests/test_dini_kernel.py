"""The block Dini kernel against the scalar reference estimator.

Every comparison is bit for bit: the kernel masks the same probes the
reference selects and runs the same float operations on them, so values,
flags and traces must agree exactly, NaN and signed zeros included.
"""

import itertools
import math
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinicvx import (
    SUITE_SCHEDULE,
    DiniDomainError,
    DiniSchedule,
    GridDiniProfile,
    golden_battery,
    grid_dini_profile,
    line_problems,
    lower_dini,
    make_grid,
    parse_interval,
    sample_directions,
    sample_pairs,
)
from dinicvx import dini
from dinicvx.domain import Interval, LineGrids

from conftest import along, descends, entry_rule, phi_of
from dini_reference import _estimate_one, is_stationary
from dini_reference import lower_dini_along as lower_dini_along_one


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def trace_bits(trace) -> list[bytes]:
    return [bits(v) for v in trace]


def reference_row(base, vals, in_domain, s, dini_tol):
    try:
        return _estimate_one(base, vals, in_domain, s, dini_tol)
    except DiniDomainError:
        return None


# Probe values: smooth rows (where convergence is decided), arbitrary
# finite values (where the jump screen fires), and the undefined and
# divergent cases, NaN and +-inf.
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def probe_blocks(draw):
    """A (steps x rows) block, the kernel's layout: column r is row r."""
    steps = draw(st.integers(2, 12))
    t0 = draw(st.sampled_from([1e-2, 0.5]))
    ratio = draw(st.sampled_from([0.5, 0.6, 0.9]))
    s = t0 * ratio ** np.arange(steps)
    n_rows = draw(st.integers(1, 6))
    base = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=n_rows, max_size=n_rows)))
    in_domain = np.asarray(draw(st.lists(
        st.lists(st.booleans(), min_size=n_rows, max_size=n_rows),
        min_size=steps, max_size=steps,
    )))
    vals = np.empty((steps, n_rows))
    for r in range(n_rows):
        kind = draw(st.sampled_from(["smooth", "arbitrary"]))
        if kind == "smooth":
            a = draw(st.floats(-5, 5))
            b = draw(st.floats(-5, 5))
            vals[:, r] = base[r] + a * s + b * s * s
        else:
            vals[:, r] = draw(st.lists(st.floats(-1e3, 1e3), min_size=steps, max_size=steps))
        for k in draw(st.lists(st.integers(0, steps - 1), max_size=steps)):
            vals[k, r] = draw(_SPECIAL)
    dini_tol = draw(st.sampled_from([1e-7, 1e-3, 1.0]))
    return vals, in_domain, base, s, dini_tol


def probed_rows(vals, in_domain, base, s, dini_tol):
    """``_probe_rows`` on the block: row r probes from 0 along +1, so its
    probe at step k is ``s[k]``, whose value the function it evaluates looks
    up in ``vals[k, r]``.  Row r's bounds are the smallest and the largest of
    its in-domain steps, which must run without a gap, as along a ray."""
    assert np.array_equal(in_domain, gapless(in_domain))
    rows = np.arange(vals.shape[1])
    inside = in_domain.any(axis=0)
    least = np.where(inside, s[vals.shape[0] - 1 - np.argmax(in_domain[::-1], axis=0)], np.inf)
    greatest = np.where(inside, s[np.argmax(in_domain, axis=0)], -np.inf)
    return dini._probe_rows(lambda p: vals[np.searchsorted(-s, -p), rows],
                            np.zeros(rows.shape), np.ones(rows.shape), least, greatest,
                            base, s, dini_tol)


def gapless(in_domain):
    """Each row's in-domain steps widened to all steps from its first to its
    last: the masks a ray through an interval or a box can give."""
    ahead = np.cumsum(in_domain, axis=0) > 0
    return ahead & (np.cumsum(in_domain[::-1], axis=0)[::-1] > 0)


def assert_rows_match_reference(block, rows):
    vals, in_domain, base, s, dini_tol = block
    value, converged, trace, used, n_in = rows
    for r in range(vals.shape[1]):
        ref = reference_row(float(base[r]), vals[:, r], in_domain[:, r], s, dini_tol)
        if ref is None:
            assert n_in[r] == 0
            continue
        assert n_in[r] == ref.n_probes
        assert bits(value[r]) == bits(ref.unit_value)
        assert bool(converged[r]) == ref.converged
        assert trace_bits(trace[:, r][used[:, r]]) == trace_bits(ref.tail_min_trace)
        assert (not used[:, r].any()) == ref.all_undefined


# The reference subtracts infinite trace entries without silencing numpy.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestKernelMatchesReference:
    @given(probe_blocks())
    @settings(max_examples=400, deadline=None)
    def test_rows_bit_identical(self, block):
        assert_rows_match_reference(block, dini._dini_rows(*block))

    # The masks are any run of steps, not only suffixes: the probe helper
    # must fall back on whole rows wherever its trailing columns cannot
    # decide a row.
    @given(probe_blocks())
    @settings(max_examples=400, deadline=None)
    def test_probed_rows_bit_identical(self, block):
        vals, in_domain, base, s, dini_tol = block
        block = (vals, gapless(in_domain), base, s, dini_tol)
        assert_rows_match_reference(block, probed_rows(*block))

    @given(probe_blocks(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_estimates_bit_identical(self, block, data):
        # dini._along wraps each kernel row: row r of the block probes
        # along axis r with length scales[r], and the box keeps the last
        # keep[r] of its steps (a ray from an inner point leaves a box
        # once, so its in-box probes are always the smallest steps)
        vals, _, base, s, dini_tol = block
        steps, rows = vals.shape
        schedule = DiniSchedule(float(s[0]), float(s[1] / s[0]), steps, dini_tol)
        s = schedule.step_sizes()
        scales = data.draw(st.lists(st.floats(0.1, 10.0), min_size=rows, max_size=rows))
        keep = data.draw(st.lists(st.integers(0, steps), min_size=rows, max_size=rows))
        box = tuple(Interval(-1.0, float(s[steps - k]) if k else float(s[-1] / 2), True, True)
                    for k in keep)
        dirs = np.diag(scales)

        def f(pts):
            # the base point is the origin; row r's probe at step s[k] is
            # s[k] on axis r (a positive scale over the square root of its
            # square is exactly 1)
            if not pts.any():
                return np.full(len(pts), base[0])
            r = np.argmax(pts, axis=1)
            return vals[np.searchsorted(-s, -pts.max(axis=1)), r]

        ests = along(f, np.zeros(rows), dirs, box, schedule)
        for r, est in enumerate(ests):
            in_domain = box[r].contains_many(s)
            assert in_domain.sum() == keep[r]
            ref = reference_row(float(base[0]), vals[:, r], in_domain, s, dini_tol)
            if ref is None:
                assert (est.n_probes, est.tail_min_trace) == (0, ())
                continue
            assert bits(est.value) == bits(np.linalg.norm(dirs[r]) * ref.unit_value)
            assert bits(est.unit_value) == bits(ref.unit_value)
            assert trace_bits(est.tail_min_trace) == trace_bits(ref.tail_min_trace)
            assert est.converged == ref.converged
            assert est.n_probes == ref.n_probes
            assert est.all_undefined == ref.all_undefined


def one_line(interval, points):
    """The grid of one line over ``interval`` at ``points``."""
    points = np.asarray(points, dtype=float)
    return LineGrids((interval,), points[None], np.array([points.size]))


def reference_profile(phi, dom, schedule):
    """Per-point, per-direction loop over the scalar reference, on the one
    line of ``dom``."""
    s = schedule.step_sizes()
    points, interval = dom.points[0], dom.interval[0]
    base = phi(points)
    out = {}
    for label, sign in (("minus", -1.0), ("plus", 1.0)):
        value = np.full(points.size, np.nan)
        conv = np.zeros(points.size, dtype=bool)
        feas = np.zeros(points.size, dtype=bool)
        for i, t in enumerate(points):
            probes = t + sign * s
            in_domain = interval.contains_many(probes)
            if not in_domain.any() or np.isnan(base[i]):
                continue
            est = _estimate_one(float(base[i]), phi(probes), in_domain, s,
                                schedule.dini_tol)
            value[i], conv[i], feas[i] = est.unit_value, est.converged, True
        out[label] = (value, conv, feas)
    return out


def assert_profiles_identical(prof, ref):
    for side, (value, conv, feas) in enumerate((ref["minus"], ref["plus"])):
        assert prof.value[0, side].tobytes() == value.tobytes()
        assert np.array_equal(prof.converged[0, side], conv)
        assert np.array_equal(prof.feasible[0, side], feas)


GOLDEN_1D = [e for e in golden_battery() if e.arity == 1]
EXTRA_1D = [("log(t)", "[-1,1]"), ("log(t)", "(0,1]"), ("sqrt(t)", "[0,1)"),
            ("1/t", "(0,2)"), ("piecewise(t < 0: 0, else: 1)", "[-1,1]")]
SCHEDULES = [DiniSchedule(), SUITE_SCHEDULE,
             DiniSchedule(t0=1e-2, ratio=0.5, steps=2, dini_tol=1e-7),
             DiniSchedule(t0=0.5, ratio=0.5, steps=9, dini_tol=1e-7)]


class TestGridProfileMatchesReference:
    @pytest.mark.parametrize(
        "source,domain",
        [(e.expression, e.domain) for e in GOLDEN_1D] + EXTRA_1D,
        ids=[e.id for e in GOLDEN_1D] + [f"{s} on {d}" for s, d in EXTRA_1D],
    )
    def test_golden_grids(self, source, domain):
        phi = phi_of(source)
        dom = make_grid(parse_interval(domain), 65)
        for schedule in SCHEDULES:
            ref = reference_profile(phi, dom, schedule)
            assert_profiles_identical(grid_dini_profile(phi, dom, phi(dom.points), schedule), ref)

    # every grid leaves a ragged last block: 257 = 4 * 64 + 1, 2500 = 2 * 1024 + 452
    @pytest.mark.parametrize("block_rows,n", [(1, 257), (7, 257), (64, 257), (1024, 2500)])
    def test_block_size_does_not_change_the_profile(self, monkeypatch, block_rows, n):
        dom = make_grid(parse_interval("[-1,1]"), n)
        for source in ("abs(t) - 0.3*t", "log(t + 0.5)", "max(0, abs(t) - 0.5)"):
            phi = phi_of(source)
            monkeypatch.setattr(dini, "_BLOCK_ROWS", n)
            whole = grid_dini_profile(phi, dom, phi(dom.points))
            monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
            split = grid_dini_profile(phi, dom, phi(dom.points))
            monkeypatch.undo()
            for field in ("value", "converged", "feasible"):
                assert getattr(split, field).tobytes() == getattr(whole, field).tobytes()

    # masks that leave ragged blocks and split the ends from the interior
    @pytest.mark.parametrize("n", [257, 2500])
    def test_masked_rows_match_the_whole_profile(self, n):
        dom = make_grid(parse_interval("[-1,1]"), n)
        rng = np.random.default_rng(n)
        mask = np.stack((rng.random(n) < 0.3, np.arange(n) % 3 == 0))[None]
        for source in ("abs(t) - 0.3*t", "log(t + 0.5)", "exp(t) - 2*t^2"):
            phi = phi_of(source)
            whole = grid_dini_profile(phi, dom, phi(dom.points))
            part = grid_dini_profile(phi, dom, phi(dom.points), DiniSchedule(), mask)
            assert np.array_equal(part.estimated, mask)
            assert whole.estimated.all()
            for name in ("value", "converged", "feasible"):
                got, want = (getattr(prof, name) for prof in (part, whole))
                assert got[mask].tobytes() == want[mask].tobytes()
            assert np.isnan(part.value[~mask]).all()
            assert not part.converged[~mask].any()
            assert not part.feasible[~mask].any()
            # the rest, written into the same profile, completes it
            assert grid_dini_profile(phi, dom, phi(dom.points), DiniSchedule(), ~mask,
                                     out=part) is part
            for field in ("value", "converged", "feasible", "estimated"):
                assert getattr(part, field).tobytes() == getattr(whole, field).tobytes()

    # a block holds both sides of _BLOCK_ROWS // 2 columns, and the grid is
    # two such blocks and a ragged third: a stop after the first or second
    # block, and none
    @pytest.mark.parametrize("stop_after", [0, 1, 2])
    def test_until_ends_the_scan_after_a_block(self, stop_after):
        n = 2 * (dini._BLOCK_ROWS // 2) + 196
        dom = make_grid(parse_interval("[-1,1]"), n)
        phi = phi_of("log(t + 0.5)")
        whole = grid_dini_profile(phi, dom, phi(dom.points))
        asked = []

        def until(rows):
            # both directions of the block are written when it is asked
            assert part.estimated[..., rows].all()
            asked.append(rows)
            return len(asked) > stop_after

        part = GridDiniProfile.unestimated(1, n)
        assert grid_dini_profile(phi, dom, phi(dom.points), out=part, until=until) is part
        # asked after each block but the last, in grid order
        width = dini._BLOCK_ROWS // 2
        blocks = [slice(a, a + width) for a in range(0, n, width)]
        assert asked == blocks[: min(stop_after + 1, len(blocks) - 1)]
        end = n if stop_after + 1 >= len(blocks) else blocks[stop_after].stop
        assert part.estimated[..., :end].all()
        assert not part.estimated[..., end:].any()
        for name in ("value", "converged", "feasible"):
            got, want = (getattr(prof, name)[..., :end] for prof in (part, whole))
            assert got.tobytes() == want.tobytes()

    def test_descent_and_unconverged_over_a_row_range(self):
        dom = make_grid(parse_interval("[-1,1]"), 2500)
        phi = phi_of("exp(t) - 2*t^2")
        prof = grid_dini_profile(phi, dom, phi(dom.points))
        for rows in (slice(0, 1024), slice(1000, 2100), slice(2048, None)):
            for part, whole in zip(entry_rule(prof, 1e-7, rows), entry_rule(prof, 1e-7)):
                assert np.array_equal(part, whole[..., rows])

    def test_empty_masks_probe_nothing(self):
        dom = make_grid(parse_interval("[-1,1]"), 257)
        phi = phi_of("t^2")
        calls = []
        none = np.zeros((1, 2, dom.n[0]), dtype=bool)
        prof = grid_dini_profile(lambda pts: calls.append(pts) or phi(pts), dom,
                                 phi(dom.points), DiniSchedule(), none)
        assert calls == []
        assert not prof.feasible.any()


def settle_problems():
    """(id, phi, dom): the 1-D golden functions at 257 and 4097 points, an
    open-ended log and sqrt, a jump, and a batch of 24 lines of a 2-D
    function."""
    out = [(f"{e.id}-{n}", phi_of(e.expression), make_grid(parse_interval(e.domain), n))
           for e in GOLDEN_1D for n in (257, 4097)]
    out += [(f"{source} on {domain}", phi_of(source), make_grid(parse_interval(domain), 257))
            for source, domain in [("log(t)", "[-1,1]"), ("sqrt(t)", "(0,2]"),
                                   ("piecewise(t < 0.3: t^2, else: t - 1)", "[-1,1]")]]
    box = (parse_interval("[-1,1]"),) * 2
    f = phi_of("max(abs(x1), abs(x2)) - x1^3", 2)
    (*_, p), = line_problems(f, sample_pairs(box, 24, 7), box, 257, 1e-6, DiniSchedule(), None,
                              1e-7)
    return out + [("24 lines", p.phi, p.dom)]


class TestSettledProfile:
    """With ``stat_tol``, the entries the one-probe rule settles descend as
    the full estimate does, and every other entry is the full estimate."""

    @pytest.mark.parametrize("case", settle_problems(), ids=lambda c: c[0])
    def test_settling_keeps_every_decision(self, case):
        _, phi, dom = case
        values = phi(dom.points)
        for schedule in (DiniSchedule(), SUITE_SCHEDULE, DiniSchedule(steps=2),
                         DiniSchedule(steps=3)):
            for stat_tol in (1e-7, 1e-3):
                full = grid_dini_profile(phi, dom, values, schedule)
                fast = grid_dini_profile(phi, dom, values, schedule, stat_tol=stat_tol)
                # both masks of the rule: every settled entry descends
                for got, want in zip(entry_rule(fast, stat_tol), entry_rule(full, stat_tol)):
                    assert np.array_equal(got, want)
                down = descends(full, stat_tol)
                for name in ("feasible", "estimated"):
                    assert np.array_equal(getattr(fast, name), getattr(full, name))
                assert fast.value[~down].tobytes() == full.value[~down].tobytes()
                assert np.array_equal(fast.converged[~down], full.converged[~down])
                # a settled entry's quotient bounds the full estimate from above
                assert (fast.value[down] >= full.value[down]).all()
                assert (fast.value[down] < -stat_tol).all()


def edge_grid(domain, schedule):
    """Points of ``domain`` at distances from each end from below the
    smallest step (no probe fits) through one and two probes to half and
    all of the schedule, with the closed ends themselves."""
    iv = parse_interval(domain)
    s = schedule.step_sizes()
    d = np.asarray([0.5 * s[-1], s[-1], 0.5 * (s[-1] + s[-2]), s[-2],
                    0.5 * (s[-2] + s[-3]) if s.size > 2 else 2 * s[-1],
                    s[s.size // 2], 2 * s[0]])
    pts = np.concatenate([iv.lo + d, iv.hi - d])
    if iv.lo_closed:
        pts = np.append(pts, iv.lo)
    if iv.hi_closed:
        pts = np.append(pts, iv.hi)
    return one_line(iv, np.unique(pts[iv.contains_many(pts)]))


# Rows whose window holds no defined value fall back on the other defined
# in-domain probes.  log(t) near 0 going left: every probe is undefined.
# The product roots at t = 0.5 going right: only the steps of 1e-3 (4e-8)
# and up are defined, all of them outside the window.  Under the default
# schedule the second has 30 in-domain probes, so the fallback reads
# defined probes on both sides of the first trailing column, and its
# quotients fall with the step, so which of them it reads shows.
FALLBACK_GRIDS = [
    ("log(t)", "[-1,1]", [-1e-3, -1e-12, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
    ("sqrt((t - 0.5)*(t - 0.5 - 0.001))", "[0,1]",
     [0.4995, 0.4999, 0.5, 0.5005, 0.501, 0.5015]),
    ("0 - sqrt((t - 0.5)*(t - 0.5 - 4e-8))", "[0,0.50008]",
     [0.49999, 0.5, 0.50000003, 0.50001]),
]
EDGE_DOMAINS = [("abs(t) - 0.3*t", d) for d in ("[-1,1]", "(-1,1)", "[0,1)", "(0,1]")] + [
    ("sqrt(t)", "[0,1)"), ("log(t)", "(0,1]"), ("1/t", "(0,2)"),
]


@pytest.mark.parametrize("block_rows", [1, 7, 64, 1024])
class TestProbedProfileRows:
    """Rows where only the trailing probe columns are not enough, or where
    the in-domain probes are few, against the per-point reference."""

    @pytest.mark.parametrize("source,domain,points", FALLBACK_GRIDS,
                             ids=[f"{s} on {d}" for s, d, _ in FALLBACK_GRIDS])
    def test_fallback_rows(self, monkeypatch, block_rows, source, domain, points):
        monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
        phi = phi_of(source)
        dom = one_line(parse_interval(domain), points)
        for schedule in SCHEDULES:
            ref = reference_profile(phi, dom, schedule)
            assert_profiles_identical(grid_dini_profile(phi, dom, phi(dom.points), schedule), ref)

    @pytest.mark.parametrize("source,domain", EDGE_DOMAINS,
                             ids=[f"{s} on {d}" for s, d in EDGE_DOMAINS])
    def test_edge_and_one_probe_rows(self, monkeypatch, block_rows, source, domain):
        monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
        phi = phi_of(source)
        for schedule in SCHEDULES:
            dom = edge_grid(domain, schedule)
            ref = reference_profile(phi, dom, schedule)
            assert_profiles_identical(grid_dini_profile(phi, dom, phi(dom.points), schedule), ref)
            n_probes = [dom.interval[0].contains_many(t + sign * schedule.step_sizes()).sum()
                        for t in dom.points[0] for sign in (-1.0, 1.0)]
            assert 1 in n_probes and 0 in n_probes

    def test_grid_point_rounded_onto_an_open_end(self, monkeypatch, block_rows):
        # lo + margin rounds to lo, so the first grid point lies outside the
        # domain; going right, its steps below half an ulp of lo stay on lo,
        # so its in-domain probes are the leading 28 of 40, and its window
        # starts left of the trailing steps.  make_grid refuses such a grid,
        # so it is built by hand from the points make_grid used to give.
        monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
        iv = parse_interval("(1e8,100000001)")
        dom = one_line(iv, np.linspace(iv.lo + 1e-9, iv.hi - 1e-9, 9))
        assert not iv.contains(dom.points[0, 0])
        phi = phi_of("0 - (t - 1e8)^2")
        ref = reference_profile(phi, dom, DiniSchedule())
        assert ref["plus"][2][0]
        whole_rows = []  # one flag per kernel call: called without ``skipped``
        kernel = dini._dini_rows

        def counting(*args):
            whole_rows.append(len(args) == 5)
            return kernel(*args)

        monkeypatch.setattr(dini, "_dini_rows", counting)
        assert_profiles_identical(grid_dini_profile(phi, dom, phi(dom.points)), ref)
        assert any(whole_rows)  # the rerun on whole rows was reached


def end_distances(s):
    """Distances from an end: 0, below the smallest step, every step, the
    midpoints between steps, and twice the largest step."""
    return np.concatenate([[0.0, 0.5 * s[-1]], s, 0.5 * (s[:-1] + s[1:]), [2 * s[0]]])


# Closed and open ends at magnitudes 1 and 1e8, where the smallest steps
# are below half an ulp, so a probe near the end rounds onto it.  A point
# at distance 0 from an open end lies outside the domain: a grid point
# rounded onto that end.  The square roots are undefined past the ends.
END_CASES = [
    ("abs(t) - 0.3*t", "[-1,1]"), ("sqrt(1 - t^2)", "(-1,1)"), ("abs(t) - 0.3*t", "[-1,1)"),
    ("0 - (t - 1e8)^2", "[1e8,100000001]"),
    ("sqrt((t - 1e8)*(100000001 - t))", "(1e8,100000001)"),
    ("0 - (t - 1e8)^2", "(1e8,100000001]"),
]


@pytest.mark.parametrize("block_rows", [7, 1024])
@pytest.mark.parametrize("source,domain", END_CASES, ids=[f"{s} on {d}" for s, d in END_CASES])
def test_grid_points_at_every_distance_from_an_end(monkeypatch, block_rows, source, domain):
    monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
    phi = phi_of(source)
    iv = parse_interval(domain)
    for schedule in SCHEDULES:
        d = end_distances(schedule.step_sizes())
        pts = np.concatenate([iv.lo + d, iv.hi - d])
        dom = one_line(iv, np.unique(pts[(pts >= iv.lo) & (pts <= iv.hi)]))
        ref = reference_profile(phi, dom, schedule)
        assert_profiles_identical(grid_dini_profile(phi, dom, phi(dom.points), schedule), ref)


def test_leading_probes_for_rows_near_an_end_or_in_a_falling_back_block(monkeypatch):
    # Rows are side by side, minus then plus, one per point and side.  The
    # points 0 and 0.004 have minus probes outside [0,1], and 1 plus ones;
    # at 0.5 going right only the steps of 1e-3 and up are defined, so that
    # row falls back on leading probes.
    schedule = DiniSchedule()
    s, cut = schedule.step_sizes(), schedule.steps // 2
    dom = one_line(parse_interval("[0,1]"), [0.0, 0.004, 0.3, 0.5, 1.0])
    phi = phi_of("sqrt((t - 0.5)*(t - 0.5 - 0.001))")
    rows = [(sign, t) for sign in (-1.0, 1.0) for t in dom.points[0]]
    near = [r for r, (sign, t) in enumerate(rows)
            if not dom.interval[0].contains_many(t + sign * s).all()]
    assert near == [0, 1, 9]
    built, sizes = [], []
    positions = dini._positions

    def recording(x, u, steps):
        built.append((steps.shape[0], [rows.index((v, p)) for p, v in zip(x, u)]))
        return positions(x, u, steps)

    def counting(pts):
        sizes.append(pts.size)
        return phi(pts)

    monkeypatch.setattr(dini, "_positions", recording)
    prof = grid_dini_profile(counting, dom, phi(dom.points), schedule)
    assert_profiles_identical(prof, reference_profile(phi, dom, schedule))
    # every row's trailing steps and two end probes; the leading steps of
    # the near rows, then, as row 8 falls back, of every row of the block
    every = list(range(2 * dom.n[0]))
    assert built == [(schedule.steps - cut, every), (2, every), (cut, near), (cut, every)]
    # the trailing probes of every row, then the leading ones, each once
    assert sizes == [2 * dom.n[0] * (schedule.steps - cut), 2 * dom.n[0] * cut]


def sliced(block):
    """The kernel call ``_probe_rows`` makes first on a whole-row block:
    its trailing steps, with the in-domain probes of the others skipped."""
    vals, in_domain, base, s, dini_tol = block
    cut = s.shape[0] // 2
    return vals[cut:], in_domain[cut:], base, s[cut:], dini_tol, in_domain[:cut].sum(axis=0)


# Dense rows may hold anything but NaN: infinities, both zeros, the base,
# and the largest floats, whose differences and quotients overflow.
_DENSE_SPECIAL = st.sampled_from([math.inf, -math.inf, 0.0, -0.0, "base",
                                  1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def dense_blocks(draw):
    """Whole-row blocks whose sliced call is dense: 2 to 12 trailing steps,
    every probe there defined, and each row's window exactly those steps.
    A row may drop its largest step from the domain when the schedule
    length is even, which keeps ``skipped == n_in // 2``.  The leading
    probes are NaN, as ``_probe_rows`` never evaluates them."""
    tail = draw(st.integers(2, 12))
    cut = draw(st.sampled_from([tail - 1, tail]))
    steps = cut + tail
    s = draw(st.sampled_from([1e-2, 0.5])) * draw(st.sampled_from([0.5, 0.6, 0.9])) ** np.arange(steps)
    n_rows = draw(st.integers(1, 4))
    base = np.asarray(draw(st.lists(
        st.floats(-10, 10) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
        min_size=n_rows, max_size=n_rows)))
    in_domain = np.ones((steps, n_rows), dtype=bool)
    vals = np.full((steps, n_rows), np.nan)
    for r in range(n_rows):
        if cut == tail:
            in_domain[0, r] = draw(st.booleans())
        # smooth rows about an infinite or NaN base start from 0 instead
        anchor = base[r] if math.isfinite(base[r]) else 0.0
        if draw(st.booleans()):
            a, b = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
            vals[cut:, r] = anchor + a * s[cut:] + b * s[cut:] ** 2
        else:
            vals[cut:, r] = draw(st.lists(st.floats(-1e3, 1e3), min_size=tail, max_size=tail))
        for k, v in draw(st.lists(st.tuples(st.integers(cut, steps - 1), _DENSE_SPECIAL),
                                  max_size=3)):
            if v == "base":
                v = anchor if math.isnan(base[r]) else base[r]
            vals[k, r] = v
    dini_tol = draw(st.sampled_from([1e-7, 1e-3, 1.0]))
    return vals, in_domain, base, s, dini_tol


def interior_block(n=16385, a=5120, sign=1.0, schedule=DiniSchedule()):
    """The whole-row block of the 64 points from ``a`` on of an n-point grid
    on [-1, 1], probing toward ``sign``, as grid_dini_profile builds it."""
    dom = make_grid(parse_interval("[-1,1]"), n)
    pts = dom.points[0, a:a + 64]
    s = schedule.step_sizes()
    probes = pts[None, :] + sign * s[:, None]
    phi = phi_of("exp(t) - 2*t^2 + abs(t - 0.3)")
    return (phi(probes.reshape(-1)).reshape(probes.shape),
            dom.interval[0].contains_many(probes), phi(pts), s, schedule.dini_tol)


@contextmanager
def kernel_calls():
    """``dini._dini_rows`` under a spy: ``dense`` counts its calls on a dense
    block (``in_domain`` None), ``masked`` lists the step counts of the
    others."""
    kernel, calls = dini._dini_rows, SimpleNamespace(dense=0, masked=[])

    def spy(vals, in_domain, *rest):
        if in_domain is None:
            calls.dense += 1
        else:
            calls.masked.append(vals.shape[0])
        return kernel(vals, in_domain, *rest)

    with mock.patch.object(dini, "_dini_rows", spy):
        yield calls


def column(block, r):
    vals, in_domain, base = block[:3]
    return (vals[:, r:r + 1], in_domain[:, r:r + 1], base[r:r + 1]) + block[3:]


def set_entry(block, name, index, value):
    vals, in_domain = block[0].copy(), block[1].copy()
    {"vals": vals, "in_domain": in_domain}[name][index] = value
    return (vals, in_domain) + block[2:]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
# the reference divides the overflowing differences without silencing numpy
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning:dini_reference")
class TestDensePath:
    @given(dense_blocks())
    @settings(max_examples=150, deadline=None)
    # the last step moves the minimum by exactly dini_tol: 2.0 -> 1.0
    @example((np.asarray([[np.nan], [np.nan], [0.5], [0.125]]), np.ones((4, 1), dtype=bool),
              np.zeros(1), 0.5 ** np.arange(4), 1.0))
    # jumps up and down: differences of +-1 over steps that shrink 32-fold
    @example((np.vstack([np.full((6, 2), np.nan), np.tile([1.0, -1.0], (6, 1))]),
              np.ones((12, 2), dtype=bool), np.zeros(2), 0.5 ** np.arange(12), 1e-7))
    def test_dense_blocks_bit_identical(self, block):
        with kernel_calls() as calls:
            rows = probed_rows(*block)
        assert calls.dense == 1
        assert_rows_match_reference(block, rows)

    # the dense form called directly, against the masked form of the same
    # sliced block and against the reference
    @given(dense_blocks())
    @settings(max_examples=150, deadline=None)
    def test_dense_form_bit_identical_to_masked(self, block):
        vals, in_domain, base, s, dini_tol, skipped = sliced(block)
        dense = dini._dini_rows(vals, None, base, s, dini_tol, skipped)
        masked = dini._dini_rows(vals, in_domain, base, s, dini_tol, skipped)
        for a, b in zip(dense, masked):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert_rows_match_reference(block, dense)

    # one case per side of the selection, each against the reference
    @pytest.mark.parametrize("make,dense", [
        (lambda: interior_block(), True),
        (lambda: interior_block(a=0, sign=-1.0), False),  # holds the end row -1
        (lambda: set_entry(interior_block(), "vals", (-1, 7), np.nan), False),
        (lambda: set_entry(interior_block(), "in_domain", (-1, 7), False), False),
        # two leading probes out: skipped 18, n_in // 2 == 19
        (lambda: set_entry(interior_block(), "in_domain", (slice(0, 2), 7), False), False),
        # one leading probe out: skipped 19 == 39 // 2, still dense
        (lambda: set_entry(interior_block(), "in_domain", (0, 7), False), True),
        (lambda: column(interior_block(), 7), True),
        (lambda: interior_block(schedule=DiniSchedule(steps=2)), False),  # one step
    ], ids=["interior", "end-row", "nan-probe", "out-of-domain-probe",
            "skipped-not-half", "one-leading-probe-out", "one-column", "one-step"])
    def test_selection(self, make, dense):
        # through _probe_rows, which takes the dense path for a block whose
        # every row's window is its trailing steps, all defined
        block = make()
        with kernel_calls() as calls:
            rows = probed_rows(*block)
        assert calls.dense == dense
        assert_rows_match_reference(block, rows)

    def test_unsliced_call_is_masked(self):
        # row 7 defines no trailing probe, so it falls back on its leading
        # ones: the whole block is rerun on every step, masked
        block = set_entry(interior_block(), "vals", (slice(20, None), 7), np.nan)
        with kernel_calls() as calls:
            rows = probed_rows(*block)
        assert not calls.dense
        assert calls.masked == [20, 40]
        assert_rows_match_reference(block, rows)

    def test_rows_skipping_past_their_window_are_masked(self):
        # the kernel leaves them using no probe, for the caller to rerun on
        # whole rows
        vals, in_domain, base, s, dini_tol, skipped = sliced(interior_block())
        value, _, _, used, _ = dini._dini_rows(vals, in_domain, base, s, dini_tol, skipped + 2)
        assert not used.any() and np.isinf(value).all()
        # row 7's last three steps leave the domain, so its window reaches
        # two leading steps: no dense block, and the row is rerun
        block = set_entry(interior_block(), "in_domain", (slice(-3, None), 7), False)
        with kernel_calls() as calls:
            rows = probed_rows(*block)
        assert not calls.dense
        assert_rows_match_reference(block, rows)

    # only the blocks within the largest step of the end a direction probes
    # toward are masked: 3 of 64 at 16385 points, each block both sides of
    # 260 columns; a 257-point grid is one block, holding both ends
    @pytest.mark.parametrize("n,dense_calls", [(16385, 61), (257, 0)])
    def test_dense_blocks_of_a_grid_profile(self, n, dense_calls):
        dom = make_grid(parse_interval("[-1,1]"), n)
        phi = phi_of("exp(t) - 2*t^2")
        with kernel_calls() as calls:
            grid_dini_profile(phi, dom, phi(dom.points))
        assert calls.dense == dense_calls


def test_interior_grid_probes_only_the_trailing_half():
    schedule = DiniSchedule()
    dom = one_line(parse_interval("[-1,1]"), np.linspace(-0.5, 0.5, 101))
    phi = phi_of("abs(t) - 0.3*t")
    sizes = []

    def counting(pts):
        sizes.append(pts.size)
        return phi(pts)

    grid_dini_profile(counting, dom, phi(dom.points), schedule)
    # one block holds both sides of every point
    trailing = schedule.steps - schedule.steps // 2
    assert sizes == [2 * dom.n[0] * trailing]
    # with stat_tol, one window probes every row at its largest trailing
    # step and makes the end test; the kernel block of the rows left
    # unsettled probes them at every trailing step and tests their ends again
    sizes.clear()
    with mock.patch.object(dini, "_inside", wraps=dini._inside) as inside:
        prof = grid_dini_profile(counting, dom, phi(dom.points), schedule, stat_tol=1e-7)
    left = int((~descends(prof, 1e-7)).sum())
    assert 0 < left < 2 * dom.n[0]
    assert sizes == [2 * dom.n[0], left * trailing]
    assert inside.call_count == 2


class TestStationarityEstimates:
    """The witnesses' one kernel call against the reference ``is_stationary``
    point by point."""

    @pytest.mark.parametrize(
        "source,domain",
        [(e.expression, e.domain) for e in GOLDEN_1D]
        + [("log(t)", "[-1,1]"), ("sqrt(t)", "(0,2]"), ("piecewise(t < 0: 0, else: 1)", "[-1,1]")],
        ids=[e.id for e in GOLDEN_1D] + ["log", "sqrt", "jump"],
    )
    def test_each_point_as_is_stationary_gives_it(self, source, domain):
        phi, iv = phi_of(source), parse_interval(domain)
        # a grid, repeated points, both zeros, the ends and points past them
        ts = make_grid(iv, 65).points[0].tolist()
        ts += [ts[3], ts[3], 0.0, -0.0, iv.lo, iv.hi, iv.lo - 0.5, iv.hi + 0.5]
        for schedule in SCHEDULES:
            got = dini.stationarity_estimates(phi, ts, iv, schedule)
            assert len(got) == len(ts)
            for t, found in zip(ts, got):
                try:
                    want = is_stationary(phi, t, iv, schedule).estimates
                except ValueError:
                    want = None
                assert repr(found) == repr(want), t
            assert None in got and any(found and len(found) == 2 for found in got)

    def test_no_point_probes_nothing(self):
        calls = []
        assert dini.stationarity_estimates(lambda pts: calls.append(pts), [],
                                           parse_interval("[-1,1]")) == []
        assert calls == []


class TestLineCallers:
    @pytest.mark.parametrize("source,t", [("t^2", 0.0), ("abs(t)", 0.0),
                                          ("log(t)", 0.0001), ("sqrt(t)", 0.0),
                                          ("t^3", 1.0)])
    def test_lower_dini_matches_reference(self, source, t):
        phi = phi_of(source)
        iv = parse_interval("[0,1]")
        s = DiniSchedule().step_sizes()
        base = float(phi(np.asarray([t]))[0])
        for u in (2.5, -0.5):
            probes = t + s * (1.0 if u > 0 else -1.0)
            ref = reference_row(base, phi(probes), iv.contains_many(probes), s, 1e-7)
            if ref is None:
                with pytest.raises(DiniDomainError):
                    lower_dini(phi, t, u, iv)
                continue
            est = lower_dini(phi, t, u, iv)
            assert bits(est.value) == bits(abs(u) * ref.unit_value)
            assert bits(est.unit_value) == bits(ref.unit_value)
            assert trace_bits(est.tail_min_trace) == trace_bits(ref.tail_min_trace)
            assert (est.converged, est.n_probes, est.all_undefined) == (
                ref.converged, ref.n_probes, ref.all_undefined)

    @pytest.mark.parametrize("source,t", [("t^2", 0.0), ("abs(t)", 1.0),
                                          ("sqrt(t)", 0.0), ("t", 0.5)])
    def test_stationarity_probes_match_lower_dini(self, source, t):
        phi = phi_of(source)
        iv = parse_interval("[0,1]")
        [estimates] = dini.stationarity_estimates(phi, [t], iv, SUITE_SCHEDULE)
        for label, u in (("+1", 1.0), ("-1", -1.0)):
            try:
                single = lower_dini(phi, t, u, iv, SUITE_SCHEDULE)
            except DiniDomainError:
                assert label not in estimates
                continue
            assert estimates[label] == single

    @pytest.mark.parametrize("u", [1e-200, 1e200, -1e-200, -1e200])
    def test_lower_dini_extreme_magnitudes(self, u):
        # probes go along sign(u); no norm of u is formed that could
        # underflow or overflow
        phi = phi_of("abs(t) - 0.5*t")
        iv = parse_interval("[-1,1]")
        unit = lower_dini(phi, 0.0, 1.0 if u > 0 else -1.0, iv)
        est = lower_dini(phi, 0.0, u, iv)
        assert bits(est.unit_value) == bits(unit.unit_value)
        assert bits(est.value) == bits(abs(u) * unit.unit_value)
        assert est.tail_min_trace == unit.tail_min_trace


GOLDEN_2D = [e for e in golden_battery() if e.arity == 2]


def block_directions() -> np.ndarray:
    """The 64 sampled directions, the axes and some non-unit directions."""
    axes = np.vstack([np.eye(2), -np.eye(2)])
    odd = np.asarray([[3.0, 4.0], [-1e-3, 2e-3], [250.0, -0.5], [1e-150, 1e-150],
                      [-7.0, -7.0], [0.1, 0.0]])
    return np.vstack([sample_directions(2, 64, 0), axes, odd])


def assert_block_matches_one_direction(block, f, x, dirs, box, schedule):
    for u, est in zip(dirs, block, strict=True):
        try:
            ref = lower_dini_along_one(f, x, u, box, schedule)
        except DiniDomainError:
            assert (est.n_probes, est.tail_min_trace) == (0, ())
            assert est.all_undefined
            continue
        assert bits(est.value) == bits(ref.value)
        assert bits(est.unit_value) == bits(ref.unit_value)
        assert trace_bits(est.tail_min_trace) == trace_bits(ref.tail_min_trace)
        assert (est.converged, est.n_probes, est.all_undefined) == (
            ref.converged, ref.n_probes, ref.all_undefined)


class TestBlockAlong:
    @pytest.mark.parametrize("entry", GOLDEN_2D, ids=[e.id for e in GOLDEN_2D])
    @pytest.mark.parametrize("schedule", [DiniSchedule(), SUITE_SCHEDULE],
                             ids=["default", "suite"])
    def test_rows_match_one_direction_reference(self, entry, schedule):
        f = phi_of(entry.expression, 2)
        box = tuple(parse_interval(b) for b in entry.box)
        dirs = block_directions()
        points = [(0.0, 0.0), (0.3, -0.7),  # interior
                  (1.0, 0.2), (-0.4, -1.0),  # edges
                  (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]  # corners
        for x in map(np.asarray, points):
            block = along(f, x, dirs, box, schedule)
            assert len(block) == dirs.shape[0]
            assert_block_matches_one_direction(block, f, x, dirs, box, schedule)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_direction_blocks_at_corners_and_fallback_edges(self, block):
        # x1 = 0.5 going right: only the steps of 1e-3 and up are defined
        f = phi_of("sqrt((x1 - 0.5)*(x1 - 0.5 - 0.001)) + x2^2", 2)
        box = (parse_interval("[0,1]"), parse_interval("[-1,1]"))
        dirs = block_directions()
        for x in map(np.asarray, [(0.0, -1.0), (1.0, 1.0), (1.0, -1.0), (0.5, 1.0),
                                  (0.5, -1.0)]):
            ests = [e for a in range(0, dirs.shape[0], block)
                    for e in along(f, x, dirs[a:a + block], box)]
            assert_block_matches_one_direction(ests, f, x, dirs, box, DiniSchedule())

    # corners of closed and open boxes, and points inside them at every
    # distance from a corner, at magnitudes 1 and 1e8, under every schedule
    @pytest.mark.parametrize("source,box", [
        ("x1^2 + x2", "[-1,1]x[-1,1]"), ("x1^2 + x2", "(-1,1)x(-1,1)"),
        ("(x1 - 1e8)^2 - x2", "[1e8,100000001]x[-1,1]"),
        ("(x1 - 1e8)^2 - x2", "(1e8,100000001)x(-1,1]"),
    ])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["default", "suite", "two", "nine"])
    def test_rows_at_box_corners(self, source, box, schedule):
        f = phi_of(source, 2)
        box = tuple(parse_interval(b) for b in box.split("x"))
        dirs = block_directions()
        s = schedule.step_sizes()
        for corner in itertools.product(*((iv.lo, iv.hi) for iv in box)):
            inward = np.asarray([1.0 if c == iv.lo else -1.0 for c, iv in zip(corner, box)])
            for d in (0.0, 0.5 * s[-1], s[-1], s[s.size // 2], s[0], 2 * s[0]):
                x = np.asarray(corner) + d * inward
                if not all(iv.contains(v) for iv, v in zip(box, x)):
                    continue
                block = along(f, x, dirs, box, schedule)
                assert_block_matches_one_direction(block, f, x, dirs, box, schedule)

    def test_one_probe_call_per_block(self):
        calls = []
        fn = phi_of("x1^2 + x2^2", 2)

        def f(pts):
            calls.append(pts.shape)
            return fn(pts)

        dirs = block_directions()
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        along(f, np.asarray([1.0, 0.0]), dirs, box)
        steps = DiniSchedule().steps
        # no row falls back, so only the trailing half of each row is probed
        assert calls == [(1, 2), (dirs.shape[0] * (steps - steps // 2), 2)]

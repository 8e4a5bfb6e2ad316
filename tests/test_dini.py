import math
from dataclasses import astuple, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    DiniDomainError,
    DiniSchedule,
    dini,
    grid_dini_profile,
    lower_dini,
    make_grid,
    parse_interval,
    restrict,
    stationarity_estimates,
)

from conftest import along, phi_of

IV = parse_interval("[-1,1]")

# Modest amplitudes keep the rounding noise eps*|f|/s_min of the pinned
# 30-step schedule (s_min ~ 9.3e-12) under the 1e-5 assertion budget.
SMALL_POLYS = [
    [0.05, 0, 0],
    [0.02, 0, -0.05, 0],
    [0.01, -0.02, 0, 0.03, 0.004],
    [0.004, 0, -0.01, 0, 0.02, 0],
    [0.05, 0.01, 0],
    [0.03, 0, 0, -0.01],
]
PINNED = DiniSchedule(t0=1e-2, ratio=0.5, steps=30, dini_tol=1e-7)


class TestLowerDini:
    def test_cubic_at_interior_point_default_schedule(self):
        est = lower_dini(phi_of("t^3"), 0.5, 1.0, IV)
        assert abs(est.value - 0.75) <= 1e-6
        assert est.converged

    def test_cubic_tighter_with_explicit_schedule(self):
        sched = DiniSchedule(t0=1e-2, ratio=0.5, steps=21, dini_tol=1e-7)
        est = lower_dini(phi_of("t^3"), 0.5, 1.0, IV, sched)
        assert abs(est.value - 0.75) <= 1e-7

    def test_absolute_value_one_sided(self):
        phi = phi_of("abs(t)")
        # at the kink the probes are exact in floating point
        assert abs(lower_dini(phi, 0.0, 1.0, IV).value - 1.0) <= 1e-12
        assert abs(lower_dini(phi, 0.0, -1.0, IV).value - 1.0) <= 1e-12
        # away from 0, cancellation in phi(x - s) - phi(x) costs ~eps*|x|/s
        assert abs(lower_dini(phi, 0.5, -1.0, IV).value + 1.0) <= 1e-5

    def test_positive_homogeneity(self):
        phi = phi_of("t^3")
        e1 = lower_dini(phi, 0.5, 1.0, IV)
        e3 = lower_dini(phi, 0.5, 3.0, IV)
        assert e3.unit_value == e1.unit_value
        assert e3.value == pytest.approx(3.0 * e1.value, rel=1e-12)

    def test_downward_jump_diverges(self):
        est = lower_dini(phi_of("piecewise(t < 0: 0, else: 1)"), 0.0, -1.0, IV)
        assert est.value == -math.inf
        assert est.converged

    def test_upward_jump_diverges(self):
        est = lower_dini(phi_of("piecewise(t < 0: 1, else: 0)"), 0.0, -1.0, IV)
        assert est.value == math.inf
        assert est.converged

    def test_all_probes_undefined_is_plus_inf(self):
        est = lower_dini(phi_of("sqrt(t)"), 0.0, -1.0, IV)
        assert est.value == math.inf
        assert est.all_undefined

    def test_square_root_slope_diverges(self):
        est = lower_dini(phi_of("sqrt(t)"), 0.0, 1.0, IV)
        assert est.value == math.inf

    def test_steep_smooth_slope_stays_finite(self):
        est = lower_dini(phi_of("1000*t"), 0.0, 1.0, IV)
        assert est.value == pytest.approx(1000.0, rel=1e-9)

    def test_trace_non_increasing(self):
        est = lower_dini(phi_of("t^2"), 0.3, 1.0, IV)
        trace = np.asarray(est.tail_min_trace)
        assert np.all(np.diff(trace) <= 0)

    def test_converged_means_settled_tail(self):
        est = lower_dini(phi_of("t^2"), 0.0, 1.0, IV)
        assert est.converged
        tr = est.tail_min_trace
        assert abs(tr[-1] - tr[-2]) <= 1e-7

    def test_base_point_outside_interval(self):
        with pytest.raises(ValueError):
            lower_dini(phi_of("t^2"), 2.0, 1.0, IV)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            lower_dini(phi_of("t^2"), 0.0, 0.0, IV)

    def test_undefined_base_rejected(self):
        with pytest.raises(ValueError):
            lower_dini(phi_of("log(t)"), -0.5, 1.0, IV)

    def test_no_feasible_probe_raises_domain_error(self):
        with pytest.raises(DiniDomainError):
            lower_dini(phi_of("t^2"), -1.0, -1.0, IV)

    def test_a_point_domain_tells_its_two_faults_apart(self):
        # no probe stays in [0,0] either way; only log is undefined at 0, and
        # stationarity_estimates tells the two apart with no further phi call:
        # t^2 is its base and the probes of both ways, log its base alone
        point = parse_interval("[0,0]")
        for source, fault, text, sizes in (
                ("t^2", DiniDomainError, "direction leaves domain", [1, 40]),
                ("log(t)", ValueError, r"function undefined at the base point \[0.0\]", [1])):
            calls, phi = [], phi_of(source)
            with pytest.raises(fault, match=text):
                lower_dini(lambda ts: calls.append(np.size(ts)) or phi(ts), 0.0, 1.0, point)
            assert calls == sizes, source
        assert stationarity_estimates(phi_of("log(t)"), [0.0, 2.0], point) == [None, None]
        assert stationarity_estimates(phi_of("t^2"), [0.0], point) == [{}]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DiniSchedule(t0=-1.0)
        for t0 in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="t0 must be positive and finite"):
                DiniSchedule(t0=t0)
        for tol in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="dini_tol must be positive and finite"):
                DiniSchedule(dini_tol=tol)
        with pytest.raises(ValueError):
            DiniSchedule(ratio=1.5)
        with pytest.raises(ValueError):
            DiniSchedule(steps=1)
        # too deep: smallest step would drop under 1e-12
        with pytest.raises(ValueError):
            DiniSchedule(t0=1e-2, ratio=0.1, steps=40)

    @given(
        st.sampled_from(SMALL_POLYS),
        st.floats(-0.9, 0.9),
        st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_analytic_derivative_on_smooth_polys(self, coefs, x, u):
        c = np.asarray(coefs, dtype=float)
        phi = lambda ts: np.polyval(c, ts)
        est = lower_dini(phi, float(x), float(u), IV, PINNED)
        analytic = u * float(np.polyval(np.polyder(c), x))
        assert abs(est.value - analytic) <= 1e-5

    @given(st.floats(-0.9, 0.9), st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_property(self, x, scale):
        phi = phi_of("t^2 - 0.3*t")
        e1 = lower_dini(phi, float(x), 1.0, IV)
        es = lower_dini(phi, float(x), float(scale), IV)
        assert es.value == pytest.approx(scale * e1.value, rel=1e-9, abs=1e-12)


def seed_lower_dini(phi, t, u, feasible, schedule=DiniSchedule()):
    """``lower_dini`` as a path of its own: its checks, a base value, and
    one kernel row through ``dini._along``."""
    if u == 0 or not np.isfinite(u):
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    x = np.asarray([t], dtype=float)
    if not feasible.contains(x[0]):
        raise ValueError(f"base point {x.tolist()} outside {feasible}")
    base = float(phi(x)[0])
    if np.isnan(base):
        raise ValueError(f"function undefined at the base point {x.tolist()}")
    [est] = dini._along(phi, x, np.array([np.sign(u)], dtype=float), (feasible,),
                        np.full(1, base), schedule)
    if est.n_probes == 0:
        raise DiniDomainError("direction leaves domain")
    return replace(est, value=abs(float(u)) * est.unit_value)


def bits(est):
    """An estimate's fields, each float as its bytes."""
    return tuple(np.asarray(v, dtype=float).tobytes() if isinstance(v, (float, tuple)) else v
                 for v in astuple(est))


def outcome(call):
    """The bits of ``call()``'s estimate, or the type and text of its error."""
    try:
        return bits(call())
    except ValueError as exc:  # DiniDomainError included
        return type(exc), str(exc)


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0),
          math.nextafter(-1.0, 0.0), math.nan, math.inf, -math.inf]


class TestOnePath:
    """``lower_dini`` is one entry of ``stationarity_estimates``."""

    @given(
        st.sampled_from(["t^2", "abs(t)", "sqrt(t)", "log(t)", "1/t", "t^3 - t", "exp(1000*t)",
                         "piecewise(t < 0: 1, else: t)", "piecewise(t < 0.5: 0, else: 1)",
                         "piecewise(t < 0: 0/0, else: -t)"]),
        st.sampled_from(["[-1,1]", "(0,1]", "[0,1)", "(-1,0)", "[0,0]", "(-inf,inf)", "(0,inf)"]),
        st.sampled_from(_EDGES) | st.floats(-2.0, 2.0),
        st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-300]) | st.floats(-5, 5),
        st.sampled_from([DiniSchedule(), PINNED, DiniSchedule(steps=2),
                         DiniSchedule(t0=0.5, ratio=0.9, steps=28)]),
    )
    @settings(max_examples=400, deadline=None)
    def test_lower_dini_is_an_entry_of_stationarity_estimates(self, source, domain, t, u,
                                                               schedule):
        phi, iv = phi_of(source), parse_interval(domain)
        got = outcome(lambda: lower_dini(phi, t, u, iv, schedule))
        # bit for bit, errors included, what one kernel row of its own gave
        assert got == outcome(lambda: seed_lower_dini(phi, t, u, iv, schedule))
        if u == 0 or not math.isfinite(u) or not iv.contains(t):
            return
        [found] = stationarity_estimates(phi, [t], iv, schedule)
        if found is None:  # an undefined base
            assert got[0] is ValueError
            return
        est = found.get("+1" if u > 0 else "-1")
        if est is None:  # no probe stays in the domain that way, as in [0,0]
            assert got[0] is DiniDomainError
        else:
            assert got == bits(replace(est, value=abs(u) * est.unit_value))

    @pytest.mark.parametrize("source", ["exp(t) - 2*t^2", "log(t)"])
    def test_points_past_one_block_as_each_alone(self, source):
        # both directions of more than _BLOCK_ROWS // 2 defined points: the
        # rows span several kernel blocks, and each point is as if alone
        phi, ts = phi_of(source), np.linspace(-1.0, 1.0, dini._BLOCK_ROWS + 41).tolist()
        with mock.patch.object(dini, "_probe_rows", wraps=dini._probe_rows) as rows:
            got = stationarity_estimates(phi, ts, IV)
        assert 2 * sum(found is not None for found in got) > dini._BLOCK_ROWS
        assert rows.call_count >= 2
        # the ends: t = 1 probes one way, and log is undefined at t = -1
        assert (ts[0], ts[-1]) == (-1.0, 1.0) and list(got[-1]) == ["-1"]
        assert (got[0] is None) == (source == "log(t)")
        for t, found in zip(ts, got):
            [alone] = stationarity_estimates(phi, [t], IV)
            assert (found is None) == (alone is None), t
            if found is not None:
                assert {k: bits(e) for k, e in found.items()} == {
                    k: bits(e) for k, e in alone.items()}, t


def is_stationary(phi, t, feasible, stat_tol=1e-7):
    """The stationarity verdict at t from ``stationarity_estimates``: no
    feasible direction descends beyond ``stat_tol``, decisive unless that
    rests on an unconverged estimate."""
    [estimates] = stationarity_estimates(phi, [t], feasible)
    stationary = not any(est.unit_value < -stat_tol for est in estimates.values())
    decisive = not stationary or all(est.converged for est in estimates.values())
    return SimpleNamespace(stationary=stationary, decisive=decisive, estimates=estimates)


class TestIsStationary:
    def test_smooth_minimum_is_stationary(self):
        chk = is_stationary(phi_of("t^2"), 0.0, IV)
        assert chk.stationary and chk.decisive

    def test_kink_minimum_is_stationary(self):
        chk = is_stationary(phi_of("abs(t)"), 0.0, IV)
        assert chk.stationary and chk.decisive

    def test_slope_point_is_not(self):
        chk = is_stationary(phi_of("t^2"), 0.5, IV)
        assert not chk.stationary

    def test_inflection_of_cubic_is_stationary(self):
        chk = is_stationary(phi_of("t^3"), 0.0, IV)
        assert chk.stationary

    def test_closed_endpoint_uses_feasible_side_only(self):
        # at t=0 of an increasing function, the only feasible direction ascends
        chk = is_stationary(phi_of("t"), 0.0, parse_interval("[0,1]"))
        assert chk.stationary
        assert set(chk.estimates) == {"+1"}

    def test_endpoint_with_descent_is_not_stationary(self):
        chk = is_stationary(phi_of("t"), 1.0, parse_interval("[0,1]"))
        assert not chk.stationary
        assert set(chk.estimates) == {"-1"}


class TestGridProfile:
    def test_matches_pointwise_estimates(self, unit_grid):
        phi = phi_of("piecewise(t < 0: -t, else: t - 1)")
        prof = grid_dini_profile(phi, unit_grid, phi(unit_grid.points))
        for i in [0, 1, 64, 128, 129, 200, 256]:
            t = float(unit_grid.points[0, i])
            for side, u in enumerate((-1.0, 1.0)):
                if prof.feasible[0, side, i]:
                    ref = lower_dini(phi, t, u, unit_grid.interval[0])
                    assert prof.value[0, side, i] == ref.unit_value
                    assert prof.converged[0, side, i] == ref.converged

    def test_fallback_rows_match_fast_path_contract(self):
        # rows near the ends of the grid have probes outside the domain, so
        # their windows are shorter than those of the interior rows
        dom = make_grid(parse_interval("[-1,1]"), 65)
        phi = phi_of("log(t + 1.001)")
        prof = grid_dini_profile(phi, dom, phi(dom.points))
        for i in [0, 32, 64]:
            t = float(dom.points[0, i])
            if prof.feasible[0, 1, i] and not math.isnan(phi(np.asarray([t]))[0]):
                ref = lower_dini(phi, t, 1.0, dom.interval[0])
                assert prof.value[0, 1, i] == ref.unit_value

    def test_endpoint_feasibility_flags(self, unit_grid):
        phi = phi_of("t^2")
        prof = grid_dini_profile(phi, unit_grid, phi(unit_grid.points))
        assert not prof.feasible[0, 0, 0]
        assert not prof.feasible[0, 1, -1]
        assert prof.feasible[0, 0, 1:].all()
        assert prof.feasible[0, 1, :-1].all()

    def test_descent_and_stationary_masks(self, unit_grid):
        phi = phi_of("t^2")
        prof = grid_dini_profile(phi, unit_grid, phi(unit_grid.points))
        down, up = prof.descent(1e-7)[0]
        stat = ~(down | up)
        assert stat[128]  # t = 0
        assert stat.sum() == 1
        assert down[200] and not up[200]  # right flank descends leftward
        assert up[60] and not down[60]

    def test_tracer_row_names_are_views_of_the_side_rows(self, unit_grid):
        # perfbench's tracer reads these four names from each returned profile
        phi = phi_of("abs(t) - 0.3*t")
        n = unit_grid.n[0]
        mask = np.stack((np.arange(n) % 2 == 0, np.ones(n, dtype=bool)))[None]
        prof = grid_dini_profile(phi, unit_grid, phi(unit_grid.points), DiniSchedule(), mask)
        for name, rows, side in (("minus_feasible", prof.feasible, 0),
                                 ("plus_feasible", prof.feasible, 1),
                                 ("minus_converged", prof.converged, 0),
                                 ("plus_converged", prof.converged, 1)):
            view = getattr(prof, name)
            assert np.shares_memory(view, rows[:, side])
            assert not np.shares_memory(view, rows[:, 1 - side])
            assert np.array_equal(view, rows[:, side])

    def test_tiny_schedule_uses_fallback(self, unit_grid):
        sched = DiniSchedule(t0=1e-2, ratio=0.5, steps=2, dini_tol=1e-7)
        phi = phi_of("t^2")
        prof = grid_dini_profile(phi, unit_grid, phi(unit_grid.points), sched)
        assert prof.value.shape == (1, 2, 257)
        # window of one quotient can never satisfy the two-entry settle test
        assert not prof.converged[0, 1, :-1].any()


class TestAlongInABox:
    BOX = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))

    def test_matches_univariate_on_axis(self):
        f = phi_of("x1^2 + x2^2", 2)
        [est] = along(f, np.asarray([0.5, 0.0]), np.asarray([[1.0, 0.0]]), self.BOX)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_direction_normalized_value_rescaled(self):
        f = phi_of("x1 + 2*x2", 2)
        u = np.asarray([[3.0, 4.0]])  # norm 5
        [est] = along(f, np.asarray([0.0, 0.0]), u, self.BOX)
        # directional slope along u is 1*3 + 2*4 = 11
        assert est.value == pytest.approx(11.0, abs=1e-6)
        assert est.unit_value == pytest.approx(11.0 / 5.0, abs=1e-7)

    def test_corner_infeasible_direction(self):
        # a direction with no probe in the box is reported, not raised
        f = phi_of("x1^2 + x2^2", 2)
        [est] = along(f, np.asarray([1.0, 1.0]), np.asarray([[1.0, 1.0]]), self.BOX)
        assert est.n_probes == 0 and est.tail_min_trace == ()

    def test_block_rows_are_independent(self):
        f = phi_of("x1 + 2*x2", 2)
        dirs = np.asarray([[1.0, 0.0], [1.0, 1.0], [0.0, -2.0]])
        x = np.asarray([1.0, 0.0])
        block = along(f, x, dirs, self.BOX)
        assert [e.n_probes for e in block] == [0, 0, 40]
        assert block == [along(f, x, d[None, :], self.BOX)[0] for d in dirs]
        assert block[2].value == pytest.approx(-4.0, rel=1e-5)

    def test_base_point_outside_box_rejected(self):
        # a base point in a box is a line's x, which restrict checks
        f = phi_of("x1^2 + x2^2", 2)
        with pytest.raises(ValueError):
            restrict(f, np.asarray([[1.5, 0.0]]), np.asarray([[0.5, 0.0]]), self.BOX)

    def test_zero_direction_rejected(self):
        f = phi_of("x1^2 + x2^2", 2)
        with pytest.raises(ValueError):
            along(f, np.asarray([0.0, 0.0]), np.asarray([[1.0, 0.0], [0.0, 0.0]]), self.BOX)


class TestStationaryRule:
    def test_each_case_of_the_rule(self):
        # descends; flat and converged; flat with an unconverged side; no
        # feasible direction; descends beside an unconverged side; an
        # infeasible descent beside an unconverged side; a value at -stat_tol
        value = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [np.nan, np.nan], [-1.0, 0.0],
                          [-1.0, 0.0], [-1e-7, 0.0]])
        converged = np.array([[1, 1], [1, 1], [1, 0], [0, 0], [1, 0], [1, 0], [1, 1]], dtype=bool)
        feasible = np.array([[1, 1], [1, 1], [1, 1], [0, 0], [1, 1], [0, 1], [1, 1]], dtype=bool)
        found, unsettled = dini.stationary(value, converged, feasible, 1e-7)
        assert found.tolist() == [False, True, False, True, False, False, True]
        assert unsettled.tolist() == [False, False, True, False, False, True, False]

"""The block Dini kernel against the scalar reference estimator.

Every comparison is bit for bit: the kernel masks the same probes the
reference selects and runs the same float operations on them, so values,
flags and traces must agree exactly, NaN and signed zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    SUITE_SCHEDULE,
    DiniDomainError,
    DiniSchedule,
    golden_battery,
    grid_dini_profile,
    is_stationary,
    lower_dini,
    make_grid,
    parse_interval,
)
from dinicvx import dini

from conftest import phi_of
from dini_reference import _estimate_one


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
    steps = draw(st.integers(2, 12))
    t0 = draw(st.sampled_from([1e-2, 0.5]))
    ratio = draw(st.sampled_from([0.5, 0.6, 0.9]))
    s = t0 * ratio ** np.arange(steps)
    n_rows = draw(st.integers(1, 6))
    base = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=n_rows, max_size=n_rows)))
    in_domain = np.asarray(draw(st.lists(
        st.lists(st.booleans(), min_size=steps, max_size=steps),
        min_size=n_rows, max_size=n_rows,
    )))
    vals = np.empty((n_rows, steps))
    for r in range(n_rows):
        kind = draw(st.sampled_from(["smooth", "arbitrary"]))
        if kind == "smooth":
            a = draw(st.floats(-5, 5))
            b = draw(st.floats(-5, 5))
            vals[r] = base[r] + a * s + b * s * s
        else:
            vals[r] = draw(st.lists(st.floats(-1e3, 1e3), min_size=steps, max_size=steps))
        for k in draw(st.lists(st.integers(0, steps - 1), max_size=steps)):
            vals[r, k] = draw(_SPECIAL)
    dini_tol = draw(st.sampled_from([1e-7, 1e-3, 1.0]))
    return vals, in_domain, base, s, dini_tol


# The reference subtracts infinite trace entries without silencing numpy.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestKernelMatchesReference:
    @given(probe_blocks())
    @settings(max_examples=400, deadline=None)
    def test_rows_bit_identical(self, block):
        vals, in_domain, base, s, dini_tol = block
        value, converged, trace, used, n_in = dini._dini_rows(
            vals, in_domain, base, s, dini_tol
        )
        for r in range(vals.shape[0]):
            ref = reference_row(float(base[r]), vals[r], in_domain[r], s, dini_tol)
            if ref is None:
                assert n_in[r] == 0
                continue
            assert n_in[r] == ref.n_probes
            assert bits(value[r]) == bits(ref.unit_value)
            assert bool(converged[r]) == ref.converged
            assert trace_bits(trace[r][used[r]]) == trace_bits(ref.tail_min_trace)
            assert (not used[r].any()) == ref.all_undefined

    @given(probe_blocks(), st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_estimates_bit_identical(self, block, scale):
        vals, in_domain, base, s, dini_tol = block
        ests = dini._estimates(float(base[0]), vals, in_domain, s, dini_tol, scale)
        for r, est in enumerate(ests):
            ref = reference_row(float(base[0]), vals[r], in_domain[r], s, dini_tol)
            if ref is None:
                assert est.n_probes == 0
                continue
            assert bits(est.value) == bits(scale * ref.unit_value)
            assert bits(est.unit_value) == bits(ref.unit_value)
            assert trace_bits(est.tail_min_trace) == trace_bits(ref.tail_min_trace)
            assert est.converged == ref.converged
            assert est.n_probes == ref.n_probes
            assert est.all_undefined == ref.all_undefined


def reference_profile(phi, dom, schedule):
    """Per-point, per-direction loop over the scalar reference."""
    s = schedule.step_sizes()
    base = phi(dom.points)
    out = {}
    for label, sign in (("minus", -1.0), ("plus", 1.0)):
        value = np.full(dom.n, np.nan)
        conv = np.zeros(dom.n, dtype=bool)
        feas = np.zeros(dom.n, dtype=bool)
        for i, t in enumerate(dom.points):
            probes = t + sign * s
            in_domain = dom.interval.contains_many(probes)
            if not in_domain.any() or np.isnan(base[i]):
                continue
            est = _estimate_one(float(base[i]), phi(probes), in_domain, s,
                                schedule.dini_tol)
            value[i], conv[i], feas[i] = est.unit_value, est.converged, True
        out[label] = (value, conv, feas)
    return out


def assert_profiles_identical(prof, ref):
    for label, (value, conv, feas) in ref.items():
        assert getattr(prof, label + "_value").tobytes() == value.tobytes()
        assert np.array_equal(getattr(prof, label + "_converged"), conv)
        assert np.array_equal(getattr(prof, label + "_feasible"), feas)


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
            assert_profiles_identical(grid_dini_profile(phi, dom, schedule), ref)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_block_size_does_not_change_the_profile(self, monkeypatch, block_rows):
        dom = make_grid(parse_interval("[-1,1]"), 257)
        for source in ("abs(t) - 0.3*t", "log(t + 0.5)", "max(0, abs(t) - 0.5)"):
            phi = phi_of(source)
            whole = grid_dini_profile(phi, dom)
            monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
            split = grid_dini_profile(phi, dom)
            monkeypatch.undo()
            for field in ("minus_value", "plus_value", "minus_converged",
                          "plus_converged", "minus_feasible", "plus_feasible"):
                assert getattr(split, field).tobytes() == getattr(whole, field).tobytes()


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
    def test_is_stationary_probes_match_lower_dini(self, source, t):
        phi = phi_of(source)
        iv = parse_interval("[0,1]")
        chk = is_stationary(phi, t, iv, SUITE_SCHEDULE)
        for label, u in (("+1", 1.0), ("-1", -1.0)):
            try:
                single = lower_dini(phi, t, u, iv, SUITE_SCHEDULE)
            except DiniDomainError:
                assert label not in chk.estimates
                continue
            assert chk.estimates[label] == single

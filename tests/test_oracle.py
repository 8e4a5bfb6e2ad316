import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    anchored_grid,
    auto_tol,
    eval_many,
    make_grid,
    martos_segments,
    parse,
    parse_interval,
    pseudoconvex_def,
    quasiconvex_def,
    restrict,
    sample_pairs,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)

from conftest import grid_for, phi_of

H = 2.0 / 256  # spacing of the standard 257-point grid on [-1,1]


def outcomes(src, domain="[-1,1]", n=257):
    phi = phi_of(src)
    dom = grid_for(domain, n)
    return {
        "pc": pseudoconvex_def(phi, dom).outcome,
        "spc": strictly_pseudoconvex_def(phi, dom).outcome,
        "qc": quasiconvex_def(phi, dom).outcome,
        "ssqc": semistrictly_quasiconvex_def(phi, dom).outcome,
    }


class TestGoldenLabels:
    def test_square(self):
        assert outcomes("t^2") == {"pc": "holds", "spc": "holds",
                                   "qc": "holds", "ssqc": "holds"}

    def test_cube_fails_pseudo_only(self):
        assert outcomes("t^3") == {"pc": "fails", "spc": "fails",
                                   "qc": "holds", "ssqc": "holds"}

    def test_absolute_value(self):
        assert outcomes("abs(t)") == {"pc": "holds", "spc": "holds",
                                      "qc": "holds", "ssqc": "holds"}

    def test_plateau_bowl_not_strict(self):
        got = outcomes("max(0, abs(t) - 1)", "[-2,2]")
        assert got == {"pc": "holds", "spc": "fails",
                       "qc": "holds", "ssqc": "holds"}

    def test_half_plateau_ramp(self):
        got = outcomes("piecewise(t < 0: 1, else: t)")
        assert got == {"pc": "fails", "spc": "fails",
                       "qc": "holds", "ssqc": "fails"}

    def test_constant(self):
        assert outcomes("1") == {"pc": "holds", "spc": "fails",
                                 "qc": "holds", "ssqc": "holds"}

    def test_negated_square_fails_everything(self):
        assert outcomes("-t^2") == {"pc": "fails", "spc": "fails",
                                    "qc": "fails", "ssqc": "fails"}

    def test_step_down_fails_pseudo_and_semistrict(self):
        got = outcomes("piecewise(t < 0.5: 1, else: 0)", "[0,1]")
        assert got == {"pc": "fails", "spc": "fails",
                       "qc": "holds", "ssqc": "fails"}

    def test_jump_valley(self):
        got = outcomes("piecewise(t < 0: -t, else: t - 1)", "[-2,2]")
        assert got == {"pc": "holds", "spc": "holds",
                       "qc": "holds", "ssqc": "holds"}

    def test_undefined_values_are_inconclusive(self):
        got = outcomes("log(t)")
        assert set(got.values()) == {"inconclusive"}


class TestWitnesses:
    def test_cube_no_descent_witness_at_origin(self, unit_grid):
        v = pseudoconvex_def(phi_of("t^3"), unit_grid)
        w = v.witnesses[0]
        assert w.kind == "no_descent"
        assert w.points[0] == 0.0  # the stationary non-minimizer
        assert w.values[1] < w.values[0]  # y really is lower

    def test_half_plateau_pc_witness_on_plateau(self, unit_grid):
        v = pseudoconvex_def(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid)
        w = v.witnesses[0]
        assert w.kind == "no_descent"
        assert w.points == (-1.0, 0.0)
        assert w.values == (1.0, 0.0)

    def test_half_plateau_ssqc_witness_triple(self, unit_grid):
        v = semistrictly_quasiconvex_def(
            phi_of("piecewise(t < 0: 1, else: t)"), unit_grid
        )
        w = v.witnesses[0]
        assert w.kind == "non_descending_interior"
        x, z, y = w.points
        assert x < z < y
        assert z < 0  # the interior plateau point that refuses to drop
        assert w.values[2] < w.values[0]

    def test_negated_square_qc_witness(self, unit_grid):
        v = quasiconvex_def(phi_of("-t^2"), unit_grid)
        w = v.witnesses[0]
        assert w.kind == "interior_peak"
        assert w.points == (-1.0, -1.0 + H, 1.0)

    def test_witness_values_match_function(self, unit_grid):
        phi = phi_of("-t^2")
        v = quasiconvex_def(phi, unit_grid)
        for w in v.witnesses:
            np.testing.assert_allclose(
                phi(np.asarray(w.points)), np.asarray(w.values)
            )

    def test_failure_witness_persists_under_refinement(self):
        # a genuine violation found at n=257 is still found at n=513
        for n in (257, 513):
            dom = grid_for("[-1,1]", n)
            v = pseudoconvex_def(phi_of("t^3"), dom)
            assert v.outcome == "fails"
            assert any(abs(w.points[0]) <= 2.0 / (n - 1) for w in v.witnesses)


class TestToleranceHandling:
    def test_auto_tol_scales_with_values(self):
        assert auto_tol(np.asarray([0.0, 1.0])) == pytest.approx(2e-9)
        assert auto_tol(np.asarray([0.0, 1e6])) == pytest.approx(1e-9 * (1 + 1e6))
        assert auto_tol(np.asarray([np.nan])) == pytest.approx(1e-9)

    def test_explicit_tol_respected(self, unit_grid):
        # a 0.1-amplitude wiggle vanishes inside a generous band
        v = quasiconvex_def(phi_of("0.01*t^2 - 0.001*abs(t - 0.3)"), unit_grid,
                            tol=1.0)
        assert v.outcome == "holds"

    def test_verdict_records_tols(self, unit_grid):
        v = pseudoconvex_def(phi_of("t^2"), unit_grid, tol=1e-5, stat_tol=1e-6)
        assert v.tol == 1e-5
        assert v.stat_tol == 1e-6

    def test_strict_requires_unique_minimum(self, unit_grid):
        # two equal minima: quasiconvex but not strictly pseudoconvex
        phi = phi_of("max(abs(t) - 0.5, 0)")
        assert strictly_pseudoconvex_def(phi, unit_grid).outcome == "fails"
        assert pseudoconvex_def(phi, unit_grid).outcome == "holds"


class TestStrictImpliesNonStrict:
    CASES = ["t^2", "abs(t)", "exp(t)", "t", "-t",
             "piecewise(t < 0: -2*t, else: 0.5*t)"]

    @pytest.mark.parametrize("src", CASES)
    def test_strict_subset(self, src, unit_grid):
        spc = strictly_pseudoconvex_def(phi_of(src), unit_grid)
        pc = pseudoconvex_def(phi_of(src), unit_grid)
        assert spc.outcome == "holds"
        assert pc.outcome == "holds"


def triple_loop_semistrict(vals, tol):
    """Literal definition: phi(y) < phi(x) - tol forces every z strictly
    between x and y to satisfy phi(z) < phi(x) - tol."""
    n = len(vals)
    for x in range(n):
        for y in range(n):
            if vals[y] < vals[x] - tol:
                lo, hi = min(x, y), max(x, y)
                for z in range(lo + 1, hi):
                    if not vals[z] < vals[x] - tol:
                        return "fails"
    return "holds"


def grid_function(vals):
    """A phi taking the given values on the standard grid over [0,1]."""
    dom = make_grid(parse_interval("[0,1]"), len(vals))
    table = np.asarray(vals, dtype=float)
    return (lambda ts: table[np.searchsorted(dom.points, ts)]), dom


class TestSemistrictScan:
    def test_flat_cell_before_the_last_drop(self):
        # the only y below phi(x) - tol is the point right after the flat z
        phi, dom = grid_function([3.0, 2.0, 2.0, 1.0])
        v = semistrictly_quasiconvex_def(phi, dom, tol=0.1)
        assert v.outcome == "fails"
        assert v.witnesses[0].values == (2.0, 2.0, 1.0)

    def test_cubic_restriction_agrees_with_martos(self):
        # pair 18 of `classify --function=x1^3 --arity 2 --box=[-1,1]x[-1,1]
        # --pairs 24 --seed 1699654999`: its grid has one flat cell before
        # a further drop, which the scan once missed
        box = (parse_interval("[-1,1]"),) * 2
        fn = parse("x1^3", 2)
        x, y = sample_pairs(box, 24, 1699654999)[18]
        r = restrict(lambda pts: eval_many(fn, pts), x, y, box)
        dom = anchored_grid(r.feasible, 257, 1e-6)
        split = martos_segments(r.phi, dom)
        assert not split.valid
        assert semistrictly_quasiconvex_def(r.phi, dom).outcome == "fails"

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_triple_loop(self, ints):
        vals = [float(v) for v in ints]
        phi, dom = grid_function(vals)
        v = semistrictly_quasiconvex_def(phi, dom, tol=0.5)
        assert v.outcome == triple_loop_semistrict(vals, 0.5)

import numpy as np
import pytest

from dinicvx import (
    SampledProblem,
    decompose,
    martos_segments,
    pseudoconvex_char,
    pseudoconvex_def,
    quasiconvex_def,
    quasiconvex_martos,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_char,
    strictly_pseudoconvex_def,
)
from dinicvx.charact import properties

from conftest import grid_for, phi_of


class TestDecompose:
    def test_square_valley(self, unit_grid):
        d = decompose(SampledProblem(phi_of("t^2"), unit_grid))[0]
        assert d.ok and d.pattern == "valley"
        assert d.i_hat == (128, 129)  # t = 0 alone
        assert d.i_minus == (0, 128) and d.i_plus == (129, 257)
        assert d.min_value == 0.0

    def test_cube_minimum_at_closed_left_end(self, unit_grid):
        d = decompose(SampledProblem(phi_of("t^3"), unit_grid))[0]
        assert d.ok and d.pattern == "valley"
        assert d.i_minus == (0, 0)
        assert d.i_hat == (0, 1)
        assert d.i_plus == (1, 257)

    def test_plateau_band(self):
        d = decompose(
            SampledProblem(phi_of("max(0, abs(t) - 1)"), grid_for("[-2,2]", 101))
        )[0]
        assert d.ok and d.pattern == "valley"
        assert d.i_hat == (25, 76)
        assert d.band_size() == 51

    def test_open_increasing_has_empty_min(self):
        d = decompose(SampledProblem(phi_of("t"), grid_for("(0,1)")))[0]
        assert d.ok and d.pattern == "empty_min_increasing"
        assert d.i_hat == (0, 0)
        assert d.i_plus == (0, 257)

    def test_open_decreasing_has_empty_min(self):
        d = decompose(SampledProblem(phi_of("-t"), grid_for("(0,1)")))[0]
        assert d.ok and d.pattern == "empty_min_decreasing"
        assert d.i_minus == (0, 257)

    def test_closed_increasing_keeps_its_minimum(self):
        d = decompose(SampledProblem(phi_of("t"), grid_for("[0,1]")))[0]
        assert d.ok and d.pattern == "valley"
        assert d.i_hat == (0, 1)

    def test_double_minimum_is_not_contiguous(self):
        d = decompose(SampledProblem(phi_of("min(t^2, (t - 2)^2)"), grid_for("[-1,3]")))[0]
        assert not d.ok
        assert any(w.kind == "argmin_gap" for w in d.witnesses)

    def test_interior_bump_breaks_flank(self):
        d = decompose(
            SampledProblem(phi_of("min(t^2, (t - 1.5)^2 + 0.3)"), grid_for("[-1,3]"))
        )[0]
        assert not d.ok
        kinds = {w.kind for w in d.witnesses}
        assert "non_strict_increase" in kinds or "non_strict_decrease" in kinds

    def test_sine_is_not_a_valley(self):
        d = decompose(SampledProblem(phi_of("sin(t)"), grid_for("[0,6.28]")))[0]
        assert not d.ok

    def test_plateau_at_non_minimum_breaks_flank(self, unit_grid):
        d = decompose(
            SampledProblem(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid)
        )[0]
        assert not d.ok
        assert any(w.kind == "non_strict_decrease" for w in d.witnesses)

    def test_undefined_grid_value(self, unit_grid):
        d = decompose(SampledProblem(phi_of("log(t)"), unit_grid))[0]
        assert not d.ok and d.pattern == "undefined"

    def test_segment_labels(self, unit_grid):
        d = decompose(SampledProblem(phi_of("t^2"), unit_grid))[0]
        labels = d.segment_labels(unit_grid.n)
        assert labels[0] == "minus" and labels[128] == "hat" and labels[-1] == "plus"
        assert (labels == "hat").sum() == 1


class TestMartosSegments:
    def test_square(self, unit_grid):
        s = martos_segments(SampledProblem(phi_of("t^2"), unit_grid))[0]
        assert s.valid
        assert s.decreasing == (0, 128)
        assert s.constant == (128, 129)
        assert s.increasing == (129, 257)

    def test_ramp_plateau(self):
        s = martos_segments(
            SampledProblem(phi_of("max(0, t)"), grid_for("[-1,1]", 101))
        )[0]
        assert s.valid
        assert s.decreasing == (0, 0)
        assert s.constant == (0, 51)
        assert s.increasing == (51, 101)

    def test_strictly_decreasing_constant_is_last_point(self, unit_grid):
        s = martos_segments(SampledProblem(phi_of("-t"), unit_grid))[0]
        assert s.valid
        assert s.decreasing == (0, 256)
        assert s.constant == (256, 257)
        assert s.increasing == (257, 257)

    def test_w_shape_invalid(self):
        s = martos_segments(
            SampledProblem(phi_of("min(t^2, (t - 1.5)^2 + 0.3)"), grid_for("[-1,3]"))
        )[0]
        assert not s.valid
        assert any(w.kind in ("second_descent", "plateau_after_rise")
                   for w in s.witnesses)

    def test_plateau_after_rise_invalid(self):
        src = "piecewise(t < 0: 0, t < 1: t, else: 1)"
        s = martos_segments(SampledProblem(phi_of(src), grid_for("[-1,2]")))[0]
        assert not s.valid


class TestQuasiconvexMartos:
    def test_agrees_with_definitional_on_goldens(self):
        cases = [
            ("t^2", "[-1,1]"), ("t^3", "[-1,1]"), ("-t^2", "[-1,1]"),
            ("abs(t)", "[-1,1]"), ("max(0, abs(t) - 1)", "[-2,2]"),
            ("piecewise(t < 0: 1, else: t)", "[-1,1]"),
            ("min(t^2, (t - 1.5)^2 + 0.3)", "[-1,3]"),
            ("piecewise(t < 0: -t, else: t - 1)", "[-2,2]"),
            ("sin(t)", "[0,6.28]"),
        ]
        for src, dom_s in cases:
            p = SampledProblem(phi_of(src), grid_for(dom_s))
            vd = quasiconvex_def(p)[0]
            vm = quasiconvex_martos(p)[0]
            assert vd.outcome == vm.outcome, src

    def test_rise_then_fall_witness(self):
        dom = grid_for("[0,6.28]")
        v = quasiconvex_martos(SampledProblem(phi_of("sin(t)"), dom))[0]
        assert v.outcome == "fails"
        w = v.witnesses[0]
        assert w.kind == "rise_then_fall"
        x, z, y = w.points
        assert x < z < y
        assert w.values[1] > max(w.values[0], w.values[2])

    def test_shape_note_on_holds(self, unit_grid):
        def notes(src):
            return quasiconvex_martos(SampledProblem(phi_of(src), unit_grid))[0].notes

        assert "valley" in notes("t^2")
        assert "constant" in notes("3")
        assert "weakly_increasing" in notes("max(0, t)")
        assert "weakly_decreasing" in notes("-t")

    def test_sub_tolerance_creep_diverges_from_definition(self):
        # rises below tol accumulate into a genuine interior peak: the
        # delta-based scan cannot see it, the triple-based oracle can
        src = "0.0001*t - 0.002*max(0, t - 0.9)"
        dom = grid_for("[0,1]")
        p = SampledProblem(phi_of(src), dom, tol=1e-6)
        vd = quasiconvex_def(p)[0]
        vm = quasiconvex_martos(p)[0]
        assert vd.outcome == "fails"
        assert vm.outcome == "holds"

    def test_semistrict_oracle_matches_segment_validity(self):
        cases = [
            ("t^2", "[-1,1]"), ("t^3", "[-1,1]"), ("-t^2", "[-1,1]"),
            ("max(0, abs(t) - 1)", "[-2,2]"),
            ("piecewise(t < 0: 1, else: t)", "[-1,1]"),
            ("piecewise(t < 0.5: 1, else: 0)", "[0,1]"),
            ("min(t^2, (t - 1.5)^2 + 0.3)", "[-1,3]"),
            ("sin(t)", "[0,6.28]"),
        ]
        for src, dom_s in cases:
            p = SampledProblem(phi_of(src), grid_for(dom_s))
            vd = semistrictly_quasiconvex_def(p)[0]
            split = martos_segments(p)[0]
            assert (vd.outcome == "holds") == split.valid, src


class TestCharVerdicts:
    AGREE_CASES = [
        ("t^2", "[-1,1]"), ("t^3", "[-1,1]"), ("abs(t)", "[-1,1]"),
        ("-t^2", "[-1,1]"), ("max(0, abs(t) - 1)", "[-2,2]"),
        ("piecewise(t < 0: 1, else: t)", "[-1,1]"),
        ("exp(t)", "[-1,1]"), ("min(t^2, (t - 1.5)^2 + 0.3)", "[-1,3]"),
        ("piecewise(t < 0: -t, else: t - 1)", "[-2,2]"),
        ("t", "[0,1]"), ("1", "[-1,1]"),
    ]

    @pytest.mark.parametrize("src,dom_s", AGREE_CASES)
    def test_structural_matches_definitional(self, src, dom_s):
        p = SampledProblem(phi_of(src), grid_for(dom_s))
        assert pseudoconvex_char(p)[0].outcome == pseudoconvex_def(p)[0].outcome, src
        assert strictly_pseudoconvex_char(p)[0].outcome == \
            strictly_pseudoconvex_def(p)[0].outcome, src

    def test_char_failure_notes_name_the_pattern(self, unit_grid):
        v = pseudoconvex_char(SampledProblem(phi_of("-t^2"), unit_grid))[0]
        assert v.outcome == "fails"
        assert "pattern" in v.notes

    def test_cube_fails_by_stationarity_not_shape(self, unit_grid):
        # t^3 decomposes cleanly; only the stationary origin breaks it
        p = SampledProblem(phi_of("t^3"), unit_grid)
        d = decompose(p)[0]
        assert d.ok
        v = pseudoconvex_char(p)[0]
        assert v.outcome == "fails"
        assert any(w.kind == "stationary_outside_min" for w in v.witnesses)

    def test_strict_rejects_wide_valley_floor(self):
        v = strictly_pseudoconvex_char(
            SampledProblem(phi_of("max(0, abs(t) - 1)"), grid_for("[-2,2]"))
        )[0]
        assert v.outcome == "fails"
        assert any(w.kind == "flat_minimum" for w in v.witnesses)

    def test_strict_tolerates_single_cell_tie(self):
        # an even grid on [-1,1] puts two points astride the min of t^2 when
        # n is even; a one-cell band must still count as strict
        v = strictly_pseudoconvex_char(
            SampledProblem(phi_of("t^2"), grid_for("[-1,1]", 256))
        )[0]
        assert v.outcome == "holds"

    def test_ramp_on_closed_interval_strict(self):
        v = strictly_pseudoconvex_char(SampledProblem(phi_of("t"), grid_for("[0,1]")))[0]
        assert v.outcome == "holds"


def test_a_property_gives_the_kept_verdicts_of_the_methods_asked_for():
    p = SampledProblem(phi_of("t^3"), grid_for("[-1,1]"))
    for prop in properties():
        both = prop.verdicts(p)
        assert list(both) == ["definitional", prop.method]
        assert both["definitional"] is p.verdict(prop.definition)
        assert both[prop.method] is p.verdict(prop.characterization)
        assert prop.verdicts(p, "definitional") == {"definitional": both["definitional"]}
        assert prop.verdicts(p, "structural") == {prop.method: both[prop.method]}

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    SUITE_SCHEDULE,
    BatteryEntry,
    SampledProblem,
    check_abc,
    check_t3,
    check_t4,
    check_t6,
    check_t7,
    golden_battery,
    parse_interval,
    random_battery,
    restrict,
    run_battery,
    sample_directions,
    sample_pairs,
)

from dinicvx import theorems
from dinicvx.theorems import _longest_run

from conftest import grid_for, phi_of
from theorems_reference import check_abc as check_abc_loop
from theorems_reference import longest_run_loop

BOX = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
SCHED = SUITE_SCHEDULE


class TestT3:
    def test_square_nonvacuous(self, unit_grid):
        rep = check_t3(SampledProblem(phi_of("t^2"), unit_grid, SCHED))
        assert rep.implication_holds and not rep.vacuous and not rep.inconclusive
        assert len(rep.conclusion_verdicts) == 2

    def test_cube_vacuous(self, unit_grid):
        rep = check_t3(SampledProblem(phi_of("t^3"), unit_grid, SCHED))
        assert rep.implication_holds and rep.vacuous

    def test_undefined_inconclusive(self, unit_grid):
        rep = check_t3(SampledProblem(phi_of("log(t)"), unit_grid, SCHED))
        assert rep.inconclusive


class TestT4:
    def test_square_both_sides_hold(self, unit_grid):
        rep = check_t4(SampledProblem(phi_of("t^2"), unit_grid, SCHED))
        assert rep.implication_holds and not rep.inconclusive

    def test_negated_square_both_sides_fail(self, unit_grid):
        rep = check_t4(SampledProblem(phi_of("-t^2"), unit_grid, SCHED))
        assert rep.implication_holds
        assert rep.premise_verdicts[0].outcome == "fails"
        assert rep.conclusion_verdicts[0].outcome == "fails"

    def test_half_plateau_fails_by_stationary_nonminimizer(self, unit_grid):
        # quasiconvex holds, yet the plateau is stationary above the minimum,
        # so the right side fails exactly as pseudoconvexity does
        rep = check_t4(
            SampledProblem(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid, SCHED)
        )
        assert rep.implication_holds
        assert rep.premise_verdicts[0].outcome == "fails"
        assert rep.conclusion_verdicts[0].outcome == "holds"


class TestT7:
    def test_square_strict_and_nonconstant(self, unit_grid):
        rep = check_t7(SampledProblem(phi_of("t^2"), unit_grid, SCHED))
        assert rep.implication_holds and not rep.vacuous

    def test_plateau_bowl_nonstrict_and_constant_run(self):
        rep = check_t7(
            SampledProblem(phi_of("max(0, abs(t) - 1)"), grid_for("[-2,2]"), SCHED)
        )
        assert rep.implication_holds
        assert rep.conclusion_verdicts[0].outcome == "fails"

    def test_constant_function(self, unit_grid):
        rep = check_t7(SampledProblem(phi_of("2"), unit_grid, SCHED))
        assert rep.implication_holds
        assert rep.conclusion_verdicts[0].outcome == "fails"

    def test_cube_vacuous(self, unit_grid):
        rep = check_t7(SampledProblem(phi_of("t^3"), unit_grid, SCHED))
        assert rep.vacuous


class TestT6:
    def test_bowl_all_restrictions_agree(self):
        f = phi_of("x1^2 + x2^2", 2)
        pairs = sample_pairs(BOX, 6, seed=1)
        rep = check_t6(f, BOX, pairs, SCHED)
        assert rep.implication_holds and not rep.inconclusive
        assert "hold" in rep.notes

    def test_cube_slice_fails_both_sides(self):
        # along x = (0,0), y = (-0.5, 0.1) the restriction is -0.125 s^3:
        # no leftward descent at s=0 (premise fails) while 0 is stationary
        # with a strictly lower far end (conclusion fails): a non-vacuous match
        f = phi_of("x1^3", 2)
        pairs = [(np.asarray([0.0, 0.0]), np.asarray([-0.5, 0.1]))]
        rep = check_t6(f, BOX, pairs, SCHED)
        assert rep.implication_holds and not rep.inconclusive
        assert "fail" in rep.notes

    def test_premises_and_conclusions_per_pair(self):
        f = phi_of("abs(x1) + abs(x2)", 2)
        pairs = sample_pairs(BOX, 4, seed=3)
        rep = check_t6(f, BOX, pairs, SCHED)
        assert len(rep.premise_verdicts) == 4
        assert len(rep.conclusion_verdicts) == 4


class TestAbc:
    def test_at_global_minimizer_all_true(self):
        f = phi_of("x1^2 + x2^2", 2)
        rep = check_abc(f, np.asarray([0.0, 0.0]), np.asarray([0.5, 0.5]),
                        BOX, SCHED)
        assert rep.implication_holds and not rep.inconclusive
        assert "A=True" in rep.notes and "B=True" in rep.notes and "C=True" in rep.notes

    def test_away_from_minimizer_all_false(self):
        f = phi_of("x1^2 + x2^2", 2)
        rep = check_abc(f, np.asarray([0.5, -0.3]), np.asarray([0.0, 0.0]),
                        BOX, SCHED)
        assert rep.implication_holds and not rep.inconclusive
        assert "A=False" in rep.notes and "C=False" in rep.notes

    def test_b_sees_the_dip_between_grid_points(self):
        # along x1 the restriction dips to 0 at t = 1e-3, inside the first
        # grid cell, so t = 0 is the grid minimum but not the minimum
        f = phi_of("(x1 - 0.001)^2 + x2^2", 2)
        rep = check_abc(f, np.asarray([0.0, 0.0]), np.asarray([1.0, 0.0]),
                        BOX, SCHED)
        assert rep.implication_holds and not rep.inconclusive
        assert "A=False" in rep.notes and "B=False" in rep.notes and "C=False" in rep.notes

    def test_plateau_edge_of_linf_norm(self):
        # x on the flat floor of max(|x1|,|x2|)? there is no flat floor, but
        # the ridge function x1^2 is constant along x2: stationarity must
        # still hold at x1=0 whatever x2 is
        f = phi_of("x1^2", 2)
        rep = check_abc(f, np.asarray([0.0, 0.7]), np.asarray([0.3, -0.2]),
                        BOX, SCHED)
        assert rep.implication_holds
        assert "C=True" in rep.notes


class TestSampling:
    def test_directions_unit_norm(self):
        d = sample_directions(2, 64, seed=0)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, rtol=1e-12)

    def test_direction_refinement_nests(self):
        d64 = sample_directions(2, 64, seed=0)
        d128 = sample_directions(2, 128, seed=0)
        np.testing.assert_allclose(d128[::2], d64, atol=1e-12)

    def test_directions_higher_arity(self):
        d = sample_directions(3, 32, seed=5)
        assert d.shape == (32, 3)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, rtol=1e-12)

    def test_pairs_deterministic_and_distinct(self):
        a = sample_pairs(BOX, 10, seed=4)
        b = sample_pairs(BOX, 10, seed=4)
        assert all(np.array_equal(x1, x2) and np.array_equal(y1, y2)
                   for (x1, y1), (x2, y2) in zip(a, b))
        for x, y in a:
            assert not np.allclose(x, y)
            assert np.all(np.abs(x) <= 1.0) and np.all(np.abs(y) <= 1.0)

    def test_pairs_redrawn_off_open_faces(self):
        # four subnormal steps wide: about one draw in four lands on a face
        box = (parse_interval("[-1,1]"), parse_interval("(0,2e-323)"))
        for pair in sample_pairs(box, 24, seed=1):
            assert all(iv.contains(v) for pt in pair for iv, v in zip(box, pt))

    def test_closed_box_pairs_are_the_plain_draws(self):
        rng = np.random.default_rng(4)
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        for x, y in sample_pairs(BOX, 10, seed=4):
            assert np.array_equal(x, rng.uniform(lo, hi))
            assert np.array_equal(y, rng.uniform(lo, hi))


class TestRunBattery:
    def test_golden_subset_passes(self):
        by_id = {e.id: e for e in golden_battery()}
        subset = [by_id[k] for k in
                  ("sq", "cube", "vee", "half-plateau-ramp", "neg-sq", "bowl2")]
        res = run_battery(subset, pairs=4)
        assert res.ok
        assert not res.label_mismatches
        assert all(r.implication_holds for r in res.reports)

    def test_wrong_label_is_caught(self):
        bad = BatteryEntry(
            id="bad-sq", expression="t^2", arity=1, domain="[-1,1]",
            expected={"pseudoconvex": False, "strictly_pseudoconvex": True,
                      "quasiconvex": True, "semistrictly_quasiconvex": True},
        )
        res = run_battery([bad])
        assert not res.ok
        assert any("bad-sq" in m and "pseudoconvex" in m
                   for m in res.label_mismatches)

    def test_lsc_flag_gates_t3(self):
        by_id = {e.id: e for e in golden_battery()}
        res = run_battery([by_id["log-partial"]])
        assert not any(c.theorem_id == "T3" for c in res.cases)

    def test_rc_flag_gates_t4(self):
        by_id = {e.id: e for e in golden_battery()}
        res = run_battery([by_id["half-plateau-ramp"]])
        assert not any(c.theorem_id == "T4" for c in res.cases)
        assert any(c.theorem_id == "T3" for c in res.cases)

    def test_multivariate_runs_t6_and_abc(self):
        by_id = {e.id: e for e in golden_battery()}
        res = run_battery([by_id["bowl2"]], pairs=3)
        assert any(c.theorem_id == "T6" for c in res.cases)
        assert any(c.theorem_id == "Lpr1" for c in res.cases)


DEF_ORACLES = ("pseudoconvex_def", "strictly_pseudoconvex_def",
               "quasiconvex_def", "semistrictly_quasiconvex_def")


class TestVerdictPerProblem:
    def test_each_oracle_runs_once_per_problem(self, monkeypatch):
        calls = Counter()
        for name in DEF_ORACLES:
            real = getattr(theorems, name)

            def counting(p, real=real, name=name):
                calls[name, p] += 1
                return real(p)

            monkeypatch.setattr(theorems, name, counting)
        assert run_battery(golden_battery()).ok
        assert {name for name, _ in calls} == set(DEF_ORACLES)
        assert max(calls.values()) == 1

    def test_kept_verdicts_match_recomputed_ones(self, monkeypatch):
        entries = golden_battery() + random_battery(40)
        kept = repr(run_battery(entries))
        monkeypatch.setattr(SampledProblem, "verdict", lambda self, oracle: oracle(self))
        assert repr(run_battery(entries)) == kept


GOLDEN_QC_2D = [e for e in golden_battery()
                if e.arity == 2 and e.expected and e.expected.get("quasiconvex")]


class TestAbcMatchesLoopReference:
    @pytest.mark.parametrize("seed", [11, 4242])
    @pytest.mark.parametrize("entry", GOLDEN_QC_2D, ids=[e.id for e in GOLDEN_QC_2D])
    def test_golden_pairs_repr_identical(self, entry, seed):
        f = phi_of(entry.expression, 2)
        box = tuple(parse_interval(b) for b in entry.box)
        for k, (x, y) in enumerate(sample_pairs(box, 50, seed)):
            got = check_abc(f, x, y, box, SCHED, seed=seed, function_id=f"p{k}")
            want = check_abc_loop(f, x, y, box, SCHED, seed=seed, function_id=f"p{k}")
            assert repr(got) == repr(want)

    # In both functions x = 0 is a kink: the directions that do not
    # descend have the slowly settling term |.|^1.1 and stay unconverged.
    # The sample starts near angle 0, along +x1.
    def test_unconverged_direction_before_first_descent_is_inconclusive(self):
        f = phi_of("abs(x1) + abs(x1)^1.1 - 2*max(x2, 0)", 2)
        args = (f, np.zeros(2), np.asarray([0.0, 0.5]), BOX, SCHED)
        rep = check_abc(*args)
        assert rep.inconclusive and rep.notes == "a Dini estimate did not converge"
        assert repr(rep) == repr(check_abc_loop(*args))

    def test_unconverged_direction_after_first_descent_is_ignored(self):
        f = phi_of("abs(x2) + abs(x2)^1.1 - 2*max(x1, 0)", 2)
        args = (f, np.zeros(2), np.asarray([0.5, 0.0]), BOX, SCHED)
        rep = check_abc(*args)
        assert not rep.inconclusive and "A=False" in rep.notes
        assert repr(rep) == repr(check_abc_loop(*args))

    def test_directions_probed_in_one_call(self):
        calls = []
        fn = phi_of("x1^2 + x2^2", 2)

        def f(pts):
            calls.append(pts.shape[0])
            return fn(pts)

        check_abc(f, np.asarray([0.2, 0.1]), np.asarray([0.5, 0.5]), BOX, SCHED)
        # restriction grid; A at x and the trailing half of its 64 probe
        # rows; f(x) with the B probes, which C reads too
        n = SCHED.steps
        half = n - n // 2
        assert calls == [258, 1, 64 * half, 1 + 2 * n]

    # x within the largest step (1e-2) of a face, or on one, so that some
    # +-s probes of B and C, and some of A's, leave the feasible set
    NEAR_FACE = [
        ([0.995, 0.2], [-0.5, 0.1]),
        ([-0.3, -0.996], [0.4, 0.7]),
        ([0.999, 0.998], [-0.2, -0.6]),
        ([1.0, 0.5], [0.2, -0.3]),
        ([-0.997, 0.1], [0.5, 0.9]),
    ]
    NEAR_FACE_BOXES = {"closed": BOX, "open_x1_low": (parse_interval("(-1,1]"),
                                                      parse_interval("[-1,1]"))}

    @pytest.mark.parametrize("box", NEAR_FACE_BOXES)
    @pytest.mark.parametrize("source", ["x1^2 + x2^2", "max(abs(x1), abs(x2))",
                                        "x2^2 - x1", "abs(x1 - 0.995) + x2^2",
                                        "(x1 - 0.995)^2 + (x2 - 0.2)^2",
                                        "exp(x1) - 1.3*x2"])
    def test_near_a_face_repr_identical(self, source, box):
        box = self.NEAR_FACE_BOXES[box]
        f = phi_of(source, 2)
        s = SCHED.step_sizes()
        left = 0
        for k, (x, y) in enumerate(self.NEAR_FACE):
            x, y = np.asarray(x), np.asarray(y)
            feasible = restrict(f, x, y, box).feasible
            left += not feasible.contains_many(np.concatenate([s, -s])).all()
            got = check_abc(f, x, y, box, SCHED, function_id=f"p{k}")
            want = check_abc_loop(f, x, y, box, SCHED, function_id=f"p{k}")
            assert repr(got) == repr(want)
        assert left == len(self.NEAR_FACE)


class TestLongestRun:
    @given(st.lists(st.booleans(), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_loop(self, flags):
        assert _longest_run(np.asarray(flags, dtype=bool)) == longest_run_loop(flags)

    @pytest.mark.parametrize("flags,want", [
        ([], (0, 0)),
        ([False, False], (0, 0)),
        ([True] * 5, (5, 4)),
        ([True, True, False, True, True], (2, 1)),  # a tie: the first run wins
        ([False, True, False, True, True, True, False], (3, 5)),
    ])
    def test_cases(self, flags, want):
        assert _longest_run(np.asarray(flags, dtype=bool)) == want
        assert longest_run_loop(flags) == want

import gc
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    SUITE_SCHEDULE,
    BatteryEntry,
    SampledProblem,
    anchored_grid,
    check_abc,
    check_t3,
    check_t4,
    check_t6,
    check_t7,
    golden_battery,
    parse_interval,
    pseudoconvex_char,
    random_battery,
    restrict,
    run_battery,
    sample_directions,
    sample_pairs,
)

from dinicvx import dini, oracle, theorems
from dinicvx.theorems import _longest_run

from conftest import grid_for, phi_of
from dini_reference import is_stationary
from theorems_reference import check_abc as check_abc_loop
from theorems_reference import check_t6_loop
from theorems_reference import sample_pairs_loop
from theorems_reference import longest_run_loop

BOX = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
SCHED = SUITE_SCHEDULE


def line_batches(f, pairs, box=BOX):
    """The line batches of ``pairs`` at 257 points under ``SCHED``, as the
    generator :func:`line_problems` returns."""
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in pairs]
    return theorems.line_problems(f, pairs, box, 257, 1e-6, SCHED, None, 1e-7)


def lines(f, pairs, box=BOX):
    """The line batches of ``pairs`` at 257 points under ``SCHED``, a list."""
    return list(line_batches(f, pairs, box))


class TestT3:
    def test_square_nonvacuous(self, unit_grid):
        p = SampledProblem(phi_of("t^2"), unit_grid, SCHED)
        rep = check_t3(p)
        assert rep.status == "ok"
        # both conclusions were read, and hold
        assert [p.verdict(c)[0].outcome for c in (
            oracle.semistrictly_quasiconvex_def, oracle.quasiconvex_def)] == ["holds"] * 2

    def test_cube_vacuous(self, unit_grid):
        rep = check_t3(SampledProblem(phi_of("t^3"), unit_grid, SCHED))
        assert rep.status == "vacuous"

    def test_undefined_inconclusive(self, unit_grid):
        rep = check_t3(SampledProblem(phi_of("log(t)"), unit_grid, SCHED))
        assert rep.status == "inconclusive"


class TestT4:
    def test_square_both_sides_hold(self, unit_grid):
        rep = check_t4(SampledProblem(phi_of("t^2"), unit_grid, SCHED))
        assert rep.status == "ok"

    def test_negated_square_both_sides_fail(self, unit_grid):
        p = SampledProblem(phi_of("-t^2"), unit_grid, SCHED)
        rep = check_t4(p)
        assert rep.status != "FAIL"
        assert p.verdict(oracle.pseudoconvex_def)[0].outcome == "fails"
        assert p.verdict(oracle.quasiconvex_def)[0].outcome == "fails"

    def test_half_plateau_fails_by_stationary_nonminimizer(self, unit_grid):
        # quasiconvex holds, yet the plateau is stationary above the minimum,
        # so the right side fails exactly as pseudoconvexity does
        p = SampledProblem(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid, SCHED)
        rep = check_t4(p)
        assert rep.status != "FAIL"
        assert p.verdict(oracle.pseudoconvex_def)[0].outcome == "fails"
        assert p.verdict(oracle.quasiconvex_def)[0].outcome == "holds"

    def test_a_fail_cuts_its_witnesses_at_the_one_cap(self, unit_grid, monkeypatch):
        # a decreasing staircase of 9 steps is quasiconvex, and stationary
        # above its minimum on 8 plateaus; with pseudoconvexity spied to
        # hold, T4 fails with as many stationary witnesses as any list keeps
        steps = ", ".join(f"t < {-1 + 2 * k / 9!r}: {10 - k}" for k in range(1, 9))
        monkeypatch.setattr(theorems, "pseudoconvex_def", lambda p: (
            oracle.Verdict("holds", "pseudoconvex_def", 0.0, p.stat_tol),))
        p = SampledProblem(phi_of(f"piecewise({steps}, else: 1)"), unit_grid, SCHED)
        rep = check_t4(p)
        assert rep.status == "FAIL"
        assert p.verdict(oracle.quasiconvex_def)[0].outcome == "holds"
        assert [w.kind for w in rep.counterexample] == (
            ["stationary_nonminimizer"] * oracle._WITNESS_CAP)

    @pytest.mark.parametrize("source", ["abs(t)^1.1", "abs(t) + abs(t)^1.1"])
    def test_unconverged_minimizer_leaves_t4_decided(self, source, unit_grid):
        # the estimates at the minimizer t = 0 settle too slowly to converge,
        # but only the points above the minimum level are asked about
        p = SampledProblem(phi_of(source), unit_grid, SCHED)
        rep = check_t4(p)
        assert rep.status == "ok" and rep.notes == ""
        assert p.verdict(oracle.pseudoconvex_def)[0].outcome == "holds"


class TestT7:
    def test_square_strict_and_nonconstant(self, unit_grid):
        rep = check_t7(SampledProblem(phi_of("t^2"), unit_grid, SCHED))
        assert rep.status == "ok"

    def test_plateau_bowl_nonstrict_and_constant_run(self):
        p = SampledProblem(phi_of("max(0, abs(t) - 1)"), grid_for("[-2,2]"), SCHED)
        rep = check_t7(p)
        assert rep.status != "FAIL"
        assert p.verdict(oracle.strictly_pseudoconvex_def)[0].outcome == "fails"

    def test_constant_function(self, unit_grid):
        p = SampledProblem(phi_of("2"), unit_grid, SCHED)
        rep = check_t7(p)
        assert rep.status != "FAIL"
        assert p.verdict(oracle.strictly_pseudoconvex_def)[0].outcome == "fails"

    def test_cube_vacuous(self, unit_grid):
        rep = check_t7(SampledProblem(phi_of("t^3"), unit_grid, SCHED))
        assert rep.status == "vacuous"


class TestT6:
    def test_bowl_all_restrictions_agree(self):
        f = phi_of("x1^2 + x2^2", 2)
        rep = check_t6(lines(f, sample_pairs(BOX, 6, seed=1)))
        assert rep.status == "ok"
        assert "hold" in rep.notes

    def test_cube_slice_fails_both_sides(self):
        # along x = (0,0), y = (-0.5, 0.1) the restriction is -0.125 s^3:
        # no leftward descent at s=0 (premise fails) while 0 is stationary
        # with a strictly lower far end (conclusion fails): a non-vacuous match
        f = phi_of("x1^3", 2)
        rep = check_t6(lines(f, [([0.0, 0.0], [-0.5, 0.1])]))
        assert rep.status == "ok"
        assert "fail" in rep.notes

    def test_premises_and_conclusions_per_pair(self):
        # T6 reads a premise and a conclusion verdict of each of the 4 lines
        f = phi_of("abs(x1) + abs(x2)", 2)
        batches = lines(f, sample_pairs(BOX, 4, seed=3))
        rep = check_t6(batches)
        for side in (oracle.pseudoconvex_def, oracle.semistrictly_quasiconvex_def):
            read = [v.outcome for _, p in batches for v in p.verdict(side)]
            assert read == ["holds"] * 4
        assert (rep.status, rep.notes) == ("ok", "both sides hold")

    def test_line_ends_are_the_values_at_the_anchors(self):
        # the first line's x lies within the margin of the open face x1 > -1,
        # so t=0 is off its grid; the origin evaluation's ends are phi at 0
        # and 1 all the same, and the grid values wherever an anchor is on it
        f = phi_of("exp(x1) - 1.3*x2", 2)
        box = (parse_interval("(-1,1]"), parse_interval("[-1,1]"))
        near = [(np.asarray([-1.0 + 1e-9, 0.1]), np.asarray([0.5, 0.3]))]
        for pairs in (near + list(sample_pairs(box, 5, 2)), sample_pairs(box, 5, 2)):
            (r, p), = lines(f, pairs, box)
            ends = theorems._origin(p)[0]
            assert np.array_equal(ends, r.phi(np.tile([0.0, 1.0], (len(pairs), 1))))
            at0, at1 = p.dom.points == 0.0, p.dom.points == 1.0
            off = ~at0.any(axis=1)
            assert off.tolist() == [pairs[0] is near[0]] + [False] * (len(pairs) - 1)
            assert at1.sum(axis=1).tolist() == [1] * len(pairs)
            assert np.array_equal(p.values[at0], ends[~off, 0])
            assert np.array_equal(p.values[at1], ends[:, 1])

    @staticmethod
    def loop(batches, function_id):
        """``check_t6_loop`` on the golden entry ``function_id``."""
        entry, = (e for e in golden_battery() if e.id == function_id)
        box = tuple(map(parse_interval, entry.box))
        return check_t6_loop(phi_of(entry.expression, 2), box, batches, function_id)

    @pytest.mark.parametrize("seed,settings", [
        (0, {}), (4242, {}), (0, {"n_grid": 1025, "tol": 1e-6, "stat_tol": 1e-3})],
        ids=["seed0", "seed4242", "fine"])
    def test_battery_matches_a_loop_over_the_reference(self, monkeypatch, seed, settings):
        entries = golden_battery() if not settings else [
            e for e in golden_battery() if e.arity == 2]
        read = []
        real = theorems._origin

        def origin(p):
            read.append(p)
            return real(p)

        monkeypatch.setattr(theorems, "_origin", origin)
        kept = run_battery(entries, seed=seed, **settings)
        assert read  # T6 reads each batch's ends and origin test from _origin
        cube, = (c for c in kept.cases if c.theorem == "T6" and c.function == "cube-x1")
        assert (cube.status, cube.detail) == ("ok", "both sides fail")
        monkeypatch.setattr(theorems, "check_t6", self.loop)
        assert repr(run_battery(entries, seed=seed, **settings)) == repr(kept)

    def test_a_fail_names_the_lines_whose_sides_disagree(self, monkeypatch):
        # at 1025 points a stationarity tolerance of 1e-3 makes the
        # definitional oracle fail on four of bowl2's 60 lines, on each of
        # which the semistrict form holds
        entry, = (e for e in golden_battery() if e.id == "bowl2")
        settings = {"n_grid": 1025, "stat_tol": 1e-3, "pairs": 60, "seed": 0}
        kept = run_battery([entry], **settings)
        case = kept.cases[0]
        assert (case.theorem, case.status) == ("T6", "FAIL") and not kept.ok
        # check_t6 on the line batches the run made gives the case's witnesses
        f = phi_of(entry.expression, 2)
        box = tuple(map(parse_interval, entry.box))
        pairs = sample_pairs(box, 60, 0)
        batches = list(theorems.line_problems(f, pairs, box, 1025, theorems.MARGIN, SCHED,
                                              None, 1e-3))
        rep = check_t6(batches, entry.id)
        assert rep.status == "FAIL"
        premises = [v for _, p in batches for v in p.verdict(oracle.pseudoconvex_def)]
        assert [k for k, v in enumerate(premises) if v.outcome == "fails"] == [10, 29, 39, 57]
        wits = rep.counterexample
        assert [w.kind for w in wits] == ["line_mismatch"] * 4
        assert [w.detail.split(":")[0] for w in wits] == ["pair10", "pair29", "pair39", "pair57"]
        assert case.detail == wits[0].detail == (
            "pair10: restriction pseudoconvexity fails but the semistrict form holds")
        for k, w in zip((10, 29, 39, 57), wits):
            xy = np.array(pairs[k])
            assert w.points == tuple(map(float, xy.ravel()))
            assert w.values == tuple(map(float, f(xy)))
        monkeypatch.setattr(theorems, "check_t6", self.loop)
        assert repr(run_battery([entry], **settings)) == repr(kept)


class TestOrigin:
    GOLDEN_2D = [e for e in golden_battery() if e.arity == 2]

    @pytest.mark.parametrize("entry", GOLDEN_2D, ids=[e.id for e in GOLDEN_2D])
    def test_each_line_as_the_reference_gives_it(self, entry):
        # the reference restricts f to each line again and estimates t=0
        # one direction at a time; the near-face pairs lose some probes
        f = phi_of(entry.expression, 2)
        box = tuple(map(parse_interval, entry.box))
        pairs = (TestAbcMatchesLoopReference.NEAR_FACE + [([0.0, 0.0], [0.5, 0.3])]
                 + list(sample_pairs(box, 12, 0)))
        s, seen = SCHED.step_sizes(), set()
        for r, p in lines(f, pairs, box):
            ends, probe_vals, stationary, unsettled = theorems._origin(p)
            for i, feasible in enumerate(r.feasible):
                line = restrict(f, r.x[i][None], r.y[i][None], box)
                want = line.phi(np.concatenate([[0.0, 1.0], s, -s]))
                want[2:][~feasible.contains_many(np.concatenate([s, -s]))] = np.nan
                assert np.array_equal(np.concatenate([ends[i], probe_vals[i]]), want,
                                      equal_nan=True)
                st = is_stationary(line.phi, 0.0, line.feasible[0], SCHED, p.stat_tol)
                assert (stationary[i], unsettled[i]) == (st.stationary, not st.decisive)
                seen.add(bool(stationary[i]))
        assert seen == ({False} if entry.id == "plane" else {True, False})


class TestAbc:
    def test_at_global_minimizer_all_true(self):
        f = phi_of("x1^2 + x2^2", 2)
        rep, = check_abc(f, BOX, lines(f, [([0.0, 0.0], [0.5, 0.5])]))
        assert rep.status == "ok"
        assert "A=True" in rep.notes and "B=True" in rep.notes and "C=True" in rep.notes

    def test_away_from_minimizer_all_false(self):
        f = phi_of("x1^2 + x2^2", 2)
        rep, = check_abc(f, BOX, lines(f, [([0.5, -0.3], [0.0, 0.0])]))
        assert rep.status == "ok"
        assert "A=False" in rep.notes and "C=False" in rep.notes

    def test_b_sees_the_dip_between_grid_points(self):
        # along x1 the restriction dips to 0 at t = 1e-3, inside the first
        # grid cell, so t = 0 is the grid minimum but not the minimum
        f = phi_of("(x1 - 0.001)^2 + x2^2", 2)
        rep, = check_abc(f, BOX, lines(f, [([0.0, 0.0], [1.0, 0.0])]))
        assert rep.status == "ok"
        assert "A=False" in rep.notes and "B=False" in rep.notes and "C=False" in rep.notes

    def test_b_ignores_a_wide_band(self):
        # the restriction's least value is 2.5e-5 below f(x), well inside a
        # band of 1e-3: B must still say x is not a minimizer, as A and C do
        f = phi_of("x1^2 + x2^2", 2)
        pair = (np.array([0.5, 0.0]), np.array([0.51, 1.0]))
        rep, = check_abc(f, BOX, theorems.line_problems(f, [pair], BOX, 257, 1e-6, SCHED,
                                                        1e-3, 1e-7))
        assert rep.status == "ok"
        assert "A=False" in rep.notes and "B=False" in rep.notes and "C=False" in rep.notes

    def test_plateau_edge_of_linf_norm(self):
        # x on the flat floor of max(|x1|,|x2|)? there is no flat floor, but
        # the ridge function x1^2 is constant along x2: stationarity must
        # still hold at x1=0 whatever x2 is
        f = phi_of("x1^2", 2)
        rep, = check_abc(f, BOX, lines(f, [([0.0, 0.7], [0.3, -0.2])]))
        assert rep.status != "FAIL"
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

    # the golden box, open faces (a few draws rejected on the subnormal one),
    # and a box where every pair is allclose but one coordinate
    PAIR_BOXES = {
        "golden": "[-1,1]x[-1,1]",
        "open": "(-1,1]x[-0.5,2)",
        "open-subnormal": "[-1,1]x(0,2e-323)",
        "mostly-close": "[0,1e-4]x[-1,1]x[3,3]",
    }

    @pytest.mark.parametrize("seed", [0, 1, 4242])
    @pytest.mark.parametrize("box", sorted(PAIR_BOXES))
    def test_bulk_draws_match_one_pair_at_a_time(self, box, seed):
        box = tuple(parse_interval(b) for b in self.PAIR_BOXES[box].split("x"))
        for count in (1, 24, 257):
            got = sample_pairs(box, count, seed)
            want = sample_pairs_loop(box, count, seed)
            assert len(got) == len(want) == count
            for (x, y), (xw, yw) in zip(got, want):
                assert x.tobytes() == xw.tobytes() and y.tobytes() == yw.tobytes()

    @pytest.mark.parametrize("box", ["[0,1e-12]x[5,5]", "[2,2]x[-3,-3]"])
    def test_thin_box_still_raises(self, box):
        box = tuple(parse_interval(b) for b in box.split("x"))
        for draw in (sample_pairs, sample_pairs_loop):
            with pytest.raises(ValueError, match="too thin"):
                draw(box, 3, 0)

    def test_misses_in_a_row_count_across_bulk_draws(self, monkeypatch):
        # about three pairs in four are allclose here; with the cap at 5, a
        # run of 5 misses anywhere before the last pair raises, as it does
        # one pair at a time
        box = tuple(parse_interval(b) for b in "[0,2e-8]x[5,5]".split("x"))
        monkeypatch.setattr(theorems, "_PAIR_DRAWS", 5)
        outcomes = set()
        for seed in range(60):
            try:
                want = ("pairs", sample_pairs_loop(box, 6, seed, cap=5))
            except ValueError:
                want = ("raises",)
            try:
                got = ("pairs", sample_pairs(box, 6, seed))
            except ValueError:
                got = ("raises",)
            assert repr(got) == repr(want)
            outcomes.add(want[0])
        assert outcomes == {"pairs", "raises"}

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
        assert all(c.status != "FAIL" for c in res.cases)

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
        assert not any(c.theorem == "T3" for c in res.cases)

    def test_rc_flag_gates_t4(self):
        by_id = {e.id: e for e in golden_battery()}
        res = run_battery([by_id["half-plateau-ramp"]])
        assert not any(c.theorem == "T4" for c in res.cases)
        assert any(c.theorem == "T3" for c in res.cases)

    def test_multivariate_runs_t6_and_abc(self):
        by_id = {e.id: e for e in golden_battery()}
        res = run_battery([by_id["bowl2"]], pairs=3)
        assert any(c.theorem == "T6" for c in res.cases)
        assert any(c.theorem == "Lpr1" for c in res.cases)

    @pytest.mark.parametrize("entries", [random_battery(40, seed=3), golden_battery()],
                             ids=["random", "golden"])
    def test_a_run_frees_each_entry_once_it_has_run(self, entries, monkeypatch):
        # every entry is parsed before the first runs; when the k-th runs its
        # T7 (1-D) or T6 (2-D), the function of no earlier entry is alive
        asts, alive = [], []
        real_parse = theorems.parse

        def parse(*args):
            fn = real_parse(*args)
            asts.append(weakref.ref(fn))
            return fn

        def counting(check):
            def run(*args):
                gc.collect()
                alive.append(sum(ref() is not None for ref in asts[: len(alive)]))
                return check(*args)
            return run

        monkeypatch.setattr(theorems, "parse", parse)
        for name in ("check_t6", "check_t7"):
            monkeypatch.setattr(theorems, name, counting(getattr(theorems, name)))
        run_battery(entries, pairs=2)
        assert len(asts) == len(entries)
        assert alive == [0] * len(entries)


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

    def test_t6_keeps_its_verdicts_on_each_batch(self, monkeypatch):
        # a later reader of the same batch finds the premise decided
        calls = Counter()
        real = theorems.pseudoconvex_def
        monkeypatch.setattr(theorems, "pseudoconvex_def",
                            lambda p: calls.update([p]) or real(p))
        batches = lines(phi_of("x1^2 + x2^2", 2), sample_pairs(BOX, 40, 0))
        assert len(batches) == 2 and check_t6(batches).status != "FAIL"
        for _, p in batches:
            p.verdict(theorems.pseudoconvex_def)
        assert list(calls.values()) == [1, 1]

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
        # each pair alone, and all 50 as one batch
        f = phi_of(entry.expression, 2)
        box = tuple(parse_interval(b) for b in entry.box)
        pairs = sample_pairs(box, 50, seed)
        batch = check_abc(f, box, lines(f, pairs, box), seed=seed,
                          function_id=[f"p{k}" for k in range(50)])
        assert len(batch) == 50
        for k, (x, y) in enumerate(pairs):
            got, = check_abc(f, box, lines(f, [(x, y)], box), seed=seed, function_id=[f"p{k}"])
            want = check_abc_loop(f, x, y, box, SCHED, seed=seed, function_id=f"p{k}")
            assert repr(got) == repr(want)
            assert repr(batch[k]) == repr(want)

    # In both functions x = 0 is a kink: the directions that do not
    # descend have the slowly settling term |.|^1.1 and stay unconverged.
    # The sample starts near angle 0, along +x1, and any descending
    # direction decides A whatever its place.
    def test_unconverged_direction_before_first_descent_is_decided(self):
        f = phi_of("abs(x1) + abs(x1)^1.1 - 2*max(x2, 0)", 2)
        args = (f, np.zeros(2), np.asarray([0.0, 0.5]), BOX, SCHED)
        rep, = check_abc(f, BOX, lines(f, [args[1:3]]))
        assert rep.status != "inconclusive"
        assert rep.notes.startswith("A=False (over 64 directions), B=False, C=False, ")
        assert repr(rep) == repr(check_abc_loop(*args))

    def test_unconverged_direction_after_first_descent_is_ignored(self):
        f = phi_of("abs(x2) + abs(x2)^1.1 - 2*max(x1, 0)", 2)
        args = (f, np.zeros(2), np.asarray([0.5, 0.0]), BOX, SCHED)
        rep, = check_abc(f, BOX, lines(f, [args[1:3]]))
        assert rep.status != "inconclusive"
        assert rep.notes.startswith("A=False (over 64 directions), B=False, C=False, ")
        assert repr(rep) == repr(check_abc_loop(*args))

    @pytest.mark.parametrize("m", [1, 8, 9, 20])
    def test_directions_probed_in_one_call(self, m):
        calls = []
        fn = phi_of("x1^2 + x2^2", 2)

        def f(pts):
            calls.append(pts.shape[0])
            return fn(pts)

        # x stays 0.1 off the faces, so every probe of A is in the box and no
        # row falls back to its leading probes
        pairs = sample_pairs((parse_interval("[-0.9,0.9]"),) * 2, m, 5)
        xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
        assert len(check_abc(f, BOX, lines(f, pairs))) == m
        # the grids of the m lines; phi(0), phi(1) and the B probes of every
        # line, which C reads too and whose phi(0) is A's f(x); the trailing
        # half of the 64 m probe rows of A, _BLOCK_ROWS rows a call
        n = SCHED.steps
        half = n - n // 2
        rows = [min(dini._BLOCK_ROWS, 64 * m - a) for a in range(0, 64 * m, dini._BLOCK_ROWS)]
        width = anchored_grid(restrict(fn, xs, ys, BOX).feasible, 257).points.shape[1]
        assert calls == [m * width, m * (2 + 2 * n)] + [k * half for k in rows]

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
            feasible, = restrict(f, x[None], y[None], box).feasible
            left += not feasible.contains_many(np.concatenate([s, -s])).all()
            got, = check_abc(f, box, lines(f, [(x, y)], box), function_id=[f"p{k}"])
            want = check_abc_loop(f, x, y, box, SCHED, function_id=f"p{k}")
            assert repr(got) == repr(want)
        assert left == len(self.NEAR_FACE)

    # (-0.5, -0.5) is undefined, in a hole of radius 0.1; the line of the
    # other pair crosses it.  The 10 defined pairs take 640 rows of A, more
    # than one block.
    HOLE = "(x1 - 0.995)^2 + (x2 - 0.2)^2 + 0*sqrt((x1 + 0.5)^2 + (x2 + 0.5)^2 - 0.01)"
    UNDEFINED = [([-0.9, -0.4], [-0.2, -0.6]), ([-0.5, -0.5], [0.3, 0.2])]

    @pytest.mark.parametrize("box", NEAR_FACE_BOXES)
    def test_mixed_batch_repr_identical(self, box):
        box = self.NEAR_FACE_BOXES[box]
        f = phi_of(self.HOLE, 2)
        pairs = (self.NEAR_FACE[:3] + self.UNDEFINED + self.NEAR_FACE[3:]
                 + [([0.5, 0.2], [0.5, 0.9])] + list(sample_pairs(box, 4, 3)))
        xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
        ids = [f"p{k}" for k in range(len(pairs))]
        got = check_abc(f, box, lines(f, pairs, box), function_id=ids)
        want = [check_abc_loop(f, x, y, box, SCHED, function_id=k) for x, y, k in zip(xs, ys, ids)]
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert [r.notes for r in got[3:5]] == ["undefined restriction values"] * 2
        assert "A=True" in got[0].notes
        assert "A=False (over 64 directions), B=True, C=True" in got[7].notes
        assert 64 * sum(r.status != "inconclusive" for r in got) > dini._BLOCK_ROWS

    @pytest.mark.parametrize("x,y,match", [([0.3, 0.3], [0.3, 0.3], "must differ"),
                                           ([0.3, 1.5], [0.2, 0.1], "outside the box")])
    def test_invalid_pairs_raise_as_before(self, x, y, match):
        # line_problems rejects the pairs before Lpr1 sees them
        f = phi_of("x1^2 + x2^2", 2)
        with pytest.raises(ValueError, match=match) as want:
            check_abc_loop(f, np.asarray(x), np.asarray(y), BOX, SCHED)
        for pairs in ([(x, y)], [([0.1, 0.2], [0.4, 0.2]), (x, y)]):
            with pytest.raises(ValueError) as got:
                lines(f, pairs)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", [0, 4242])
    def test_battery_matches_a_loop_over_the_reference(self, monkeypatch, seed):
        kept = repr(run_battery(golden_battery(), seed=seed))

        # the battery's batches are at the reference's default grid and margin
        def loop(f, box, batches, seed, function_id):
            pairs = [(a, b, p) for r, p in batches for a, b in zip(r.x, r.y)]
            return tuple(check_abc_loop(f, a, b, box, p.schedule, stat_tol=p.stat_tol, seed=seed,
                                        function_id=k)
                         for (a, b, p), k in zip(pairs, function_id, strict=True))

        monkeypatch.setattr(theorems, "check_abc", loop)
        assert repr(run_battery(golden_battery(), seed=seed)) == kept


class TestSharedBatches:
    def test_t6_and_lpr1_read_one_set_of_batches_per_entry(self, monkeypatch):
        # 40 pairs take two batches an entry; each batch is read by T6 and
        # then by Lpr1 before the next one is made
        grids = []
        real_grid = theorems.anchored_grid

        def counting_grid(*args):
            grids.append(args)
            return real_grid(*args)

        monkeypatch.setattr(theorems, "anchored_grid", counting_grid)
        seen = []
        real_t6, real_abc = theorems.check_t6, theorems.check_abc

        def t6(batches, *args):
            def reading():
                for r, p in batches:
                    seen.append(("check_t6", p))
                    yield r, p
            return real_t6(reading(), *args)

        def abc(f, box, batches, *args, **kwargs):
            seen.extend(("check_abc", p) for _, p in batches)
            return real_abc(f, box, batches, *args, **kwargs)

        monkeypatch.setattr(theorems, "check_t6", t6)
        monkeypatch.setattr(theorems, "check_abc", abc)
        assert run_battery(golden_battery(), pairs=40).ok
        assert len(grids) == 2 * sum(e.arity == 2 for e in golden_battery()) == 12
        assert [name for name, _ in seen] == ["check_t6", "check_abc"] * 12
        assert all(a is b for (_, a), (_, b) in zip(seen[::2], seen[1::2]))
        assert len({id(p) for _, p in seen}) == 12

    def test_an_entry_holds_at_most_two_batches(self, monkeypatch):
        # the batch being made, and the one T6 and Lpr1 read last
        alive, counts = weakref.WeakSet(), []
        real = theorems.SampledProblem

        def tracked(*args):
            p = real(*args)
            alive.add(p)
            counts.append(len(alive))
            return p

        monkeypatch.setattr(theorems, "SampledProblem", tracked)
        assert run_battery([e for e in golden_battery() if e.arity == 2], pairs=200).ok
        assert len(counts) == 6 * 7 and max(counts) == 2

    # 40 lines take two batches
    @pytest.mark.parametrize("m,n_ids", [(3, 0), (3, 2), (3, 4), (40, 39)])
    def test_wrong_id_count_raises_before_f_is_called(self, m, n_ids):
        calls = []
        fn = phi_of("x1^2 + x2^2", 2)

        def f(pts):
            calls.append(pts.shape)
            return fn(pts)

        batches = lines(f, sample_pairs(BOX, m, 0))
        assert sum(r.x.shape[0] for r, _ in batches) == m
        with pytest.raises(ValueError, match=f"{n_ids} function ids for {m} lines"):
            check_abc(f, BOX, batches, function_id=[f"p{k}" for k in range(n_ids)])
        assert calls == []

    def test_batches_from_a_generator(self):
        # 40 lines take two batches, read once from the generator: the
        # reports are those of the list, and a wrong id count still raises
        f = phi_of("x1^2 + x2^2", 2)
        pairs = sample_pairs(BOX, 40, 0)
        assert len(lines(f, pairs)) == 2
        for ids in (None, [f"p{k}" for k in range(40)]):
            got = check_abc(f, BOX, line_batches(f, pairs), function_id=ids)
            assert len(got) == 40
            assert repr(got) == repr(check_abc(f, BOX, lines(f, pairs), function_id=ids))
        for n_ids in (39, 41):
            with pytest.raises(ValueError, match=f"{n_ids} function ids for 40 lines"):
                check_abc(f, BOX, line_batches(f, pairs),
                          function_id=[f"p{k}" for k in range(n_ids)])


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


class TestOneStationarityRule:
    """Every stationarity call is ``dini.stationary``, looked up where
    ``oracle`` and ``theorems`` hold it."""

    def test_each_caller_reads_the_rule(self, monkeypatch, unit_grid):
        callers = []

        def spy(*args):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return dini.stationary(*args)

        for module in (oracle, theorems):
            monkeypatch.setattr(module, "stationary", spy)

        def calls_from(run, *via):
            # every call comes through exactly one of ``via``, and each of them calls
            callers.clear()
            run()
            return (all(sum(name in names for name in via) == 1 for names in callers)
                    and all(any(name in names for names in callers) for name in via))

        f = phi_of("x1^2 + x2^2", 2)
        batches = lines(f, sample_pairs(BOX, 2, 3))
        assert calls_from(lambda: pseudoconvex_char(SampledProblem(phi_of("t^3"), unit_grid)),
                          "pseudoconvex_char")
        # the pair oracles ask it of each entry, a point with one direction
        for pair_oracle in (oracle.pseudoconvex_def, oracle.strictly_pseudoconvex_def):
            assert calls_from(lambda: pair_oracle(SampledProblem(phi_of("t^3"), unit_grid)),
                              "_pair_based")
        assert calls_from(lambda: check_t4(SampledProblem(phi_of("t^3"), unit_grid, SCHED)),
                          "check_t4")
        # the origin test, and the pseudoconvexity of every line
        assert calls_from(lambda: check_t6(batches), "_origin", "_pair_based")
        # the batches keep their origin test, so check_abc's calls are A's
        assert calls_from(lambda: check_abc(f, BOX, batches), "check_abc")
        assert not any({"_origin", "_pair_based"} & names for names in callers)

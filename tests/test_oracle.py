import inspect
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinicvx import (
    SUITE_SCHEDULE,
    SampledProblem,
    anchored_grid,
    check_t3,
    check_t4,
    check_t7,
    decompose,
    auto_tol,
    eval_many,
    golden_battery,
    make_grid,
    martos_segments,
    parse,
    parse_interval,
    pseudoconvex_char,
    pseudoconvex_def,
    quasiconvex_def,
    quasiconvex_martos,
    random_battery,
    restrict,
    sample_pairs,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_char,
    strictly_pseudoconvex_def,
)
from dinicvx import dini, oracle
from dinicvx.domain import Interval, LineGrids

from conftest import descends, grid_for, phi_of
from oracle_reference import semistrict_triple_loop

H = 2.0 / 256  # spacing of the standard 257-point grid on [-1,1]


def outcomes(src, domain="[-1,1]", n=257):
    p = SampledProblem(phi_of(src), grid_for(domain, n))
    return {
        "pc": pseudoconvex_def(p)[0].outcome,
        "spc": strictly_pseudoconvex_def(p)[0].outcome,
        "qc": quasiconvex_def(p)[0].outcome,
        "ssqc": semistrictly_quasiconvex_def(p)[0].outcome,
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
        v = pseudoconvex_def(SampledProblem(phi_of("t^3"), unit_grid))[0]
        w = v.witnesses[0]
        assert w.kind == "no_descent"
        assert w.points[0] == 0.0  # the stationary non-minimizer
        assert w.values[1] < w.values[0]  # y really is lower

    def test_half_plateau_pc_witness_on_plateau(self, unit_grid):
        v = pseudoconvex_def(
            SampledProblem(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid)
        )[0]
        w = v.witnesses[0]
        assert w.kind == "no_descent"
        assert w.points == (-1.0, 0.0)
        assert w.values == (1.0, 0.0)

    def test_half_plateau_ssqc_witness_triple(self, unit_grid):
        v = semistrictly_quasiconvex_def(
            SampledProblem(phi_of("piecewise(t < 0: 1, else: t)"), unit_grid)
        )[0]
        w = v.witnesses[0]
        assert w.kind == "non_descending_interior"
        x, z, y = w.points
        assert x < z < y
        assert z < 0  # the interior plateau point that refuses to drop
        assert w.values[2] < w.values[0]

    def test_negated_square_qc_witness(self, unit_grid):
        v = quasiconvex_def(SampledProblem(phi_of("-t^2"), unit_grid))[0]
        w = v.witnesses[0]
        assert w.kind == "interior_peak"
        assert w.points == (-1.0, -1.0 + H, 1.0)

    def test_witness_values_match_function(self, unit_grid):
        phi = phi_of("-t^2")
        v = quasiconvex_def(SampledProblem(phi, unit_grid))[0]
        for w in v.witnesses:
            np.testing.assert_allclose(
                phi(np.asarray(w.points)), np.asarray(w.values)
            )

    def test_failure_witness_persists_under_refinement(self):
        # a genuine violation found at n=257 is still found at n=513
        for n in (257, 513):
            dom = grid_for("[-1,1]", n)
            v = pseudoconvex_def(SampledProblem(phi_of("t^3"), dom))[0]
            assert v.outcome == "fails"
            assert any(abs(w.points[0]) <= 2.0 / (n - 1) for w in v.witnesses)


class TestToleranceHandling:
    def test_auto_tol_scales_with_values(self):
        assert auto_tol(np.asarray([0.0, 1.0])) == pytest.approx(2e-9)
        assert auto_tol(np.asarray([0.0, 1e6])) == pytest.approx(1e-9 * (1 + 1e6))
        assert auto_tol(np.asarray([np.nan])) == pytest.approx(1e-9)

    def test_explicit_tol_respected(self, unit_grid):
        # a 0.1-amplitude wiggle vanishes inside a generous band
        v = quasiconvex_def(SampledProblem(
            phi_of("0.01*t^2 - 0.001*abs(t - 0.3)"), unit_grid, tol=1.0))[0]
        assert v.outcome == "holds"

    @pytest.mark.parametrize("src", ["t", "t^2", "-t^2", "t^3"])
    def test_infinite_band_gives_verdicts(self, src, unit_grid):
        # every pair of values ties, so no triple can fail semistrictly
        p = SampledProblem(phi_of(src), unit_grid, tol=np.inf)
        assert semistrictly_quasiconvex_def(p)[0].outcome == "holds"
        for oracle_def in (pseudoconvex_def, strictly_pseudoconvex_def, quasiconvex_def):
            assert oracle_def(p)[0].outcome in ("holds", "fails", "inconclusive")

    def test_verdict_records_tols(self, unit_grid):
        v = pseudoconvex_def(
            SampledProblem(phi_of("t^2"), unit_grid, tol=1e-5, stat_tol=1e-6)
        )[0]
        assert v.tol == 1e-5
        assert v.stat_tol == 1e-6

    def test_strict_requires_unique_minimum(self, unit_grid):
        # two equal minima: quasiconvex but not strictly pseudoconvex
        phi = phi_of("max(abs(t) - 0.5, 0)")
        assert strictly_pseudoconvex_def(SampledProblem(phi, unit_grid))[0].outcome == "fails"
        assert pseudoconvex_def(SampledProblem(phi, unit_grid))[0].outcome == "holds"


# values with every kind of float a grid can hold: NaN, +-inf, +-0, huge
RULE_VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                        st.floats(-10.0, 10.0), st.floats())


@st.composite
def ragged_problems(draw) -> SampledProblem:
    """A batch of one to four lines of one to six points each, padded to the
    widest, at drawn values, with the band unset or a drawn tol."""
    n = np.array(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    w = int(n.max())
    table = np.array(draw(st.lists(RULE_VALUES, min_size=n.size * w, max_size=n.size * w)))
    points = np.where(np.arange(w) < n[:, None], np.arange(w) / w, np.nan)
    dom = LineGrids((Interval(0.0, 1.0),) * n.size, points, n)
    tol = draw(st.none() | st.floats(1e-12, 1e3))
    return SampledProblem(lambda ts: table.reshape(ts.shape).copy(), dom, tol=tol)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def held(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The threshold ``t`` of ``b``, where a finite b's overflows, at the
    largest double of its sign."""
    return np.where(np.isinf(t) & np.isfinite(b), np.copysign(np.finfo(float).max, t), t)


class TestComparisonRule:
    """The rule's members equal the band expressions written out, bit for bit,
    a finite value's threshold held to the finite doubles."""

    # a NaN step must be none of fall, flat and rise
    @example(SampledProblem(lambda ts: np.array([[0.0, np.nan, 1.0]]),
                            make_grid(parse_interval("[0,1]"), 3)))
    # each end's threshold outward overflows, and the step between the ends
    @example(SampledProblem(lambda ts: np.array([[-1.7976931348623157e308, 0.0,
                                                  1.7976931348623157e308]]),
                            make_grid(parse_interval("[0,1]"), 3)))
    @example(SampledProblem(lambda ts: np.array([[-1.7976931348623157e308,
                                                  1.7976931348623157e308]]),
                            make_grid(parse_interval("[0,1]"), 2)))
    @given(ragged_problems())
    @settings(max_examples=300, deadline=None)
    def test_the_rule_is_the_written_out_band_bit_for_bit(self, p):
        # the rule warns of nothing (a warning is an error here), not even
        # for a value within a band of the float limit
        v, band, vmin = p.values, p.band, np.min(p.values, axis=1)
        below, above = p.beyond(v), p.beyond(v, 1.0)
        above3, below_min = p.beyond(v[:, None], 1.0), p.beyond(vmin)
        at_min, steps = p.at_min, p.steps
        # written out, such a value overflows
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(below, held(v - band[:, None], v))
            assert same_bits(above, held(v + band[:, None], v))
            assert same_bits(above3, held(v[:, None] + band[:, None, None], v[:, None]))
            assert same_bits(below_min, held(vmin - band, vmin))
            assert same_bits(at_min, v <= held(vmin + band, vmin)[:, None])
            d = np.diff(v, axis=1)
            d[~p.dom.valid[:, 1:]] = np.inf
            want = (d < -band[:, None], np.abs(d) <= band[:, None], d > band[:, None])
            assert all(same_bits(got, mask) for got, mask in zip(steps, want))


class TestStrictImpliesNonStrict:
    CASES = ["t^2", "abs(t)", "exp(t)", "t", "-t",
             "piecewise(t < 0: -2*t, else: 0.5*t)"]

    @pytest.mark.parametrize("src", CASES)
    def test_strict_subset(self, src, unit_grid):
        spc = strictly_pseudoconvex_def(SampledProblem(phi_of(src), unit_grid))[0]
        pc = pseudoconvex_def(SampledProblem(phi_of(src), unit_grid))[0]
        assert spc.outcome == "holds"
        assert pc.outcome == "holds"


def grid_function(vals):
    """A phi taking the given values on the standard grid over [0,1]."""
    dom = make_grid(parse_interval("[0,1]"), len(vals))
    table = np.asarray(vals, dtype=float)
    return (lambda ts: table[np.searchsorted(dom.points[0], ts)]), dom


class TestSemistrictScan:
    def test_flat_cell_before_the_last_drop(self):
        # the only y below phi(x) - tol is the point right after the flat z
        phi, dom = grid_function([3.0, 2.0, 2.0, 1.0])
        v = semistrictly_quasiconvex_def(SampledProblem(phi, dom, tol=0.1))[0]
        assert v.outcome == "fails"
        assert v.witnesses[0].values == (2.0, 2.0, 1.0)

    def test_cubic_restriction_agrees_with_martos(self):
        # pair 18 of `classify --function=x1^3 --arity 2 --box=[-1,1]x[-1,1]
        # --pairs 24 --seed 1699654999`: its grid has one flat cell before
        # a further drop, which the scan once missed
        box = (parse_interval("[-1,1]"),) * 2
        fn = parse("x1^3", 2)
        x, y = sample_pairs(box, 24, 1699654999)[18]
        r = restrict(lambda pts: eval_many(fn, pts), x[None], y[None], box)
        dom = anchored_grid(r.feasible, 257, 1e-6)
        p = SampledProblem(r.phi, dom)
        split = martos_segments(p)[0]
        assert not split.valid
        assert semistrictly_quasiconvex_def(p)[0].outcome == "fails"

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_triple_loop(self, ints):
        vals = [float(v) for v in ints]
        phi, dom = grid_function(vals)
        v = semistrictly_quasiconvex_def(SampledProblem(phi, dom, tol=0.5))[0]
        assert v.outcome == semistrict_triple_loop(vals, 0.5)


CLASSIFIERS = (
    pseudoconvex_def, strictly_pseudoconvex_def, quasiconvex_def,
    semistrictly_quasiconvex_def, pseudoconvex_char, strictly_pseudoconvex_char,
    quasiconvex_martos, decompose, martos_segments, check_t3, check_t4, check_t7,
)


def recording_profiles(monkeypatch):
    """Wrap ``oracle.grid_dini_profile``; returns the list of the entries each
    call estimated on the one line of its grid, as full-grid (2, n) masks.

    The call's arguments are bound to the function's signature and forwarded,
    so any signature works; the mask is read from them by name.  Past the
    block at which an ``until`` ended the scan, only the entries the call
    newly estimated (settled in that block's window) count."""
    calls = []
    real = oracle.grid_dini_profile
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arg = dict(bound.arguments)
        n = int(arg["dom"].n[0])
        end = [n]
        if arg["until"] is not None:
            def watching(rows):
                stop = arg["until"](rows)
                if stop:
                    end[0] = rows.stop
                return stop

            bound.arguments["until"] = watching
        before = (np.zeros((2, n), dtype=bool) if arg["out"] is None
                  else arg["out"].estimated[0].copy())
        out = real(*bound.args, **bound.kwargs)
        mask = arg["mask"]
        done = np.ones((2, n), dtype=bool) if mask is None else mask[0].copy()
        done[:, end[0]:] &= out.estimated[0, :, end[0]:] & ~before[:, end[0]:]
        calls.append(done)
        return out

    monkeypatch.setattr(oracle, "grid_dini_profile", recording)
    return calls


def estimate_counts(calls, n):
    """(2, n) array: how many calls estimated each entry."""
    counts = np.zeros((2, n), dtype=int)
    for mask in calls:
        counts += mask
    return counts


def demand_problems():
    """(id, phi, dom): the 1-D golden and 40 random functions at 257
    points, and each multivariate golden function along 3 sampled lines."""
    out = []
    for e in golden_battery() + random_battery(40):
        if e.arity == 1:
            out.append((e.id, phi_of(e.expression), grid_for(e.domain)))
            continue
        box = tuple(parse_interval(b) for b in e.box)
        f = phi_of(e.expression, e.arity)
        for k, (x, y) in enumerate(sample_pairs(box, 3, 11)):
            r = restrict(f, x[None], y[None], box)
            out.append((f"{e.id}-line{k}", r.phi, anchored_grid(r.feasible, 257, 1e-6)))
    return out


class TestSampledProblem:
    def test_shared_inputs_built_once(self, unit_grid, monkeypatch):
        # the grid once, and every Dini entry at most once
        grid_calls = []
        real = oracle.grid_values

        def counting(*args):
            grid_calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "grid_values", counting)
        profiles = recording_profiles(monkeypatch)
        p = SampledProblem(phi_of("t^3"), unit_grid, SUITE_SCHEDULE)
        for classify in CLASSIFIERS:
            classify(p)
        assert len(grid_calls) == 1
        assert profiles
        for counts in estimate_counts(profiles, unit_grid.n[0]):
            assert counts.max() <= 1

    def test_profile_reuses_the_grid_values(self, unit_grid):
        seen = []
        phi = phi_of("t^3")

        def recording(pts):
            seen.append(pts.copy())
            return phi(pts)

        p = SampledProblem(recording, unit_grid)
        p.values
        p.estimate()
        assert sum(np.array_equal(pts, unit_grid.points) for pts in seen) == 1

    def test_nothing_built_before_it_is_read(self, unit_grid):
        p = SampledProblem(phi_of("t^2"), unit_grid)
        quasiconvex_def(p)[0]
        assert "profile" not in vars(p)
        assert "_sampled" in vars(p)

    @pytest.mark.parametrize("entry", [e for e in golden_battery() if e.arity == 1],
                             ids=lambda e: e.id)
    def test_shared_problem_matches_fresh_problems(self, entry):
        # sharing the inputs must not change any result: each classifier on
        # the shared problem against the same classifier on its own problem
        dom = grid_for(entry.domain)
        shared = SampledProblem(phi_of(entry.expression), dom, SUITE_SCHEDULE)
        for classify in CLASSIFIERS:
            fresh = SampledProblem(phi_of(entry.expression), dom, SUITE_SCHEDULE)
            assert repr(classify(shared)) == repr(classify(fresh)), classify.__name__


# t on [-1,1] with a plateau 3e-4 wide every 0.125 from -0.9 on: at 16385
# points the pair oracles fail at two or three points of each plateau, so
# the first 8 failures of pseudoconvex_def lie in four different blocks
STAIRS = "t" + "".join(f" - min(max(t - ({-0.9 + 0.125 * i:.3f}), 0), 0.0003)"
                       for i in range(5))


def multi_block_problems():
    """(id, phi, dom): grids of several Dini blocks.  The 1-D golden functions
    at 4097 points, and at 16385 points ``t^2`` (every pair oracle holds),
    ``-t^2`` and ``1`` (they fail in the first block), ``w-shape`` (the
    pseudoconvex oracle fails from the middle of the grid on) and
    ``STAIRS``."""
    out = [(f"{e.id}-4097", phi_of(e.expression), grid_for(e.domain, 4097))
           for e in golden_battery() if e.arity == 1]
    for name, src, domain in (("t^2", "t^2", "[-1,1]"), ("-t^2", "-t^2", "[-1,1]"),
                              ("1", "1", "[-1,1]"),
                              ("w-shape", "min(t^2, (t - 1.5)^2 + 0.3)", "[-1,3]"),
                              ("stairs", STAIRS, "[-1,1]")):
        out.append((f"{name}-16385", phi_of(src), grid_for(domain, 16385)))
    return out


# seconds for one multi-block case (a fully estimated profile, then every
# classifier on three problems); the slowest, w-shape at 16385 points, takes
# about 0.3 s on a 2-core Xeon VM
MULTI_BLOCK_SECONDS = 3.0


class TestDemandDrivenProfile:
    """Each Dini entry is estimated at most once, and only when read."""

    @staticmethod
    def assert_matches_full_profile(phi, dom, monkeypatch):
        # every classifier, run forward and in reverse order on a problem that
        # estimates on demand, gives the verdict of a fully estimated profile,
        # each entry under the full rule, none settled from its first probe
        full = SampledProblem(phi, dom, SUITE_SCHEDULE)
        dini.grid_dini_profile(phi, dom, full.values, SUITE_SCHEDULE, out=full.profile)
        expected = [repr(classify(full)) for classify in CLASSIFIERS]
        profiles = recording_profiles(monkeypatch)
        forward = SampledProblem(phi, dom, SUITE_SCHEDULE)
        assert [repr(classify(forward)) for classify in CLASSIFIERS] == expected
        for counts in estimate_counts(profiles, dom.n[0]):
            assert counts.max() <= 1
        profiles.clear()
        backward = SampledProblem(phi, dom, SUITE_SCHEDULE)
        got = [repr(classify(backward)) for classify in reversed(CLASSIFIERS)]
        assert got[::-1] == expected
        for counts in estimate_counts(profiles, dom.n[0]):
            assert counts.max() <= 1

    @pytest.mark.parametrize("case", demand_problems(), ids=lambda c: c[0])
    def test_verdicts_match_a_fully_estimated_profile(self, case, monkeypatch):
        _, phi, dom = case
        self.assert_matches_full_profile(phi, dom, monkeypatch)

    @pytest.mark.parametrize("case", multi_block_problems(), ids=lambda c: c[0])
    def test_verdicts_match_a_fully_estimated_profile_on_several_blocks(self, case,
                                                                        monkeypatch):
        _, phi, dom = case
        assert dom.n[0] > dini._BLOCK_ROWS
        start = time.perf_counter()
        self.assert_matches_full_profile(phi, dom, monkeypatch)
        assert time.perf_counter() - start < MULTI_BLOCK_SECONDS

    @pytest.mark.parametrize("n", [257, 16385])
    def test_pseudoconvex_def_estimates_exactly_its_hit_entries(self, n, monkeypatch):
        profiles = recording_profiles(monkeypatch)
        dom = grid_for("[-1,1]", n)
        p = SampledProblem(phi_of("t^2"), dom)
        assert pseudoconvex_def(p)[0].outcome == "holds"
        hit = p.side_min[0] < p.values[0] - p.band[0]
        # t^2 has a lower value toward its minimum and none away from it
        assert hit[0].any() and hit[1].any() and not (hit[0] & hit[1]).any()
        assert len(profiles) == 1
        assert np.array_equal(p.profile.estimated[0], hit)
        assert np.array_equal(estimate_counts(profiles, n), hit.astype(int))

    @pytest.mark.parametrize("check", [pseudoconvex_def, strictly_pseudoconvex_def])
    def test_pair_oracles_settle_descent_from_one_probe(self, check):
        # t^2 descends toward its minimum from nearly every entry asked, and
        # the largest trailing step already shows it: the full rule
        # evaluates steps - steps // 2 = 20 probes an entry
        phi, sizes, dom = phi_of("t^2"), [], grid_for("[-1,1]", 16385)
        p = SampledProblem(lambda pts: sizes.append(pts.size) or phi(pts), dom)
        p.values
        sizes.clear()
        assert check(p)[0].outcome == "holds"
        assert sum(sizes) < 2 * p.profile.estimated.sum()

    def test_settled_rows_read_one_direction_when_it_descends(self, unit_grid):
        # outside the minimum band of t^2 the direction toward 0 descends, so
        # the characterization estimates that one alone
        p = SampledProblem(phi_of("t^2"), unit_grid)
        assert pseudoconvex_char(p)[0].outcome == "holds"
        lo, hi = decompose(p)[0].i_hat
        estimated = p.profile.estimated[0]
        outside = np.ones(unit_grid.n[0], dtype=bool)
        outside[lo:hi] = False
        assert (estimated[0] ^ estimated[1])[outside].all()
        assert not estimated[:, lo:hi].any()

    def test_settle_estimates_both_directions_of_a_stationary_row(self, unit_grid):
        p = SampledProblem(phi_of("t^3"), unit_grid)
        p.stationary(p.dom.valid)
        prof = p.profile
        stationary = ~descends(prof, p.stat_tol)[0].any(axis=0)
        assert stationary.any()
        assert prof.estimated[0][:, stationary].all()

    @pytest.mark.parametrize("source,classify", [("-t^2", pseudoconvex_def),
                                                 ("1", strictly_pseudoconvex_def)],
                             ids=["-t^2", "1"])
    def test_failing_pair_oracle_stops_at_the_first_block(self, source, classify, monkeypatch):
        # every grid point fails, so the first block holds all the witnesses
        # reported and no row past it is estimated
        profiles = recording_profiles(monkeypatch)
        dom = grid_for("[-1,1]", 16385)
        p = SampledProblem(phi_of(source), dom)
        verdict = classify(p)[0]
        assert verdict.outcome == "fails"
        assert len(verdict.witnesses) == oracle._WITNESS_CAP
        counts = estimate_counts(profiles, dom.n[0])
        assert len(profiles) == 1 and counts.max() == 1
        assert counts[:, : dini._BLOCK_ROWS].any()
        assert not counts[:, dini._BLOCK_ROWS :].any()
        prof = p.profile
        assert not prof.estimated[..., dini._BLOCK_ROWS :].any()

    def test_sparse_failures_stop_at_the_block_of_the_eighth(self, monkeypatch):
        p = SampledProblem(phi_of(STAIRS), grid_for("[-1,1]", 16385))
        probed, asked = [], []
        real_rows, real_profile = dini._probe_rows, oracle.grid_dini_profile

        def rows(f, x, *args):
            probed.append(x.copy())
            return real_rows(f, x, *args)

        def profile(*args, until=None, **kwargs):
            def watching(columns):
                asked.append((columns, until(columns)))
                return asked[-1][1]
            return real_profile(*args, until=watching, **kwargs)

        monkeypatch.setattr(dini, "_probe_rows", rows)
        monkeypatch.setattr(oracle, "grid_dini_profile", profile)
        verdict = pseudoconvex_def(p)[0]
        monkeypatch.undo()
        assert verdict.outcome == "fails"
        assert len(verdict.witnesses) == oracle._WITNESS_CAP
        points = p.dom.points[0]
        last = int(np.searchsorted(points, verdict.witnesses[-1].points[0]))
        # t rises: every point but the first asks for its left side alone, so
        # a window or a block of k entries is k columns, from column 1
        hit = p.side_min[0] < p.values[0] - p.band[0]
        assert not hit[1].any() and np.flatnonzero(~hit[0]).tolist() == [0]
        # until reads column 0, asking nothing, then each block once, in grid
        # order, and stops at the block that holds the eighth failure, well
        # before the end of the grid
        (stop, stopped), columns = asked[-1], [c for c, _ in asked]
        assert stopped and not any(done for _, done in asked[:-1])
        assert columns[0] == slice(0, 1)
        assert [c.start for c in columns[1:]] == [c.stop for c in columns[:-1]]
        first = int(np.searchsorted(points, verdict.witnesses[0].points[0]))
        assert first < stop.start <= last < stop.stop < points.size // 2
        # the kernel estimated no row past that block, the eighth failure in it
        kernel = np.searchsorted(points, np.concatenate(probed))
        assert last in kernel and kernel.max() < stop.stop
        # windows double from one kernel block's rows; the one holding the
        # stop is estimated up to its end, past the stop only where settled
        steps = dini.DiniSchedule().steps
        end, size, wide = 1, dini._BLOCK_ROWS, dini._BLOCK_ROWS * (steps - steps // 2)
        while end < stop.stop:
            end, size = end + size, min(2 * size, wide)
        estimated = p.profile.estimated[0, 0]
        assert estimated[1:end].all() and not estimated[end:].any()
        assert np.array_equal(estimated[stop.stop:],
                              descends(p.profile, p.stat_tol, slice(stop.stop, None))[0, 0])

    def test_unconverged_entries_do_not_count_toward_the_stop(self):
        # a profile filled in by hand up to its last block: the whole first
        # block is undecided but unconverged, and 8 failures follow in the
        # second; the scan must read on to them and stop there
        dom = grid_for("[-1,1]", 3000)
        p = SampledProblem(phi_of("t"), dom)
        prof, block = p.profile, dini._BLOCK_ROWS
        prof.value[..., : 2 * block] = -1.0
        for name in ("converged", "feasible", "estimated"):
            getattr(prof, name)[..., : 2 * block] = True
        prof.value[0, 0, 1:block] = 0.0
        prof.converged[0, 0, 1:block] = False
        fails = np.arange(block + 76, block + 84)
        prof.value[0, 0, fails] = 0.0
        verdict = pseudoconvex_def(p)[0]
        assert verdict.outcome == "fails"
        assert [w.points[0] for w in verdict.witnesses] == dom.points[0, fails].tolist()
        assert not prof.estimated[..., 2 * block :].any()

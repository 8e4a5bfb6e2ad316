"""Acceptance gate: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np
import pytest

from dinicvx import (
    SUITE_SCHEDULE,
    DiniSchedule,
    SampledProblem,
    check_abc,
    check_t4,
    eval_many,
    golden_battery,
    line_problems,
    lower_dini,
    make_grid,
    martos_segments,
    parse,
    parse_interval,
    pseudoconvex_char,
    pseudoconvex_def,
    quasiconvex_def,
    quasiconvex_martos,
    random_battery,
    sample_pairs,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_char,
    strictly_pseudoconvex_def,
    write_manifest,
)
from dinicvx.cli import main

from conftest import grid_for, phi_of


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def corpus():
    """Golden one-variable entries plus 200 seeded random lsc functions."""
    golden = [e for e in golden_battery() if e.arity == 1]
    return golden + list(random_battery(200, seed=20260822))


@pytest.fixture(scope="session")
def verdicts(corpus):
    """All classifier verdicts per entry, computed once; (dict, seconds)."""
    t0 = time.perf_counter()
    out = {}
    for e in corpus:
        p = SampledProblem(phi_of(e.expression), grid_for(e.domain))
        out[e.id] = {
            "pc_def": pseudoconvex_def(p)[0],
            "pc_char": pseudoconvex_char(p)[0],
            "spc_def": strictly_pseudoconvex_def(p)[0],
            "spc_char": strictly_pseudoconvex_char(p)[0],
            "qc_def": quasiconvex_def(p)[0],
            "qc_martos": quasiconvex_martos(p)[0],
            "ssqc_def": semistrictly_quasiconvex_def(p)[0],
            "split": martos_segments(p)[0],
            "lsc": e.lsc,
        }
    return out, time.perf_counter() - t0


def _compare(verdicts, corpus, lhs_key, rhs_key):
    runs = inconclusive = 0
    mismatches = []
    for e in corpus:
        a = verdicts[e.id][lhs_key].outcome
        b = verdicts[e.id][rhs_key].outcome
        runs += 1
        if "inconclusive" in (a, b):
            inconclusive += 1
            continue
        if a != b:
            mismatches.append(f"{e.id}: {lhs_key}={a} {rhs_key}={b}")
    return runs, inconclusive, mismatches


# --------------------------------------------------------------- criteria

def test_criterion_1_dini_matches_analytic_derivative():
    polys = [
        [1, 0, 0],
        [1, 0, -1, 0],
        [0.5, -1, 0, 1, 0.25],
        [0.1, 0, -0.4, 0, 0.3, 0],
        [1, 0, 0, 0],
        [0.25, 0.5, -0.75, -1.0],
        [-0.2, 0, 0.8, 0, -0.3, 0.1],
        [0.05, -0.3, 0.2, 0.7, -0.4],
        [1.0, -1.0],
        [0.3, 0, -1.0, 0, 0.5],
    ]
    schedule = DiniSchedule(t0=2e-5, ratio=0.5, steps=14, dini_tol=1e-7)
    interval = parse_interval("[-1,1]")
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for coeffs in polys:
        c = np.asarray(coeffs, dtype=float)
        dc = np.polyder(c)
        phi = lambda ts: np.polyval(c, ts)
        for x in rng.uniform(-0.95, 0.95, size=100):
            for u in (1.0, -1.0):
                est = lower_dini(phi, float(x), u, interval, schedule)
                exact = float(np.polyval(dc, x)) * u
                worst = max(worst, abs(est.value - exact))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 5.0,
           f"10 polynomials x 100 points x 2 directions, "
           f"worst |error| = {worst:.3e} (budget 1e-5), {elapsed:.2f}s (budget 5s)")


def test_criterion_2_pseudoconvex_char_matches_def(corpus, verdicts):
    table, elapsed = verdicts
    runs, inconclusive, mismatches = _compare(table, corpus, "pc_char", "pc_def")
    frac = inconclusive / runs
    report(2, not mismatches and frac < 0.02 and elapsed < 60.0,
           f"{runs} functions, {len(mismatches)} disagreements, "
           f"{inconclusive} inconclusive ({100 * frac:.2f}%, budget 2%), "
           f"classifier pass took {elapsed:.1f}s (budget 60s)")


def test_criterion_3_strict_variant_and_implication(corpus, verdicts):
    table, _ = verdicts
    runs, inconclusive, mismatches = _compare(table, corpus, "spc_char", "spc_def")
    frac = inconclusive / runs
    broken = [
        e.id for e in corpus
        if table[e.id]["spc_def"].outcome == "holds"
        and table[e.id]["pc_def"].outcome == "fails"
    ]
    report(3, not mismatches and frac < 0.02 and not broken,
           f"{runs} functions, {len(mismatches)} disagreements, "
           f"{inconclusive} inconclusive ({100 * frac:.2f}%), "
           f"strict-implies-nonstrict violations: {len(broken)}")


def test_criterion_4_implication_chain(corpus, verdicts):
    table, _ = verdicts
    violations = []
    checked = 0
    for e in corpus:
        v = table[e.id]
        if not v["lsc"]:
            continue
        pc, ssq, qc = (v["pc_def"].outcome, v["ssqc_def"].outcome,
                       v["qc_def"].outcome)
        if "inconclusive" in (pc, ssq, qc):
            continue
        checked += 1
        if pc == "holds" and ssq != "holds":
            violations.append(f"{e.id}: pseudoconvex but not semistrict")
        if ssq == "holds" and qc != "holds":
            violations.append(f"{e.id}: semistrict but not quasiconvex")
    report(4, checked > 0 and not violations,
           f"implication chain on {checked} lsc functions, "
           f"{len(violations)} violations")


def test_criterion_5_stationarity_equivalence():
    entries = [e for e in golden_battery()
               if e.arity == 1 and e.radially_continuous]
    ids = {e.id for e in entries}
    required = {"sq", "cube", "vee", "plateau-bowl", "ramp", "const"}
    failures = []
    for e in entries:
        p = SampledProblem(phi_of(e.expression), grid_for(e.domain), SUITE_SCHEDULE)
        rep = check_t4(p)
        if rep.status in ("inconclusive", "FAIL"):
            failures.append(f"{e.id}: {rep.notes or 'sides disagree'}")
    report(5, len(entries) >= 12 and required <= ids and not failures,
           f"{len(entries)} radially continuous functions "
           f"(minimum 12; shape coverage {sorted(required)}), "
           f"{len(failures)} mismatches")


def test_criterion_6_descent_minimizer_stationarity():
    entries = [e for e in golden_battery()
               if e.arity > 1 and e.expected.get("quasiconvex")]
    t0 = time.perf_counter()
    n_runs = n_bad = n_inc = 0
    for e in entries:
        fn = parse(e.expression, e.arity)
        f = lambda pts: eval_many(fn, pts)
        box = tuple(parse_interval(s) for s in e.box)
        batches = list(line_problems(f, sample_pairs(box, 50, seed=11), box, 257, 1e-6,
                                     SUITE_SCHEDULE, None, 1e-7))
        for rep in check_abc(f, box, batches):
            n_runs += 1
            n_bad += rep.status == "FAIL"
            n_inc += rep.status == "inconclusive"
    elapsed = time.perf_counter() - t0
    report(6, len(entries) >= 5 and n_bad == 0 and n_inc == 0,
           f"{len(entries)} quasiconvex 2-variable functions x 50 pairs "
           f"({n_runs} runs, 64 directions each), {n_bad} violations, "
           f"{n_inc} inconclusive, {elapsed:.2f}s")


def test_criterion_7_golden_counterexamples(unit_grid):
    cell = 2.0 / 256.0
    problems = []

    cube = pseudoconvex_def(SampledProblem(phi_of("t^3"), unit_grid))[0]
    if cube.outcome != "fails":
        problems.append("t^3 not flagged")
    elif abs(cube.witnesses[0].points[0]) > cell:
        problems.append(f"t^3 witness at {cube.witnesses[0].points[0]}")

    hpr = phi_of("piecewise(t < 0: 1, else: t)")
    hpr_pc = pseudoconvex_def(SampledProblem(hpr, unit_grid))[0]
    hpr_ssq = semistrictly_quasiconvex_def(SampledProblem(hpr, unit_grid))[0]
    if hpr_pc.outcome != "fails" or hpr_pc.witnesses[0].points[0] >= 0:
        problems.append("plateau-ramp pseudoconvexity witness missing")
    if hpr_ssq.outcome != "fails" or hpr_ssq.witnesses[0].points[1] >= 0:
        problems.append("plateau-ramp semistrict witness missing")

    peak = quasiconvex_def(SampledProblem(phi_of("-t^2"), unit_grid))[0]
    if peak.outcome != "fails" or peak.witnesses[0].kind != "interior_peak":
        problems.append("-t^2 not flagged with an interior peak")

    report(7, not problems,
           "t^3 stationary witness within one cell of 0, plateau witnesses "
           f"on the flat side, -t^2 interior peak; problems: {problems or 'none'}")


def test_criterion_8_martos_equivalence(corpus, verdicts):
    table, _ = verdicts
    mismatches = []
    for e in corpus:
        v = table[e.id]
        a, b = v["qc_martos"].outcome, v["qc_def"].outcome
        if "inconclusive" not in (a, b) and a != b:
            mismatches.append(f"{e.id}: martos={a} def={b}")
        if v["split"].valid and v["ssqc_def"].outcome == "fails":
            mismatches.append(f"{e.id}: split valid but semistrict fails")
    report(8, not mismatches,
           f"{len(corpus)} functions, {len(mismatches)} "
           f"segment-vs-definition disagreements")


def test_criterion_9_deterministic_cli(tmp_path, capsys):
    def run_twice(argv):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        return first, capsys.readouterr().out

    diffs = []
    a, b = run_twice(["classify", "--function", "t^3", "--domain", "[-1,1]"])
    if a != b:
        diffs.append("classify 1-D")
    json.loads(a)
    a, b = run_twice(["classify", "--function", "max(abs(x1), abs(x2))",
                      "--arity", "2", "--box", "[-1,1]x[-1,1]",
                      "--pairs", "6", "--seed", "3"])
    if a != b:
        diffs.append("classify 2-D")
    by_id = {e.id: e for e in golden_battery()}
    manifest = tmp_path / "mini.json"
    write_manifest((by_id["sq"], by_id["vee"], by_id["neg-sq"]), manifest)
    a, b = run_twice(["verify-theorems", str(manifest)])
    if a != b:
        diffs.append("verify-theorems")
    json.loads(a)
    report(9, not diffs,
           f"byte-identical reruns for classify (1-D, 2-D) and "
           f"verify-theorems; differing: {diffs or 'none'}")

"""Executable cross-checks between the classifiers.

Each check evaluates both sides of one implication or equivalence with the
definition-based oracles and the stationarity machinery, on one concrete
function, and reports whether the sides matched.  A report with
``implication_holds = False`` carries a counterexample bundle and means a
checker bug, never a refuted statement; vacuous cases (failed premise) are
marked rather than silently passed.

``run_battery`` sweeps every check over a battery, verifies expected
classification labels against the definitional oracles, and aggregates the
outcome for the CLI and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .battery import BatteryEntry
from .dini import DiniSchedule, _dini_along, _probe_rows, is_stationary
from .domain import Interval, anchored_grid, make_grid, parse_interval, restrict
from .expr import eval_many, parse
from .oracle import (
    SampledProblem,
    Verdict,
    Witness,
    _witness,
    pseudoconvex_def,
    quasiconvex_def,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)

__all__ = [
    "SUITE_SCHEDULE",
    "TheoremReport",
    "check_t3",
    "check_t4",
    "check_t6",
    "check_t7",
    "check_abc",
    "sample_directions",
    "sample_pairs",
    "CaseLine",
    "BatteryRunResult",
    "run_battery",
]

# Difference quotients computed at step s carry rounding noise of order
# eps * |f| / s, while at smooth points the running-min trace keeps moving
# by ~ (f''/2) * (1 - ratio) * s per step.  Convergence of the trace needs
# the second term under dini_tol, but the default schedule chases it down
# to s ~ 2e-11 where the first term (~1e-5 at unit scale) swamps a 1e-7
# tolerance and stalls every no-descent conclusion.  The suite stops at
# s ~ 1e-8 and accepts settling at 1e-6/step: noise stays near 1.6e-7 and
# curvature updates near 2e-9 * f'', both safely inside the tolerance.
SUITE_SCHEDULE = DiniSchedule(t0=1e-2, ratio=0.6, steps=28, dini_tol=1e-6)

# Consecutive draws of nearly equal points after which sample_pairs gives up.
# On a box with any side wider than np.allclose's tolerance a miss is rare.
_PAIR_DRAWS = 1000


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str  # T3 | T4 | T6 | T7 | Lpr1
    function_id: str
    premise_verdicts: tuple[Verdict, ...]
    conclusion_verdicts: tuple[Verdict, ...]
    implication_holds: bool
    vacuous: bool = False
    inconclusive: bool = False
    counterexample: tuple[Witness, ...] | None = None
    notes: str = ""


def _report_fail(
    theorem_id: str, function_id: str, premises, conclusions, witnesses, notes
) -> TheoremReport:
    return TheoremReport(
        theorem_id=theorem_id,
        function_id=function_id,
        premise_verdicts=tuple(premises),
        conclusion_verdicts=tuple(conclusions),
        implication_holds=False,
        counterexample=tuple(witnesses) if witnesses else (
            Witness(kind="side_mismatch", points=(), values=(),
                    detail=notes or "sides disagree"),
        ),
        notes=notes,
    )


def check_t3(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """Pseudoconvex implies semistrictly quasiconvex and quasiconvex.

    Vacuous when the premise fails; requires the function to be declared
    lower semicontinuous by the caller (battery metadata).
    """
    premise = p.verdict(pseudoconvex_def)
    if premise.outcome == "inconclusive":
        return TheoremReport("T3", function_id, (premise,), (), True,
                             inconclusive=True, notes="premise inconclusive")
    if premise.outcome == "fails":
        return TheoremReport("T3", function_id, (premise,), (), True,
                             vacuous=True, notes="premise fails; vacuous")
    ssq = p.verdict(semistrictly_quasiconvex_def)
    qc = p.verdict(quasiconvex_def)
    bad = [v for v in (ssq, qc) if v.outcome == "fails"]
    if bad:
        return _report_fail("T3", function_id, (premise,), (ssq, qc),
                            sum((v.witnesses for v in bad), ()),
                            "pseudoconvex but a conclusion fails")
    return TheoremReport("T3", function_id, (premise,), (ssq, qc), True)


def check_t4(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """Pseudoconvex iff quasiconvex with every stationary point a minimizer.

    Only meaningful for radially continuous functions (battery metadata).
    """
    lhs = p.verdict(pseudoconvex_def)
    qc = p.verdict(quasiconvex_def)
    if lhs.outcome == "inconclusive" or qc.outcome == "inconclusive":
        return TheoremReport("T4", function_id, (lhs,), (qc,), True,
                             inconclusive=True, notes="a side is inconclusive")
    vals, profile = p.values, p.settle(np.ones(p.dom.n, dtype=bool))
    stationary = ~profile.descent(p.stat_tol).any(axis=0) & profile.feasible.any(axis=0)
    above_min = vals > float(np.min(vals)) + p.band
    offenders = np.flatnonzero(stationary & above_min)
    unconverged = stationary & profile.unconverged().any(axis=0)
    if unconverged.any():
        return TheoremReport("T4", function_id, (lhs,), (qc,), True,
                             inconclusive=True,
                             notes="stationarity rests on unconverged estimates")
    rhs = qc.outcome == "holds" and offenders.size == 0
    if (lhs.outcome == "holds") == rhs:
        return TheoremReport("T4", function_id, (lhs,), (qc,), True)
    wits = list(lhs.witnesses) + list(qc.witnesses)
    wits += [_witness(p, "stationary_nonminimizer", (i,),
                      "stationary grid point above the minimum level")
             for i in offenders[:4]]
    return _report_fail("T4", function_id, (lhs,), (qc,), wits,
                        "pseudoconvexity and the stationarity form disagree")


def check_t7(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """For pseudoconvex functions: strict variant iff radially nonconstant.

    Nonconstancy proxy on the grid: no run of two or more consecutive cells
    with deltas inside the equality band.  A single flat cell is tolerated
    because a smooth minimum halfway between grid points produces one
    coincidental tie without any genuine constancy.
    """
    premise = p.verdict(pseudoconvex_def)
    if premise.outcome == "inconclusive":
        return TheoremReport("T7", function_id, (premise,), (), True,
                             inconclusive=True, notes="premise inconclusive")
    if premise.outcome == "fails":
        return TheoremReport("T7", function_id, (premise,), (), True,
                             vacuous=True, notes="premise fails; skipped")
    strict = p.verdict(strictly_pseudoconvex_def)
    if strict.outcome == "inconclusive":
        return TheoremReport("T7", function_id, (premise,), (strict,), True,
                             inconclusive=True, notes="strict side inconclusive")
    longest, where = _longest_run(np.abs(np.diff(p.values)) <= p.band)
    nonconstant = longest < 2
    if (strict.outcome == "holds") == nonconstant:
        return TheoremReport("T7", function_id, (premise,), (strict,), True)
    wits = list(strict.witnesses)
    if longest >= 2:
        wits.append(_witness(p, "constant_run", (where - longest + 1, where + 1),
                             f"constant run of {longest} grid cells"))
    return _report_fail("T7", function_id, (premise,), (strict,), wits,
                        "strictness and nonconstancy disagree")


def _longest_run(flags: np.ndarray) -> tuple[int, int]:
    """Length and last index of the first longest run of True in ``flags``;
    (0, 0) when there is none."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags, [0]))))
    lengths = edges[1::2] - edges[::2]
    if not lengths.size:
        return 0, 0
    k = int(np.argmax(lengths))
    return int(lengths[k]), int(edges[2 * k + 1]) - 1


def sample_pairs(
    box: tuple[Interval, ...], count: int, seed: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Deterministic (x, y) pairs inside the box, componentwise uniform.

    A pair with a point outside the box, which a draw from ``[lo, hi]``
    can only be on an open face, is drawn again.  Raises ValueError for a
    box of infinite width, and for one too thin to yield a distinct pair of
    box points within ``_PAIR_DRAWS`` draws (a single point, say).
    """
    rng = np.random.default_rng(seed)
    lo = np.array([iv.lo for iv in box])
    hi = np.array([iv.hi for iv in box])
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError("sampling pairs needs a box of finite width")
    out = []
    misses = 0
    while len(out) < count:
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        inside = all(iv.contains(a) and iv.contains(b) for iv, a, b in zip(box, x, y))
        if inside and not np.allclose(x, y):
            out.append((x, y))
            misses = 0
            continue
        misses += 1
        if misses == _PAIR_DRAWS:
            raise ValueError("box too thin to sample distinct (x, y) pairs")
    return tuple(out)


def check_t6(
    f: Callable[[np.ndarray], np.ndarray],
    box: tuple[Interval, ...],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
    n_grid: int = 257,
    margin: float = 1e-6,
    function_id: str = "",
) -> TheoremReport:
    """Restriction sweep: pseudoconvex iff semistrictly quasiconvex and 0
    is non-stationary on every restriction whose far end is strictly lower.

    Both sides are quantified over the same sampled pairs; restriction
    grids are anchored to contain the parameters 0 and 1 exactly.
    """
    premises: list[Verdict] = []
    conclusions: list[Verdict] = []
    lhs_all = True
    rhs_all = True
    inconclusive = False
    wits: list[Witness] = []
    for x, y in pairs:
        r = restrict(f, x, y, box)
        p = SampledProblem(r.phi, anchored_grid(r.feasible, n_grid, margin),
                           schedule, tol, stat_tol)
        pc = pseudoconvex_def(p)
        ssq = semistrictly_quasiconvex_def(p)
        premises.append(pc)
        conclusions.append(ssq)
        if pc.outcome == "inconclusive" or ssq.outcome == "inconclusive":
            inconclusive = True
            continue
        lhs_pair = pc.outcome == "holds"
        rhs_pair = ssq.outcome == "holds"
        fx, fy = (float(v) for v in r.phi(np.asarray([0.0, 1.0])))
        if rhs_pair and fy < fx - ssq.tol:
            st = is_stationary(r.phi, 0.0, r.feasible, schedule, stat_tol)
            if not st.decisive:
                inconclusive = True
                continue
            if st.stationary:
                rhs_pair = False
                wits.append(
                    Witness(
                        kind="stationary_origin",
                        points=tuple(float(v) for v in x)
                        + tuple(float(v) for v in y),
                        values=(fx, fy),
                        detail="f(y) < f(x) but t=0 is stationary on the restriction",
                    )
                )
        lhs_all = lhs_all and lhs_pair
        rhs_all = rhs_all and rhs_pair
    if inconclusive:
        return TheoremReport("T6", function_id, tuple(premises),
                             tuple(conclusions), True, inconclusive=True,
                             notes="a restriction was inconclusive")
    if lhs_all == rhs_all:
        return TheoremReport("T6", function_id, tuple(premises),
                             tuple(conclusions), True,
                             notes=f"both sides {'hold' if lhs_all else 'fail'}")
    return _report_fail("T6", function_id, premises, conclusions, wits,
                        "restriction pseudoconvexity and the semistrict form disagree")


def sample_directions(arity: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit directions; refining count keeps earlier ones.

    For two variables: evenly spaced angles with a seeded offset, so the
    64-direction sample is a subset of the 128-direction sample (needed for
    the refinement-monotonicity property of the stationarity statement).
    """
    if arity == 2:
        rng = np.random.default_rng(seed)
        offset = rng.uniform(0.0, 2.0 * np.pi / 64.0)
        ang = offset + 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, arity))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def check_abc(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    box: tuple[Interval, ...],
    schedule: DiniSchedule | None = None,
    stat_tol: float = 1e-7,
    n_dirs: int = 64,
    seed: int = 0,
    n_grid: int = 257,
    margin: float = 1e-6,
    function_id: str = "",
) -> TheoremReport:
    """A or B iff C, for quasiconvex radially-usc f and a pair (x, y).

    A: x is stationary for f: no feasible direction of a deterministic
    sample of ``n_dirs`` descends (approximate, refinable).  All directions
    are estimated in one call of :func:`~dinicvx.dini._dini_along`, the
    array core of ``lower_dini_along``; those with no probe in the box are
    skipped.  B: t=0 attains the minimum of the restriction over its
    feasible set, measured against the grid values together with the Dini
    probe values near 0 (a pure-grid minimum misses sub-grid dips next to 0
    and would assert B spuriously).  C: t=0 is stationary for the
    restriction, as :func:`~dinicvx.dini.is_stationary` finds it: B's
    values at 0 and at the in-domain probes ``+-s`` are that check's
    probes, so they go to the Dini kernel as a (steps x 2) block, through
    the same feeder, and nothing is evaluated again.  The report is
    inconclusive when an unconverged feasible direction comes before the
    first descending one in sample order, or C rests on an unconverged
    estimate.
    """
    if schedule is None:
        schedule = DiniSchedule()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = restrict(f, x, y, box)
    dom_r = anchored_grid(r.feasible, n_grid, margin)
    vals = r.phi(dom_r.points)
    if np.isnan(vals).any():
        return TheoremReport("Lpr1", function_id, (), (), True,
                             inconclusive=True, notes="undefined restriction values")

    value, converged = _dini_along(f, x, sample_directions(x.shape[0], n_dirs, seed),
                                   box, schedule)[1:3]
    # a direction with no probe in the box has value +inf and is converged,
    # so it neither descends nor leaves A open
    descends = np.flatnonzero(value < -stat_tol)
    seen = int(descends[0]) if descends.size else value.shape[0]
    a_true = seen == value.shape[0]
    a_open = not converged[:seen].all()

    s = schedule.step_sizes()
    probes = np.concatenate([s, -s])
    inside = r.feasible.contains_many(probes)
    near = r.phi(np.concatenate([[0.0], probes[inside]]))
    phi0, probe_vals = float(near[0]), near[1:]
    lowest = float(np.min(np.concatenate([vals, probe_vals[np.isfinite(probe_vals)]])))
    b_true = phi0 <= lowest + 1e-12 * (1.0 + abs(phi0))

    # C from the same values: a kernel row toward +s and one toward -s,
    # whose probes are the values themselves
    block = np.full(probes.shape, np.nan)
    block[inside] = probe_vals
    value, converged, _, _, n_in = _probe_rows(
        lambda v: v, block.reshape(2, -1).T, inside.reshape(2, -1).T,
        np.full(2, phi0), s, schedule.dini_tol,
    )
    feasible = n_in > 0
    c_true = not (value[feasible] < -stat_tol).any()
    if a_open or (c_true and not converged[feasible].all()):
        return TheoremReport("Lpr1", function_id, (), (), True,
                             inconclusive=True,
                             notes="a Dini estimate did not converge")
    detail = (
        f"A={a_true} (over {n_dirs} directions), B={b_true}, C={c_true}, "
        f"x={[float(v) for v in x]}, y={[float(v) for v in y]}"
    )
    if (a_true or b_true) == c_true:
        return TheoremReport("Lpr1", function_id, (), (), True, notes=detail)
    wit = Witness(
        kind="abc_mismatch",
        points=tuple(float(v) for v in x) + tuple(float(v) for v in y),
        values=(phi0,),
        detail=detail,
    )
    return _report_fail("Lpr1", function_id, (), (), [wit], detail)


@dataclass(frozen=True)
class CaseLine:
    theorem_id: str
    function_id: str
    status: str  # ok | vacuous | inconclusive | FAIL
    detail: str = ""


@dataclass(frozen=True)
class BatteryRunResult:
    cases: tuple[CaseLine, ...]
    reports: tuple[TheoremReport, ...]
    label_mismatches: tuple[str, ...]
    n_vacuous: int
    n_inconclusive: int
    ok: bool


def _status(report: TheoremReport) -> CaseLine:
    if not report.implication_holds:
        detail = report.notes
        if report.counterexample:
            detail = report.counterexample[0].detail
        return CaseLine(report.theorem_id, report.function_id, "FAIL", detail)
    if report.inconclusive:
        return CaseLine(report.theorem_id, report.function_id, "inconclusive",
                        report.notes)
    if report.vacuous:
        return CaseLine(report.theorem_id, report.function_id, "vacuous",
                        report.notes)
    return CaseLine(report.theorem_id, report.function_id, "ok", report.notes)


def run_battery(
    entries: Sequence[BatteryEntry],
    n_grid: int = 257,
    margin: float = 1e-6,
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
    pairs: int = 12,
    seed: int = 0,
) -> BatteryRunResult:
    """Theorem sweep plus expected-label verification over a battery.

    ``schedule`` defaults to :data:`SUITE_SCHEDULE`, not the bare estimator
    default, so stationarity conclusions at kinks stay above the rounding
    noise floor.
    """
    if schedule is None:
        schedule = SUITE_SCHEDULE
    # built per call, so the oracles are looked up as the module now binds them
    label_checks = {
        "pseudoconvex": pseudoconvex_def,
        "strictly_pseudoconvex": strictly_pseudoconvex_def,
        "quasiconvex": quasiconvex_def,
        "semistrictly_quasiconvex": semistrictly_quasiconvex_def,
    }
    cases: list[CaseLine] = []
    reports: list[TheoremReport] = []
    mismatches: list[str] = []
    for entry in entries:
        fn = parse(entry.expression, entry.arity)
        if entry.arity == 1:
            p = SampledProblem(
                lambda ts, fn=fn: eval_many(fn, ts),
                make_grid(parse_interval(entry.domain), n_grid, margin),
                schedule, tol, stat_tol,
            )
            if entry.expected is not None:
                for name, want in entry.expected.items():
                    got = p.verdict(label_checks[name]).outcome
                    want_s = "holds" if want else "fails"
                    if got == "inconclusive":
                        cases.append(CaseLine("label", entry.id, "inconclusive", name))
                        continue
                    if got != want_s:
                        mismatches.append(
                            f"{entry.id}: {name} expected {want_s}, got {got}"
                        )
                        cases.append(CaseLine("label", entry.id, "FAIL", name))
                    else:
                        cases.append(CaseLine("label", entry.id, "ok", name))
            if entry.lsc:
                rep = check_t3(p, entry.id)
                reports.append(rep)
                cases.append(_status(rep))
            if entry.radially_continuous:
                rep = check_t4(p, entry.id)
                reports.append(rep)
                cases.append(_status(rep))
            rep = check_t7(p, entry.id)
            reports.append(rep)
            cases.append(_status(rep))
            continue

        box = tuple(parse_interval(s) for s in entry.box)
        fmv = lambda pts, fn=fn: eval_many(fn, pts)
        pair_list = list(sample_pairs(box, pairs, seed))
        if entry.pairs:
            pair_list = [
                (np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float))
                for p in entry.pairs
            ] + pair_list
        rep = check_t6(fmv, box, pair_list, schedule, tol, stat_tol,
                       n_grid, margin, entry.id)
        reports.append(rep)
        cases.append(_status(rep))
        if entry.expected is not None and entry.expected.get("quasiconvex"):
            for k, (x, y) in enumerate(pair_list):
                rep = check_abc(fmv, x, y, box, schedule, stat_tol,
                                seed=seed, n_grid=n_grid, margin=margin,
                                function_id=f"{entry.id}#pair{k}")
                reports.append(rep)
                cases.append(_status(rep))
    n_vac = sum(1 for c in cases if c.status == "vacuous")
    n_inc = sum(1 for c in cases if c.status == "inconclusive")
    ok = not mismatches and all(r.implication_holds for r in reports)
    return BatteryRunResult(
        cases=tuple(cases),
        reports=tuple(reports),
        label_mismatches=tuple(mismatches),
        n_vacuous=n_vac,
        n_inconclusive=n_inc,
        ok=ok,
    )

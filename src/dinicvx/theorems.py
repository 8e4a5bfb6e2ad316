"""Executable cross-checks between the classifiers.

Each check evaluates both sides of one implication or equivalence with the
definition-based oracles and the stationarity machinery, on one concrete
function, and reports its outcome as the word its case line prints: ``ok``
(the sides matched), ``vacuous`` (the premise fails), ``inconclusive`` or
``FAIL`` (the sides disagree, with a counterexample bundle).  A ``FAIL``
means a checker bug, never a refuted statement.

``run_battery`` runs every check over a battery and aggregates the outcome:
it compares only 1-D entries' labels with the definitional oracles, and T6
and then Lpr1 read each line batch of a 2-D entry before the next is made.
A line's values at t = 0 and 1 and whether t=0 is stationary on it (T6's
origin test, Lpr1's C) are one evaluation per batch, :func:`_origin`.
Every stationarity call here, T4's, the origin test and Lpr1's A, is
:func:`~dinicvx.dini.stationary`, the rule the characterization reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .battery import BatteryEntry
from .charact import properties
from .dini import _BLOCK_ROWS, DiniSchedule, _dini_rows, _rows, _unit, stationary
from .domain import (
    MARGIN,
    Interval,
    LineRestriction,
    anchored_grid,
    extent,
    grid_ends,
    make_grid,
    parse_interval,
    restrict,
)
from .expr import eval_many, parse
from .oracle import (
    SampledProblem,
    Verdict,
    Witness,
    _WITNESS_CAP,
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
    "line_problems",
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

# Grid points in one batch of lines at most: 24 lines of 257 points take
# one batch, and the values, side minima and profile of a batch stay a few
# hundred KB however many lines a run samples.
_BATCH_POINTS = 8192

_DIRECTIONS = 64  # directions over which Lpr1's A asks whether x is stationary


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str  # T3 | T4 | T6 | T7 | Lpr1
    function_id: str
    premise_verdicts: tuple[Verdict, ...]
    conclusion_verdicts: tuple[Verdict, ...]
    status: str = "ok"  # ok | vacuous | inconclusive | FAIL, as its case line prints it
    counterexample: tuple[Witness, ...] | None = None
    notes: str = ""


def _report(theorem_id: str, function_id: str, premises, conclusions, status: str = "ok",
            notes: str = "", witnesses=()) -> TheoremReport:
    """Every report: a ``FAIL`` one carries ``witnesses``, or, with none, one
    ``side_mismatch`` witness whose detail is ``notes``."""
    if status == "FAIL":
        witnesses = tuple(witnesses) or (Witness("side_mismatch", (), (), notes),)
    return TheoremReport(theorem_id, function_id, tuple(premises), tuple(conclusions), status,
                         witnesses if status == "FAIL" else None, notes)


def _premise_end(theorem_id: str, function_id: str, premise: Verdict,
                 vacuous_notes: str) -> TheoremReport | None:
    """The report that ends T3 or T7 at its pseudoconvexity ``premise``
    unless it holds: inconclusive, or vacuous with ``vacuous_notes``."""
    if premise.outcome == "holds":
        return None
    if premise.outcome == "inconclusive":
        return _report(theorem_id, function_id, (premise,), (), "inconclusive",
                       "premise inconclusive")
    return _report(theorem_id, function_id, (premise,), (), "vacuous", vacuous_notes)


def check_t3(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """Pseudoconvex implies semistrictly quasiconvex and quasiconvex.

    Vacuous when the premise fails; requires the function to be declared
    lower semicontinuous by the caller (battery metadata).
    """
    premise = p.verdict(pseudoconvex_def)[0]
    if ended := _premise_end("T3", function_id, premise, "premise fails; vacuous"):
        return ended
    ssq = p.verdict(semistrictly_quasiconvex_def)[0]
    qc = p.verdict(quasiconvex_def)[0]
    bad = [v for v in (ssq, qc) if v.outcome == "fails"]
    if bad:
        return _report("T3", function_id, (premise,), (ssq, qc), "FAIL",
                       "pseudoconvex but a conclusion fails", sum((v.witnesses for v in bad), ()))
    return _report("T3", function_id, (premise,), (ssq, qc))


def check_t4(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """Pseudoconvex iff quasiconvex with every stationary point a minimizer.

    Only the grid points above the minimum level, which alone can refute the
    right side, are asked about, by :meth:`SampledProblem.stationary`.  Only
    meaningful for radially continuous functions (battery metadata).
    """
    lhs = p.verdict(pseudoconvex_def)[0]
    qc = p.verdict(quasiconvex_def)[0]
    if lhs.outcome == "inconclusive" or qc.outcome == "inconclusive":
        return _report("T4", function_id, (lhs,), (qc,), "inconclusive",
                       "a side is inconclusive")
    vals = p.values[0]
    found, unsettled = p.stationary((vals > float(np.min(vals)) + p.band[0])[None])
    offenders = np.flatnonzero(found[0])
    if unsettled.any():
        return _report("T4", function_id, (lhs,), (qc,), "inconclusive",
                       "stationarity rests on unconverged estimates")
    rhs = qc.outcome == "holds" and offenders.size == 0
    if (lhs.outcome == "holds") == rhs:
        return _report("T4", function_id, (lhs,), (qc,))
    wits = list(lhs.witnesses) + list(qc.witnesses)
    wits += [_witness(p, "stationary_nonminimizer", (i,),
                      "stationary grid point above the minimum level")
             for i in offenders[:_WITNESS_CAP]]
    return _report("T4", function_id, (lhs,), (qc,), "FAIL",
                   "pseudoconvexity and the stationarity form disagree", wits)


def check_t7(p: SampledProblem, function_id: str = "") -> TheoremReport:
    """For pseudoconvex functions: strict variant iff radially nonconstant.

    Nonconstancy proxy on the grid: no run of two or more consecutive cells
    with deltas inside the equality band.  A single flat cell is tolerated
    because a smooth minimum halfway between grid points produces one
    coincidental tie without any genuine constancy.
    """
    premise = p.verdict(pseudoconvex_def)[0]
    if ended := _premise_end("T7", function_id, premise, "premise fails; skipped"):
        return ended
    strict = p.verdict(strictly_pseudoconvex_def)[0]
    if strict.outcome == "inconclusive":
        return _report("T7", function_id, (premise,), (strict,), "inconclusive",
                       "strict side inconclusive")
    longest, where = _longest_run(np.abs(p._deltas[0]) <= p.band[0])
    nonconstant = longest < 2
    if (strict.outcome == "holds") == nonconstant:
        return _report("T7", function_id, (premise,), (strict,))
    wits = list(strict.witnesses)
    if longest >= 2:
        wits.append(_witness(p, "constant_run", (where - longest + 1, where + 1),
                             f"constant run of {longest} grid cells"))
    return _report("T7", function_id, (premise,), (strict,), "FAIL",
                   "strictness and nonconstancy disagree", wits)


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
    box points within ``_PAIR_DRAWS`` draws (a single point, say).  The k
    rows of one bulk ``uniform`` draw are the doubles of k draws, x then y.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([iv.lo for iv in box])
    hi = np.array([iv.hi for iv in box])
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError("sampling pairs needs a box of finite width")
    least, greatest = extent(box)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    misses = 0  # consecutive rejected pairs so far
    while len(out) < count:
        draws = rng.uniform(lo, hi, size=(2 * max(count - len(out), 64), len(box)))
        x, y = draws[0::2], draws[1::2]
        ok = ((x >= least) & (x <= greatest) & (y >= least) & (y <= greatest)).all(axis=1)
        ok &= ~np.isclose(x, y).all(axis=1)
        taken = np.flatnonzero(ok)[: count - len(out)]
        # the misses before each pair taken, then after the last one
        runs = np.diff(taken, prepend=-1 - misses) - 1
        misses = misses + x.shape[0] if not taken.size else x.shape[0] - 1 - taken[-1]
        if (runs >= _PAIR_DRAWS).any() or (len(out) + taken.size < count
                                            and misses >= _PAIR_DRAWS):
            raise ValueError("box too thin to sample distinct (x, y) pairs")
        out += zip(x[taken], y[taken])
    return tuple(out)


def line_problems(
    f: Callable[[np.ndarray], np.ndarray],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    box: tuple[Interval, ...],
    n_grid: int,
    margin: float,
    schedule: DiniSchedule,
    tol: float | None,
    stat_tol: float,
) -> Iterator[tuple[LineRestriction, SampledProblem]]:
    """Each batch of the lines through the pairs: its :class:`LineRestriction`
    and its :class:`SampledProblem` on anchored grids.  A batch holds at
    least one line, and at most ``_BATCH_POINTS`` grid points and
    ``_BLOCK_ROWS // 2`` lines, so that both sides of a grid column of every
    line fit in one Dini block."""
    xs = np.array([x for x, _ in pairs], dtype=float)
    ys = np.array([y for _, y in pairs], dtype=float)
    size = max(1, min(_BLOCK_ROWS // 2, _BATCH_POINTS // (n_grid + 2)))
    for a in range(0, len(pairs), size):
        r = restrict(f, xs[a : a + size], ys[a : a + size], box)
        yield r, SampledProblem(r.phi, anchored_grid(r.feasible, n_grid, margin),
                                schedule, tol, stat_tol)


def _origin(p: SampledProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ends of each line of a batch, and whether t=0 is stationary on it.

    Returns (ends, probe_vals, stationary, unsettled): f(x) and f(y), the
    values at t = 0 and 1, (m, 2); the values at the in-domain probes ``s``
    then ``-s`` of the batch's schedule, NaN at the others, (m, 2 steps);
    and :func:`~dinicvx.dini.stationary` over the two sides of t=0, with the
    batch's ``stat_tol``.  The values are one ``phi`` call; one whole-row
    kernel call takes the probes as a (steps x 2m) block, a column toward +s
    and one toward -s per line.  T6 and Lpr1 read it through ``p.verdict``.
    """
    s, steps = p.schedule.step_sizes(), p.schedule.steps
    probes = np.concatenate([s, -s])
    m = len(p.dom.interval)
    lo, hi = extent(p.dom.interval)
    inside = (probes >= lo[:, None]) & (probes <= hi[:, None])
    near = p.phi(np.column_stack([np.zeros(m), np.ones(m), np.where(inside, probes, np.nan)]))
    ends, probe_vals = near[:, :2], near[:, 2:]
    value, converged, _, _, n_in = _dini_rows(
        probe_vals.reshape(-1, steps).T, inside.reshape(-1, steps).T, np.repeat(ends[:, 0], 2),
        s, p.schedule.dini_tol)
    return (ends, probe_vals, *stationary(value.reshape(m, 2), converged.reshape(m, 2),
                                           (n_in > 0).reshape(m, 2), p.stat_tol))


def check_t6(
    batches: Iterable[tuple[LineRestriction, SampledProblem]],
    function_id: str = "",
) -> TheoremReport:
    """Restriction sweep: pseudoconvex iff semistrictly quasiconvex and 0
    is non-stationary on every restriction whose far end is strictly lower.

    Both sides are quantified over the lines of the :func:`line_problems`
    ``batches``, read once in order, with one :func:`_origin` read per batch.
    A failure's witnesses are the first ``_WITNESS_CAP`` lines whose sides
    disagree, each named ``pair k`` by its place, then every stationary origin.
    """
    premises: list[Verdict] = []
    conclusions: list[Verdict] = []
    lhs_all = rhs_all = True
    inconclusive = False
    mismatches: list[Witness] = []
    origins: list[Witness] = []
    for r, p in batches:
        ends, _, at_rest, unsettled = p.verdict(_origin)
        for i, (pc, ssq) in enumerate(zip(p.verdict(pseudoconvex_def),
                                          p.verdict(semistrictly_quasiconvex_def))):
            k = len(premises)
            premises.append(pc)
            conclusions.append(ssq)
            if pc.outcome == "inconclusive" or ssq.outcome == "inconclusive":
                inconclusive = True
                continue
            lhs_pair = pc.outcome == "holds"
            rhs_pair = ssq.outcome == "holds"
            fx, fy = (float(v) for v in ends[i])
            xy = tuple(map(float, r.x[i])) + tuple(map(float, r.y[i]))
            if rhs_pair and fy < fx - ssq.tol:
                if unsettled[i]:
                    inconclusive = True
                    continue
                if at_rest[i]:
                    rhs_pair = False
                    origins.append(Witness("stationary_origin", xy, (fx, fy),
                                           "f(y) < f(x) but t=0 is stationary on the restriction"))
            if lhs_pair != rhs_pair and len(mismatches) < _WITNESS_CAP:
                mismatches.append(Witness("line_mismatch", xy, (fx, fy), (
                    f"pair{k}: restriction pseudoconvexity {pc.outcome} but the "
                    f"semistrict form {'holds' if rhs_pair else 'fails'}")))
            lhs_all = lhs_all and lhs_pair
            rhs_all = rhs_all and rhs_pair
    if inconclusive:
        return _report("T6", function_id, premises, conclusions, "inconclusive",
                       "a restriction was inconclusive")
    if lhs_all == rhs_all:
        return _report("T6", function_id, premises, conclusions,
                       notes=f"both sides {'hold' if lhs_all else 'fail'}")
    return _report("T6", function_id, premises, conclusions, "FAIL",
                   "restriction pseudoconvexity and the semistrict form disagree",
                   mismatches + origins)


def sample_directions(arity: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit directions; refining count keeps earlier ones.

    For two variables: evenly spaced angles with a seeded offset, so the
    64-direction sample is a subset of the 128-direction sample (needed for
    the refinement-monotonicity property of the stationarity statement).
    """
    rng = np.random.default_rng(seed)
    if arity == 2:
        offset = rng.uniform(0.0, 2.0 * np.pi / 64.0)
        ang = offset + 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    u = rng.normal(size=(count, arity))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def check_abc(
    f: Callable[[np.ndarray], np.ndarray],
    box: tuple[Interval, ...],
    batches: Iterable[tuple[LineRestriction, SampledProblem]],
    seed: int = 0,
    function_id: Sequence[str] | None = None,
) -> tuple[TheoremReport, ...]:
    """A or B iff C, for quasiconvex radially-usc f and the pair (x, y) of
    each line of the :func:`line_problems` ``batches``, read once in order: a
    report per line, in batch order, named by ``function_id`` (one id per
    line, or None).

    A: x is stationary for f over a deterministic sample of ``_DIRECTIONS``
    directions (approximate, refinable), by :func:`~dinicvx.dini.stationary`:
    any descending direction makes A false, and directions with no probe in
    the box are skipped.  B: t=0 attains the minimum of the restriction over
    its feasible set, measured against the grid values together with the
    Dini probe values near 0 (a pure-grid minimum misses sub-grid dips next
    to 0 and would assert B spuriously).  C: t=0 is stationary for the
    restriction: T6's origin test.  The report is inconclusive when the
    restriction is undefined at a grid point, or when A or C is unsettled:
    no direction descends but one did not converge.  Each batch's schedule
    and ``stat_tol`` decide its lines; its band is never read.

    Each pair reads the grid values of its batch and its :func:`_origin`, as
    T6 reads them: f(x), B's values at the in-domain probes ``+-s``, and C.
    A probes every defined pair's x along every direction as the rows of
    :func:`~dinicvx.dini._rows`, each row based at that f(x).  Every report
    is what the pair gives alone.  A wrong count of ids raises ValueError:
    before ``f`` is called when ``batches`` is a sequence, else once read.
    """
    ids = None if function_id is None else list(function_id)

    def check_ids(n_lines: int) -> None:
        if ids is not None and len(ids) != n_lines:
            raise ValueError(f"{len(ids)} function ids for {n_lines} lines")

    if isinstance(batches, Sequence):
        check_ids(sum(r.x.shape[0] for r, _ in batches))
    names = chain(ids or (), repeat(""))
    _, u = _unit(sample_directions(len(box), _DIRECTIONS, seed))

    reports: list[TheoremReport] = []
    for r, p in batches:
        m = r.x.shape[0]
        # p.values is +inf past each line's last point: not NaN, and no minimum
        defined = ~np.isnan(p.values).any(axis=1)
        xs = r.x[defined]
        ends, probe_vals, c_true, c_open = p.verdict(_origin)
        a_true, a_open = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
        if xs.size:
            # phi(0) is f(x), but for a -0.0 coordinate that may come back
            # +0.0: that flips only the sign of a zero base, which no
            # decision reads
            blocks = _rows(f, np.repeat(xs, _DIRECTIONS, axis=0), np.tile(u, (len(xs), 1)), box,
                           np.repeat(ends[defined, 0], _DIRECTIONS), p.schedule)
            value, converged = (np.concatenate(col).reshape(-1, _DIRECTIONS)
                                for col in zip(*(found[:2] for found in blocks)))
            # a direction with no probe in the box has value +inf and is converged,
            # so it neither descends nor leaves A open: every one counts as feasible
            a_true[defined], a_open[defined] = stationary(value, converged, True, p.stat_tol)

        lowest = np.minimum(p.values.min(axis=1),
                            np.where(np.isfinite(probe_vals), probe_vals, np.inf).min(axis=1))
        b_true = ends[:, 0] <= lowest + 1e-12 * (1.0 + np.abs(ends[:, 0]))

        for i, fid in zip(range(m), names):
            if not defined[i] or a_open[i] or c_open[i]:
                reports.append(_report("Lpr1", fid, (), (), "inconclusive",
                                       "a Dini estimate did not converge" if defined[i]
                                       else "undefined restriction values"))
                continue
            xi, yi = [float(v) for v in r.x[i]], [float(v) for v in r.y[i]]
            detail = (f"A={bool(a_true[i])} (over {_DIRECTIONS} directions), B={bool(b_true[i])}, "
                      f"C={bool(c_true[i])}, x={xi}, y={yi}")
            if (a_true[i] or b_true[i]) == c_true[i]:
                reports.append(_report("Lpr1", fid, (), (), notes=detail))
                continue
            wit = Witness(kind="abc_mismatch", points=tuple(xi) + tuple(yi),
                          values=(float(ends[i, 0]),), detail=detail)
            reports.append(_report("Lpr1", fid, (), (), "FAIL", detail, [wit]))
    check_ids(len(reports))
    return tuple(reports)


@dataclass(frozen=True)
class CaseLine:
    theorem: str
    function: str
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


def _status(r: TheoremReport) -> CaseLine:
    return CaseLine(r.theorem_id, r.function_id, r.status,
                    r.counterexample[0].detail if r.counterexample else r.notes)


def run_battery(
    entries: Sequence[BatteryEntry],
    n_grid: int = 257,
    margin: float = MARGIN,
    schedule: DiniSchedule = SUITE_SCHEDULE,
    tol: float | None = None,
    stat_tol: float = SampledProblem.stat_tol,
    pairs: int = 12,
    seed: int = 0,
) -> BatteryRunResult:
    """Theorem sweep plus expected-label verification over a battery.

    A 1-D entry's expected labels are compared, in sorted label order, with
    the definitional oracles, and T3 (when lower semicontinuous), T4 (when
    radially continuous) and T7 run on its grid.  A 2-D entry's labels are not
    compared: T6, and Lpr1 when it is labelled quasiconvex, read the
    :func:`line_problems` batches of its explicit pairs and ``pairs`` sampled
    ones batch by batch, T6 first, so one batch at a time is kept (with the
    one being made).  ``schedule`` defaults to :data:`SUITE_SCHEDULE`, not the
    bare estimator default, so stationarity conclusions at kinks stay above
    the rounding noise floor.  An expression or interval that does not parse
    raises ValueError naming its entry.
    """
    definitions = {prop.label: prop.definition for prop in properties()}
    cases: list[CaseLine] = []
    reports: list[TheoremReport] = []
    mismatches: list[str] = []
    parsed = []
    for entry in entries:
        try:
            fn = parse(entry.expression, entry.arity)
            box = tuple(map(parse_interval, entry.box or (entry.domain,)))
            f = lambda pts, fn=fn: eval_many(fn, pts)
            # the checks the run makes on the entry's grid or pairs, made now
            if entry.arity == 1:
                grid_ends(box, n_grid, margin)  # gridded when the entry runs
                pair_list = []
            else:
                pair_list = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
                             for x, y in entry.pairs or ()] + list(sample_pairs(box, pairs, seed))
                if entry.pairs:
                    restrict(f, *np.array(entry.pairs, dtype=float).swapaxes(0, 1), box)
        except ValueError as exc:
            raise ValueError(f"entry {entry.id!r}: {exc}") from exc
        parsed.append((entry, f, box, pair_list))
    for entry, f, box, pair_list in parsed:
        if entry.arity == 1:
            p = SampledProblem(f, make_grid(box[0], n_grid, margin), schedule, tol, stat_tol)
            for name, want in sorted((entry.expected or {}).items()):
                got = p.verdict(definitions[name])[0].outcome
                want_s = "holds" if want else "fails"
                status = ("inconclusive" if got == "inconclusive" else
                          "ok" if got == want_s else "FAIL")
                if status == "FAIL":
                    mismatches.append(f"{entry.id}: {name} expected {want_s}, got {got}")
                cases.append(CaseLine("label", entry.id, status, name))
            found = [check(p, entry.id) for check, wanted in (
                (check_t3, entry.lsc), (check_t4, entry.radially_continuous), (check_t7, True))
                if wanted]
        else:
            lpr1: list[TheoremReport] = []  # a report per line done

            def batches():
                # T6 reads each batch; when it asks for the next, Lpr1 reads
                # this one, and then nothing holds it
                for batch in line_problems(f, pair_list, box, n_grid, margin, schedule, tol,
                                           stat_tol):
                    yield batch
                    if entry.expected is not None and entry.expected.get("quasiconvex"):
                        lpr1.extend(check_abc(f, box, [batch], seed=seed, function_id=[
                            f"{entry.id}#pair{len(lpr1) + k}" for k in range(len(batch[0].x))]))

            found = [check_t6(batches(), entry.id), *lpr1]  # T6 runs Lpr1 as it reads
        reports += found
        cases += [_status(rep) for rep in found]
    return BatteryRunResult(
        cases=tuple(cases),
        reports=tuple(reports),
        label_mismatches=tuple(mismatches),
        n_vacuous=sum(1 for c in cases if c.status == "vacuous"),
        n_inconclusive=sum(1 for c in cases if c.status == "inconclusive"),
        ok=all(c.status != "FAIL" for c in cases),
    )

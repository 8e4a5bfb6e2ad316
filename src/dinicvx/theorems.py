"""Executable cross-checks between the classifiers.

Each check evaluates both sides of one implication or equivalence with the
definition-based oracles and the stationarity machinery, on one concrete
function, and returns the :class:`CaseLine` the report prints.  Its status
is ``ok`` (the sides matched), ``vacuous`` (the premise fails),
``inconclusive`` or ``FAIL`` (the sides disagree), and a ``FAIL`` line names
its first counterexample.  A ``FAIL`` means a checker bug, never a refuted
statement.

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
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .battery import BatteryEntry
from .charact import properties
from .dini import _BLOCK_ROWS, DiniSchedule, _dini_rows, _rows, _unit, stationary
from .domain import (
    MARGIN,
    Interval,
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
    pseudoconvex_def,
    quasiconvex_def,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)

__all__ = [
    "SUITE_SCHEDULE",
    "CaseLine",
    "check_t3",
    "check_t4",
    "check_t6",
    "check_t7",
    "check_abc",
    "sample_directions",
    "sample_pairs",
    "line_problems",
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

GRID = 257  # the default grid points of a line, here and on the command line
PAIRS = 24  # the default sampled (x, y) pairs of a function of several variables
_DIRECTIONS = 64  # directions over which Lpr1's A asks whether x is stationary

LineBatch = tuple[int, np.ndarray, np.ndarray, SampledProblem]  # see line_problems


@dataclass(frozen=True)
class CaseLine:
    """``theorem`` checked on ``function``: the case line the report prints.
    A ``FAIL``'s ``detail`` is its first counterexample's, else the check's
    note."""

    theorem: str  # T3 | T4 | T6 | T7 | Lpr1, or label
    function: str
    status: str = "ok"  # ok | vacuous | inconclusive | FAIL
    detail: str = ""


def _premise_end(theorem: str, function_id: str, premise: Verdict,
                 vacuous_detail: str) -> CaseLine | None:
    """The line that ends T3 or T7 at its pseudoconvexity ``premise``
    unless it holds: inconclusive, or vacuous with ``vacuous_detail``."""
    if premise.outcome == "holds":
        return None
    if premise.outcome == "inconclusive":
        return CaseLine(theorem, function_id, "inconclusive", "premise inconclusive")
    return CaseLine(theorem, function_id, "vacuous", vacuous_detail)


def check_t3(p: SampledProblem, function_id: str = "") -> CaseLine:
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
        return CaseLine("T3", function_id, "FAIL", next(
            (v.witnesses[0].detail for v in bad if v.witnesses),
            "pseudoconvex but a conclusion fails"))
    return CaseLine("T3", function_id)


def check_t4(p: SampledProblem, function_id: str = "") -> CaseLine:
    """Pseudoconvex iff quasiconvex with every stationary point a minimizer.

    Only the grid points above the minimum level, which alone can refute the
    right side, are asked about, by :meth:`SampledProblem.stationary`.  Only
    meaningful for radially continuous functions (battery metadata).
    """
    lhs = p.verdict(pseudoconvex_def)[0]
    qc = p.verdict(quasiconvex_def)[0]
    if lhs.outcome == "inconclusive" or qc.outcome == "inconclusive":
        return CaseLine("T4", function_id, "inconclusive", "a side is inconclusive")
    found, unsettled = p.stationary(~p.at_min)
    if unsettled.any():
        return CaseLine("T4", function_id, "inconclusive",
                        "stationarity rests on unconverged estimates")
    offender = found[0].any()
    if (lhs.outcome == "holds") == (qc.outcome == "holds" and not offender):
        return CaseLine("T4", function_id)
    wits = lhs.witnesses + qc.witnesses
    return CaseLine("T4", function_id, "FAIL", wits[0].detail if wits else
                    "stationary grid point above the minimum level" if offender else
                    "pseudoconvexity and the stationarity form disagree")


def check_t7(p: SampledProblem, function_id: str = "") -> CaseLine:
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
        return CaseLine("T7", function_id, "inconclusive", "strict side inconclusive")
    longest = _longest_run(p.steps[1][0])
    if (strict.outcome == "holds") == (longest < 2):
        return CaseLine("T7", function_id)
    return CaseLine("T7", function_id, "FAIL",
                    strict.witnesses[0].detail if strict.witnesses else
                    f"constant run of {longest} grid cells" if longest >= 2 else
                    "strictness and nonconstancy disagree")


def _longest_run(flags: np.ndarray) -> int:
    """The length of the longest run of True in ``flags``; 0 when there is
    none."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags, [0]))))
    return int((edges[1::2] - edges[::2]).max(initial=0))


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
) -> Iterator[LineBatch]:
    """Each batch of the lines through the pairs: ``(first, x, y, p)``, the
    index of its first line among the pairs, its rows of x and y, and the
    :class:`SampledProblem` of its restrictions on anchored grids, whose
    ``phi`` and ``dom.interval`` are the lines' :func:`restrict` and
    feasible intervals.  A batch holds at least one line, and at most
    ``_BATCH_POINTS`` grid points and ``_BLOCK_ROWS // 2`` lines, so that
    both sides of a grid column of every line fit in one Dini block."""
    xs = np.array([x for x, _ in pairs], dtype=float)
    ys = np.array([y for _, y in pairs], dtype=float)
    size = max(1, min(_BLOCK_ROWS // 2, _BATCH_POINTS // (n_grid + 2)))
    for a in range(0, len(pairs), size):
        x, y = xs[a : a + size], ys[a : a + size]
        feasible, phi = restrict(f, x, y, box)
        yield a, x, y, SampledProblem(phi, anchored_grid(feasible, n_grid, margin), schedule,
                                      tol, stat_tol)


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


def check_t6(batches: Iterable[LineBatch], function_id: str = "") -> CaseLine:
    """Restriction sweep: pseudoconvex iff semistrictly quasiconvex and 0
    is non-stationary on every restriction whose far end is strictly lower.

    Both sides are quantified over the lines of the :func:`line_problems`
    ``batches``, read once in order, with one :func:`_origin` read per batch.
    A ``FAIL`` names the first line whose sides disagree, ``pair k`` by its
    index k in the run, ``first + i`` for line i of a batch: when the sides
    disagree over all lines, some decided line does.
    """
    lhs_all = True  # restriction pseudoconvexity holds on every line so far
    rhs_all = True  # and the semistrict form, with no stationary origin
    inconclusive = False
    mismatch = ""  # the first disagreeing line
    for first, _, _, p in batches:
        ends, _, at_rest, unsettled = p.verdict(_origin)
        lower = ends[:, 1] < p.beyond(ends[:, 0])  # f(y) below f(x) beyond the band
        for i, (pc, ssq) in enumerate(zip(p.verdict(pseudoconvex_def),
                                          p.verdict(semistrictly_quasiconvex_def))):
            rhs_pair = ssq.outcome == "holds"
            asks_origin = rhs_pair and lower[i]  # then the origin test decides the right side
            if "inconclusive" in (pc.outcome, ssq.outcome) or (asks_origin and unsettled[i]):
                inconclusive = True
                continue
            if asks_origin and at_rest[i]:
                rhs_pair = False  # f(y) < f(x) but t=0 is stationary on the restriction
            if (pc.outcome == "holds") != rhs_pair and not mismatch:
                mismatch = (f"pair{first + i}: restriction pseudoconvexity {pc.outcome} but the "
                            f"semistrict form {'holds' if rhs_pair else 'fails'}")
            lhs_all = lhs_all and pc.outcome == "holds"
            rhs_all = rhs_all and rhs_pair
    if inconclusive:
        return CaseLine("T6", function_id, "inconclusive", "a restriction was inconclusive")
    if lhs_all == rhs_all:
        return CaseLine("T6", function_id, detail=f"both sides {'hold' if lhs_all else 'fail'}")
    return CaseLine("T6", function_id, "FAIL", mismatch)


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
    batches: Iterable[LineBatch],
    seed: int = 0,
    function_id: str = "",
) -> tuple[CaseLine, ...]:
    """A or B iff C, for quasiconvex radially-usc f and the pair (x, y) of
    each line of the :func:`line_problems` ``batches``, read once in order: a
    case line per line, in batch order, line i of a batch named
    ``{function_id}#pair{first + i}`` by its index in the run.

    A: x is stationary for f over a deterministic sample of ``_DIRECTIONS``
    directions (approximate, refinable), by :func:`~dinicvx.dini.stationary`:
    any descending direction makes A false, and directions with no probe in
    the box are skipped.  B: t=0 attains the minimum of the restriction over
    its feasible set, measured against the grid values together with the
    Dini probe values near 0 (a pure-grid minimum misses sub-grid dips next
    to 0 and would assert B spuriously).  C: t=0 is stationary for the
    restriction: T6's origin test.  The line is inconclusive when the
    restriction is undefined at a grid point, or when A or C is unsettled:
    no direction descends but one did not converge.  A and C read the
    batch's schedule and ``stat_tol``.  B claims x is a minimizer, not that
    two values are level, so its slack is ``1e-12 * (1 + |f(x)|)``, not the
    band: a wide ``tol`` would take an x near the minimum for one, where A
    and C are false, and report a false FAIL.

    Each pair reads the grid values of its batch and its :func:`_origin`, as
    T6 reads them: f(x), B's values at the in-domain probes ``+-s``, and C.
    A probes every defined pair's x along every direction as the rows of
    :func:`~dinicvx.dini._rows`, each row based at that f(x).  Every line
    is what the pair gives alone.
    """
    _, u = _unit(sample_directions(len(box), _DIRECTIONS, seed))

    cases: list[CaseLine] = []
    for first, x, y, p in batches:
        m = len(x)
        # p.values is +inf past each line's last point: not NaN, and no minimum
        defined = ~np.isnan(p.values).any(axis=1)
        xs = x[defined]
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

        lowest = np.minimum(p.vmin,
                            np.where(np.isfinite(probe_vals), probe_vals, np.inf).min(axis=1))
        b_true = ends[:, 0] <= lowest + 1e-12 * (1.0 + np.abs(ends[:, 0]))

        for i in range(m):
            fid = f"{function_id}#pair{first + i}"
            if not defined[i] or a_open[i] or c_open[i]:
                cases.append(CaseLine("Lpr1", fid, "inconclusive",
                                      "a Dini estimate did not converge" if defined[i]
                                      else "undefined restriction values"))
                continue
            xi, yi = [float(v) for v in x[i]], [float(v) for v in y[i]]
            cases.append(CaseLine(
                "Lpr1", fid, "ok" if (a_true[i] or b_true[i]) == c_true[i] else "FAIL",
                f"A={bool(a_true[i])} (over {_DIRECTIONS} directions), B={bool(b_true[i])}, "
                f"C={bool(c_true[i])}, x={xi}, y={yi}"))
    return tuple(cases)


@dataclass(frozen=True)
class BatteryRunResult:
    cases: tuple[CaseLine, ...]
    label_mismatches: tuple[str, ...]
    n_vacuous: int
    n_inconclusive: int
    ok: bool


def run_battery(
    entries: Sequence[BatteryEntry],
    n_grid: int = GRID,
    margin: float = MARGIN,
    schedule: DiniSchedule = SUITE_SCHEDULE,
    tol: float | None = None,
    stat_tol: float = SampledProblem.stat_tol,
    pairs: int = PAIRS,
    seed: int = 0,
) -> BatteryRunResult:
    """Theorem sweep plus expected-label verification over a battery.

    Every entry is parsed, or a ValueError names it, before the first runs.  A
    1-D entry's expected labels are compared, in sorted label order, with the
    definitional oracles, and T3 (when lower semicontinuous), T4 (when radially
    continuous) and T7 run on its grid.  A 2-D entry's labels are not compared:
    T6, and Lpr1 when it is labelled quasiconvex, read the :func:`line_problems`
    batches of its explicit pairs and ``pairs`` sampled ones batch by batch, T6
    first.  One entry at a time is kept, as one batch is (with the one being
    made).  ``schedule`` defaults to :data:`SUITE_SCHEDULE`, not the bare
    estimator default, so stationarity conclusions at kinks stay above the
    rounding noise floor.
    """
    definitions = {prop.label: prop.definition for prop in properties()}
    cases: list[CaseLine] = []
    mismatches: list[str] = []
    parsed = []
    for entry in entries:
        try:
            f = partial(eval_many, parse(entry.expression, entry.arity))
            box = tuple(map(parse_interval, entry.box or (entry.domain,)))
            # the checks the run makes on the entry's grid or pairs, made now
            if entry.arity == 1:
                grid_ends(box, n_grid, margin)  # gridded when the entry runs
                pair_list = []
            else:
                pair_list = [*(entry.pairs or ()), *sample_pairs(box, pairs, seed)]
                if entry.pairs:
                    restrict(f, *np.array(entry.pairs, dtype=float).swapaxes(0, 1), box)
        except ValueError as exc:
            raise ValueError(f"entry {entry.id!r}: {exc}") from exc
        parsed.append((entry, f, box, pair_list))
    parsed.reverse()  # popped in entry order, so that no entry outlives its run
    while parsed:
        entry, f, box, pair_list = parsed.pop()
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
            del p  # with its f, which a 2-D entry run next would keep alive
        else:
            lpr1: list[CaseLine] = []  # a case line per line done

            def batches():
                # T6 reads each batch; when it asks for the next, Lpr1 reads
                # this one, and then nothing holds it
                for batch in line_problems(f, pair_list, box, n_grid, margin, schedule, tol,
                                           stat_tol):
                    yield batch
                    if entry.expected is not None and entry.expected.get("quasiconvex"):
                        lpr1.extend(check_abc(f, box, [batch], seed=seed, function_id=entry.id))

            found = [check_t6(batches(), entry.id), *lpr1]  # T6 runs Lpr1 as it reads
        cases += found
    return BatteryRunResult(
        cases=tuple(cases),
        label_mismatches=tuple(mismatches),
        n_vacuous=sum(1 for c in cases if c.status == "vacuous"),
        n_inconclusive=sum(1 for c in cases if c.status == "inconclusive"),
        ok=all(c.status != "FAIL" for c in cases),
    )

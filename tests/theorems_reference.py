"""Loop references for the theorem checks.

``check_abc`` is the form that asks ``lower_dini_along`` for one direction
at a time, in sample order, stopping at the first descending direction;
the block form in ``dinicvx.theorems`` must give ``repr``-identical
reports.  ``check_t6_loop`` is the T6 that restricts ``f`` to each line
again for its ends and its origin test, one line at a time; ``check_t6``,
which reads both from its batch, must give a ``repr``-identical report,
witnesses of the disagreeing lines included.  Both take
their Dini estimates from ``dini_reference``.  ``longest_run_loop`` is the
scan ``check_t7`` made over the flat cells before it became one array pass,
and ``sample_pairs_loop`` the draw of one pair at a time that
``sample_pairs`` made before it drew in bulk.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from dinicvx.dini import DiniDomainError, DiniSchedule
from dinicvx.domain import Interval, anchored_grid, restrict
from dinicvx.oracle import Witness, pseudoconvex_def, semistrictly_quasiconvex_def
from dinicvx.theorems import TheoremReport, _report, sample_directions

from dini_reference import is_stationary, lower_dini_along


def sample_pairs_loop(
    box: tuple[Interval, ...], count: int, seed: int, cap: int = 1000,
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Pairs drawn one at a time, x then y, each redrawn while outside the
    box or ``allclose``; ValueError after ``cap`` misses in a row."""
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
        if misses == cap:
            raise ValueError("box too thin to sample distinct (x, y) pairs")
    return tuple(out)


def longest_run_loop(flags) -> tuple[int, int]:
    """The literal scan ``check_t7`` used for its longest run of flat cells."""
    run = 0
    longest = 0
    where = 0
    for i, f in enumerate(flags):
        run = run + 1 if f else 0
        if run > longest:
            longest, where = run, i
    return longest, where


def check_abc(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    box: tuple[Interval, ...],
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
    n_dirs: int = 64,
    seed: int = 0,
    n_grid: int = 257,
    margin: float = 1e-6,
    function_id: str = "",
) -> TheoremReport:
    """A or B iff C, for quasiconvex radially-usc f and a pair (x, y).

    A: x is stationary for f (no descent over a deterministic direction
    sample; approximate, refinable).  B: t=0 attains the minimum of the
    restriction over its feasible set, measured against the grid values
    together with the Dini probe values near 0 (a pure-grid minimum misses
    sub-grid dips next to 0 and would assert B spuriously).  C: t=0 is
    stationary for the restriction.
    """
    if schedule is None:
        schedule = DiniSchedule()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = restrict(f, x[None], y[None], box)
    dom_r = anchored_grid(r.feasible, n_grid, margin)
    vals = r.phi(dom_r.points)
    if np.isnan(vals).any():
        return _report("Lpr1", function_id, "inconclusive",
                       "undefined restriction values")

    # a descending direction decides A whatever its place; an unconverged
    # one leaves A open only when none descends
    a_true, a_open = True, False
    for u in sample_directions(x.shape[0], n_dirs, seed):
        try:
            est = lower_dini_along(f, x, u, box, schedule)
        except DiniDomainError:
            continue  # direction leaves the box immediately
        if est.unit_value < -stat_tol:
            a_true = False
            break
        a_open = a_open or not est.converged
    inconclusive = a_true and a_open

    phi0 = float(r.phi(np.asarray([0.0]))[0])
    s = schedule.step_sizes()
    probes = np.concatenate([s, -s])
    probes = probes[r.feasible[0].contains_many(probes)]
    probe_vals = r.phi(probes) if probes.size else np.asarray([])
    cands = [float(np.min(vals))]
    finite_probes = probe_vals[np.isfinite(probe_vals)] if probe_vals.size else probe_vals
    if finite_probes.size:
        cands.append(float(np.min(finite_probes)))
    b_true = phi0 <= min(cands) + 1e-12 * (1.0 + abs(phi0))

    st = is_stationary(r.phi, 0.0, r.feasible[0], schedule, stat_tol)
    c_true = st.stationary
    if not st.decisive:
        inconclusive = True

    if inconclusive:
        return _report("Lpr1", function_id, "inconclusive",
                       "a Dini estimate did not converge")
    detail = (
        f"A={a_true} (over {n_dirs} directions), B={b_true}, C={c_true}, "
        f"x={[float(v) for v in x]}, y={[float(v) for v in y]}"
    )
    if (a_true or b_true) == c_true:
        return _report("Lpr1", function_id, notes=detail)
    wit = Witness(
        kind="abc_mismatch",
        points=tuple(float(v) for v in x) + tuple(float(v) for v in y),
        values=(phi0,),
        detail=detail,
    )
    return _report("Lpr1", function_id, "FAIL", detail, [wit])


def check_t6_loop(f, box, batches, function_id: str = "") -> TheoremReport:
    """T6 over the lines of ``batches``, restricting ``f`` to each line again
    for its ends and its origin test."""
    mismatches, origins = [], []
    lhs_all = rhs_all = True
    inconclusive = False
    k = -1  # the place of the line being read
    for r, p in batches:
        for i, (pc, ssq) in enumerate(zip(pseudoconvex_def(p), semistrictly_quasiconvex_def(p))):
            k += 1
            if pc.outcome == "inconclusive" or ssq.outcome == "inconclusive":
                inconclusive = True
                continue
            lhs_pair = pc.outcome == "holds"
            rhs_pair = ssq.outcome == "holds"
            line = restrict(f, r.x[i][None], r.y[i][None], box)
            fx, fy = (float(v) for v in line.phi(np.asarray([0.0, 1.0])))
            xy = tuple(map(float, line.x[0])) + tuple(map(float, line.y[0]))
            if rhs_pair and fy < fx - ssq.tol:
                st = is_stationary(line.phi, 0.0, line.feasible[0], p.schedule, p.stat_tol)
                if not st.decisive:
                    inconclusive = True
                    continue
                if st.stationary:
                    rhs_pair = False
                    origins.append(Witness(
                        "stationary_origin", xy, (fx, fy),
                        "f(y) < f(x) but t=0 is stationary on the restriction"))
            if lhs_pair != rhs_pair and len(mismatches) < 8:
                mismatches.append(Witness(
                    "line_mismatch", xy, (fx, fy),
                    f"pair{k}: restriction pseudoconvexity {pc.outcome} but the "
                    f"semistrict form {'holds' if rhs_pair else 'fails'}"))
            lhs_all = lhs_all and lhs_pair
            rhs_all = rhs_all and rhs_pair
    if inconclusive:
        return _report("T6", function_id, "inconclusive",
                       "a restriction was inconclusive")
    if lhs_all == rhs_all:
        return _report("T6", function_id,
                       notes=f"both sides {'hold' if lhs_all else 'fail'}")
    return _report("T6", function_id, "FAIL",
                   "restriction pseudoconvexity and the semistrict form disagree",
                   mismatches + origins)

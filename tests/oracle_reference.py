"""Brute-force references for the definitional oracles and the structural scans.

The per-index scans below are the forms that ``dinicvx.oracle`` and
``dinicvx.charact`` replace with whole-array passes; the tests require the
package's results to be ``repr``-identical to theirs.  The literal pair and
triple loops at the end transcribe each definition with no side minima at
all, for small grids.  The scans read the Dini profile at any grid point, so
each first asks the problem to estimate every entry; they take the side
minima from their own running-minimum loop and decide descent from the
profile's ``value`` and ``feasible`` entries, so they share neither with
the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dinicvx.charact import MonotoneDecomposition, SegmentSplit
from dinicvx.oracle import (
    _WITNESS_CAP,
    SampledProblem,
    Verdict,
    Witness,
    _undefined_verdict,
)


def _side_minima(vals) -> tuple[list[float], list[float]]:
    """(left, right): the least value strictly left and strictly right of
    each index, inf where there is none, by one running minimum each way."""
    n = len(vals)
    left, right = [np.inf] * n, [np.inf] * n
    run = np.inf
    for i in range(n):
        left[i] = run
        run = min(run, vals[i])
    run = np.inf
    for i in reversed(range(n)):
        right[i] = run
        run = min(run, vals[i])
    return left, right


def _descending(profile, row: int, i: int, stat_tol: float) -> bool:
    """The estimate at grid index i toward side ``row`` (0 left, 1 right) is
    feasible and below -stat_tol."""
    return bool(profile.feasible[row, i] and profile.value[row, i] < -stat_tol)


@dataclass
class _DescentAudit:
    """Collects failures and unconverged blockers for one pair-based scan."""

    p: SampledProblem
    witnesses: list[Witness] = field(default_factory=list)
    blocked: list[Witness] = field(default_factory=list)

    def check(self, i: int, side: int, y_index: int, trigger: str) -> None:
        """Require descent at grid index i toward side (-1 left, +1 right)."""
        profile = self.p.estimate()
        row = 0 if side < 0 else 1
        if _descending(profile, row, i, self.p.stat_tol):
            return  # descending; a running minimum below the bar is final
        conv, feas = profile.converged[row, i], profile.feasible[row, i]
        pts, vals = self.p.dom.points, self.p.values
        x_t, y_t = float(pts[i]), float(pts[y_index])
        x_v, y_v = float(vals[i]), float(vals[y_index])
        if feas and not conv:
            if len(self.blocked) < _WITNESS_CAP:
                self.blocked.append(
                    Witness(
                        kind="unconverged_dini",
                        points=(x_t, y_t),
                        values=(x_v, y_v),
                        detail=(
                            f"{trigger}; the Dini estimate toward y did not "
                            "converge, leaving the sign undecided"
                        ),
                    )
                )
            return
        if len(self.witnesses) < _WITNESS_CAP:
            self.witnesses.append(
                Witness(
                    kind="no_descent",
                    points=(x_t, y_t),
                    values=(x_v, y_v),
                    detail=(
                        f"{trigger} but the lower Dini derivative at x toward y "
                        f"is {float(profile.value[row, i]):.6g} >= -stat_tol"
                    ),
                )
            )


def _pair_based(p: SampledProblem, strict: bool) -> Verdict:
    method = "strictly_pseudoconvex_def" if strict else "pseudoconvex_def"
    if p.undefined:
        return _undefined_verdict(p, method)
    vals, tol_r = p.values, p.band
    pre, suf = _side_minima(vals)
    audit = _DescentAudit(p)
    for i in range(p.dom.n):
        if strict:
            left_hit = pre[i] <= vals[i] + tol_r
            right_hit = suf[i] <= vals[i] + tol_r
            trigger = "phi(y) <= phi(x) + tol with y != x"
        else:
            left_hit = pre[i] < vals[i] - tol_r
            right_hit = suf[i] < vals[i] - tol_r
            trigger = "phi(y) < phi(x) - tol"
        if left_hit:
            audit.check(i, -1, int(np.argmin(vals[:i])), trigger)
        if right_hit:
            audit.check(i, +1, i + 1 + int(np.argmin(vals[i + 1 :])), trigger)
    if audit.witnesses:
        return Verdict("fails", method, tol_r, p.stat_tol, tuple(audit.witnesses))
    if audit.blocked:
        return Verdict("inconclusive", method, tol_r, p.stat_tol, tuple(audit.blocked))
    return Verdict("holds", method, tol_r, p.stat_tol)


def pseudoconvex_def(p: SampledProblem) -> Verdict:
    return _pair_based(p, strict=False)


def strictly_pseudoconvex_def(p: SampledProblem) -> Verdict:
    return _pair_based(p, strict=True)


def quasiconvex_def(p: SampledProblem) -> Verdict:
    if p.undefined:
        return _undefined_verdict(p, "quasiconvex_def")
    vals, tol_r, pts = p.values, p.band, p.dom.points
    pre, suf = _side_minima(vals)
    witnesses: list[Witness] = []
    for z in range(1, p.dom.n - 1):
        if pre[z] < vals[z] - tol_r and suf[z] < vals[z] - tol_r:
            x = int(np.argmin(vals[:z]))
            y = z + 1 + int(np.argmin(vals[z + 1 :]))
            witnesses.append(
                Witness(
                    kind="interior_peak",
                    points=(float(pts[x]), float(pts[z]), float(pts[y])),
                    values=(float(vals[x]), float(vals[z]), float(vals[y])),
                    detail="phi(z) > max(phi(x), phi(y)) + tol on an ordered triple",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    if witnesses:
        return Verdict("fails", "quasiconvex_def", tol_r, p.stat_tol, tuple(witnesses))
    return Verdict("holds", "quasiconvex_def", tol_r, p.stat_tol)


def semistrictly_quasiconvex_def(p: SampledProblem) -> Verdict:
    if p.undefined:
        return _undefined_verdict(p, "semistrictly_quasiconvex_def")
    vals, tol_r, pts = p.values, p.band, p.dom.points
    pre, suf = np.array(_side_minima(vals))
    n = p.dom.n
    witnesses: list[Witness] = []

    def emit(x: int, z: int, y: int) -> None:
        if len(witnesses) < _WITNESS_CAP:
            witnesses.append(
                Witness(
                    kind="non_descending_interior",
                    points=(float(pts[x]), float(pts[z]), float(pts[y])),
                    values=(float(vals[x]), float(vals[z]), float(vals[y])),
                    detail=(
                        "phi(y) < phi(x) - tol but an interior point does not "
                        "drop strictly below phi(x)"
                    ),
                )
            )

    for x in range(n):
        c = vals[x] - tol_r
        # rightward: z in (x, y), some y > z with phi(y) < c
        if x + 2 < n:
            zs = np.arange(x + 1, n - 1)
            mask = (vals[zs] >= c) & (suf[zs] < c)
            hits = np.flatnonzero(mask)
            if hits.size:
                z = int(zs[hits[0]])
                tail = vals[z + 1 :]
                y = z + 1 + int(np.argmax(tail < c))
                emit(x, z, y)
        # leftward mirror
        if x - 2 >= 0:
            zs = np.arange(1, x)
            mask = (vals[zs] >= c) & (pre[zs] < c)
            hits = np.flatnonzero(mask)
            if hits.size:
                z = int(zs[hits[-1]])
                head = vals[:z]
                y = int(np.argmax(head < c))
                emit(x, z, y)
        if len(witnesses) >= _WITNESS_CAP:
            break
    if witnesses:
        return Verdict("fails", "semistrictly_quasiconvex_def", tol_r, p.stat_tol,
                       tuple(witnesses))
    return Verdict("holds", "semistrictly_quasiconvex_def", tol_r, p.stat_tol)


def decompose(p: SampledProblem) -> MonotoneDecomposition:
    vals, tol_r, dom = p.values, p.band, p.dom
    n = dom.n
    if p.undefined:
        return MonotoneDecomposition(
            (0, 0), (0, 0), (0, 0), "undefined", float("nan"), tol_r, False, p.undefined
        )
    vmin = float(np.min(vals))
    deltas = np.diff(vals)
    band = np.flatnonzero(vals <= vmin + tol_r)
    b0, b1 = int(band[0]), int(band[-1])

    if deltas.size and b0 == 0 and not dom.interval.lo_closed and bool(np.all(deltas > tol_r)):
        return MonotoneDecomposition(
            (0, 0), (0, 0), (0, n), "empty_min_increasing", vmin, tol_r, True
        )
    if deltas.size and b1 == n - 1 and not dom.interval.hi_closed and bool(np.all(deltas < -tol_r)):
        return MonotoneDecomposition(
            (0, n), (0, 0), (n, n), "empty_min_decreasing", vmin, tol_r, True
        )

    witnesses: list[Witness] = []
    if band.size != b1 - b0 + 1:
        gaps = np.flatnonzero(np.diff(band) > 1)
        for g in gaps[:_WITNESS_CAP]:
            i, j = int(band[g]), int(band[g + 1])
            mid = i + 1 + int(np.argmax(vals[i + 1 : j]))
            witnesses.append(
                Witness(
                    kind="argmin_gap",
                    points=(float(dom.points[i]), float(dom.points[mid]), float(dom.points[j])),
                    values=(float(vals[i]), float(vals[mid]), float(vals[j])),
                    detail="the set of grid minimizers is not contiguous",
                )
            )
        return MonotoneDecomposition(
            (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r, False,
            tuple(witnesses),
        )

    for i in range(0, b0 - 1):
        if not deltas[i] < -tol_r:
            witnesses.append(
                Witness(
                    kind="non_strict_decrease",
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="left flank is not strictly decreasing",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    for i in range(b1 + 1, n - 1):
        if len(witnesses) >= _WITNESS_CAP:
            break
        if not deltas[i] > tol_r:
            witnesses.append(
                Witness(
                    kind="non_strict_increase",
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="right flank is not strictly increasing",
                )
            )
    return MonotoneDecomposition(
        (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r,
        not witnesses, tuple(witnesses),
    )


def martos_segments(p: SampledProblem) -> SegmentSplit:
    vals, tol_r, dom = p.values, p.band, p.dom
    n = dom.n
    if p.undefined:
        return SegmentSplit((0, 0), (0, 0), (0, 0), False, tol_r, p.undefined[:1])
    deltas = np.diff(vals)
    a = 0
    while a < deltas.size and deltas[a] < -tol_r:
        a += 1
    b = a
    while b < deltas.size and abs(deltas[b]) <= tol_r:
        b += 1
    witnesses: list[Witness] = []
    for i in range(b, deltas.size):
        if not deltas[i] > tol_r:
            kind = "second_descent" if deltas[i] < -tol_r else "plateau_after_rise"
            witnesses.append(
                Witness(
                    kind=kind,
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="values stop increasing strictly after the constant run",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    return SegmentSplit(
        (0, a), (a, b + 1), (b + 1, n), not witnesses, tol_r, tuple(witnesses)
    )


def stationarity_scan(
    p: SampledProblem, dec: MonotoneDecomposition
) -> tuple[list[Witness], list[Witness]]:
    profile = p.estimate()
    violations: list[Witness] = []
    blocked: list[Witness] = []
    for i in range(p.dom.n):
        if dec.i_hat[0] <= i < dec.i_hat[1]:
            continue
        if _descending(profile, 0, i, p.stat_tol) or _descending(profile, 1, i, p.stat_tol):
            continue
        unconv = (profile.feasible[0, i] and not profile.converged[0, i]) or (
            profile.feasible[1, i] and not profile.converged[1, i]
        )
        wit = Witness(
            kind="stationary_outside_min",
            points=(float(p.dom.points[i]),),
            values=(float(p.values[i]),),
            detail=(
                "grid point outside the minimum band with no descending "
                "direction (lower Dini derivative >= -stat_tol both ways)"
            ),
        )
        if unconv:
            if len(blocked) < _WITNESS_CAP:
                blocked.append(
                    Witness(
                        kind="unconverged_dini",
                        points=wit.points,
                        values=wit.values,
                        detail="no-descent call rests on an unconverged Dini estimate",
                    )
                )
        elif len(violations) < _WITNESS_CAP:
            violations.append(wit)
    return violations, blocked


def _descends(p: SampledProblem, x: int, y: int) -> str:
    """``descends``, ``blocked`` or ``fails``: the Dini estimate at x toward y."""
    prof = p.estimate()
    row = 0 if y < x else 1
    if _descending(prof, row, x, p.stat_tol):
        return "descends"
    return "blocked" if prof.feasible[row, x] and not prof.converged[row, x] else "fails"


def pair_loop(p: SampledProblem, strict: bool) -> str:
    """Outcome of (strict) pseudoconvexity over every ordered pair x != y."""
    vals, tol = p.values, p.band
    seen = set()
    for x in range(p.dom.n):
        for y in range(p.dom.n):
            lower = vals[y] <= vals[x] + tol if strict else vals[y] < vals[x] - tol
            if y != x and lower:
                seen.add(_descends(p, x, y))
    return "fails" if "fails" in seen else "inconclusive" if "blocked" in seen else "holds"


def quasiconvex_triple_loop(vals, tol) -> str:
    """Literal definition: phi(z) > max(phi(x), phi(y)) + tol on no x < z < y
    (written as max(phi(x), phi(y)) < phi(z) - tol, the oracle's rounding)."""
    n = len(vals)
    for x in range(n):
        for z in range(x + 1, n):
            for y in range(z + 1, n):
                if max(vals[x], vals[y]) < vals[z] - tol:
                    return "fails"
    return "holds"


def semistrict_triple_loop(vals, tol) -> str:
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

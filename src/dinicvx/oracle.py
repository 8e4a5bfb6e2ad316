"""Definition-based classification oracles.

Each classifier transcribes its defining inequality over all grid pairs or
triples, with no structural shortcuts, so it can serve as the trusted side
of an agreement test against the structural characterizations:

* pseudoconvex: phi(y) < phi(x) - tol forces a negative lower Dini
  derivative at x toward y;
* strictly pseudoconvex: phi(y) <= phi(x) + tol with y != x forces it;
* quasiconvex: phi(z) <= max(phi(x), phi(y)) + tol on every ordered triple;
* semistrictly quasiconvex: phi(y) < phi(x) - tol forces phi(z) strictly
  below phi(x) (up to tol) strictly between x and y.

All comparisons share one equality band ``tol``; by default it is scaled
from the grid values as ``1e-9 * (1 + max |phi|)`` so that classifying
``phi`` and ``1000 * phi`` behaves identically.  Sign decisions on Dini
estimates use the unit-direction value against ``stat_tol``, which keeps
the outcome invariant to the magnitude of the probed direction.

A verdict is ``inconclusive`` only when a Dini estimate that the decision
actually depends on failed to converge, or when the grid contains
undefined or non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dini import DiniEstimate, DiniSchedule, GridDiniProfile, grid_dini_profile
from .domain import SampledDomain

__all__ = [
    "Witness",
    "Verdict",
    "auto_tol",
    "grid_values",
    "pseudoconvex_def",
    "strictly_pseudoconvex_def",
    "quasiconvex_def",
    "semistrictly_quasiconvex_def",
]

_WITNESS_CAP = 8


@dataclass(frozen=True)
class Witness:
    """A concrete grid configuration violating (or blocking) a property."""

    kind: str
    points: tuple[float, ...]
    values: tuple[float, ...]
    detail: str
    estimate: DiniEstimate | None = None


@dataclass(frozen=True)
class Verdict:
    outcome: str  # holds | fails | inconclusive
    method: str
    tol: float
    stat_tol: float
    witnesses: tuple[Witness, ...] = ()
    notes: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"


def auto_tol(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    scale = float(np.max(np.abs(finite))) if finite.size else 0.0
    return 1e-9 * (1.0 + scale)


def grid_values(
    phi: Callable[[np.ndarray], np.ndarray], dom: SampledDomain
) -> tuple[np.ndarray, tuple[Witness, ...]]:
    """Evaluate phi on the grid; report points that are undefined/non-finite."""
    vals = phi(dom.points)
    return vals, undefined_witnesses(dom, vals)


def undefined_witnesses(
    dom: SampledDomain, vals: np.ndarray, cap: int = _WITNESS_CAP
) -> tuple[Witness, ...]:
    """Witnesses at the first ``cap`` grid points where ``vals`` is not finite."""
    return tuple(
        Witness(
            kind="undefined_grid_value",
            points=(float(dom.points[i]),),
            values=(float(vals[i]),),
            detail="phi is undefined or non-finite at a grid point",
        )
        for i in np.flatnonzero(~np.isfinite(vals))[:cap]
    )


def _resolve(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    tol: float | None,
) -> tuple[np.ndarray | None, float, tuple[Witness, ...]]:
    vals, bad = grid_values(phi, dom)
    if bad:
        return None, 0.0 if tol is None else tol, bad
    return vals, auto_tol(vals) if tol is None else tol, ()


def _exclusive_prefix_min(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[0] = np.inf
    if v.shape[0] > 1:
        out[1:] = np.minimum.accumulate(v[:-1])
    return out


def _exclusive_suffix_min(v: np.ndarray) -> np.ndarray:
    return _exclusive_prefix_min(v[::-1])[::-1]


@dataclass
class _DescentAudit:
    """Collects failures and unconverged blockers for one pair-based scan."""

    witnesses: list[Witness] = field(default_factory=list)
    blocked: list[Witness] = field(default_factory=list)

    def check(
        self,
        dom: SampledDomain,
        vals: np.ndarray,
        profile: GridDiniProfile,
        i: int,
        side: int,
        y_index: int,
        stat_tol: float,
        trigger: str,
    ) -> None:
        """Require descent at grid index i toward side (-1 left, +1 right)."""
        if side < 0:
            value = profile.minus_value[i]
            conv = profile.minus_converged[i]
            feas = profile.minus_feasible[i]
        else:
            value = profile.plus_value[i]
            conv = profile.plus_converged[i]
            feas = profile.plus_feasible[i]
        if feas and value < -stat_tol:
            return  # descending; a running minimum below the bar is final
        x_t, y_t = float(dom.points[i]), float(dom.points[y_index])
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
                        f"is {float(value):.6g} >= -stat_tol"
                    ),
                )
            )


def _pair_based(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None,
    tol: float | None,
    stat_tol: float,
    strict: bool,
) -> Verdict:
    method = "strictly_pseudoconvex_def" if strict else "pseudoconvex_def"
    vals, tol_r, bad = _resolve(phi, dom, tol)
    if vals is None:
        return Verdict("inconclusive", method, tol_r, stat_tol, bad,
                       notes="grid evaluation failed")
    profile = grid_dini_profile(phi, dom, schedule)
    pre = _exclusive_prefix_min(vals)
    suf = _exclusive_suffix_min(vals)
    audit = _DescentAudit()
    n = dom.n
    for i in range(n):
        if strict:
            left_hit = pre[i] <= vals[i] + tol_r
            right_hit = suf[i] <= vals[i] + tol_r
            trigger = "phi(y) <= phi(x) + tol with y != x"
        else:
            left_hit = pre[i] < vals[i] - tol_r
            right_hit = suf[i] < vals[i] - tol_r
            trigger = "phi(y) < phi(x) - tol"
        if left_hit:
            y_index = int(np.argmin(vals[:i]))
            audit.check(dom, vals, profile, i, -1, y_index, stat_tol, trigger)
        if right_hit:
            y_index = i + 1 + int(np.argmin(vals[i + 1 :]))
            audit.check(dom, vals, profile, i, +1, y_index, stat_tol, trigger)
    if audit.witnesses:
        return Verdict("fails", method, tol_r, stat_tol, tuple(audit.witnesses))
    if audit.blocked:
        return Verdict("inconclusive", method, tol_r, stat_tol, tuple(audit.blocked))
    return Verdict("holds", method, tol_r, stat_tol)


def pseudoconvex_def(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Definitional pseudoconvexity over all ordered grid pairs.

    For every pair with phi(y) < phi(x) - tol the lower Dini derivative at
    x toward y must fall below -stat_tol.  Since the estimate only depends
    on the side y lies on, each grid point is probed once per direction.
    """
    return _pair_based(phi, dom, schedule, tol, stat_tol, strict=False)


def strictly_pseudoconvex_def(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Strict variant: phi(y) <= phi(x) + tol with y != x forces descent."""
    return _pair_based(phi, dom, schedule, tol, stat_tol, strict=True)


def quasiconvex_def(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Definitional quasiconvexity over all ordered grid triples.

    Checks phi(z) <= max(phi(x), phi(y)) + tol for x < z < y, scanning each
    z against the running minima on both sides (equivalent to the full
    triple loop, with the first offending triple reported).
    """
    vals, tol_r, bad = _resolve(phi, dom, tol)
    if vals is None:
        return Verdict("inconclusive", "quasiconvex_def", tol_r, stat_tol, bad,
                       notes="grid evaluation failed")
    pre = _exclusive_prefix_min(vals)
    suf = _exclusive_suffix_min(vals)
    witnesses: list[Witness] = []
    for z in range(1, dom.n - 1):
        if pre[z] < vals[z] - tol_r and suf[z] < vals[z] - tol_r:
            x = int(np.argmin(vals[:z]))
            y = z + 1 + int(np.argmin(vals[z + 1 :]))
            witnesses.append(
                Witness(
                    kind="interior_peak",
                    points=(float(dom.points[x]), float(dom.points[z]), float(dom.points[y])),
                    values=(float(vals[x]), float(vals[z]), float(vals[y])),
                    detail="phi(z) > max(phi(x), phi(y)) + tol on an ordered triple",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    if witnesses:
        return Verdict("fails", "quasiconvex_def", tol_r, stat_tol, tuple(witnesses))
    return Verdict("holds", "quasiconvex_def", tol_r, stat_tol)


def semistrictly_quasiconvex_def(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Definitional semistrict quasiconvexity over ordered pairs.

    For every pair with phi(y) < phi(x) - tol, every grid point strictly
    between x and y must satisfy phi(z) < phi(x) up to the shared band.
    """
    vals, tol_r, bad = _resolve(phi, dom, tol)
    if vals is None:
        return Verdict("inconclusive", "semistrictly_quasiconvex_def", tol_r,
                       stat_tol, bad, notes="grid evaluation failed")
    n = dom.n
    suf = _exclusive_suffix_min(vals)
    pre = _exclusive_prefix_min(vals)
    witnesses: list[Witness] = []

    def emit(x: int, z: int, y: int) -> None:
        if len(witnesses) < _WITNESS_CAP:
            witnesses.append(
                Witness(
                    kind="non_descending_interior",
                    points=(float(dom.points[x]), float(dom.points[z]), float(dom.points[y])),
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
        return Verdict("fails", "semistrictly_quasiconvex_def", tol_r, stat_tol,
                       tuple(witnesses))
    return Verdict("holds", "semistrictly_quasiconvex_def", tol_r, stat_tol)

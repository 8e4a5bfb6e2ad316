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
the outcome invariant to the magnitude of the probed direction.  Every
classifier, here and in :mod:`dinicvx.charact`, takes one
:class:`SampledProblem`, which holds the function, the grid and these
settings, and computes the shared inputs once.

A verdict is ``inconclusive`` only when a Dini estimate that the decision
actually depends on failed to converge, or when the grid contains
undefined or non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .dini import DiniEstimate, DiniSchedule, GridDiniProfile, grid_dini_profile
from .domain import SampledDomain

__all__ = [
    "Witness",
    "Verdict",
    "SampledProblem",
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
    """Evaluate phi on the grid; report the first undefined/non-finite points."""
    vals = phi(dom.points)
    return vals, tuple(
        Witness(
            kind="undefined_grid_value",
            points=(float(dom.points[i]),),
            values=(float(vals[i]),),
            detail="phi is undefined or non-finite at a grid point",
        )
        for i in np.flatnonzero(~np.isfinite(vals))[:_WITNESS_CAP]
    )


def _exclusive_prefix_min(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[0] = np.inf
    if v.shape[0] > 1:
        out[1:] = np.minimum.accumulate(v[:-1])
    return out


@dataclass(frozen=True, eq=False)
class SampledProblem:
    """One function on one sampled interval: what every classifier reads.

    The grid values, the equality band, the exclusive prefix and suffix
    minima and the Dini profile are each computed at most once, when a
    classifier first reads them, and then shared by the definitional
    oracles, the structural characterizations and the theorem checks.
    Only these inputs are shared; every classifier keeps its own decision
    logic.  ``grid_values`` and ``grid_dini_profile`` are looked up when
    called, so a rebound module attribute (as a tracer installs) is used.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dom: SampledDomain
    schedule: DiniSchedule | None = None
    tol: float | None = None
    stat_tol: float = 1e-7

    @cached_property
    def _sampled(self) -> tuple[np.ndarray, tuple[Witness, ...]]:
        return grid_values(self.phi, self.dom)

    @property
    def values(self) -> np.ndarray:
        return self._sampled[0]

    @property
    def undefined(self) -> tuple[Witness, ...]:
        """Witnesses at the first grid points where phi is not finite."""
        return self._sampled[1]

    @cached_property
    def band(self) -> float:
        """``tol`` if given, else scaled from the finite grid values."""
        return auto_tol(self.values) if self.tol is None else self.tol

    @cached_property
    def prefix_min(self) -> np.ndarray:
        """``prefix_min[i]`` is the least value left of grid index i."""
        return _exclusive_prefix_min(self.values)

    @cached_property
    def suffix_min(self) -> np.ndarray:
        """``suffix_min[i]`` is the least value right of grid index i."""
        return _exclusive_prefix_min(self.values[::-1])[::-1]

    @cached_property
    def profile(self) -> GridDiniProfile:
        return grid_dini_profile(self.phi, self.dom, self.schedule)


def _undefined_verdict(p: SampledProblem, method: str) -> Verdict:
    # An unset tol reads 0 here, where the structural side reports the band.
    return Verdict("inconclusive", method, 0.0 if p.tol is None else p.tol,
                   p.stat_tol, p.undefined, notes="grid evaluation failed")


@dataclass
class _DescentAudit:
    """Collects failures and unconverged blockers for one pair-based scan."""

    p: SampledProblem
    witnesses: list[Witness] = field(default_factory=list)
    blocked: list[Witness] = field(default_factory=list)

    def check(self, i: int, side: int, y_index: int, trigger: str) -> None:
        """Require descent at grid index i toward side (-1 left, +1 right)."""
        profile = self.p.profile
        if side < 0:
            value = profile.minus_value[i]
            conv = profile.minus_converged[i]
            feas = profile.minus_feasible[i]
        else:
            value = profile.plus_value[i]
            conv = profile.plus_converged[i]
            feas = profile.plus_feasible[i]
        if feas and value < -self.p.stat_tol:
            return  # descending; a running minimum below the bar is final
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
                        f"is {float(value):.6g} >= -stat_tol"
                    ),
                )
            )


def _pair_based(p: SampledProblem, strict: bool) -> Verdict:
    method = "strictly_pseudoconvex_def" if strict else "pseudoconvex_def"
    if p.undefined:
        return _undefined_verdict(p, method)
    vals, tol_r, pre, suf = p.values, p.band, p.prefix_min, p.suffix_min
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
    """Definitional pseudoconvexity over all ordered grid pairs.

    For every pair with phi(y) < phi(x) - tol the lower Dini derivative at
    x toward y must fall below -stat_tol.  Since the estimate only depends
    on the side y lies on, each grid point is probed once per direction.
    """
    return _pair_based(p, strict=False)


def strictly_pseudoconvex_def(p: SampledProblem) -> Verdict:
    """Strict variant: phi(y) <= phi(x) + tol with y != x forces descent."""
    return _pair_based(p, strict=True)


def quasiconvex_def(p: SampledProblem) -> Verdict:
    """Definitional quasiconvexity over all ordered grid triples.

    Checks phi(z) <= max(phi(x), phi(y)) + tol for x < z < y, scanning each
    z against the running minima on both sides (equivalent to the full
    triple loop, with the first offending triple reported).
    """
    if p.undefined:
        return _undefined_verdict(p, "quasiconvex_def")
    vals, tol_r, pre, suf, pts = p.values, p.band, p.prefix_min, p.suffix_min, p.dom.points
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
    """Definitional semistrict quasiconvexity over ordered pairs.

    For every pair with phi(y) < phi(x) - tol, every grid point strictly
    between x and y must satisfy phi(z) < phi(x) up to the shared band.
    """
    if p.undefined:
        return _undefined_verdict(p, "semistrictly_quasiconvex_def")
    vals, tol_r, pre, suf, pts = p.values, p.band, p.prefix_min, p.suffix_min, p.dom.points
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

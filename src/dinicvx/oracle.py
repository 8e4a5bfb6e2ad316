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

Each quantifier over pairs or triples is decided exactly, by whole-array
passes over the grid values and the side minima (the least value strictly
left and strictly right of each point) rather than by a Python loop per
grid index.  A pair (x, y) triggers its condition for some y on one side
of x exactly when the least value on that side does, and the triple
conditions reduce in the same way, so nothing is assumed about the
function's shape and the monotone decomposition is never read.  The pair
and quasiconvexity oracles cost O(n) on an n-point grid, the semistrict
one O(n log n).  Witnesses are the first violations in grid order, at
most ``_WITNESS_CAP`` of each kind.  The pair oracles estimate
the Dini entries they read one block of grid rows at a time, in grid order,
and a failing one stops at the block that holds its ``_WITNESS_CAP``-th
failure, so it reads no entry past the witnesses it reports.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dini import DiniSchedule, GridDiniProfile, grid_dini_profile
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


@dataclass(frozen=True)
class Verdict:
    outcome: str  # holds | fails | inconclusive
    method: str
    tol: float
    stat_tol: float
    witnesses: tuple[Witness, ...] = ()
    notes: str = ""


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


@dataclass(frozen=True, eq=False)
class SampledProblem:
    """One function on one sampled interval: what every classifier reads.

    The grid values, the equality band and the side minima with their first
    minimizers are each computed at most once, when a classifier first reads
    them, and then shared by the definitional oracles, the structural
    characterizations and the theorem checks, which ask for each verdict
    through :meth:`verdict` and so run each oracle once per problem.  Each (grid point, direction) entry of the one kept Dini
    profile is estimated at most once, when a reader asks for it through
    :meth:`estimate` or :meth:`settle`; the others read as infeasible.  The
    side minima, the profile and the masks that ask for its entries share
    one (2, n) layout: row 0 toward lower t, row 1 toward higher t.  Only
    these inputs are shared; every classifier keeps its own decision
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
    def side_min(self) -> np.ndarray:
        """``side_min[0, i]`` is the least value left of grid index i and
        ``side_min[1, i]`` the least value right of it (inf where none)."""
        v = self.values
        out = np.full((2, v.shape[0]), np.inf)
        out[0, 1:] = np.minimum.accumulate(v[:-1])
        out[1, :-1] = np.minimum.accumulate(v[:0:-1])[::-1]
        return out

    @cached_property
    def side_argmin(self) -> np.ndarray:
        """``side_argmin[k, i]`` is the first index on side k of i that holds
        ``side_min[k, i]``, or i itself where that side is empty."""
        n = self.dom.n
        v, (left, right) = self.values, self.side_min
        idx = np.arange(n)
        out = np.empty((2, n), dtype=np.intp)
        out[0, 0], out[1, -1] = 0, n - 1
        # a point below everything before it is the first holder of its value
        out[0, 1:] = np.maximum.accumulate(np.where(v < left, idx, 0))[:-1]
        # a point at or below everything after it holds the least value from
        # it on, and the leftmost such point at or after j is the first holder
        # of the least value from j on
        out[1, :-1] = np.minimum.accumulate(np.where(v <= right, idx, n)[::-1])[-2::-1]
        return out

    @cached_property
    def profile(self) -> GridDiniProfile:
        """The kept Dini profile: only the entries asked for are estimated."""
        return GridDiniProfile.unestimated(self.dom.n)

    def estimate(self, mask: np.ndarray | None = None,
                 until: Callable[[slice], bool] | None = None) -> GridDiniProfile:
        """The profile, with the entries in the (2, n) ``mask`` (``None``: all)
        estimated, up to the block of rows after which ``until`` (as
        :func:`grid_dini_profile` calls it) returns true."""
        prof = self.profile
        todo = ~prof.estimated if mask is None else mask & ~prof.estimated
        if todo.any():
            grid_dini_profile(self.phi, self.dom, self.values, self.schedule, todo,
                              out=prof, until=until)
        return prof

    def settle(self, rows: np.ndarray) -> GridDiniProfile:
        """The profile with each row in the mask ``rows`` settled: an estimated
        direction descends beyond ``stat_tol``, or both are.  A row asks for
        the direction toward the first grid minimizer, and for the other once
        that one fails to descend; a row at the minimum level asks for both."""
        prof = self.profile
        toward = np.arange(self.dom.n) > np.argmin(self.values)  # minus faces it
        first = np.stack((toward, ~toward)) | (self.values <= np.min(self.values) + self.band)
        for _ in range(2):
            open_ = rows & ~prof.descent(self.stat_tol).any(axis=0)
            # a side comes second once the other side of its row is estimated
            self.estimate(open_ & (first | prof.estimated[::-1]))
        return prof

    @cached_property
    def _verdicts(self) -> dict[Callable[[SampledProblem], Verdict], Verdict]:
        return {}

    def verdict(self, oracle: Callable[[SampledProblem], Verdict]) -> Verdict:
        """``oracle(self)``, run on the first request and then kept.

        Kept per oracle function object: a caller that passes the oracle as
        its module binds it now lets a rebound (traced) oracle see that call.
        """
        if oracle not in self._verdicts:
            self._verdicts[oracle] = oracle(self)
        return self._verdicts[oracle]


def _undefined_verdict(p: SampledProblem, method: str) -> Verdict:
    # An unset tol reads 0 here, where the structural side reports the band.
    return Verdict("inconclusive", method, 0.0 if p.tol is None else p.tol,
                   p.stat_tol, p.undefined, notes="grid evaluation failed")


def _witness(p: SampledProblem, kind: str, idx: tuple[int, ...], detail: str) -> Witness:
    """A witness at the grid indices ``idx``, with their points and values."""
    return Witness(
        kind=kind,
        points=tuple(float(p.dom.points[i]) for i in idx),
        values=tuple(float(p.values[i]) for i in idx),
        detail=detail,
    )


def _pair_based(p: SampledProblem, strict: bool) -> Verdict:
    method = "strictly_pseudoconvex_def" if strict else "pseudoconvex_def"
    if p.undefined:
        return _undefined_verdict(p, method)
    vals, tol_r = p.values, p.band
    # hit[side, x]: some y left (side 0) or right (side 1) of x triggers
    if strict:
        hit = p.side_min <= vals + tol_r
        trigger = "phi(y) <= phi(x) + tol with y != x"
    else:
        hit = p.side_min < vals - tol_r
        trigger = "phi(y) < phi(x) - tol"
    if not hit.any():
        return Verdict("holds", method, tol_r, p.stat_tol)
    # The hit entries are estimated a block of rows at a time, in grid order.
    # Once the blocks done hold _WITNESS_CAP failures, the failures reported
    # are known, so the scan stops there and no later entry is read.
    prof, found, stop = p.profile, 0, p.dom.n

    def enough(rows: slice) -> bool:
        nonlocal found, stop
        found += np.count_nonzero(
            hit[:, rows] & ~(prof.descent(p.stat_tol, rows) | prof.unconverged(rows)))
        if found >= _WITNESS_CAP:
            stop = rows.stop
        return found >= _WITNESS_CAP

    p.estimate(hit, until=enough)
    done = slice(0, stop)
    undecided = hit[:, done] & ~prof.descent(p.stat_tol, done)
    unconverged = prof.unconverged(done)

    def pairs(mask: np.ndarray, kind: str, detail: Callable[[float], str]) -> tuple[Witness, ...]:
        # the first (x, side) entries in grid order, left before right
        entries = [(x, side) for x in np.flatnonzero(mask[0] | mask[1])[:_WITNESS_CAP]
                   for side in np.flatnonzero(mask[:, x])]
        return tuple(_witness(p, kind, (x, p.side_argmin[side, x]), detail(prof.value[side, x]))
                     for x, side in entries[:_WITNESS_CAP])

    failed = pairs(undecided & ~unconverged, "no_descent", lambda value: (
        f"{trigger} but the lower Dini derivative at x toward y "
        f"is {float(value):.6g} >= -stat_tol"
    ))
    if failed:
        return Verdict("fails", method, tol_r, p.stat_tol, failed)
    blocked = pairs(undecided & unconverged, "unconverged_dini", lambda value: (
        f"{trigger}; the Dini estimate toward y did not converge, leaving the sign undecided"
    ))
    if blocked:
        return Verdict("inconclusive", method, tol_r, p.stat_tol, blocked)
    return Verdict("holds", method, tol_r, p.stat_tol)


def pseudoconvex_def(p: SampledProblem) -> Verdict:
    """Definitional pseudoconvexity over all ordered grid pairs.

    For every pair with phi(y) < phi(x) - tol the lower Dini derivative at
    x toward y must fall below -stat_tol.  Since the estimate only depends
    on the side y lies on, and some y on a side of x is low enough exactly
    when the least value on that side is, each grid point is tested once
    per direction against the side minima: O(n).  Failures are reported at
    the first (x, side) entries, left before right, each with the first
    grid minimizer on that side as y.  The estimates are made one block of
    grid points (``dini._BLOCK_ROWS``) at a time, and the scan stops at the
    block that holds the ``_WITNESS_CAP``-th failure; a verdict that holds,
    or fails fewer times, estimates every entry toward a lower value, each
    once.
    """
    return _pair_based(p, strict=False)


def strictly_pseudoconvex_def(p: SampledProblem) -> Verdict:
    """Strict variant: phi(y) <= phi(x) + tol with y != x forces descent."""
    return _pair_based(p, strict=True)


def quasiconvex_def(p: SampledProblem) -> Verdict:
    """Definitional quasiconvexity over all ordered grid triples.

    phi(z) <= max(phi(x), phi(y)) + tol fails for some x < z < y exactly
    when both the least value left of z and the least value right of z lie
    more than tol below phi(z), so one pass over the side minima decides
    every triple in O(n).  The first offending z are reported, each with
    the first grid minimizers on its two sides.
    """
    if p.undefined:
        return _undefined_verdict(p, "quasiconvex_def")
    witnesses = tuple(
        _witness(p, "interior_peak", (p.side_argmin[0, z], z, p.side_argmin[1, z]),
                 "phi(z) > max(phi(x), phi(y)) + tol on an ordered triple")
        for z in np.flatnonzero((p.side_min < p.values - p.band).all(axis=0))[:_WITNESS_CAP]
    )
    if witnesses:
        return Verdict("fails", "quasiconvex_def", p.band, p.stat_tol, witnesses)
    return Verdict("holds", "quasiconvex_def", p.band, p.stat_tol)


def _window_max(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``max(v[lo[j]:hi[j]])`` for every j, or NaN where the window is empty,
    so that no comparison counts an empty window as a hit.

    Level k of a sparse table holds the maximum of every run of ``2**k``
    points; a window is the union of the two runs of the longest such length
    that start at its left end and end at its right end.  Windows are
    answered level by level, so only one level is held at a time: O(n log n)
    time and O(n) memory for n windows on n points.
    """
    out = np.full(lo.shape, np.nan)
    live = np.flatnonzero(hi > lo)
    level = np.frexp(hi[live] - lo[live])[1] - 1  # floor(log2(width))
    run = v
    for k in range(int(level.max(initial=-1)) + 1):
        if k:
            run = np.maximum(run[: -(1 << (k - 1))], run[1 << (k - 1) :])
        at = live[level == k]
        out[at] = np.maximum(run[lo[at]], run[hi[at] - (1 << k)])
    return out


def semistrictly_quasiconvex_def(p: SampledProblem) -> Verdict:
    """Definitional semistrict quasiconvexity over ordered pairs.

    For every pair with phi(y) < phi(x) - tol, every grid point z strictly
    between x and y must satisfy phi(z) < phi(x) up to the shared band.
    Some triple fails rightward from x exactly when some z > x with
    phi(z) >= phi(x) - tol has a point beyond it below that level, that is
    a right side minimum below it.  Those minima never decrease with the
    index, so those z form one run ending where a binary search puts
    phi(x) - tol among them, and a range-maximum query over the run decides
    x; leftward mirrors this with the left side minima.  Every (x, z, y) is
    still decided, in O(n log n); only the reported (x, side) entries, the
    first few in order of x with rightward before leftward, are located
    by a scan, each with its nearest z and the first such y.
    """
    if p.undefined:
        return _undefined_verdict(p, "semistrictly_quasiconvex_def")
    vals, n = p.values, p.dom.n
    c = vals - p.band
    xs = np.arange(n)
    # side_min[1, z] < c[x] iff z < right_end[x]; side_min[0, z] < c[x] iff z >= left_start[x]
    right_end = np.searchsorted(p.side_min[1], c)
    left_start = np.searchsorted(-p.side_min[0], -c, side="right")
    hits = np.stack(
        (_window_max(vals, xs + 1, right_end) >= c, _window_max(vals, left_start, xs) >= c),
        axis=1,
    )
    witnesses = []
    for k in np.flatnonzero(hits)[:_WITNESS_CAP]:
        x, leftward = divmod(int(k), 2)
        if leftward:
            z = x - 1 - int(np.argmax(vals[:x][::-1] >= c[x]))
            y = int(np.argmax(vals[:z] < c[x]))
        else:
            z = x + 1 + int(np.argmax(vals[x + 1 :] >= c[x]))
            y = z + 1 + int(np.argmax(vals[z + 1 :] < c[x]))
        witnesses.append(_witness(p, "non_descending_interior", (x, z, y), (
            "phi(y) < phi(x) - tol but an interior point does not "
            "drop strictly below phi(x)"
        )))
    if witnesses:
        return Verdict("fails", "semistrictly_quasiconvex_def", p.band, p.stat_tol,
                       tuple(witnesses))
    return Verdict("holds", "semistrictly_quasiconvex_def", p.band, p.stat_tol)

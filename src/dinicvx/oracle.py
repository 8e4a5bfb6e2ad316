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

Each quantifier is decided exactly by whole-array passes over the grid
values and the side minima (the least value strictly left and strictly
right of each point): a pair (x, y) triggers its condition for some y on
one side of x exactly when the least value on that side does, and the
triple conditions reduce in the same way.  The pair and quasiconvexity
oracles cost O(n) on an n-point grid.  The semistrict one searches, in
O(log n) each, only the points whose neighbour is in their window below
their level while a point above a value on each side lies beyond it.
Witnesses are the first violations in grid order, at most
``_WITNESS_CAP`` of each kind.

Comparisons up to each line's equality band ``tol``, by default
``1e-9 * (1 + max |phi|)``, are one rule: :class:`SampledProblem`'s
``beyond``, ``at_min`` and ``steps``.  ``1000 * phi`` and ``phi + 10`` move
no verdict of the batteries, but the band is absolute below 1 and widens
with a shift, so ``1e-6 * phi``, ``phi + 1e6`` and ``exp(phi)`` move some.
Sign decisions on Dini estimates use the unit-direction value against
``stat_tol``, through :func:`~dinicvx.dini.stationary`: the pair oracles
ask it of each (x, side) entry as a point with one direction, a failure
where it is stationary and blocked where it is unsettled.  Every
classifier, here and in :mod:`dinicvx.charact`, takes one
:class:`SampledProblem`, which holds the function, the grids of its lines
and these settings and computes the shared inputs once, and returns one
verdict per line.  A verdict is ``inconclusive`` only when a Dini estimate
the decision depends on failed to converge, or when the grid holds
undefined or non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dini import DiniSchedule, GridDiniProfile, grid_dini_profile, stationary
from .domain import LineGrids

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


def auto_tol(values: np.ndarray) -> np.ndarray:
    """The default band of each row of ``values``: ``1e-9 * (1 + max |finite
    value|)``."""
    with np.errstate(invalid="ignore"):
        scale = np.where(np.isfinite(values), np.abs(values), 0.0).max(axis=-1, initial=0.0)
    return 1e-9 * (1.0 + scale)


def grid_values(
    phi: Callable[[np.ndarray], np.ndarray], dom: LineGrids
) -> tuple[np.ndarray, tuple[tuple[Witness, ...], ...]]:
    """Evaluate phi on the grids of ``dom``; report each line's first
    undefined or non-finite points.

    The values are (m, W), +inf past each line's last point, and the
    witnesses come as one tuple per line.
    """
    vals = phi(dom.points)
    undefined = ~np.isfinite(vals) & dom.valid
    vals[~dom.valid] = np.inf  # past a line's last point: +inf, and not undefined
    return vals, tuple(
        tuple(Witness("undefined_grid_value", (float(dom.points[i, j]),), (float(vals[i, j]),),
                      "phi is undefined or non-finite at a grid point")
              for j in _first(undefined[i])) if bad else ()
        for i, bad in enumerate(undefined.any(axis=1).tolist()))


@dataclass(frozen=True, eq=False)
class SampledProblem:
    """Functions on sampled lines: what every classifier reads.

    ``dom`` holds the grids of m lines, a :class:`LineGrids`, and ``phi``
    maps an (m, k) parameter array to values line by line.  A one-variable
    problem is one line.  A classifier decides all the lines at once and
    returns a tuple of their verdicts, each what the line gives alone.  Every
    comparison up to the band reads :meth:`beyond`, ``at_min`` or ``steps``.
    The values, band, side minima and those masks are computed once, when
    first read; each entry of the kept Dini profile is estimated at most
    once, for all lines in one :func:`grid_dini_profile` call per
    :meth:`estimate`.  Every array has the line axis in front; side minima,
    profile and estimate masks are then (2, W) per line, row 0 toward lower
    t.  ``grid_values`` and ``grid_dini_profile`` are looked up when called,
    so a rebound module attribute (as a tracer installs) is used.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dom: LineGrids
    schedule: DiniSchedule = DiniSchedule()
    tol: float | None = None
    stat_tol: float = 1e-7

    @cached_property
    def _sampled(self) -> tuple[np.ndarray, tuple]:
        return grid_values(self.phi, self.dom)

    @property
    def values(self) -> np.ndarray:
        """The (m, W) grid values, +inf past each line's last point."""
        return self._sampled[0]

    @property
    def undefined(self) -> tuple[tuple[Witness, ...], ...]:
        """Witnesses at the first grid points of each line where phi is not
        finite."""
        return self._sampled[1]

    @cached_property
    def _bad(self) -> np.ndarray:
        return np.array([bool(u) for u in self.undefined])

    @cached_property
    def band(self) -> np.ndarray:
        """The band of each line: ``tol`` if given, else scaled from its
        finite grid values."""
        if self.tol is None:
            return auto_tol(self.values)
        return np.full(len(self.dom.n), float(self.tol))

    def beyond(self, b: np.ndarray, sign: float = -1.0) -> np.ndarray:
        """``b + sign * band``, b's line axis in front: less than ``beyond(b)``
        is below b beyond the band, at most ``beyond(b, 1.0)`` not above it.
        A finite b's threshold past the float limit is the nearest finite double."""
        with np.errstate(over="ignore"):
            t = b + sign * self.band.reshape((-1,) + (1,) * (np.ndim(b) - 1))
        big = np.finfo(float).max
        return np.where(np.isfinite(b), np.clip(t, -big, big), t)

    @cached_property
    def vmin(self) -> np.ndarray:
        """(m,): each line's least grid value, NaN where one is NaN."""
        return np.min(self.values, axis=1)

    @cached_property
    def at_min(self) -> np.ndarray:
        """(m, W): the values not above ``vmin`` beyond the band."""
        return self.values <= self.beyond(self.vmin, 1.0)[:, None]

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fall, flat, rise), (m, W - 1): consecutive steps below -band, within
        it and above it; +inf past a line's end, so rising.  NaN is none."""
        with np.errstate(invalid="ignore", over="ignore"):
            d = np.where(self.dom.valid[:, 1:], np.diff(self.values, axis=1), np.inf)
        band = self.band[:, None]
        return d < -band, np.abs(d) <= band, d > band

    @cached_property
    def side_min(self) -> np.ndarray:
        """``side_min[l, 0, i]`` and ``side_min[l, 1, i]`` are the least values
        of line l left and right of grid index i (inf where none)."""
        v = self.values
        out = np.full((v.shape[0], 2, v.shape[1]), np.inf)
        out[:, 0, 1:] = np.minimum.accumulate(v[:, :-1], axis=1)
        out[:, 1, :-1] = np.minimum.accumulate(v[:, :0:-1], axis=1)[:, ::-1]
        return out

    @cached_property
    def profile(self) -> GridDiniProfile:
        """The kept Dini profile: only the entries asked for are estimated."""
        return GridDiniProfile.unestimated(*self.dom.points.shape)

    def estimate(self, mask: np.ndarray | None = None,
                 until: Callable[[slice], bool] | None = None) -> GridDiniProfile:
        """The profile, with the entries in the (m, 2, W) ``mask`` (``None``:
        all) estimated, up to the block of rows after which ``until`` (as
        :func:`grid_dini_profile` calls it) returns true, and those its
        window settled past it."""
        todo = (self.dom.valid[:, None] if mask is None else mask) & ~self.profile.estimated
        if todo.any():
            grid_dini_profile(self.phi, self.dom, self.values, self.schedule, todo,
                              out=self.profile, until=until, stat_tol=self.stat_tol)
        return self.profile

    def stationary(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stationary, unsettled): (m, W) masks of :func:`~dinicvx.dini.stationary`
        over the two sides of each grid point in the mask ``rows``.  A point
        asks for the direction toward the first grid minimizer, and for the
        other once that one fails to descend; a point at the minimum level
        asks for both.  Each of the two rounds is one estimate for all lines."""
        prof, v = self.profile, self.values
        if not rows.any():
            return rows, rows
        toward = np.arange(v.shape[1]) > np.argmin(v, axis=1)[:, None]  # minus faces it
        first = np.stack((toward, ~toward), axis=1) | self.at_min[:, None]
        sides = [a.swapaxes(1, 2) for a in (prof.value, prof.converged, prof.feasible)]
        for k in range(3):
            found = [f & rows for f in stationary(*sides, self.stat_tol)]
            if k < 2:  # a side comes second once the other side of its point is estimated
                self.estimate((found[0] | found[1])[:, None] & (first | prof.estimated[:, ::-1]))
        return found[0], found[1]

    @cached_property
    def _verdicts(self) -> dict[Callable[[SampledProblem], tuple], tuple]:
        return {}

    def verdict(self, oracle: Callable[[SampledProblem], tuple]) -> tuple:
        """``oracle(self)``, run on the first request and then kept: the
        verdicts of the lines, or another result read from the problem alone
        (their decompositions, or the origin test of the lines).

        Kept per oracle function object: a caller that passes the oracle as
        its module binds it now lets a rebound (traced) oracle see that call.
        """
        if oracle not in self._verdicts:
            self._verdicts[oracle] = oracle(self)
        return self._verdicts[oracle]


def _undefined_verdict(p: SampledProblem, method: str, line: int = 0, band: bool = False,
                       keep: int | None = None) -> Verdict:
    """Inconclusive: ``line`` has undefined values, the first ``keep`` of
    them witnesses.  An unset tol reads 0, where the structural side
    (``band``) reports the band."""
    tol = float(p.band[line]) if band else 0.0 if p.tol is None else p.tol
    return Verdict("inconclusive", method, tol, p.stat_tol,
                   p.undefined[line][:keep],
                   notes="grid evaluation failed")


def _line_verdicts(p: SampledProblem, method: str, outcomes, witnesses, notes=None,
                   undefined=_undefined_verdict) -> tuple[Verdict, ...]:
    """The verdict of each line: ``outcomes[i]``, with the witnesses
    ``witnesses(i)`` unless it holds, and the notes ``notes[i]``; a line
    with undefined values gets ``undefined(p, method, i)``."""
    return tuple(
        undefined(p, method, i) if p._bad[i] else
        Verdict(o, method, float(p.band[i]), p.stat_tol,
                tuple(witnesses(i)) if o != "holds" else (),
                "" if notes is None else notes[i])
        for i, o in enumerate(outcomes)
    )


def _outcomes(fails: np.ndarray, blocked: np.ndarray | None = None) -> list[str]:
    """'fails' where ``fails``, else 'inconclusive' where ``blocked``, else
    'holds'."""
    blocked = [False] * len(fails) if blocked is None else blocked.tolist()
    return ["fails" if f else "inconclusive" if b else "holds"
            for f, b in zip(fails.tolist(), blocked)]


def _first(mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(mask)[:_WITNESS_CAP]


def _witness(p: SampledProblem, kind: str, idx: tuple[int, ...], detail: str,
             line: int = 0) -> Witness:
    """A witness at the grid indices ``idx`` of ``line``, with their points
    and values."""
    return Witness(
        kind=kind,
        points=tuple(float(p.dom.points[line, i]) for i in idx),
        values=tuple(float(p.values[line, i]) for i in idx),
        detail=detail,
    )


def _least_on_side(p: SampledProblem, line: int, side: int, x: int) -> int:
    """The first index of ``line`` holding its least value on side ``side``
    of grid index x, ``[0, x)`` or ``(x, n)``; x itself where that side is
    empty."""
    v = p.values[line, :x] if side == 0 else p.values[line, x + 1 : p.dom.n[line]]
    return int(np.argmin(v)) + (0 if side == 0 else x + 1) if v.size else int(x)


def _pair_based(p: SampledProblem, strict: bool) -> tuple[Verdict, ...]:
    # hit[line, side, x]: some y left (side 0) or right (side 1) of x triggers
    if strict:
        hit = p.side_min <= p.beyond(p.values[:, None], 1.0)
        trigger = "phi(y) <= phi(x) + tol with y != x"
    else:
        hit = p.side_min < p.beyond(p.values[:, None])
        trigger = "phi(y) < phi(x) - tol"
    hit &= p.dom.valid[:, None] & ~p._bad[:, None, None]
    # The hit entries are estimated a block of columns at a time, in grid
    # order.  Once the blocks done hold _WITNESS_CAP failures of every line,
    # each line knows the failures it reports, so the scan stops there and
    # no later entry is read.
    prof, stop, found = p.profile, None, 0

    def decided(rows: slice) -> list[np.ndarray]:
        # (failed, blocked) over the grid points ``rows``: the rule's
        # (stationary, unsettled), each entry a point with one direction
        one = (a[..., rows, None] for a in (prof.value, prof.converged, prof.feasible))
        return [hit[..., rows] & mask for mask in stationary(*one, p.stat_tol)]

    def enough(rows: slice) -> bool:
        nonlocal found, stop
        found = found + decided(rows)[0].sum(axis=(1, 2))
        if found.min() >= _WITNESS_CAP:
            stop = rows.stop
        return stop is not None

    p.estimate(hit, until=enough)
    failed, blocked = decided(slice(0, stop))
    outcomes = _outcomes(failed.any(axis=(1, 2)), blocked.any(axis=(1, 2)))

    def pairs(i: int) -> list[Witness]:
        fails = outcomes[i] == "fails"
        mask = (failed if fails else blocked)[i]
        # the first (x, side) entries in grid order, left before right
        entries = [(x, side) for x in _first(mask[0] | mask[1])
                   for side in np.flatnonzero(mask[:, x])][:_WITNESS_CAP]
        return [_witness(p, "no_descent", (x, _least_on_side(p, i, side, x)), (
            f"{trigger} but the lower Dini derivative at x toward y "
            f"is {float(prof.value[i, side, x]):.6g} >= -stat_tol"), i) if fails else
            _witness(p, "unconverged_dini", (x, _least_on_side(p, i, side, x)), (
                f"{trigger}; the Dini estimate toward y did not converge, "
                "leaving the sign undecided"), i)
            for x, side in entries]

    return _line_verdicts(p, "strictly_pseudoconvex_def" if strict else "pseudoconvex_def",
                          outcomes, pairs)


def pseudoconvex_def(p: SampledProblem) -> tuple[Verdict, ...]:
    """Definitional pseudoconvexity over all ordered grid pairs.

    For every pair with phi(y) < phi(x) - tol the lower Dini derivative at
    x toward y must fall below -stat_tol.  The estimate depends only on the
    side y lies on, so each point is tested once per side against the side
    minima: O(n).  Failures are the first (x, side) entries, left before
    right, each with the first grid minimizer on that side as y.  The scan
    stops at the Dini block (:func:`~dinicvx.dini.grid_dini_profile`) that
    holds the ``_WITNESS_CAP``-th failure of every line.
    """
    return _pair_based(p, strict=False)


def strictly_pseudoconvex_def(p: SampledProblem) -> tuple[Verdict, ...]:
    """Strict variant: phi(y) <= phi(x) + tol with y != x forces descent."""
    return _pair_based(p, strict=True)


def quasiconvex_def(p: SampledProblem) -> tuple[Verdict, ...]:
    """Definitional quasiconvexity over all ordered grid triples.

    phi(z) <= max(phi(x), phi(y)) + tol fails for some x < z < y exactly
    when both the least value left of z and the least value right of z lie
    more than tol below phi(z), so one pass over the side minima decides
    every triple in O(n).  The first offending z are reported, each with
    the first grid minimizers on its two sides.
    """
    peaks = (p.side_min < p.beyond(p.values)[:, None]).all(axis=1)
    return _line_verdicts(p, "quasiconvex_def", _outcomes(peaks.any(axis=1)), lambda i: (
        _witness(p, "interior_peak", (_least_on_side(p, i, 0, z), z, _least_on_side(p, i, 1, z)),
                 "phi(z) > max(phi(x), phi(y)) + tol on an ordered triple", i)
        for z in _first(peaks[i])))


def _window_max(run: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``max(run[lo[j]:hi[j]])`` for every j; no window is empty.

    Level k of a sparse table holds the maximum of every run of ``2**k``
    points; a window is the union of the two longest such runs that start at
    its left end and end at its right end.  Levels are built one at a time:
    O(n log n) time, O(n) memory.
    """
    out = np.empty(lo.shape)
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(width))
    for k in range(int(level.max(initial=-1)) + 1):
        if k:
            run = np.maximum(run[: -(1 << (k - 1))], run[1 << (k - 1) :])
        at = np.flatnonzero(level == k)
        out[at] = np.maximum(run[lo[at]], run[hi[at] - (1 << k)])
    return out


def semistrictly_quasiconvex_def(p: SampledProblem) -> tuple[Verdict, ...]:
    """Definitional semistrict quasiconvexity over ordered pairs.

    For every pair with phi(y) < phi(x) - tol, every grid point z strictly
    between x and y must satisfy phi(z) < phi(x) up to the shared band.
    Rightward from x this fails exactly when a z > x at or above that level
    (a hit) has a right side minimum below it; right side minima never
    decrease, so those z lie in one window right of x.  Leftward mirrors
    this.  Compares against x + 1 decide each x whose window is empty or
    holds x + 1 as a hit.  The other x, with x + 1 in the window below the
    level, are searched only while a point past x + 1 lies above a value on
    each side, as a hit there does, and at most ``_WITNESS_CAP`` points of
    the line up to x have a hit: a binary search, line by line, for the
    window's end, then one range-maximum query over all their windows.
    O(n log n).  Only the reported (x, side) entries, rightward first, are
    located by a scan, each with its nearest z and the first such y.
    """
    vals, sm = p.values, p.side_min
    m, w = vals.shape
    # a padded x, and each x of a line with undefined values, compares at
    # level -inf: no side minimum is below it, so both its windows are empty
    c = np.where(p.dom.valid & ~p._bad[:, None], p.beyond(vals), -np.inf)
    # side by side (rightward, leftward): x + 1 or x - 1 is in x's window,
    # and is a hit; x has no neighbour at a grid end
    open_, hits = np.zeros((2, 2, m, w), dtype=bool)
    open_[0, :, :-1], open_[1, :, 1:] = sm[:, 1, 1:] < c[:, :-1], sm[:, 0, :-1] < c[:, 1:]
    hits[0, :, :-1], hits[1, :, 1:] = vals[:, 1:] >= c[:, :-1], vals[:, :-1] >= c[:, 1:]
    hits &= open_
    rest = open_ ^ hits
    rest &= np.cumsum(hits.any(axis=0), axis=1) <= _WITNESS_CAP
    peak, xs = (sm < vals[:, None]).all(axis=1), np.arange(w)
    rest[0] &= xs + 2 <= np.where(peak, xs, -w).max(axis=1)[:, None]
    rest[1] &= xs - 2 >= np.where(peak, xs, 2 * w).min(axis=1)[:, None]
    # the rest by side, then by line, in flat order; at is x's flat index in vals
    flat = np.flatnonzero(rest)
    if flat.size:  # none is left on a valley line, say: no search
        cuts = np.searchsorted(flat, np.arange(0, 2 * m * w + 1, w))
        at = flat % (m * w)
        need, edge = c.reshape(-1)[at], np.empty_like(at)
        for k in np.flatnonzero(np.diff(cuts)).tolist():
            (s, i), seg = divmod(k, m), slice(cuts[k], cuts[k + 1])
            edge[seg] = i * w + (np.searchsorted(-sm[i, 0], -need[seg], side="right") if s else
                                 np.searchsorted(sm[i, 1], need[seg]))
        r = cuts[m]  # edge is the window's end rightward, its start leftward
        found = _window_max(vals.reshape(-1), np.concatenate((at[:r] + 1, edge[r:])),
                            np.concatenate((edge[:r], at[r:]))) >= need
        hits.reshape(-1)[flat[found]] = True
    hits = np.moveaxis(hits, 0, -1)  # (m, w, 2): x by x, rightward first

    def triples(i: int):
        v = vals[i]
        for k in _first(hits[i]):
            x, leftward = divmod(int(k), 2)
            if leftward:
                z = x - 1 - int(np.argmax(v[:x][::-1] >= c[i, x]))
                y = int(np.argmax(v[:z] < c[i, x]))
            else:
                z = x + 1 + int(np.argmax(v[x + 1 :] >= c[i, x]))
                y = z + 1 + int(np.argmax(v[z + 1 :] < c[i, x]))
            yield _witness(p, "non_descending_interior", (x, z, y), (
                "phi(y) < phi(x) - tol but an interior point does not "
                "drop strictly below phi(x)"
            ), i)

    return _line_verdicts(p, "semistrictly_quasiconvex_def",
                          _outcomes(hits.any(axis=(1, 2))), triples)

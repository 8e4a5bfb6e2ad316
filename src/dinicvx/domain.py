"""Intervals, sampled domains, and line restrictions.

An :class:`Interval` is a nonempty real interval with independently
open or closed finite endpoints; infinite endpoints are always open.
Interval notation round-trips through :func:`parse_interval` /
``Interval.__str__`` using the usual bracket syntax: ``[a,b]``, ``(a,b]``,
``[a,b)``, ``(a,b)``, with ``inf`` / ``-inf`` allowed on open ends.

Every sampled domain is a :class:`LineGrids`: the grids of m lines, a line
axis leading, and ``LineGrids.valid`` says which of its slots are grid
points.  A one-variable problem is one line, and :func:`make_grid` samples
its bounded interval uniformly.  Closed endpoints are included exactly; an
open endpoint is pulled inward by the margin, so every grid point is a
genuine domain point.

:func:`restrict` builds the one-dimensional restrictions of a multivariate
function to the lines through the rows of two (m, d) stacks of points, and
returns ``(feasible, phi)``: the feasible parameter interval
``{s : (1-s) x + s y in box}`` of each line, computed in closed form from
the box bounds, and ``phi(s) = f((1-s) x + s y)`` on every line at once.
The affine form makes ``phi(0) == f(x)`` and ``phi(1) == f(y)`` hold
exactly in floating point.  :func:`anchored_grid`
grids the m feasible intervals into one :class:`LineGrids`: a line axis
leads, each line keeps its own points, and a row sort places the anchors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "parse_interval",
    "LineGrids",
    "make_grid",
    "anchored_grid",
    "restrict",
]

_INF = float("inf")
MARGIN = 1e-6  # the default distance of a grid from an open end


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if np.isnan(self.lo) or np.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if np.isinf(self.lo) and self.lo_closed or np.isinf(self.hi) and self.hi_closed:
            raise ValueError("infinite endpoint must be open")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.lo) and np.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return bool(self.contains_many(x))

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """The :func:`extent` test every probe uses; NaN fails it."""
        [least], [greatest] = extent((self,))
        xs = np.asarray(xs, dtype=float)
        return (xs >= least) & (xs <= greatest)

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{_fmt_endpoint(self.lo)},{_fmt_endpoint(self.hi)}{rb}"


def _fmt_endpoint(x: float) -> str:
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


_INTERVAL_RE = re.compile(r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$")


def parse_interval(text: str) -> Interval:
    """Parse bracket notation such as ``[-1,1]`` or ``(0,inf)``."""
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed interval {text!r}")
    lb, lo_s, hi_s, rb = m.groups()
    try:
        lo = float(lo_s)
        hi = float(hi_s)
    except ValueError:
        raise ValueError(f"malformed interval endpoint in {text!r}") from None
    return Interval(lo, hi, lo_closed=(lb == "["), hi_closed=(rb == "]"))


@dataclass(frozen=True)
class LineGrids:
    """The grids of m lines in one array, a line axis leading.

    Row i of the (m, W) ``points`` holds the ``n[i]`` grid points of line i
    over ``interval[i]``, increasing, with every closed endpoint exactly
    and strictly inside every open endpoint, and then NaN up to the width
    W, the largest ``n``.  A grid of one interval, from :func:`make_grid`,
    is one line.
    """

    interval: tuple[Interval, ...]
    points: np.ndarray
    n: np.ndarray

    @cached_property
    def valid(self) -> np.ndarray:
        """The (m, W) mask of the slots of ``points`` that hold grid points."""
        return np.arange(self.points.shape[1]) < self.n[:, None]


def grid_ends(intervals: tuple[Interval, ...], n: int, margin: float) -> list:
    """The first and last grid points ``(lo, hi)`` of each interval, which
    ``n`` points then divide uniformly.

    Every interval is checked before any is gridded; the first that cannot
    be gridded raises the first of :func:`make_grid`'s errors it meets.
    """
    ends = []
    for iv in intervals:
        if not iv.bounded:
            raise ValueError(f"cannot grid unbounded interval {iv}")
        if iv.lo == iv.hi:
            raise ValueError("cannot grid a degenerate interval")
        if n < 2:
            raise ValueError(f"grid needs n >= 2, got {n}")
        if not margin > 0:
            raise ValueError(f"margin must be positive, got {margin}")
        lo = iv.lo if iv.lo_closed else iv.lo + margin
        hi = iv.hi if iv.hi_closed else iv.hi - margin
        if not float(hi) - float(lo) < _INF:
            raise ValueError(f"cannot grid interval {iv} of infinite width")
        if lo >= hi:
            raise ValueError(f"interval {iv} too narrow for margin {margin}")
        # lo < hi, both between the ends: outside only on an open end
        if not ((iv.lo_closed or lo > iv.lo) and (iv.hi_closed or hi < iv.hi)):
            raise ValueError(f"margin {margin} rounds onto an open end of {iv}")
        ends.append((lo, hi))
    return ends


def _grids(intervals: tuple[Interval, ...], n: int, margin: float) -> np.ndarray:
    """The (m, n) grids of m intervals, row i as ``np.linspace`` of its ends."""
    a, b = np.array(grid_ends(intervals, n, margin), dtype=float).T
    pts = np.linspace(a, b, n).T
    # np.linspace takes its denormal route for every row once one row's step
    # is 0, which is that row's own route alone: the others are gridded again
    zero = (b - a) / (n - 1) == 0
    if zero.any():
        pts[~zero] = np.linspace(a[~zero], b[~zero], n).T
    return pts


def make_grid(interval: Interval, n: int, margin: float = MARGIN) -> LineGrids:
    """Sample ``interval`` at ``n`` uniform points, honoring open endpoints:
    a :class:`LineGrids` of one line.

    Requires a bounded, non-degenerate interval of finite width, ``n >= 2``,
    ``margin > 0``, and enough room for the margins on open ends: each must
    move its end by at least one ulp, or the grid would start on the end.
    """
    [(lo, hi)] = grid_ends((interval,), n, margin)
    return LineGrids((interval,), np.linspace(lo, hi, n)[None], np.full(1, n))


def extent(intervals: tuple[Interval, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest double in each interval: ``x`` is in
    interval i exactly when ``least[i] <= x <= greatest[i]``."""
    return (np.array([iv.lo if iv.lo_closed else np.nextafter(iv.lo, _INF) for iv in intervals]),
            np.array([iv.hi if iv.hi_closed else np.nextafter(iv.hi, -_INF) for iv in intervals]))


def anchored_grid(intervals: tuple[Interval, ...], n: int, margin: float = MARGIN) -> LineGrids:
    """Uniform grids of ``intervals``, each guaranteed to contain the anchors
    0 and 1 exactly, where in range: the parameters of a line restriction's
    ``x`` and ``y``.

    An anchor closer to an existing grid point than ``spacing * 1e-6``
    replaces that point instead of being inserted next to it, so grids stay
    free of near-duplicate points (which would defeat strict-monotonicity
    checks on consecutive deltas).  So a grid has ``n``, ``n + 1`` or
    ``n + 2`` points, each row as this function makes it for its interval
    alone.
    """
    pts = _grids(intervals, n, margin)
    rows = np.arange(pts.shape[0])
    snap = (pts[:, 1] - pts[:, 0]) * 1e-6
    anchors = np.full((pts.shape[0], 2), np.nan)  # those inserted, NaN where none
    for j, a in enumerate((0.0, 1.0)):
        k = np.argmin(np.abs(pts - a), axis=1)
        inside = (pts[:, 0] <= a) & (a <= pts[:, -1])
        onto = inside & (np.abs(pts[rows, k] - a) <= snap)
        pts[rows[onto], k[onto]] = a
        anchors[inside & ~onto, j] = a
    counts = n + np.count_nonzero(~np.isnan(anchors), axis=1)
    # NaN sorts last: each row's points, then its padding
    out = np.sort(np.concatenate((pts, anchors), axis=1), axis=1)[:, :counts.max()].copy()
    return LineGrids(tuple(intervals), out, counts)


def restrict(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    box: tuple[Interval, ...],
) -> tuple[tuple[Interval, ...], Callable[[np.ndarray], np.ndarray]]:
    """Restrict a multivariate ``f`` to the m lines through the rows of the
    (m, d) stacks x and y: ``(feasible, phi)``.

    ``phi(s) = f((1-s) x + s y)`` on the feasible set, which always contains
    0 and 1, a point rounded past a face of the box taken back onto it.
    ``phi`` maps an (m, k) float64 array of parameters, row i along line i,
    to the function values with NaN for undefined; a NaN parameter stands
    for no point and reads NaN.  ``feasible`` holds one interval per line.

    ``f`` maps an (m, n) array of points to an (m,) array of values.  The
    feasible parameter set is computed per coordinate from the box bounds
    and intersected; openness of binding box faces carries over.  Requires
    ``x != y`` and both endpoints inside the box, row by row.  The m lines
    are restricted at once: every feasible interval comes from one pass of
    array operations, each line's as it would alone.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 2:
        raise ValueError("x and y must be (m, d) stacks of points of one shape")
    if len(box) != xs.shape[1]:
        raise ValueError("box arity does not match the points")
    if (xs == ys).all(axis=1).any():
        raise ValueError("x and y must differ")
    least, greatest = extent(box)
    inside = (xs >= least) & (xs <= greatest) & (ys >= least) & (ys <= greatest)
    if not inside.all():
        i = int(np.argmax(~inside.all(axis=1)))
        raise ValueError(f"endpoint outside the box in coordinate {int(np.argmin(inside[i])) + 1}")

    lo, hi = np.array([iv.lo for iv in box]), np.array([iv.hi for iv in box])
    lo_c, hi_c = np.array([iv.lo_closed for iv in box]), np.array([iv.hi_closed for iv in box])
    d = ys - xs
    # a tiny |d| overflows a bound to inf: every representable parameter is
    # then feasible on that side, hence an open endpoint; a coordinate that
    # is constant on the line (d == 0) bounds nothing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = (lo - xs) / d
        b = (hi - xs) / d
    up, still = d > 0, d == 0
    lo_s = np.where(still, -_INF, np.where(up, a, b))
    hi_s = np.where(still, _INF, np.where(up, b, a))
    lo_sc = np.where(up, lo_c, hi_c) & np.isfinite(lo_s)
    hi_sc = np.where(up, hi_c, lo_c) & np.isfinite(hi_s)
    # the intersection: the tightest bound, closed where every coordinate
    # that attains it is closed
    s_lo, s_hi = lo_s.max(axis=1), hi_s.min(axis=1)
    lo_closed = np.where(lo_s == s_lo[:, None], lo_sc, True).all(axis=1)
    hi_closed = np.where(hi_s == s_hi[:, None], hi_sc, True).all(axis=1)
    feasible = tuple(Interval(s_lo[i], s_hi[i], bool(lo_closed[i]), bool(hi_closed[i]))
                     for i in range(xs.shape[0]))
    least, greatest = least[:, None, None], greatest[:, None, None]

    def phi(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        grid = s.reshape(xs.shape[0], -1)
        # coordinate-major, so that each column f reads is contiguous
        cols = (1.0 - grid) * xs.T[:, :, None] + grid * ys.T[:, :, None]
        # at a feasible end the sum can round one ulp past a face
        np.clip(cols, least, greatest, out=cols)
        out = f(cols.reshape(xs.shape[1], -1).T).reshape(grid.shape)
        return np.where(np.isnan(grid), np.nan, out).reshape(s.shape)

    return feasible, phi

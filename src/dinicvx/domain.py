"""Intervals, sampled domains, and line restrictions.

An :class:`Interval` is a nonempty real interval with independently
open or closed finite endpoints; infinite endpoints are always open.
Interval notation round-trips through :func:`parse_interval` /
``Interval.__str__`` using the usual bracket syntax: ``[a,b]``, ``(a,b]``,
``[a,b)``, ``(a,b)``, with ``inf`` / ``-inf`` allowed on open ends.

:func:`make_grid` samples a bounded interval uniformly.  Closed endpoints
are included exactly; an open endpoint is pulled inward by the margin, so
every grid point is a genuine domain point.

:func:`restrict` builds the one-dimensional restriction of a multivariate
function to the line through two points: ``phi(s) = f((1-s) x + s y)``
together with the feasible parameter interval ``{s : (1-s) x + s y in box}``
computed in closed form from the box bounds.  The affine form makes
``phi(0) == f(x)`` and ``phi(1) == f(y)`` hold exactly in floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "parse_interval",
    "SampledDomain",
    "make_grid",
    "anchored_grid",
    "LineRestriction",
    "restrict",
]

_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if np.isnan(self.lo) or np.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if np.isinf(self.lo) and self.lo_closed:
            raise ValueError("infinite endpoint must be open")
        if np.isinf(self.hi) and self.hi_closed:
            raise ValueError("infinite endpoint must be open")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.lo) and np.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        if np.isnan(x):
            return False
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return bool(lo_ok and hi_ok)

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        lo_ok = xs >= self.lo if self.lo_closed else xs > self.lo
        hi_ok = xs <= self.hi if self.hi_closed else xs < self.hi
        return lo_ok & hi_ok & ~np.isnan(xs)

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

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
class SampledDomain:
    """A bounded interval with a uniform evaluation grid over it.

    From :func:`make_grid` and :func:`anchored_grid`, ``points`` is
    increasing, includes every closed endpoint exactly, and stays strictly
    inside every open endpoint.
    """

    interval: Interval
    points: np.ndarray

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])


def make_grid(interval: Interval, n: int, margin: float = 1e-6) -> SampledDomain:
    """Sample ``interval`` at ``n`` uniform points, honoring open endpoints.

    Requires a bounded, non-degenerate interval of finite width, ``n >= 2``,
    ``margin > 0``, and enough room for the margins on open ends: each must
    move its end by at least one ulp, or the grid would start on the end.
    """
    if not interval.bounded:
        raise ValueError(f"cannot grid unbounded interval {interval}")
    if interval.lo == interval.hi:
        raise ValueError("cannot grid a degenerate interval")
    if n < 2:
        raise ValueError(f"grid needs n >= 2, got {n}")
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    lo = interval.lo if interval.lo_closed else interval.lo + margin
    hi = interval.hi if interval.hi_closed else interval.hi - margin
    if not float(hi) - float(lo) < _INF:
        raise ValueError(f"cannot grid interval {interval} of infinite width")
    if lo >= hi:
        raise ValueError(
            f"interval {interval} too narrow for margin {margin}"
        )
    if not (interval.contains(lo) and interval.contains(hi)):
        raise ValueError(f"margin {margin} rounds onto an open end of {interval}")
    pts = np.linspace(lo, hi, n)
    return SampledDomain(interval=interval, points=pts)


def anchored_grid(interval: Interval, n: int, margin: float = 1e-6) -> SampledDomain:
    """A uniform grid guaranteed to contain the anchors 0 and 1 exactly, where
    in range: the parameters of a line restriction's ``x`` and ``y``.

    An anchor closer to an existing grid point than ``spacing * 1e-6``
    replaces that point instead of being inserted next to it, so grids stay
    free of near-duplicate points (which would defeat strict-monotonicity
    checks on consecutive deltas).
    """
    base = make_grid(interval, n, margin)
    pts = base.points.copy()
    snap = base.spacing * 1e-6
    inserts = []
    for a in (0.0, 1.0):
        if not (pts[0] <= a <= pts[-1]):
            continue
        k = int(np.argmin(np.abs(pts - a)))
        if abs(pts[k] - a) <= snap:
            pts[k] = a
        else:
            inserts.append(a)
    if inserts:
        pts = np.unique(np.concatenate([pts, np.asarray(inserts)]))
    return SampledDomain(interval=interval, points=pts)


@dataclass(frozen=True)
class LineRestriction:
    """Restriction of ``f`` to the line through ``x`` and ``y``.

    ``phi(s) = f((1-s) x + s y)`` on the feasible set, which always contains
    0 and 1.  ``phi`` accepts a float64 array of parameters and returns the
    function values with NaN for undefined.
    """

    x: np.ndarray
    y: np.ndarray
    feasible: Interval
    phi: Callable[[np.ndarray], np.ndarray]


def restrict(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    box: tuple[Interval, ...],
) -> LineRestriction:
    """Restrict a multivariate ``f`` to the segment line through x and y.

    ``f`` maps an (m, n) array of points to an (m,) array of values.  The
    feasible parameter set is computed per coordinate from the box bounds
    and intersected; openness of binding box faces carries over.  Requires
    ``x != y`` and both endpoints inside the box.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D points")
    if len(box) != x.shape[0]:
        raise ValueError("box arity does not match the points")
    if np.array_equal(x, y):
        raise ValueError("x and y must differ")
    for i, iv in enumerate(box):
        if not iv.contains(x[i]) or not iv.contains(y[i]):
            raise ValueError(f"endpoint outside the box in coordinate {i + 1}")

    feas = Interval(-_INF, _INF, False, False)
    d = y - x
    for i, iv in enumerate(box):
        if d[i] == 0.0:
            continue  # coordinate constant on the line; x[i] known inside
        # a tiny |d[i]| overflows the bound to inf: every representable
        # parameter is then feasible on that side, hence an open endpoint
        with np.errstate(over="ignore"):
            a = (iv.lo - x[i]) / d[i]
            b = (iv.hi - x[i]) / d[i]
        if d[i] > 0:
            lo_s, hi_s, lo_c, hi_c = a, b, iv.lo_closed, iv.hi_closed
        else:
            lo_s, hi_s, lo_c, hi_c = b, a, iv.hi_closed, iv.lo_closed
        coord = Interval(lo_s, hi_s,
                         lo_c and bool(np.isfinite(lo_s)),
                         hi_c and bool(np.isfinite(hi_s)))
        feas = feas.intersect(coord)

    def phi(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float).reshape(-1)
        pts = (1.0 - s)[:, None] * x[None, :] + s[:, None] * y[None, :]
        return f(pts)

    return LineRestriction(x=x, y=y, feasible=feas, phi=phi)

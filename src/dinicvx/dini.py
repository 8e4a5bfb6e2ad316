"""Lower Dini directional derivative estimation on a geometric step schedule.

The lower Dini derivative of phi at t in direction u is the liminf of the
difference quotients [phi(t + s u) - phi(t)] / s as s -> 0+.  It is
estimated by the minimum quotient over the trailing half of a geometric
step schedule, probing along the unit direction and rescaling by |u|
afterwards so that decisions are invariant to the magnitude of u.

One kernel, :func:`_dini_rows`, applies that rule to a (steps x rows)
block of probe values, one column per estimate, masking the probes outside
the domain and the undefined ones; its running counts and minima take one
whole-row operation per step.  :func:`_probe_rows` feeds it, evaluating
only the probes the rule can read.  :func:`lower_dini_along` estimates one
point along a block of directions, one kernel row each, from the arrays
of :func:`_dini_along`, which a caller can read directly.  :func:`lower_dini`
(one direction) and :func:`is_stationary` (both) call it on the line, and
:func:`grid_dini_profile` passes the grid in blocks of ``_BLOCK_ROWS``
points, or only the entries in its optional mask, and can stop after any
block.  Its profile puts the two sides on one axis: each array is (2, n),
``[0]`` toward lower t and ``[1]`` toward higher t, so a reader takes both
sides of a point with one whole-array operation.  A row's bits do not
depend on the rows beside it, so a caller can estimate just the entries
it reads: toward a lower value for a definitional oracle, up to the block
that holds the last failure it reports, and for a stationarity check one
descending direction or both.

A block is dense when it has at least 2 steps, every probe in it is in the
domain and defined, and each row skipped exactly ``n_in // 2`` in-domain
probes, so that every row's window is the whole block.  Such a block takes
:func:`_dense_rows`, which runs the same float operations without building
any mask.  Every other block keeps the masked path: near an end of the
domain the windows differ from row to row, and undefined probes can empty a
window and force the fallback.  Interior points are dense: the interior
blocks of a fine grid (all but 3 of 34 at 16385 points), and
:func:`lower_dini_along` from a point farther than the largest step from
the box's faces.  A whole profile of a 257-point grid is one block per
direction, which holds an end of the domain, so it stays masked; but the
masked calls that estimate only the rows a verdict reads are dense when
those rows keep away from the ends.  Over one pass of the benchmark's
``battery`` workload (seed 1), 1022 of the 1053 kernel calls are dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .domain import Interval, SampledDomain

__all__ = [
    "DiniSchedule",
    "DiniEstimate",
    "DiniDomainError",
    "lower_dini",
    "lower_dini_along",
    "is_stationary",
    "StationarityCheck",
    "GridDiniProfile",
    "grid_dini_profile",
]

_INF = float("inf")

# Factor separating a genuine jump (function difference bounded away from
# zero while the step vanishes) from a steep smooth slope; see _dini_rows.
_JUMP_FACTOR = 10.0

# Grid points per block in grid_dini_profile.  Each block's probe positions
# hold _BLOCK_ROWS * steps floats (320 KB at 40 steps), and the kernel's
# (steps x rows) temporaries half that: the 20 trailing steps of 1024 rows
# are 160 KB, so they stay in a 2 MB L2 cache.  One block for the whole grid
# would take 3 GB per direction at 10^7 points.
_BLOCK_ROWS = 1024


class DiniDomainError(ValueError):
    pass


@dataclass(frozen=True)
class DiniSchedule:
    """Geometric probe steps t0 * ratio^k for k = 0 .. steps-1."""

    t0: float = 1e-2
    ratio: float = 0.6
    steps: int = 40
    dini_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not (0 < self.t0 < _INF):
            raise ValueError(f"t0 must be positive and finite, got {self.t0}")
        if not (0 < self.ratio < 1):
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        smallest = self.t0 * self.ratio ** (self.steps - 1)
        if smallest < 1e-12:
            raise ValueError(
                f"smallest step {smallest:.3e} below 1e-12; shorten the schedule"
            )
        if not (0 < self.dini_tol < _INF):
            raise ValueError(f"dini_tol must be positive and finite, got {self.dini_tol}")

    def step_sizes(self) -> np.ndarray:
        """The steps, computed once per schedule and read-only."""
        return self._steps

    @cached_property
    def _steps(self) -> np.ndarray:
        s = self.t0 * self.ratio ** np.arange(self.steps)
        s.flags.writeable = False
        return s


@dataclass(frozen=True)
class DiniEstimate:
    """Estimate of the lower Dini derivative at one point and direction.

    ``value`` is scaled by |u|; ``unit_value`` is the unit-direction figure
    used for all sign decisions.  ``tail_min_trace`` is the running minimum
    of the trailing-window quotients (non-increasing by construction);
    ``converged`` says the final step no longer moved the minimum, or that
    the quotients were recognized as diverging to the reported infinity.
    """

    value: float
    unit_value: float
    tail_min_trace: tuple[float, ...]
    converged: bool
    n_probes: int
    all_undefined: bool = False


@dataclass(frozen=True)
class StationarityCheck:
    stationary: bool
    estimates: dict[str, DiniEstimate] = field(default_factory=dict)
    decisive: bool = True


def _accumulate(op, a: np.ndarray) -> np.ndarray:
    """``op.accumulate(a, axis=0)`` in place, one whole-row call per step."""
    for k in range(1, a.shape[0]):
        op(a[k - 1], a[k], out=a[k])
    return a


def _dini_rows(
    vals: np.ndarray,
    in_domain: np.ndarray,
    base: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
    skipped: np.ndarray | int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply the estimate rule to every row of a (steps x rows) probe block.

    Row r, column r of the block, probes ``base[r]`` at the decreasing steps
    ``s``; ``vals[:, r]`` holds the probe values (NaN where undefined) and
    ``in_domain[:, r]`` marks the probes inside the feasible set.  The
    quotients used are those of the defined probes in the trailing half of
    the in-domain steps or, when that window holds none, in the trailing
    half of the defined in-domain probes.  Their running minimum is the
    trace and its last entry the estimate, converged when the last used
    step moved it by at most ``dini_tol``.

    The block may be the trailing steps of longer rows: ``skipped[r]``
    counts row r's in-domain probes in the steps left out.  A row with
    skipped probes that its window reaches, or that it would fall back on,
    is left using no probe, for the caller to estimate from the whole row.

    Returns (value, converged, trace, used, n_in): ``trace[:, r][used[:, r]]``
    is row r's trace and ``n_in[r]`` its count of in-domain probes, skipped
    ones included.  A row that uses no probe has value +inf, is converged
    and has an empty trace.  ``trace`` and ``used`` start at the first step
    any row uses.

    A dense block, of at least 2 steps, all in the domain and defined, with
    ``skipped == n_in // 2`` on every row, has the whole block as every
    window and goes to :func:`_dense_rows`.  Other blocks need the masks:
    their windows can start at different steps, and an undefined probe can
    empty a window.  Interior blocks of fine grids, rows of any grid that
    keep away from its ends, and interior points of
    :func:`lower_dini_along` are dense.
    """
    n_in = in_domain.sum(axis=0) + skipped
    if (s.shape[0] >= 2 and in_domain.all() and (skipped == n_in // 2).all()
            and not np.isnan(vals).any()):
        return _dense_rows(vals, base, s, dini_tol, n_in)
    defined = in_domain & ~np.isnan(vals)
    used = defined & (_accumulate(np.add, in_domain.astype(np.intp)) > n_in // 2 - skipped)
    used[:, skipped > n_in // 2] = False
    empty = ~used.any(axis=0) & (skipped == 0)
    if empty.any():
        d = defined[:, empty]
        used[:, empty] = d & (_accumulate(np.add, d.astype(np.intp)) > d.sum(axis=0) // 2)
    c0 = int(np.argmax(used.any(axis=1)))
    used, s = used[c0:], s[c0:]
    last = s.shape[0] - 1 - np.argmax(used[::-1], axis=0)
    s_min = s[last]
    two = used.sum(axis=0) >= 2
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = vals[c0:] - base
        quots = diffs / s[:, None]
        trace = _accumulate(np.minimum, np.where(used, quots, _INF))
        value = trace[-1].copy()
        # a single quotient settles only when it is already infinite
        prev = trace[last - 1, np.arange(last.shape[0])]
        converged = np.where(two, np.abs(value - prev) <= dini_tol, np.isinf(value))
        # Divergence screen: if the raw differences stay bounded away from
        # zero while the steps vanish, the quotients blow up and the liminf
        # is +-inf.  The threshold compares against what a slope of size
        # |value| could produce at the smallest step, so steep smooth
        # functions never trigger.
        d_min = np.where(used, diffs, _INF).min(axis=0)
        up = two & (value > 0) & (d_min >= _JUMP_FACTOR * value * s_min)
        q_max = np.where(used, quots, -_INF).max(axis=0)
        d_max = np.where(used, diffs, -_INF).max(axis=0)
        down = two & (q_max < 0) & (d_max <= _JUMP_FACTOR * q_max * s_min)
    value[up] = _INF
    value[down] = -_INF
    return value, converged | up | down, trace, used, n_in


def _dense_rows(
    vals: np.ndarray,
    base: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
    n_in: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_dini_rows` on a dense block, where every row uses every step.

    Each mask of the general rule is then all true: ``used`` everywhere,
    ``two`` on every row, and ``last`` the final step.  So the same float
    operations run on the unmasked arrays, and every result is bit for bit
    what the masked path gives.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = vals - base
        quots = diffs / s[:, None]
        q_max = quots.max(axis=0)
        trace = _accumulate(np.minimum, quots)
        value = trace[-1].copy()
        converged = np.abs(value - trace[-2]) <= dini_tol
        up = (value > 0) & (diffs.min(axis=0) >= _JUMP_FACTOR * value * s[-1])
        down = (q_max < 0) & (diffs.max(axis=0) <= _JUMP_FACTOR * q_max * s[-1])
    value[up] = _INF
    value[down] = -_INF
    return value, converged | up | down, trace, np.ones(vals.shape, dtype=bool), n_in


def _probe_rows(
    f: Callable[[np.ndarray], np.ndarray],
    probes: np.ndarray,
    in_domain: np.ndarray,
    base: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_dini_rows` on whole rows, with ``f`` evaluated only where it reads.

    ``probes[k, r]`` is row r's probe at step ``s[k]``, a number or a point
    along the trailing axis, ``in_domain`` marks those in the feasible set
    and ``f`` maps a stack of probes to their values.  From a point of an
    interval or a box ``t + s`` rounds monotonically in ``s``, so a row's
    in-domain probes are a suffix of the schedule and its window lies in
    the steps from ``steps // 2`` on.  Only those are evaluated, and the
    leading ones of the rows the kernel leaves to their whole row: those
    that fall back, and any whose in-domain probes are no suffix (a grid
    point rounded onto an open end) and whose window reaches them.
    """
    cut = s.shape[0] // 2

    def values(steps, rows) -> np.ndarray:
        pts = probes[steps, rows]
        return f(pts.reshape((-1,) + probes.shape[2:])).reshape(pts.shape[:2])

    skipped = in_domain[:cut].sum(axis=0)
    tail = values(slice(cut, None), slice(None))
    value, converged, trace, used, n_in = _dini_rows(
        tail, in_domain[cut:], base, s[cut:], dini_tol, skipped
    )
    redo = np.flatnonzero(~used.any(axis=0) & (skipped > 0))
    if not redo.size:
        return value, converged, trace, used, n_in
    # The other rows never read their leading probes, so NaN stands in.
    vals = np.full(in_domain.shape, np.nan)
    vals[cut:] = tail
    vals[:cut, redo] = values(slice(None, cut), redo)
    return _dini_rows(vals, in_domain, base, s, dini_tol)


def lower_dini(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    u: float,
    feasible: Interval,
    schedule: DiniSchedule | None = None,
) -> DiniEstimate:
    """Estimate the lower Dini derivative of ``phi`` at ``t`` toward ``u``.

    ``phi`` maps a float64 array to values with NaN for undefined.  The
    probes go along sign(u) and the returned ``value`` is rescaled by |u|
    (positive homogeneity); ``unit_value`` keeps the unit-direction
    figure.  Probe steps that leave ``feasible`` are skipped; if none
    remain, :class:`DiniDomainError` is raised.  Undefined probe values are
    skipped as well, and the estimate is +inf only when every feasible
    probe is undefined.
    """
    if u == 0 or not np.isfinite(u):
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    est = lower_dini_along(lambda pts: phi(pts.reshape(-1)), [t], [[np.sign(u)]],
                           (feasible,), schedule)[0]
    if est.n_probes == 0:
        raise DiniDomainError("direction leaves domain")
    return replace(est, value=abs(float(u)) * est.unit_value)


def lower_dini_along(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    dirs: np.ndarray,
    box: tuple[Interval, ...],
    schedule: DiniSchedule | None = None,
) -> list[DiniEstimate]:
    """Lower Dini derivatives of a multivariate ``f`` at ``x`` along each
    row of the (k, n) block ``dirs``.

    ``f`` maps an (m, n) array of points to (m,) values; it is called once
    for the base point and once for the probes that :func:`_probe_rows`
    evaluates (twice if some direction falls back).  Each
    direction is normalized to unit Euclidean length for probing, and its
    ``value`` is rescaled by that length.  Probes outside the box are
    skipped; a direction with none inside comes back with ``n_probes == 0``
    and an empty trace.  Raises ValueError for a zero or non-finite
    direction, and for a base point outside the box or where ``f`` is
    undefined.
    """
    norms, value, converged, trace, used, n_in = _dini_along(f, x, dirs, box, schedule)
    return [
        DiniEstimate(float(norm * v), float(v), tuple(tr[row]), bool(c), int(k),
                     not row.any())
        for norm, v, c, tr, row, k in zip(norms, value, converged, trace.T, used.T, n_in)
    ]


def _dini_along(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, dirs: np.ndarray,
    box: tuple[Interval, ...], schedule: DiniSchedule | None = None,
) -> tuple[np.ndarray, ...]:
    """:func:`lower_dini_along` as the arrays (norms, value, converged, trace,
    used, n_in): the direction lengths, then the unit-direction estimates as
    :func:`_dini_rows` gives them, so a caller builds no estimate objects."""
    if schedule is None:
        schedule = DiniSchedule()
    x = np.asarray(x, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    # a row's dot product with itself rounds as np.linalg.norm of that one
    # row does; np.linalg.norm(dirs, axis=1) sums differently
    norms = np.sqrt((dirs[:, None, :] @ dirs[:, :, None]).reshape(-1))
    if not (np.isfinite(norms) & (norms > 0)).all():
        raise ValueError("direction must be finite and nonzero")
    if not all(iv.contains(v) for iv, v in zip(box, x)):
        raise ValueError(f"base point {x.tolist()} outside {'x'.join(map(str, box))}")
    base = float(f(x[None, :])[0])
    if np.isnan(base):
        raise ValueError(f"function undefined at the base point {x.tolist()}")
    s = schedule.step_sizes()
    probes = x + s[:, None, None] * (dirs / norms[:, None])
    in_domain = np.ones(probes.shape[:2], dtype=bool)
    for i, iv in enumerate(box):
        in_domain &= iv.contains_many(probes[..., i])
    return (norms,) + _probe_rows(
        f, probes, in_domain, np.full(in_domain.shape[1], base), s, schedule.dini_tol
    )


def is_stationary(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    feasible: Interval,
    schedule: DiniSchedule | None = None,
    stat_tol: float = 1e-7,
) -> StationarityCheck:
    """Check whether no feasible direction descends faster than -stat_tol.

    A direction is feasible when at least one probe step stays inside
    ``feasible``.  Descent along an unfinished trace is still decisive
    (the running minimum can only fall further), but a "no descent"
    conclusion from an unconverged estimate is flagged indecisive.
    """
    found = lower_dini_along(lambda pts: phi(pts.reshape(-1)), [t], [[1.0], [-1.0]],
                             (feasible,), schedule)
    estimates = {label: est for label, est in zip(("+1", "-1"), found) if est.n_probes}
    stationary = not any(est.unit_value < -stat_tol for est in estimates.values())
    decisive = not stationary or all(est.converged for est in estimates.values())
    return StationarityCheck(stationary=stationary, estimates=estimates, decisive=decisive)


@dataclass(frozen=True)
class GridDiniProfile:
    """Unit-direction Dini estimates at the grid points, both directions.

    Each field is a (2, n) array with one column per point of ``dom.points``
    and one row per side: row 0 toward lower t (minus), row 1 toward higher
    t (plus).  ``feasible`` marks entries with at least one in-domain probe;
    infeasible entries carry NaN values and are never consulted by the
    classifiers, nor are the entries outside ``estimated``, which read as
    infeasible.
    """

    value: np.ndarray
    converged: np.ndarray
    feasible: np.ndarray
    estimated: np.ndarray

    # Row views kept for perfbench's tracer, which reads them by name until
    # ROADMAP item 6.
    minus_feasible = property(lambda self: self.feasible[0])
    plus_feasible = property(lambda self: self.feasible[1])
    minus_converged = property(lambda self: self.converged[0])
    plus_converged = property(lambda self: self.converged[1])

    @classmethod
    def unestimated(cls, n: int) -> GridDiniProfile:
        """A profile of ``n`` points with no entry estimated."""
        return cls(np.full((2, n), np.nan), *(np.zeros((2, n), dtype=bool) for _ in range(3)))

    def descent(self, stat_tol: float, rows: slice = slice(None)) -> np.ndarray:
        """(2, k) mask over the k grid points ``rows``: the direction
        descends beyond stat_tol."""
        with np.errstate(invalid="ignore"):
            return self.feasible[:, rows] & (self.value[:, rows] < -stat_tol)

    def unconverged(self, rows: slice = slice(None)) -> np.ndarray:
        """(2, k) mask over the k grid points ``rows``: the direction is
        feasible, its estimate unconverged."""
        return self.feasible[:, rows] & ~self.converged[:, rows]


def grid_dini_profile(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    values: np.ndarray,
    schedule: DiniSchedule | None = None,
    mask: np.ndarray | None = None,
    out: GridDiniProfile | None = None,
    until: Callable[[slice], bool] | None = None,
) -> GridDiniProfile:
    """Batch unit-direction estimates at the grid points of ``dom``.

    ``values`` holds ``phi`` at ``dom.points``; ``phi`` is called only at
    probes.  Only the entries in the (2, n) boolean ``mask``, laid out as
    :class:`GridDiniProfile` is (all when ``None``), are probed; the others
    come back infeasible and not estimated, or as they were in ``out``, a
    profile of the same grid to write the estimates into.  Numerically
    identical to calling :func:`lower_dini` per point with u = +-1.  The
    grid is probed in blocks of ``_BLOCK_ROWS`` points, in grid order,
    through :func:`_probe_rows` per block and side, so memory stays bounded
    however fine the grid.  Once both sides of a block before the last are
    written, ``until``, if given, is called with the block's slice of
    points, and a true result ends the scan: the points past that block are
    left as they were.
    """
    if schedule is None:
        schedule = DiniSchedule()
    pts = dom.points
    n = pts.shape[0]
    s = schedule.step_sizes()
    if out is None:
        out = GridDiniProfile.unestimated(n)

    for a in range(0, n, _BLOCK_ROWS):
        block = slice(a, a + _BLOCK_ROWS)
        for side, sign in enumerate((-1.0, 1.0)):
            rows = block
            if mask is not None:
                rows = a + np.flatnonzero(mask[side, block])
                if not rows.size:
                    continue
            probes = pts[None, rows] + sign * s[:, None]
            base = values[rows]
            v, c, _, _, n_in = _probe_rows(
                phi, probes, dom.interval.contains_many(probes), base, s,
                schedule.dini_tol,
            )
            f = (n_in > 0) & ~np.isnan(base)
            out.value[side, rows] = np.where(f, v, np.nan)
            out.converged[side, rows] = c & f
            out.feasible[side, rows] = f
            out.estimated[side, rows] = True
        if until is not None and block.stop < n and until(block):
            break
    return out

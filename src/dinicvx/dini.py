"""Lower Dini directional derivative estimation on a geometric step schedule.

The lower Dini derivative of phi at t in direction u is the liminf of the
difference quotients [phi(t + s u) - phi(t)] / s as s -> 0+.  It is
estimated by the minimum quotient over the trailing half of a geometric
step schedule, probing along the unit direction and rescaling by |u|
afterwards so that decisions are invariant to the magnitude of u.

One kernel, :func:`_dini_rows`, applies that rule to a (rows x steps) block
of probe values, masking the probes outside the domain and the undefined
ones.  Every public estimator is a thin caller: :func:`lower_dini` and
:func:`lower_dini_along` pass one row, :func:`is_stationary` two, and
:func:`grid_dini_profile` the grid in blocks of ``_BLOCK_ROWS`` points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# Grid points per block in grid_dini_profile.  Each block's probe arrays hold
# _BLOCK_ROWS * steps floats (1.3 MB apiece at 40 steps), where one block for
# the whole grid would take 3 GB per direction at 10^7 points.
_BLOCK_ROWS = 4096


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
        if not (self.t0 > 0):
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if not (0 < self.ratio < 1):
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        smallest = self.t0 * self.ratio ** (self.steps - 1)
        if smallest < 1e-12:
            raise ValueError(
                f"smallest step {smallest:.3e} below 1e-12; shorten the schedule"
            )
        if not (self.dini_tol > 0):
            raise ValueError(f"dini_tol must be positive, got {self.dini_tol}")

    def step_sizes(self) -> np.ndarray:
        return self.t0 * self.ratio ** np.arange(self.steps)


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


def _dini_rows(
    vals: np.ndarray,
    in_domain: np.ndarray,
    base: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply the estimate rule to every row of a (rows x steps) probe block.

    Row r probes ``base[r]`` at the decreasing steps ``s``; ``vals[r]`` holds
    the probe values (NaN where undefined) and ``in_domain[r]`` marks the
    probes inside the feasible set.  The quotients used are those of the
    defined probes in the trailing half of the in-domain steps or, when that
    window holds none, in the trailing half of the defined in-domain probes.
    Their running minimum is the trace and its last entry the estimate,
    converged when the last used step moved it by at most ``dini_tol``.

    Returns (value, converged, trace, used, n_in): ``trace[r][used[r]]`` is
    row r's trace and ``n_in[r]`` its count of in-domain probes.  A row that
    uses no probe has value +inf, is converged and has an empty trace.
    ``trace`` and ``used`` start at the first column any row uses.
    """
    n_in = in_domain.sum(axis=1)
    defined = in_domain & ~np.isnan(vals)
    used = defined & (np.cumsum(in_domain, axis=1) > n_in[:, None] // 2)
    empty = ~used.any(axis=1)
    if empty.any():
        d = defined[empty]
        used[empty] = d & (np.cumsum(d, axis=1) > d.sum(axis=1)[:, None] // 2)
    c0 = int(np.argmax(used.any(axis=0)))
    used, s = used[:, c0:], s[c0:]
    last = s.shape[0] - 1 - np.argmax(used[:, ::-1], axis=1)
    s_min = s[last]
    two = used.sum(axis=1) >= 2
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = vals[:, c0:] - base[:, None]
        quots = diffs / s
        trace = np.minimum.accumulate(np.where(used, quots, _INF), axis=1)
        value = trace[:, -1].copy()
        # a single quotient settles only when it is already infinite
        prev = trace[np.arange(last.shape[0]), last - 1]
        converged = np.where(two, np.abs(value - prev) <= dini_tol, np.isinf(value))
        # Divergence screen: if the raw differences stay bounded away from
        # zero while the steps vanish, the quotients blow up and the liminf
        # is +-inf.  The threshold compares against what a slope of size
        # |value| could produce at the smallest step, so steep smooth
        # functions never trigger.
        d_min = diffs.min(axis=1, where=used, initial=_INF)
        up = two & (value > 0) & (d_min >= _JUMP_FACTOR * value * s_min)
        q_max = quots.max(axis=1, where=used, initial=-_INF)
        d_max = diffs.max(axis=1, where=used, initial=-_INF)
        down = two & (q_max < 0) & (d_max <= _JUMP_FACTOR * q_max * s_min)
    value[up] = _INF
    value[down] = -_INF
    return value, converged | up | down, trace, used, n_in


def _estimates(
    base: float,
    vals: np.ndarray,
    in_domain: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
    scale: float = 1.0,
) -> list[DiniEstimate]:
    """One estimate per probe row, ``value`` scaled by ``scale``.  A row
    without in-domain probes comes back with ``n_probes == 0``."""
    value, converged, trace, used, n_in = _dini_rows(
        vals, in_domain, np.full(vals.shape[0], base), s, dini_tol
    )
    return [
        DiniEstimate(scale * float(v), float(v), tuple(tr[u]), bool(c), int(k), not u.any())
        for v, c, tr, u, k in zip(value, converged, trace, used, n_in)
    ]


def _line_estimates(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    signs: tuple[float, ...],
    feasible: Interval,
    schedule: DiniSchedule,
    scale: float = 1.0,
) -> list[DiniEstimate]:
    """Estimates at ``t`` toward each unit direction in ``signs``, probed in
    one call of ``phi``."""
    if not feasible.contains(t):
        raise ValueError(f"base point {t} outside feasible interval {feasible}")
    s = schedule.step_sizes()
    probes = t + np.outer(signs, s)
    base = float(phi(np.asarray([t], dtype=float))[0])
    if np.isnan(base):
        raise ValueError(f"phi undefined at base point {t}")
    vals = phi(probes.reshape(-1)).reshape(probes.shape)
    return _estimates(
        base, vals, feasible.contains_many(probes), s, schedule.dini_tol, scale
    )


def lower_dini(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    u: float,
    feasible: Interval,
    schedule: DiniSchedule | None = None,
) -> DiniEstimate:
    """Estimate the lower Dini derivative of ``phi`` at ``t`` toward ``u``.

    ``phi`` maps a float64 array to values with NaN for undefined.  The
    direction is normalized to unit length before probing and the returned
    ``value`` is rescaled by |u| (positive homogeneity); ``unit_value``
    keeps the unnormalized-decision figure.  Probe steps that leave
    ``feasible`` are skipped; if none remain, :class:`DiniDomainError` is
    raised.  Undefined probe values are skipped as well, and the estimate
    is +inf only when every feasible probe is undefined.
    """
    if schedule is None:
        schedule = DiniSchedule()
    if u == 0 or not np.isfinite(u):
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    sign = 1.0 if u > 0 else -1.0
    est = _line_estimates(phi, t, (sign,), feasible, schedule, abs(float(u)))[0]
    if est.n_probes == 0:
        raise DiniDomainError("direction leaves domain")
    return est


def lower_dini_along(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    u: np.ndarray,
    box: tuple[Interval, ...],
    schedule: DiniSchedule | None = None,
) -> DiniEstimate:
    """Lower Dini derivative of a multivariate ``f`` at ``x`` along ``u``.

    ``f`` maps an (m, n) array of points to (m,) values.  The direction is
    normalized to unit Euclidean length for probing; ``value`` is rescaled
    by |u|.  Probes outside the box are skipped; :class:`DiniDomainError`
    if none stay inside.
    """
    if schedule is None:
        schedule = DiniSchedule()
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("direction must be finite and nonzero")
    u_hat = u / norm
    s = schedule.step_sizes()
    probes = x[None, :] + s[:, None] * u_hat[None, :]
    in_domain = np.ones(s.shape[0], dtype=bool)
    for i, iv in enumerate(box):
        in_domain &= iv.contains_many(probes[:, i])
    base = float(f(x[None, :])[0])
    if np.isnan(base):
        raise ValueError("f undefined at the base point")
    vals = f(probes)
    est = _estimates(base, vals[None, :], in_domain[None, :], s, schedule.dini_tol, norm)[0]
    if est.n_probes == 0:
        raise DiniDomainError("direction leaves domain")
    return est


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
    if schedule is None:
        schedule = DiniSchedule()
    found = _line_estimates(phi, t, (1.0, -1.0), feasible, schedule)
    estimates = {label: est for label, est in zip(("+1", "-1"), found) if est.n_probes}
    stationary = not any(est.unit_value < -stat_tol for est in estimates.values())
    decisive = not stationary or all(est.converged for est in estimates.values())
    return StationarityCheck(stationary=stationary, estimates=estimates, decisive=decisive)


@dataclass(frozen=True)
class GridDiniProfile:
    """Unit-direction Dini estimates at every grid point, both directions.

    Rows align with ``dom.points``.  ``*_feasible`` marks directions with at
    least one in-domain probe; infeasible entries carry NaN values and are
    never consulted by the classifiers.
    """

    minus_value: np.ndarray
    plus_value: np.ndarray
    minus_converged: np.ndarray
    plus_converged: np.ndarray
    minus_feasible: np.ndarray
    plus_feasible: np.ndarray

    def descent(self, stat_tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (minus, plus) arrays: direction descends beyond stat_tol."""
        with np.errstate(invalid="ignore"):
            m = self.minus_feasible & (self.minus_value < -stat_tol)
            p = self.plus_feasible & (self.plus_value < -stat_tol)
        return m, p

    def stationary_mask(self, stat_tol: float) -> np.ndarray:
        m, p = self.descent(stat_tol)
        return ~(m | p)


def grid_dini_profile(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None = None,
) -> GridDiniProfile:
    """Batch unit-direction estimates for every grid point of ``dom``.

    Numerically identical to calling :func:`lower_dini` per point with
    u = +-1.  The grid is probed in blocks of ``_BLOCK_ROWS`` points, one
    call of ``phi`` and of the estimate kernel per block and direction, so
    memory stays bounded however fine the grid.
    """
    if schedule is None:
        schedule = DiniSchedule()
    pts = dom.points
    n = pts.shape[0]
    s = schedule.step_sizes()
    base = phi(pts)
    ok_base = ~np.isnan(base)

    out: dict[str, np.ndarray] = {}
    for label, sign in (("minus", -1.0), ("plus", 1.0)):
        value = np.full(n, np.nan)
        conv = np.zeros(n, dtype=bool)
        feas = np.zeros(n, dtype=bool)
        for a in range(0, n, _BLOCK_ROWS):
            rows = slice(a, a + _BLOCK_ROWS)
            probes = pts[rows, None] + sign * s[None, :]
            vals = phi(probes.reshape(-1)).reshape(probes.shape)
            v, c, _, _, n_in = _dini_rows(
                vals, dom.interval.contains_many(probes), base[rows], s,
                schedule.dini_tol,
            )
            f = (n_in > 0) & ok_base[rows]
            value[rows] = np.where(f, v, np.nan)
            conv[rows] = c & f
            feas[rows] = f
        out[label + "_value"] = value
        out[label + "_converged"] = conv
        out[label + "_feasible"] = feas
    return GridDiniProfile(**out)

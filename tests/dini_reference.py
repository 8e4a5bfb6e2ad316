"""Brute-force reference for the Dini estimate rule.

This is the scalar, one-row form of the rule that ``dinicvx.dini`` applies
to whole blocks of rows at once.  The tests compare the block kernel and
every public Dini function against it bit for bit.

``lower_dini_along`` estimates a multivariate function at a point along
one direction of a box; each row of a kernel block in a box
(``dinicvx.dini._along``) must match it.  ``is_stationary`` asks it for
both directions of a line at one point: each point of
``dinicvx.dini.stationarity_estimates`` must give its estimates, and the
origin test that T6 and Lpr1 read its verdict.  Both estimate their rows
with ``_estimate_one``, so they share no code with the kernel they check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from dinicvx.dini import (
    _INF,
    _JUMP_FACTOR,
    DiniDomainError,
    DiniEstimate,
    DiniSchedule,
)
from dinicvx.domain import Interval


def _finish(
    steps: np.ndarray, diffs: np.ndarray, dini_tol: float
) -> tuple[float, tuple[float, ...], bool, bool]:
    """Turn defined (step, difference) samples into an estimate.

    ``steps`` decreasing, ``diffs`` the corresponding phi differences; both
    restricted to defined probes inside the trailing half of the in-domain
    sequence, except that ``diffs_all``-style screening for jumps uses the
    same arrays.  Returns (unit_value, trace, converged, all_undefined).
    """
    if steps.size == 0:
        return _INF, (), True, True
    quots = diffs / steps
    trace = np.minimum.accumulate(quots)
    value = float(trace[-1])
    if trace.size >= 2:
        converged = bool(abs(trace[-1] - trace[-2]) <= dini_tol)
    else:
        converged = bool(np.isinf(trace[0]))

    # Divergence screen: if the raw differences stay bounded away from zero
    # while the steps vanish, the quotients blow up and the liminf is +-inf.
    # The threshold compares against what a slope of size |value| could
    # produce at the smallest step, so steep smooth functions never trigger.
    if steps.size >= 2:
        s_min = float(steps[-1])
        if value > 0 and np.min(diffs) >= _JUMP_FACTOR * value * s_min:
            return _INF, tuple(trace.tolist()), True, False
        q_max = float(np.max(quots))
        if q_max < 0 and np.max(diffs) <= _JUMP_FACTOR * q_max * s_min:
            return -_INF, tuple(trace.tolist()), True, False
    return value, tuple(trace.tolist()), converged, False


def _estimate_one(
    base: float,
    probe_vals: np.ndarray,
    in_domain: np.ndarray,
    step_sizes: np.ndarray,
    dini_tol: float,
) -> DiniEstimate:
    idx_in = np.flatnonzero(in_domain)
    if idx_in.size == 0:
        raise DiniDomainError("direction leaves domain")
    # trailing half of the in-domain step sequence
    window = idx_in[idx_in.size // 2 :]
    defined_w = window[~np.isnan(probe_vals[window])]
    if defined_w.size == 0:
        defined_in = idx_in[~np.isnan(probe_vals[idx_in])]
        if defined_in.size == 0:
            # every feasible probe left the effective domain of phi
            return DiniEstimate(_INF, _INF, (), True, int(idx_in.size), True)
        defined_w = defined_in[defined_in.size // 2 :]
    steps = step_sizes[defined_w]
    with np.errstate(invalid="ignore"):
        diffs = probe_vals[defined_w] - base
    unit_value, trace, converged, _ = _finish(steps, diffs, dini_tol)
    return DiniEstimate(
        value=unit_value,
        unit_value=unit_value,
        tail_min_trace=trace,
        converged=converged,
        n_probes=int(idx_in.size),
    )


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
    est = _estimate_one(base, f(probes), in_domain, s, schedule.dini_tol)
    return replace(est, value=norm * est.unit_value)


@dataclass(frozen=True)
class StationarityCheck:
    stationary: bool
    estimates: dict[str, DiniEstimate]
    decisive: bool


def is_stationary(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    feasible: Interval,
    schedule: DiniSchedule | None = None,
    stat_tol: float = 1e-7,
) -> StationarityCheck:
    """Whether no feasible direction of the line descends at ``t`` faster
    than ``-stat_tol``.

    ``estimates`` holds the estimates toward +1 and -1, keyed ``"+1"`` and
    ``"-1"``, of the directions with a probe in ``feasible``.  Descent
    along an unfinished trace is still decisive (the running minimum can
    only fall further), but a "no descent" conclusion from an unconverged
    estimate is not.  Raises ValueError for a ``t`` outside ``feasible`` or
    where ``phi`` is undefined.
    """
    if not feasible.contains(t):
        raise ValueError(f"base point {t} outside {feasible}")
    estimates = {}
    for label, u in (("+1", 1.0), ("-1", -1.0)):
        try:
            estimates[label] = lower_dini_along(lambda pts: phi(pts.reshape(-1)), np.asarray([t]),
                                                np.asarray([u]), (feasible,), schedule)
        except DiniDomainError:
            continue
    stationary = not any(est.unit_value < -stat_tol for est in estimates.values())
    decisive = not stationary or all(est.converged for est in estimates.values())
    return StationarityCheck(stationary, estimates, decisive)

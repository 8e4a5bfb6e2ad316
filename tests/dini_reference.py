"""Brute-force reference for the Dini estimate rule.

This is the scalar, one-row form of the rule that ``dinicvx.dini`` applies
to whole blocks of rows at once.  The tests compare the block kernel and
every public Dini function against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from dinicvx.dini import _INF, _JUMP_FACTOR, DiniDomainError, DiniEstimate


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
            return _INF, tuple(trace), True, False
        q_max = float(np.max(quots))
        if q_max < 0 and np.max(diffs) <= _JUMP_FACTOR * q_max * s_min:
            return -_INF, tuple(trace), True, False
    return value, tuple(trace), converged, False


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

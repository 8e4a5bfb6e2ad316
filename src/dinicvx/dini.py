"""Lower Dini directional derivative estimation on a geometric step schedule.

The lower Dini derivative of phi at t in direction u is the liminf of the
difference quotients [phi(t + s u) - phi(t)] / s as s -> 0+.  It is
estimated by the minimum quotient over the trailing half of a geometric
step schedule, probing along the unit direction and rescaling by |u|
afterwards so that decisions are invariant to the magnitude of u.

One kernel, :func:`_dini_rows`, applies that rule to a (steps x rows)
block of probe values, one column per estimate, masking the probes outside
the domain and the undefined ones; :func:`_probe_rows` feeds it, building
and evaluating only the probes the rule can read.  A probe moves
monotonically with its step, so a row whose largest and smallest probes
lie in the domain has every probe there, and its window is the trailing
half of the schedule: only those probes are built, and no bound is
compared.  :func:`_rows` runs :func:`_probe_rows` on the rows from points
along directions, on a line or in a box, ``_BLOCK_ROWS`` rows a call, with
a plain point function; :func:`stationarity_estimates` (both directions of
many points of a line; :func:`lower_dini` reads one) and Lpr1's A read it.
:func:`grid_dini_profile` estimates the grid points of the m lines of a
batch, both sides of each point on one axis: (m, 2, W), ``[:, 0]`` toward
lower t.  A row's bits do not depend on the rows beside it, so a caller
estimates just the entries it reads, a run of columns at a time, and can
stop after any run.

:func:`stationary` is the one stationarity rule, which the characterization,
T4, T6's origin test and Lpr1 read.

A block of such rows whose values are all defined takes
:func:`_dense_rows`: the same float operations without masks.  A block
holding a row near an end of the domain, or an undefined value, keeps the
masked path for all its rows.

Given ``stat_tol``, :func:`grid_dini_profile` settles a row whose window is
the trailing half as descending when its quotient at the largest trailing
step is below ``-stat_tol``: the estimate, a running minimum of quotients,
can only fall further.  A window of columns, bounded by probes (one a
row), is settled at once; only the rows it leaves go to :func:`_probe_rows`,
with those probes' values, in kernel blocks bounded by rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .domain import Interval, LineGrids, extent

__all__ = [
    "DiniSchedule",
    "DiniEstimate",
    "DiniDomainError",
    "lower_dini",
    "stationarity_estimates",
    "stationary",
    "GridDiniProfile",
    "grid_dini_profile",
]

_INF = float("inf")

# Factor separating a genuine jump (function difference bounded away from
# zero while the step vanishes) from a steep smooth slope; see _dini_rows.
_JUMP_FACTOR = 10.0

# Rows (estimates) per kernel block in grid_dini_profile: both sides of the
# up to 259 points of an anchored grid at the default 257 fit one block.  A
# block builds the probe positions of its trailing steps only, _BLOCK_ROWS *
# (steps - steps // 2) floats (81 KB at 40 steps), and the kernel's
# (steps x rows) temporaries are as large.  Blocks this small fault few
# pages in: over one pass of the benchmark's classify_fine workload the
# profiles took about 3,000 minor page faults, against 38,000 with
# 1024-row blocks.  One block for the whole grid would take 3 GB at 10^7
# points.  A settle window is bounded by probes, not rows: as many rows as
# a block has trailing probes, one probe a row.
_BLOCK_ROWS = 520


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

    Row r probes ``base[r]`` at the decreasing steps ``s``; ``vals[:, r]``
    holds the probe values (NaN where undefined) and ``in_domain[:, r]``
    marks the probes inside the feasible set.  The quotients used are those
    of the defined probes in the trailing half of the in-domain steps or,
    when that window holds none, in the trailing half of the defined
    in-domain probes.  Their running minimum is the trace and its last entry
    the estimate, converged when the last used step moved it by at most
    ``dini_tol``.  The block may be the trailing steps of longer rows:
    ``skipped[r]`` counts row r's in-domain probes left out, and a row whose
    window or fallback reaches them is left using no probe, for the caller
    to estimate from the whole row.

    Returns (value, converged, trace, used, n_in): ``trace[:, r][used[:, r]]``
    is row r's trace and ``n_in[r]`` its count of in-domain probes, skipped
    ones included.  A row that uses no probe has value +inf, is converged
    and has an empty trace.  ``trace`` and ``used`` start at the first step
    any row uses.  :func:`_dense_rows` is the same rule for rows whose
    window is the whole block, every probe of it defined.
    """
    n_in = in_domain.sum(axis=0) + skipped
    defined = in_domain & ~np.isnan(vals)
    used = defined & (np.cumsum(in_domain, axis=0) > n_in // 2 - skipped)
    used[:, skipped > n_in // 2] = False
    empty = ~used.any(axis=0) & (skipped == 0)
    if empty.any():
        d = defined[:, empty]
        used[:, empty] = d & (np.cumsum(d, axis=0) > d.sum(axis=0) // 2)
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
        d_min, d_max = diffs.min(axis=0), diffs.max(axis=0)
        quots = np.divide(diffs, s[:, None], out=diffs)
        q_max = quots.max(axis=0)
        trace = _accumulate(np.minimum, quots)
        value = trace[-1].copy()
        converged = np.abs(value - trace[-2]) <= dini_tol
        up = (value > 0) & (d_min >= _JUMP_FACTOR * value * s[-1])
        down = (q_max < 0) & (d_max <= _JUMP_FACTOR * q_max * s[-1])
    value[up] = _INF
    value[down] = -_INF
    return value, converged | up | down, trace, np.ones(vals.shape, dtype=bool), n_in


def _positions(x: np.ndarray, u: np.ndarray, s: np.ndarray, rows) -> np.ndarray:
    """The probes ``x[r] + s[k] * u[r]`` of ``rows``, (len(s), rows): a
    number per probe for the (rows,) arrays of a line, a point along the
    trailing axis for (rows, n) ones."""
    p = s.reshape((-1,) + (1,) * u.ndim) * u[rows]
    p += x[rows]
    return p


def _inside(p: np.ndarray, least: np.ndarray, greatest: np.ndarray) -> np.ndarray:
    """(k, rows) mask of the probes ``p`` in ``[least, greatest]``, every
    coordinate of a point inside its own bounds."""
    ok = (p >= least) & (p <= greatest)
    return ok if ok.ndim == 2 else ok.all(axis=2)


def _probe_rows(
    f: Callable[[np.ndarray, np.ndarray | slice], np.ndarray],
    x: np.ndarray,
    u: np.ndarray,
    least: np.ndarray,
    greatest: np.ndarray,
    base: np.ndarray,
    s: np.ndarray,
    dini_tol: float,
    given: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_dini_rows` on the whole rows probing from ``x[r]`` along
    ``u[r]``, with probes built and ``f`` evaluated only where it reads.

    Row r probes ``x[r] + s[k] * u[r]``; ``x``, ``u``, ``least`` and
    ``greatest`` are (rows,) on a line and (rows, n) in a box, whose probes
    are points.  A probe is in the domain when it lies in ``[least[r],
    greatest[r]]``, coordinate by coordinate.  ``f(probes, rows)`` gives the
    (k, r) values of a (k, r) block of probes of ``rows``.  ``given``, when
    the caller has them, holds the values at the largest trailing step and
    the end test below, (rows,) each.

    Each coordinate of ``fl(x + s * u)`` is monotone in the step, so a
    row's in-domain steps run without a gap, and when its largest and its
    smallest probes are in, all are.  That end test, two probes a row, is
    exact.  It also catches a grid point rounded onto an open end, whose
    smallest steps round back onto that end.  A row that passes it skips
    its leading ``steps // 2`` probes, all in, and its window is the
    trailing steps: only those are built and evaluated, with no bound
    compared.  The rows that fail the test get their leading positions and
    their whole in-domain mask.  A block where every row's window is the
    trailing steps, every value defined, takes :func:`_dense_rows`; any
    other the masked kernel on its trailing steps.  When that kernel leaves
    a row using no probe although it skipped some (a fallback, or a window
    reaching the leading steps), the block is rerun on every step, with the
    leading probes of those rows evaluated then.
    """
    steps, cut = s.shape[0], s.shape[0] // 2
    every, trailing = slice(None), s[cut:]
    tail = _positions(x, u, trailing, every)
    if given is None:
        vals = f(tail, every)
        ends = _inside(_positions(x, u, s[[0, -1]], every), least, greatest).all(axis=0)
    else:
        vals, ends = given[0][None], given[1]
        if tail.shape[0] > 1:
            vals = np.concatenate((vals, f(tail[1:], every)))
    near = np.flatnonzero(~ends)
    skipped = np.full(base.shape[0], cut)
    n_in = skipped + trailing.shape[0]
    dense = trailing.shape[0] >= 2
    if near.size:
        whole = _inside(np.concatenate([_positions(x, u, s[:cut], near), tail[:, near]]),
                        least[near], greatest[near])
        skipped[near] = whole[:cut].sum(axis=0)
        n_in[near] = whole.sum(axis=0)
        dense = dense and whole[cut:].all() and (skipped[near] == n_in[near] // 2).all()
    # dense: every row's window is the trailing steps, all of them defined
    if dense and not np.isnan(vals).any():
        return _dense_rows(vals, base, trailing, dini_tol, n_in)
    window = np.ones(tail.shape[:2], dtype=bool)
    if near.size:
        window[:, near] = whole[cut:]
    found = _dini_rows(vals, window, base, trailing, dini_tol, skipped)
    redo = np.flatnonzero(~found[3].any(axis=0) & (skipped > 0))
    if not redo.size:
        return found
    # The whole block again, the redo rows with their leading probes.  The
    # other rows never read theirs, so NaN stands in, and an interior row's
    # probes are all in the domain.
    lead = _positions(x, u, s[:cut], redo)
    in_domain = np.ones((steps, base.shape[0]), dtype=bool)
    if near.size:
        in_domain[:, near] = whole
    in_domain[:, redo] = _inside(np.concatenate([lead, tail[:, redo]]), least[redo], greatest[redo])
    full = np.full(in_domain.shape, np.nan)
    full[cut:] = vals
    full[:cut, redo] = f(lead, redo)
    return _dini_rows(full, in_domain, base, s, dini_tol)


def lower_dini(
    phi: Callable[[np.ndarray], np.ndarray],
    t: float,
    u: float,
    feasible: Interval,
    schedule: DiniSchedule = DiniSchedule(),
) -> DiniEstimate:
    """Estimate the lower Dini derivative of ``phi`` at ``t`` toward ``u``.

    ``phi`` maps a float64 array to values with NaN for undefined.  The
    probes go along sign(u) and the returned ``value`` is rescaled by |u|
    (positive homogeneity); ``unit_value`` keeps the unit-direction
    figure.  Probe steps that leave ``feasible`` are skipped; if none
    remain, :class:`DiniDomainError` is raised.  Undefined probe values are
    skipped as well, and the estimate is +inf only when every feasible
    probe is undefined.  The estimate is the sign(u) entry of
    :func:`stationarity_estimates` at ``t``.
    """
    if u == 0 or not np.isfinite(u):
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    if not feasible.contains(t):
        raise ValueError(f"base point {[float(t)]} outside {feasible}")
    [found] = stationarity_estimates(phi, [t], feasible, schedule)
    if found is None:
        raise ValueError(f"function undefined at the base point {[float(t)]}")
    if (est := found.get("+1" if u > 0 else "-1")) is None:
        raise DiniDomainError("direction leaves domain")
    return replace(est, value=abs(float(u)) * est.unit_value)


def _rows(f, x, u, box, base, schedule: DiniSchedule):
    """:func:`_probe_rows` on the rows from ``x[r]`` along ``u[r]`` in ``box``,
    ``_BLOCK_ROWS`` rows a call.  ``x`` and ``u`` are (rows,) on a line and
    (rows, n) in a box; ``f`` maps probes (numbers or points) to values."""
    least, greatest = (np.broadcast_to(b, u.shape) for b in extent(box))
    for a in range(0, base.shape[0], _BLOCK_ROWS):
        blk = slice(a, a + _BLOCK_ROWS)
        yield _probe_rows(lambda pts, _: f(pts.reshape(-1, *u.shape[1:])).reshape(pts.shape[:2]),
                          x[blk], u[blk], least[blk], greatest[blk], base[blk],
                          schedule.step_sizes(), schedule.dini_tol)


def _along(f, x, u, box, base, schedule: DiniSchedule) -> list[DiniEstimate]:
    """The rows of :func:`_rows` as unit-direction estimates."""
    return [DiniEstimate(float(v), float(v), tuple(tr[row].tolist()), bool(c), int(k),
                         not row.any())
            for found in _rows(f, x, u, box, base, schedule)
            for v, c, tr, row, k in zip(*(r.T for r in found))]


def _unit(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the rows of ``dirs`` and the rows scaled to unit
    length.  Raises ValueError for a zero or non-finite row."""
    dirs = np.asarray(dirs, dtype=float)
    # a row's dot product with itself rounds as np.linalg.norm of that one
    # row does; np.linalg.norm(dirs, axis=1) sums differently
    norms = np.sqrt((dirs[:, None, :] @ dirs[:, :, None]).reshape(-1))
    if not (np.isfinite(norms) & (norms > 0)).all():
        raise ValueError("direction must be finite and nonzero")
    return norms, dirs / norms[:, None]


def stationarity_estimates(
    phi: Callable[[np.ndarray], np.ndarray],
    ts: list[float],
    feasible: Interval,
    schedule: DiniSchedule = DiniSchedule(),
) -> list[dict[str, DiniEstimate] | None]:
    """The unit-direction estimates toward +1 and -1 at each t of
    ``ts``, keyed ``"+1"`` and ``"-1"``, a direction with no probe in
    ``feasible`` left out, or None for a t with no base: outside
    ``feasible``, or where ``phi`` is undefined.  Both directions of every
    t are rows of :func:`_rows`, with a base per row."""
    ts = np.asarray(ts, dtype=float)
    ok = np.flatnonzero(feasible.contains_many(ts))
    base = phi(ts[ok]) if ok.size else np.empty(0)
    ok, base = ok[~np.isnan(base)], np.repeat(base[~np.isnan(base)], 2)
    found = _along(phi, np.repeat(ts[ok], 2), np.tile([1.0, -1.0], ok.size), (feasible,), base,
                   schedule)
    out: list[dict[str, DiniEstimate] | None] = [None] * len(ts)
    for i, pair in zip(ok, zip(found[::2], found[1::2])):
        out[i] = {label: est for label, est in zip(("+1", "-1"), pair) if est.n_probes}
    return out


def stationary(value, converged, feasible, stat_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(stationary, unsettled) of each point, its unit-direction estimates on
    the last axis.  Both mean that no feasible direction descends beyond
    ``stat_tol``: stationary when every feasible estimate converged (so also
    when no direction is feasible), unsettled when some did not."""
    still = ~(feasible & (value < -stat_tol)).any(axis=-1)
    unconverged = (feasible & ~converged).any(axis=-1)
    return still & ~unconverged, still & unconverged


@dataclass(frozen=True)
class GridDiniProfile:
    """Unit-direction Dini estimates at the grid points, both directions.

    Each field is (m, 2, W): a line axis, then for each line one column per
    grid point, row 0 toward lower t (minus), row 1 toward higher t (plus).
    Infeasible entries (no in-domain probe) carry NaN values and are never
    consulted, nor are the entries outside ``estimated``, which read as
    infeasible.  A settled entry (see :func:`grid_dini_profile`) is
    converged, its value a quotient below ``-stat_tol`` that bounds the full
    estimate from above.
    """

    value: np.ndarray
    converged: np.ndarray
    feasible: np.ndarray
    estimated: np.ndarray

    # Row views kept for perfbench's tracer, which reads them by name until
    # ROADMAP item 8.
    minus_feasible = property(lambda self: self.feasible[..., 0, :])
    plus_feasible = property(lambda self: self.feasible[..., 1, :])
    minus_converged = property(lambda self: self.converged[..., 0, :])
    plus_converged = property(lambda self: self.converged[..., 1, :])

    @classmethod
    def unestimated(cls, m: int, n: int) -> GridDiniProfile:
        """A profile of ``m`` lines of ``n`` points with no entry estimated."""
        shape = (m, 2, n)
        return cls(np.full(shape, np.nan), *(np.zeros(shape, dtype=bool) for _ in range(3)))

    def descent(self, stat_tol: float, rows: slice = slice(None)) -> np.ndarray:
        """(..., 2, k) mask over the k grid points ``rows``: the direction
        descends beyond stat_tol."""
        with np.errstate(invalid="ignore"):
            return self.feasible[..., rows] & (self.value[..., rows] < -stat_tol)

    def unconverged(self, rows: slice = slice(None)) -> np.ndarray:
        """(..., 2, k) mask over the k grid points ``rows``: the direction is
        feasible, its estimate unconverged."""
        return self.feasible[..., rows] & ~self.converged[..., rows]


def _reach(asks: np.ndarray, most: int) -> Callable[[int, int], int]:
    """``reach(a, size)``: the end of the longest run of columns from a in
    which no line l asks more than ``size <= most`` rows, ``asks[l, c]`` at
    column c.  Shifted apart line by line, the running counts of the rows
    are one sorted array, and one sorted search finds that end."""
    m, k = asks.shape
    count = np.concatenate((np.zeros((m, 1), np.intp), np.cumsum(asks, axis=1)), axis=1)
    shift = np.arange(m) * (count[:, -1].max() + most + 1)
    keys, key0 = (count + shift[:, None]).reshape(-1), np.arange(m) * (k + 1) + 1
    return lambda a, size: int(
        (np.searchsorted(keys, count[:, a] + size + shift, "right") - key0).min())


def grid_dini_profile(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: LineGrids,
    values: np.ndarray,
    schedule: DiniSchedule = DiniSchedule(),
    mask: np.ndarray | None = None,
    out: GridDiniProfile | None = None,
    until: Callable[[slice], bool] | None = None,
    stat_tol: float | None = None,
) -> GridDiniProfile:
    """Batch unit-direction estimates at the grid points of ``dom``.

    ``values`` holds ``phi`` at ``dom.points``; ``phi`` is called only at
    probes, and only for the entries in ``mask`` (all when ``None``); the
    others stay as they were in ``out`` (default: not estimated).  Without
    ``stat_tol``, equal to :func:`lower_dini` per point with u = +-1; with
    it, a row that descends beyond it at the largest trailing step is
    settled from that probe, and every other entry is as without it.  For
    the m lines of ``dom``, ``phi`` maps an (m, k) parameter array to values
    line by line; ``values`` is (m, W), ``mask`` and the profile (m, 2, W).

    Both sides of the grid columns are walked in windows, each the longest
    run of columns, at least one, in which no line asks more than its share
    of ``_BLOCK_ROWS * (steps - steps // 2)`` entries (with ``until``, of
    ``_BLOCK_ROWS`` at first, doubling).  A window's settling probes are one
    ``phi`` call; the rows it leaves go to :func:`_probe_rows` in kernel
    blocks, split from its columns by the same rule with ``_BLOCK_ROWS``,
    one ``phi`` call each.  After each block, or a window that leaves none,
    a true ``until(columns)`` ends the scan, unless the columns end the grid.
    """
    m, w = dom.points.shape
    vals = np.reshape(values, -1)
    s, cut = schedule.step_sizes(), schedule.steps // 2
    out = out or GridDiniProfile.unestimated(m, w)
    want = mask if mask is not None else np.broadcast_to(
        (np.arange(w) < dom.n[:, None])[:, None], (m, 2, w))
    # A kernel block takes `share` entries a line at most, a window `wide`:
    # as many probes at s[cut] as a block has trailing probes.
    share = _BLOCK_ROWS // m
    wide = share * (s.shape[0] - cut)
    reach = _reach(want.sum(axis=1), wide)

    def evaluate(probes: np.ndarray, of: np.ndarray) -> np.ndarray:
        # A line's rows are consecutive: row j of line l goes to column j -
        # (first row of l) of line l, step by step, in the (m, k, K) array phi
        # reads, a reshape where every line brings K rows, else NaN-padded.
        n_rows = np.bincount(of, minlength=m)
        k, most = probes.shape[0], int(n_rows.max())
        if n_rows.min() == most:
            grid = probes.reshape(k, m, most).swapaxes(0, 1).reshape(m, -1)
            return phi(grid).reshape(m, k, most).swapaxes(0, 1).reshape(k, -1)
        at = np.arange(of.shape[0]) - (np.cumsum(n_rows) - n_rows)[of]
        idx = (of * (k * most) + at) + most * np.arange(k)[:, None]
        grid = np.full(m * k * most, np.nan)
        grid[idx] = probes
        return phi(grid.reshape(m, -1)).reshape(-1)[idx]

    least, greatest = extent(dom.interval)
    sign, every = np.array([-1.0, 1.0]), slice(None)
    value, converged = out.value.reshape(-1), out.converged.reshape(-1)
    feasible, estimated = out.feasible.reshape(-1), out.estimated.reshape(-1)
    a = reach(0, 0)  # the first column that asks for an entry
    if 0 < a < w and until is not None and until(slice(0, a)):
        return out
    size = wide if until is None else share
    while a < w:
        b, size = max(a + 1, reach(a, size)), min(2 * size, wide)
        # the line (read by evaluate), side and column of each row, line by line
        line, side, col = np.nonzero(want[:, :, a:b])
        point = line * w + col + a
        entry = point + (line + side) * w  # at [line, side, col] of (m, 2, w)
        x, u, first = dom.points.reshape(-1)[point], sign[side], None
        if stat_tol is not None:
            # every row's probe at s[cut] and _probe_rows's end test: the rows that
            # pass it and descend there settle, and the others' kernel blocks reuse both
            first = evaluate(_positions(x, u, s[cut:cut + 1], every), line)[0]
            ends = _inside(_positions(x, u, s[[0, -1]], every), least[line],
                           greatest[line]).all(axis=0)
            with np.errstate(invalid="ignore", over="ignore"):
                q = (first - vals[point]) / s[cut]
            down = (q < -stat_tol) & ends
            value[entry[down]] = q[down]
            converged[entry[down]] = feasible[entry[down]] = estimated[entry[down]] = True
            line, col, point, entry, x, u, first, ends = (
                r[~down] for r in (line, col, point, entry, x, u, first, ends))
        # the others in kernel blocks of the window's columns, from its first;
        # the block search runs only where a line leaves more than a block's
        # share, so a 257-point grid's one block costs no search
        k, c = b - a, 0
        block = (_reach(np.bincount(line * k + col, minlength=m * k).reshape(m, k), share)
                 if np.bincount(line, minlength=m).max() > share else lambda c, size: k)
        while c < k:
            d = max(c + 1, block(c, share))
            rows = np.flatnonzero((col >= c) & (col < d))
            of, at, base = line[rows], entry[rows], vals[point[rows]]
            if at.size:
                v, conv, _, _, n_in = _probe_rows(
                    lambda p, r: evaluate(p, of[r]), x[rows], u[rows], least[of], greatest[of],
                    base, s, schedule.dini_tol,
                    None if first is None else (first[rows], ends[rows]))
                f = (n_in > 0) & ~np.isnan(base)
                value[at], converged[at], feasible[at], estimated[at] = (
                    np.where(f, v, np.nan), conv & f, f, True)
            if until is not None and a + d < w and until(slice(a + c, a + d)):
                return out
            c = d
        a = b
    return out

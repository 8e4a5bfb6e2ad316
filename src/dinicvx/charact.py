"""Structural characterizations on a sampled interval.

The classifiers here never enumerate pairs or triples.  They decide through
shape: a three-part monotone decomposition around the set of grid minima,
Dini stationarity restricted to that set, and a strict-decrease /
constant / strict-increase segment split.  Agreement with the
definition-based oracles in :mod:`dinicvx.oracle` is the core acceptance
property of the package.

Conventions shared with the oracles: one equality band ``tol`` (auto-scaled
from the grid values unless given), stationarity decided on unit-direction
Dini values against ``stat_tol``, and index ranges reported half-open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dini import DiniSchedule, grid_dini_profile
from .domain import SampledDomain
from .oracle import Verdict, Witness, auto_tol, grid_values, undefined_witnesses

__all__ = [
    "MonotoneDecomposition",
    "SegmentSplit",
    "decompose",
    "pseudoconvex_char",
    "strictly_pseudoconvex_char",
    "martos_segments",
    "quasiconvex_martos",
]

_WITNESS_CAP = 8


@dataclass(frozen=True)
class MonotoneDecomposition:
    """Three-part split of grid indices: strictly decreasing, minimum band,
    strictly increasing.  Ranges are half-open index pairs into the grid.

    ``pattern`` is ``valley`` when the minimum band is attained on the grid,
    or ``empty_min_increasing`` / ``empty_min_decreasing`` when the function
    is strictly monotone toward an open endpoint, where the infimum is a
    limit rather than a value and the band is reported empty.
    """

    i_minus: tuple[int, int]
    i_hat: tuple[int, int]
    i_plus: tuple[int, int]
    pattern: str
    min_value: float
    tol: float
    ok: bool
    witnesses: tuple[Witness, ...] = ()

    def band_size(self) -> int:
        return self.i_hat[1] - self.i_hat[0]

    def in_band(self, i: int) -> bool:
        return self.i_hat[0] <= i < self.i_hat[1]

    def segment_labels(self, n: int) -> np.ndarray:
        """Per-grid-point labels 'minus' / 'hat' / 'plus' as an object array."""
        labels = np.empty(n, dtype=object)
        labels[self.i_minus[0] : self.i_minus[1]] = "minus"
        labels[self.i_hat[0] : self.i_hat[1]] = "hat"
        labels[self.i_plus[0] : self.i_plus[1]] = "plus"
        return labels


def decompose(
    phi: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    dom: SampledDomain,
    tol: float | None = None,
) -> MonotoneDecomposition:
    """Split the grid into strict descent, minimum band, strict ascent.

    The band is every index whose value lies within ``tol`` of the grid
    minimum.  The split is valid (``ok``) when the band is contiguous, the
    left flank decreases strictly between its own points, and the right
    flank increases strictly.  Deltas at the junctions are absorbed by the
    band.  A strictly monotone grid running into an open endpoint reports
    an empty band instead: the infimum is not attained.
    """
    vals = phi if isinstance(phi, np.ndarray) else phi(dom.points)
    vals = np.asarray(vals, dtype=float)
    n = dom.n
    tol_r = auto_tol(vals) if tol is None else tol
    wits = undefined_witnesses(dom, vals)
    if wits:
        return MonotoneDecomposition(
            (0, 0), (0, 0), (0, 0), "undefined", float("nan"), tol_r, False, wits
        )
    vmin = float(np.min(vals))
    deltas = np.diff(vals)
    band = np.flatnonzero(vals <= vmin + tol_r)
    b0, b1 = int(band[0]), int(band[-1])

    if deltas.size and b0 == 0 and not dom.interval.lo_closed and bool(np.all(deltas > tol_r)):
        return MonotoneDecomposition(
            (0, 0), (0, 0), (0, n), "empty_min_increasing", vmin, tol_r, True
        )
    if deltas.size and b1 == n - 1 and not dom.interval.hi_closed and bool(np.all(deltas < -tol_r)):
        return MonotoneDecomposition(
            (0, n), (0, 0), (n, n), "empty_min_decreasing", vmin, tol_r, True
        )

    witnesses: list[Witness] = []
    if band.size != b1 - b0 + 1:
        gaps = np.flatnonzero(np.diff(band) > 1)
        for g in gaps[:_WITNESS_CAP]:
            i, j = int(band[g]), int(band[g + 1])
            mid = i + 1 + int(np.argmax(vals[i + 1 : j]))
            witnesses.append(
                Witness(
                    kind="argmin_gap",
                    points=(float(dom.points[i]), float(dom.points[mid]), float(dom.points[j])),
                    values=(float(vals[i]), float(vals[mid]), float(vals[j])),
                    detail="the set of grid minimizers is not contiguous",
                )
            )
        return MonotoneDecomposition(
            (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r, False,
            tuple(witnesses),
        )

    for i in range(0, b0 - 1):
        if not deltas[i] < -tol_r:
            witnesses.append(
                Witness(
                    kind="non_strict_decrease",
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="left flank is not strictly decreasing",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    for i in range(b1 + 1, n - 1):
        if len(witnesses) >= _WITNESS_CAP:
            break
        if not deltas[i] > tol_r:
            witnesses.append(
                Witness(
                    kind="non_strict_increase",
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="right flank is not strictly increasing",
                )
            )
    return MonotoneDecomposition(
        (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r,
        not witnesses, tuple(witnesses),
    )


def _stationarity_scan(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    dec: MonotoneDecomposition,
    schedule: DiniSchedule | None,
    stat_tol: float,
    vals: np.ndarray,
) -> tuple[list[Witness], list[Witness]]:
    """Find stationary grid points outside the minimum band.

    Returns (violations, blocked): blocked entries are points whose
    no-descent call rests on an unconverged estimate.
    """
    profile = grid_dini_profile(phi, dom, schedule)
    violations: list[Witness] = []
    blocked: list[Witness] = []
    minus_desc = profile.minus_feasible & (profile.minus_value < -stat_tol)
    plus_desc = profile.plus_feasible & (profile.plus_value < -stat_tol)
    for i in range(dom.n):
        if dec.in_band(i):
            continue
        if minus_desc[i] or plus_desc[i]:
            continue
        unconv = (profile.minus_feasible[i] and not profile.minus_converged[i]) or (
            profile.plus_feasible[i] and not profile.plus_converged[i]
        )
        wit = Witness(
            kind="stationary_outside_min",
            points=(float(dom.points[i]),),
            values=(float(vals[i]),),
            detail=(
                "grid point outside the minimum band with no descending "
                "direction (lower Dini derivative >= -stat_tol both ways)"
            ),
        )
        if unconv:
            if len(blocked) < _WITNESS_CAP:
                blocked.append(
                    Witness(
                        kind="unconverged_dini",
                        points=wit.points,
                        values=wit.values,
                        detail="no-descent call rests on an unconverged Dini estimate",
                    )
                )
        elif len(violations) < _WITNESS_CAP:
            violations.append(wit)
    return violations, blocked


def _char_verdict(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None,
    tol: float | None,
    stat_tol: float,
    strict: bool,
) -> Verdict:
    method = "strictly_pseudoconvex_char" if strict else "pseudoconvex_char"
    vals, bad = grid_values(phi, dom)
    tol_r = auto_tol(vals) if tol is None else tol
    if bad:
        return Verdict("inconclusive", method, tol_r, stat_tol, bad,
                       notes="grid evaluation failed")
    dec = decompose(vals, dom, tol_r)
    if not dec.ok:
        return Verdict("fails", method, tol_r, stat_tol, dec.witnesses,
                       notes=f"decomposition pattern: {dec.pattern}")
    witnesses: list[Witness] = []
    if strict and dec.pattern == "valley" and dec.band_size() > 2:
        lo, hi = dec.i_hat
        witnesses.append(
            Witness(
                kind="flat_minimum",
                points=(float(dom.points[lo]), float(dom.points[hi - 1])),
                values=(float(vals[lo]), float(vals[hi - 1])),
                detail=(
                    "minimum band spans more than one grid cell; the minimizer "
                    "is not unique at this resolution"
                ),
            )
        )
    violations, blocked = _stationarity_scan(phi, dom, dec, schedule, stat_tol, vals)
    witnesses.extend(violations)
    if witnesses:
        return Verdict("fails", method, tol_r, stat_tol, tuple(witnesses[:_WITNESS_CAP]),
                       notes=f"decomposition pattern: {dec.pattern}")
    if blocked:
        return Verdict("inconclusive", method, tol_r, stat_tol, tuple(blocked),
                       notes=f"decomposition pattern: {dec.pattern}")
    return Verdict("holds", method, tol_r, stat_tol,
                   notes=f"decomposition pattern: {dec.pattern}")


def pseudoconvex_char(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Structural pseudoconvexity: valid monotone decomposition and no
    stationary grid point outside the minimum band."""
    return _char_verdict(phi, dom, schedule, tol, stat_tol, strict=False)


def strictly_pseudoconvex_char(
    phi: Callable[[np.ndarray], np.ndarray],
    dom: SampledDomain,
    schedule: DiniSchedule | None = None,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Structural strict pseudoconvexity: additionally, the minimum band may
    not span more than one grid cell (two adjacent points at most, so ties
    across a single cell are tolerated but plateaus are not)."""
    return _char_verdict(phi, dom, schedule, tol, stat_tol, strict=True)


@dataclass(frozen=True)
class SegmentSplit:
    """Strict-decrease / constant / strict-increase split of the grid.

    ``valid`` means the grid values realize exactly that shape, with the
    constant run anchored at the minimum level; the minimum point always
    belongs to the constant segment, which therefore has at least one point
    whenever the split is valid.  Half-open index ranges, as elsewhere.
    """

    decreasing: tuple[int, int]
    constant: tuple[int, int]
    increasing: tuple[int, int]
    valid: bool
    tol: float
    witnesses: tuple[Witness, ...] = ()

    def segment_labels(self, n: int) -> np.ndarray:
        labels = np.empty(n, dtype=object)
        labels[self.decreasing[0] : self.decreasing[1]] = "decreasing"
        labels[self.constant[0] : self.constant[1]] = "constant"
        labels[self.increasing[0] : self.increasing[1]] = "increasing"
        return labels


def martos_segments(
    phi: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    dom: SampledDomain,
    tol: float | None = None,
) -> SegmentSplit:
    """Split grid values into strict decrease, a constant run, strict increase.

    The scan takes the longest strictly decreasing prefix (consecutive
    deltas below ``-tol``), then the longest constant run (deltas within
    ``tol``), and requires every remaining delta to exceed ``tol``.  The
    split is the semistrict-quasiconvexity shape test: any later descent or
    flat stretch invalidates it.
    """
    vals = phi if isinstance(phi, np.ndarray) else phi(dom.points)
    vals = np.asarray(vals, dtype=float)
    n = dom.n
    tol_r = auto_tol(vals) if tol is None else tol
    bad = undefined_witnesses(dom, vals, cap=1)
    if bad:
        return SegmentSplit((0, 0), (0, 0), (0, 0), False, tol_r, bad)
    deltas = np.diff(vals)
    a = 0
    while a < deltas.size and deltas[a] < -tol_r:
        a += 1
    b = a
    while b < deltas.size and abs(deltas[b]) <= tol_r:
        b += 1
    witnesses: list[Witness] = []
    for i in range(b, deltas.size):
        if not deltas[i] > tol_r:
            kind = "second_descent" if deltas[i] < -tol_r else "plateau_after_rise"
            witnesses.append(
                Witness(
                    kind=kind,
                    points=(float(dom.points[i]), float(dom.points[i + 1])),
                    values=(float(vals[i]), float(vals[i + 1])),
                    detail="values stop increasing strictly after the constant run",
                )
            )
            if len(witnesses) >= _WITNESS_CAP:
                break
    return SegmentSplit(
        (0, a), (a, b + 1), (b + 1, n), not witnesses, tol_r, tuple(witnesses)
    )


def quasiconvex_martos(
    phi: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    dom: SampledDomain,
    tol: float | None = None,
    stat_tol: float = 1e-7,
) -> Verdict:
    """Structural quasiconvexity: no strict rise followed by a strict fall.

    Equivalent to the grid values being weakly decreasing then weakly
    increasing up to ``tol``; the witness on failure is an ordered triple
    with the interior point above both ends.
    """
    vals = phi if isinstance(phi, np.ndarray) else phi(dom.points)
    vals = np.asarray(vals, dtype=float)
    tol_r = auto_tol(vals) if tol is None else tol
    bad = undefined_witnesses(dom, vals, cap=1)
    if bad:
        return Verdict("inconclusive", "quasiconvex_martos", tol_r, stat_tol, bad,
                       notes="grid evaluation failed")
    deltas = np.diff(vals)
    rises = np.flatnonzero(deltas > tol_r)
    drops = np.flatnonzero(deltas < -tol_r)
    if rises.size and drops.size and rises[0] < drops[-1]:
        i = int(rises[0])
        j = int(drops[-1])
        z = i + 1 + int(np.argmax(vals[i + 1 : j + 1]))
        wit = Witness(
            kind="rise_then_fall",
            points=(float(dom.points[i]), float(dom.points[z]), float(dom.points[j + 1])),
            values=(float(vals[i]), float(vals[z]), float(vals[j + 1])),
            detail="a strict rise precedes a strict fall",
        )
        return Verdict("fails", "quasiconvex_martos", tol_r, stat_tol, (wit,))
    if not rises.size and not drops.size:
        shape = "constant"
    elif not rises.size:
        shape = "weakly_decreasing"
    elif not drops.size:
        shape = "weakly_increasing"
    else:
        shape = "valley"
    return Verdict("holds", "quasiconvex_martos", tol_r, stat_tol,
                   notes=f"shape: {shape}")

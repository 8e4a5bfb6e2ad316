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

import numpy as np

from .oracle import _WITNESS_CAP, SampledProblem, Verdict, Witness, _witness

__all__ = [
    "MonotoneDecomposition",
    "SegmentSplit",
    "decompose",
    "pseudoconvex_char",
    "strictly_pseudoconvex_char",
    "martos_segments",
    "quasiconvex_martos",
]


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

    def segment_labels(self, n: int) -> np.ndarray:
        """Per-grid-point labels 'minus' / 'hat' / 'plus' as an object array."""
        labels = np.empty(n, dtype=object)
        labels[self.i_minus[0] : self.i_minus[1]] = "minus"
        labels[self.i_hat[0] : self.i_hat[1]] = "hat"
        labels[self.i_plus[0] : self.i_plus[1]] = "plus"
        return labels


def decompose(p: SampledProblem) -> MonotoneDecomposition:
    """Split the grid into strict descent, minimum band, strict ascent.

    The band is every index whose value lies within ``tol`` of the grid
    minimum.  The split is valid (``ok``) when the band is contiguous, the
    left flank decreases strictly between its own points, and the right
    flank increases strictly.  Deltas at the junctions are absorbed by the
    band.  A strictly monotone grid running into an open endpoint reports
    an empty band instead: the infimum is not attained.
    """
    vals, tol_r, dom = p.values, p.band, p.dom
    n = dom.n
    if p.undefined:
        return MonotoneDecomposition(
            (0, 0), (0, 0), (0, 0), "undefined", float("nan"), tol_r, False, p.undefined
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
            witnesses.append(_witness(p, "argmin_gap", (i, mid, j),
                                      "the set of grid minimizers is not contiguous"))
        return MonotoneDecomposition(
            (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r, False,
            tuple(witnesses),
        )

    # the first failing steps of the left flank, then of the right flank
    flank = [(i, "non_strict_decrease", "left flank is not strictly decreasing")
             for i in np.flatnonzero(~(deltas[: max(b0 - 1, 0)] < -tol_r))[:_WITNESS_CAP]]
    flank += [(b1 + 1 + i, "non_strict_increase", "right flank is not strictly increasing")
              for i in np.flatnonzero(~(deltas[b1 + 1 :] > tol_r))[: _WITNESS_CAP - len(flank)]]
    witnesses = [_witness(p, kind, (i, i + 1), detail) for i, kind, detail in flank]
    return MonotoneDecomposition(
        (0, b0), (b0, b1 + 1), (b1 + 1, n), "valley", vmin, tol_r,
        not witnesses, tuple(witnesses),
    )


def _stationarity_scan(
    p: SampledProblem, dec: MonotoneDecomposition
) -> tuple[list[Witness], list[Witness]]:
    """Find stationary grid points outside the minimum band.

    Returns (violations, blocked): blocked entries are points whose
    no-descent call rests on an unconverged estimate.
    """
    outside = np.ones(p.dom.n, dtype=bool)
    outside[dec.i_hat[0] : dec.i_hat[1]] = False
    profile = p.settle(outside)
    minus_desc, plus_desc = profile.descent(p.stat_tol)
    still = ~(minus_desc | plus_desc) & outside
    unconv = np.logical_or(*profile.unconverged())
    violations = [
        _witness(p, "stationary_outside_min", (i,), (
            "grid point outside the minimum band with no descending "
            "direction (lower Dini derivative >= -stat_tol both ways)"
        ))
        for i in np.flatnonzero(still & ~unconv)[:_WITNESS_CAP]
    ]
    blocked = [
        _witness(p, "unconverged_dini", (i,),
                 "no-descent call rests on an unconverged Dini estimate")
        for i in np.flatnonzero(still & unconv)[:_WITNESS_CAP]
    ]
    return violations, blocked


def _char_verdict(p: SampledProblem, strict: bool) -> Verdict:
    method = "strictly_pseudoconvex_char" if strict else "pseudoconvex_char"
    tol_r, stat_tol = p.band, p.stat_tol
    if p.undefined:
        return Verdict("inconclusive", method, tol_r, stat_tol, p.undefined,
                       notes="grid evaluation failed")
    dec = decompose(p)
    if not dec.ok:
        return Verdict("fails", method, tol_r, stat_tol, dec.witnesses,
                       notes=f"decomposition pattern: {dec.pattern}")
    witnesses: list[Witness] = []
    if strict and dec.pattern == "valley" and dec.band_size() > 2:
        lo, hi = dec.i_hat
        witnesses.append(_witness(p, "flat_minimum", (lo, hi - 1), (
            "minimum band spans more than one grid cell; the minimizer "
            "is not unique at this resolution"
        )))
    violations, blocked = _stationarity_scan(p, dec)
    witnesses.extend(violations)
    if witnesses:
        return Verdict("fails", method, tol_r, stat_tol, tuple(witnesses[:_WITNESS_CAP]),
                       notes=f"decomposition pattern: {dec.pattern}")
    if blocked:
        return Verdict("inconclusive", method, tol_r, stat_tol, tuple(blocked),
                       notes=f"decomposition pattern: {dec.pattern}")
    return Verdict("holds", method, tol_r, stat_tol,
                   notes=f"decomposition pattern: {dec.pattern}")


def pseudoconvex_char(p: SampledProblem) -> Verdict:
    """Structural pseudoconvexity: valid monotone decomposition and no
    stationary grid point outside the minimum band."""
    return _char_verdict(p, strict=False)


def strictly_pseudoconvex_char(p: SampledProblem) -> Verdict:
    """Structural strict pseudoconvexity: additionally, the minimum band may
    not span more than one grid cell (two adjacent points at most, so ties
    across a single cell are tolerated but plateaus are not)."""
    return _char_verdict(p, strict=True)


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


def martos_segments(p: SampledProblem) -> SegmentSplit:
    """Split grid values into strict decrease, a constant run, strict increase.

    The scan takes the longest strictly decreasing prefix (consecutive
    deltas below ``-tol``), then the longest constant run (deltas within
    ``tol``), and requires every remaining delta to exceed ``tol``.  The
    split is the semistrict-quasiconvexity shape test: any later descent or
    flat stretch invalidates it.
    """
    vals, tol_r, n = p.values, p.band, p.dom.n
    if p.undefined:
        return SegmentSplit((0, 0), (0, 0), (0, 0), False, tol_r, p.undefined[:1])
    deltas = np.diff(vals)
    # a run's length is the index of its first miss (argmin finds the
    # appended False when there is none)
    a = int(np.argmin(np.append(deltas < -tol_r, False)))
    b = a + int(np.argmin(np.append(np.abs(deltas[a:]) <= tol_r, False)))
    witnesses = [
        _witness(p, "second_descent" if deltas[i] < -tol_r else "plateau_after_rise",
                 (i, i + 1), "values stop increasing strictly after the constant run")
        for i in b + np.flatnonzero(~(deltas[b:] > tol_r))[:_WITNESS_CAP]
    ]
    return SegmentSplit(
        (0, a), (a, b + 1), (b + 1, n), not witnesses, tol_r, tuple(witnesses)
    )


def quasiconvex_martos(p: SampledProblem) -> Verdict:
    """Structural quasiconvexity: no strict rise followed by a strict fall.

    Equivalent to the grid values being weakly decreasing then weakly
    increasing up to ``tol``; the witness on failure is an ordered triple
    with the interior point above both ends.
    """
    vals, tol_r, stat_tol = p.values, p.band, p.stat_tol
    if p.undefined:
        return Verdict("inconclusive", "quasiconvex_martos", tol_r, stat_tol,
                       p.undefined[:1], notes="grid evaluation failed")
    deltas = np.diff(vals)
    rises = np.flatnonzero(deltas > tol_r)
    drops = np.flatnonzero(deltas < -tol_r)
    if rises.size and drops.size and rises[0] < drops[-1]:
        i = int(rises[0])
        j = int(drops[-1])
        z = i + 1 + int(np.argmax(vals[i + 1 : j + 1]))
        wit = _witness(p, "rise_then_fall", (i, z, j + 1), "a strict rise precedes a strict fall")
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

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

:func:`properties` is the one table of the four properties: each with its
definitional oracle and its structural classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .battery import LABELS
from .oracle import (
    _WITNESS_CAP,
    SampledProblem,
    Verdict,
    Witness,
    _first,
    _line_verdicts,
    _outcomes,
    _undefined_verdict,
    _witness,
    pseudoconvex_def,
    quasiconvex_def,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)

__all__ = [
    "MonotoneDecomposition",
    "SegmentSplit",
    "decompose",
    "pseudoconvex_char",
    "strictly_pseudoconvex_char",
    "martos_segments",
    "quasiconvex_martos",
    "semistrictly_quasiconvex_martos",
    "Property",
    "properties",
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


def decompose(p: SampledProblem) -> tuple[MonotoneDecomposition, ...]:
    """Split the grid into strict descent, minimum band, strict ascent.

    The band is every index whose value lies within ``tol`` of the grid
    minimum.  The split is valid (``ok``) when the band is contiguous, the
    left flank decreases strictly between its own points, and the right
    flank increases strictly.  Deltas at the junctions are absorbed by the
    band.  A strictly monotone grid running into an open endpoint reports
    an empty band instead: the infimum is not attained.  The lines of a
    problem are split together, one decomposition each.
    """
    vals, n, w = p.values, p.dom.n, p.values.shape[1]
    band, deltas = p.band[:, None], p._deltas
    with np.errstate(invalid="ignore"):
        vmin = np.min(vals, axis=1)
        inband = vals <= vmin[:, None] + band
    b0 = np.argmax(inband, axis=1)
    b1 = w - 1 - np.argmax(inband[:, ::-1], axis=1)
    gap = np.count_nonzero(inband, axis=1) != b1 - b0 + 1
    rise, fall = deltas > band, deltas < -band
    # strictly monotone toward an open end
    increasing = (n > 1) & (b0 == 0) & ~np.array([iv.lo_closed for iv in p.dom.interval])
    decreasing = (n > 1) & (b1 == n - 1) & ~np.array([iv.hi_closed for iv in p.dom.interval])
    increasing &= rise.all(axis=1)
    decreasing &= np.count_nonzero(fall, axis=1) == n - 1
    # the failing steps of the left flank, then of the right flank
    j = np.arange(w - 1)
    left = ~fall & (j < b0[:, None] - 1)
    right = ~rise & (j > b1[:, None])
    flank_ok = ~(left | right).any(axis=1)

    def split(i: int) -> MonotoneDecomposition:
        b0_i, b1_i, n_i, tol_i = int(b0[i]), int(b1[i]), int(n[i]), float(p.band[i])
        if p._bad[i]:
            return MonotoneDecomposition((0, 0), (0, 0), (0, 0), "undefined", float("nan"),
                                         tol_i, False, p.undefined[i])
        if increasing[i]:
            return MonotoneDecomposition((0, 0), (0, 0), (0, n_i), "empty_min_increasing",
                                         float(vmin[i]), tol_i, True)
        if decreasing[i]:
            return MonotoneDecomposition((0, n_i), (0, 0), (n_i, n_i), "empty_min_decreasing",
                                         float(vmin[i]), tol_i, True)
        witnesses = []
        if gap[i]:
            at = np.flatnonzero(inband[i])
            gaps = [(int(at[g]), int(at[g + 1])) for g in _first(np.diff(at) > 1)]
            witnesses = [_witness(p, "argmin_gap", (a, a + 1 + np.argmax(vals[i, a + 1 : b]), b),
                                  "the set of grid minimizers is not contiguous", i)
                         for a, b in gaps]
        elif not flank_ok[i]:
            flank = [(k, "non_strict_decrease", "left flank is not strictly decreasing")
                     for k in _first(left[i])]
            flank += [(k, "non_strict_increase", "right flank is not strictly increasing")
                      for k in _first(right[i])[: _WITNESS_CAP - len(flank)]]
            witnesses = [_witness(p, kind, (k, k + 1), detail, i) for k, kind, detail in flank]
        return MonotoneDecomposition((0, b0_i), (b0_i, b1_i + 1), (b1_i + 1, n_i), "valley",
                                     float(vmin[i]), tol_i, bool(flank_ok[i] and not gap[i]),
                                     tuple(witnesses))

    return tuple(split(i) for i in range(vals.shape[0]))


def _stationarity_scan(p: SampledProblem, line: int, found: tuple[np.ndarray, np.ndarray],
                       ) -> tuple[list[Witness], list[Witness]]:
    """The first (violations, blocked) witnesses of ``line``, from ``found``:
    :meth:`SampledProblem.stationary` outside the minimum bands."""
    violations, blocked = found
    return [
        _witness(p, "stationary_outside_min", (k,), (
            "grid point outside the minimum band with no descending "
            "direction (lower Dini derivative >= -stat_tol both ways)"), line)
        for k in _first(violations[line])
    ], [
        _witness(p, "unconverged_dini", (k,),
                 "no-descent call rests on an unconverged Dini estimate", line)
        for k in _first(blocked[line])
    ]


def _char_verdict(p: SampledProblem, strict: bool) -> tuple[Verdict, ...]:
    decs, idx = p.verdict(decompose), np.arange(p.dom.points.shape[1])
    # only the lines whose decomposition holds are scanned
    hat = np.array([dec.i_hat if dec.ok else (0, idx.size) for dec in decs])
    found = p.stationary(p.dom.valid & ((idx < hat[:, :1]) | (idx >= hat[:, 1:])))
    flat = [strict and dec.pattern == "valley" and dec.band_size() > 2 for dec in decs]

    def witnesses(i: int) -> tuple[Witness, ...]:
        if not decs[i].ok:
            return decs[i].witnesses
        violations, blocked = _stationarity_scan(p, i, found)
        if not (flat[i] or violations):
            return blocked
        lo, hi = decs[i].i_hat
        flats = [_witness(p, "flat_minimum", (lo, hi - 1), (
            "minimum band spans more than one grid cell; the minimizer "
            "is not unique at this resolution"), i)] if flat[i] else []
        return (flats + violations)[:_WITNESS_CAP]

    return _line_verdicts(
        p, "strictly_pseudoconvex_char" if strict else "pseudoconvex_char",
        _outcomes(~np.array([dec.ok for dec in decs]) | flat | found[0].any(axis=1),
                  found[1].any(axis=1)),
        witnesses, [f"decomposition pattern: {dec.pattern}" for dec in decs],
        lambda p, method, i: _undefined_verdict(p, method, i, band=True))


def pseudoconvex_char(p: SampledProblem) -> tuple[Verdict, ...]:
    """Structural pseudoconvexity: valid monotone decomposition and no
    stationary grid point outside the minimum band."""
    return _char_verdict(p, strict=False)


def strictly_pseudoconvex_char(p: SampledProblem) -> tuple[Verdict, ...]:
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


def _run_length(mask: np.ndarray) -> np.ndarray:
    """The length of the leading run of True in each row of ``mask``: its first False."""
    return np.argmin(np.concatenate((mask, np.zeros((len(mask), 1), bool)), axis=1), axis=1)


def martos_segments(p: SampledProblem) -> tuple[SegmentSplit, ...]:
    """Split grid values into strict decrease, a constant run, strict increase.

    The scan takes the longest strictly decreasing prefix (consecutive
    deltas below ``-tol``), then the longest constant run (deltas within
    ``tol``), and requires every remaining delta to exceed ``tol``.  The
    split is the semistrict-quasiconvexity shape test: any later descent or
    flat stretch invalidates it.  The lines of a problem are split
    together, one split each.
    """
    deltas, band = p._deltas, p.band[:, None]
    j = np.arange(deltas.shape[1])
    a = _run_length(deltas < -band)
    b = _run_length((np.abs(deltas) <= band) | (j < a[:, None]))
    late = ~(deltas > band) & (j >= b[:, None])
    valid = ~late.any(axis=1)

    def split(i: int) -> SegmentSplit:
        tol_i, a_i, b_i, n_i = float(p.band[i]), int(a[i]), int(b[i]), int(p.dom.n[i])
        if p._bad[i]:
            return SegmentSplit((0, 0), (0, 0), (0, 0), False, tol_i,
                                p.undefined[i][:1])
        return SegmentSplit((0, a_i), (a_i, b_i + 1), (b_i + 1, n_i), bool(valid[i]), tol_i,
                            tuple(_witness(p, "second_descent" if deltas[i, k] < -tol_i else
                                           "plateau_after_rise", (k, k + 1),
                                           "values stop increasing strictly after the "
                                           "constant run", i)
                                  for k in (() if valid[i] else _first(late[i]))))

    return tuple(split(i) for i in range(deltas.shape[0]))


def quasiconvex_martos(p: SampledProblem) -> tuple[Verdict, ...]:
    """Structural quasiconvexity: no strict rise followed by a strict fall.

    Equivalent to the grid values being weakly decreasing then weakly
    increasing up to ``tol``; the witness on failure is an ordered triple
    with the interior point above both ends.
    """
    deltas, band = p._deltas, p.band[:, None]
    rises = (deltas > band) & p.dom.valid[:, 1:]
    drops = deltas < -band
    any_rise, any_drop = rises.any(axis=1), drops.any(axis=1)
    first_rise = _run_length(~rises)
    last_drop = deltas.shape[1] - 1 - _run_length(~drops[:, ::-1])
    fails = any_rise & any_drop & (first_rise < last_drop)
    shape = {(False, False): "constant", (False, True): "weakly_decreasing",
             (True, False): "weakly_increasing", (True, True): "valley"}

    def triple(i: int) -> list[Witness]:
        r, d = int(first_rise[i]), int(last_drop[i])
        z = r + 1 + int(np.argmax(p.values[i, r + 1 : d + 1]))
        return [_witness(p, "rise_then_fall", (r, z, d + 1),
                         "a strict rise precedes a strict fall", i)]

    return _line_verdicts(
        p, "quasiconvex_martos", _outcomes(fails), triple,
        ["" if f else f"shape: {shape[r, d]}"
         for f, r, d in zip(fails.tolist(), any_rise.tolist(), any_drop.tolist())],
        lambda p, method, i: _undefined_verdict(p, method, i, band=True, keep=1))


def semistrictly_quasiconvex_martos(p: SampledProblem) -> tuple[Verdict, ...]:
    """Structural semistrict quasiconvexity: the :func:`martos_segments`
    split is valid.  Its verdict carries the split's band and witnesses and
    no stationarity tolerance."""
    return tuple(Verdict("holds" if split.valid else "fails", "martos_segments", split.tol, 0.0,
                         split.witnesses)
                 for split in martos_segments(p))


@dataclass(frozen=True)
class Property:
    """One property: its battery label, its ``classify --check`` name, its
    definitional oracle, and the name and classifier of its structural
    method."""

    label: str
    check: str
    definition: Callable[[SampledProblem], tuple[Verdict, ...]]
    method: str
    characterization: Callable[[SampledProblem], tuple[Verdict, ...]]

    def verdicts(self, p: SampledProblem, method: str = "both") -> dict[str, tuple[Verdict, ...]]:
        """The kept verdicts on ``p`` of each method ``method`` asks for, by name."""
        out = {}
        if method != "structural":
            out["definitional"] = p.verdict(self.definition)
        if method != "definitional":
            out[self.method] = p.verdict(self.characterization)
        return out


def properties() -> tuple[Property, ...]:
    """The four properties, in the order of :data:`~dinicvx.battery.LABELS`.

    Built per call, so each classifier is looked up as this module now binds
    it: a rebound (traced) name is seen.
    """
    return tuple(Property(label, *methods) for label, methods in zip(LABELS, (
        ("pseudoconvex", pseudoconvex_def, "characterization", pseudoconvex_char),
        ("strict-pseudoconvex", strictly_pseudoconvex_def, "characterization",
         strictly_pseudoconvex_char),
        ("quasiconvex", quasiconvex_def, "martos", quasiconvex_martos),
        ("semistrict-quasiconvex", semistrictly_quasiconvex_def, "martos",
         semistrictly_quasiconvex_martos))))

"""A check of a one-variable ``classify`` report against its expression.

:func:`report_problems` reads the report's JSON text and evaluates the
expression with ``tests/expr_reference.py`` alone, never with the package's
evaluator; ``dinicvx.expr.parse`` only gives it the tree to walk, and
``tests/dini_reference.py`` gives the Dini estimates.  The grid is rebuilt
from the report's config as ``np.linspace`` between the ends, each open end
pulled in by the margin.  It checks that

- every witness point is a grid point, and so in the domain;
- f there is the reported value, bit for bit (a zero keeps its sign, and an
  undefined value is NaN);
- each conclusive verdict's ``tol`` is the config's ``tol`` or, unset, the
  band ``1e-9 * (1 + max |finite value|)`` of the grid values, bit for bit;
- each witness of a kind below shows its inequality with its verdict's
  ``tol`` and ``stat_tol``: an ``interior_peak`` (x, z, y) has phi(z) >
  max(phi(x), phi(y)) + tol; a ``non_descending_interior`` (x, z, y) has
  phi(y) < phi(x) - tol <= phi(z); a ``no_descent`` (x, y) has its premise,
  phi(y) < phi(x) - tol (phi(y) <= phi(x) + tol for strict
  pseudoconvexity), and a reference estimate at x toward y of at least
  -stat_tol;
- a witness's ``"dini"`` block is the reference ``is_stationary`` estimates
  at its first point, field by field and bit for bit, and is left out
  where there are none;
- a decomposition's three index ranges tile the grid, each range's size and
  first and last points as its indices give them, and a ``pseudoconvex``
  characterization that holds comes with a decomposition that is valid;
- a valid ``valley`` decomposition's ranges hold the grid values it claims,
  with its ``tol``: each step inside ``i_minus`` below -tol, each value on
  ``i_hat`` within tol above the grid minimum, and each step inside
  ``i_plus`` above tol.  The steps at the junctions belong to the band.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import asdict

import numpy as np

from dini_reference import is_stationary
from dinicvx.dini import DiniSchedule
from dinicvx.domain import parse_interval
from dinicvx.expr import parse
from expr_reference import eval_many_reference

_INTERVAL = re.compile(r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$")
_SPECIAL = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def _float(v) -> float:
    return _SPECIAL[v] if isinstance(v, str) else float(v)


def _same(a: float, b: float) -> bool:
    """Equal bits, every NaN alike: the report prints each NaN as "nan"."""
    return (a != a and b != b) or struct.pack("<d", a) == struct.pack("<d", b)


def grid_of(config: dict) -> np.ndarray:
    """The grid of ``config["domain"]``: ``config["grid"]`` uniform points,
    a closed end included and an open one pulled in by the margin."""
    lb, lo, hi, rb = _INTERVAL.match(config["domain"]).groups()
    lo = float(lo) if lb == "[" else float(lo) + config["margin"]
    hi = float(hi) if rb == "]" else float(hi) - config["margin"]
    return np.linspace(lo, hi, int(config["grid"]))


def _verdicts(report: dict):
    """(check, method, verdict) for every method of every check."""
    for check, found in sorted(report["checks"].items()):
        for method, verdict in sorted(found["methods"].items()):
            yield check, method, verdict


def _band(values: np.ndarray) -> float:
    """The default ``tol`` of a grid's values: 1e-9 * (1 + max |finite value|)."""
    finite = np.abs(values[np.isfinite(values)])
    return 1e-9 * (1.0 + (finite.max() if finite.size else 0.0))


def _shows(check: str, kind: str, v: list[float], tol: float, stat_tol: float,
           toward) -> bool:
    """Whether a witness of ``kind`` with the values ``v`` shows what it
    claims; ``toward()`` is the reference estimate at x toward y, or None."""
    if kind == "interior_peak":
        return v[1] > max(v[0], v[2]) + tol
    if kind == "non_descending_interior":
        return v[2] < v[0] - tol <= v[1]
    if kind == "no_descent":
        premise = v[1] <= v[0] + tol if check == "strict-pseudoconvex" else v[1] < v[0] - tol
        est = toward()
        return premise and est is not None and est.unit_value >= -stat_tol
    return True


def _same_field(got, want) -> bool:
    """A reported estimate field is the reference's, a trace entry by entry."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, map(_float, got), want))
    return _same(_float(got), float(want))


def _dini_problems(block: dict, want: dict) -> list[str]:
    """How a witness's ``"dini"`` block differs from the reference estimates."""
    got = {("+1" if side == "plus" else "-1"): est for side, est in block.items()}
    if set(got) != set(want):
        return [f"dini sides {sorted(got)}, reference {sorted(want)}"]
    return [f"dini {label} {name} is {ref!r}, reported {got[label][name]!r}"
            for label, est in sorted(want.items()) for name, ref in asdict(est).items()
            if not _same_field(got[label][name], ref)]


def _tiling(dec: dict, grid: np.ndarray) -> list[str]:
    problems, end = [], 0
    for name in ("i_minus", "i_hat", "i_plus"):
        r = dec[name]
        start, stop = int(r["start"]), int(r["end"])
        if start != end or stop < start:
            problems.append(f"decomposition {name} [{start}, {stop}) does not follow {end}")
        if int(r["size"]) != stop - start:
            problems.append(f"decomposition {name} size {r['size']} is not {stop - start}")
        if stop > start and not (0 <= start and stop <= grid.size and _same(
                _float(r["t_first"]), float(grid[start])) and _same(
                _float(r["t_last"]), float(grid[stop - 1]))):
            problems.append(f"decomposition {name} ends are not grid points {start}, {stop - 1}")
        end = stop
    if end != grid.size:
        problems.append(f"decomposition ends at {end}, not at the grid's {grid.size} points")
    return problems


def _split(dec: dict, values: np.ndarray) -> list[str]:
    """How a valid ``valley`` decomposition's ranges miss the grid ``values``."""
    if not (dec["ok"] and dec["pattern"] == "valley"):
        return []
    tol, low, deltas = _float(dec["tol"]), float(np.min(values)), np.diff(values)
    (a, b), (c, d), (e, f) = ((int(dec[name]["start"]), int(dec[name]["end"]))
                              for name in ("i_minus", "i_hat", "i_plus"))
    return [f"decomposition i_minus step {k} is {float(deltas[k])!r}, not below -tol"
            for k in range(a, b - 1) if not deltas[k] < -tol] + [
        f"decomposition i_hat value {k} is {float(values[k])!r}, not within tol of the minimum"
        for k in range(c, d) if not low <= values[k] <= low + tol] + [
        f"decomposition i_plus step {k} is {float(deltas[k])!r}, not above tol"
        for k in range(e, f - 1) if not deltas[k] > tol]


def report_problems(text: str) -> list[str]:
    """What in the 1-D ``classify`` report ``text`` disagrees with its
    expression and its grid: empty when the report checks."""
    # an integer as a float keeps the sign of a zero printed "-0"
    report = json.loads(text, parse_int=float)
    config = report["config"]
    grid = grid_of(config)
    fn = parse(config["function"], 1)
    phi = lambda ts: eval_many_reference(fn, ts)
    on_grid = phi(grid)
    band = _band(on_grid) if config["tol"] is None else config["tol"]
    d = config["dini"]
    schedule = DiniSchedule(d["t0"], d["ratio"], int(d["steps"]), d["dini_tol"])
    feasible = parse_interval(config["domain"])
    at: dict[str, dict] = {}  # the reference estimates at a point, by its repr

    def estimates(t: float) -> dict:
        if repr(t) not in at:
            try:
                at[repr(t)] = is_stationary(phi, t, feasible, schedule).estimates
            except ValueError:  # outside the domain, or undefined there
                at[repr(t)] = {}
        return at[repr(t)]

    problems = []
    for check, method, verdict in _verdicts(report):
        tol, stat_tol = _float(verdict["tol"]), _float(verdict["stat_tol"])
        if verdict["outcome"] != "inconclusive" and not _same(tol, band):
            problems.append(f"{check}/{method}: tol {tol!r} is not the band {band!r}")
        for k, w in enumerate(verdict["witnesses"]):
            where = f"{check}/{method}/witness{k}"
            points = np.array([_float(t) for t in w["points"]])
            off = [t for t in points.tolist() if not (grid == t).any()]
            if off:
                problems.append(f"{where}: {off} not grid points")
            values = phi(points).tolist() if points.size else []
            for t, got, want in zip(points.tolist(), map(_float, w["values"]), values):
                if not _same(got, want):
                    problems.append(f"{where}: f({t!r}) is {want!r}, reported {got!r}")
            if not points.size:
                continue
            x = float(points[0])
            if not _shows(check, w["kind"], values, tol, stat_tol, lambda: estimates(x).get(
                    "+1" if points[-1] > x else "-1")):
                problems.append(f"{where}: the {w['kind']} inequality fails")
            problems += [f"{where}: {p}" for p in _dini_problems(w.get("dini", {}),
                                                                  estimates(x))]
    dec = report.get("decomposition")
    if dec is not None:
        problems += _tiling(dec, grid) + _split(dec, on_grid)
    char = report["checks"].get("pseudoconvex", {}).get("methods", {}).get("characterization")
    if char is not None and char["outcome"] == "holds" and not (dec and dec["ok"]):
        problems.append("pseudoconvex characterization holds without a valid decomposition")
    return problems

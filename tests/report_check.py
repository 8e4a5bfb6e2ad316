"""A check of a one-variable ``classify`` report against its expression.

:func:`report_problems` reads the report's JSON text and evaluates the
expression with ``tests/expr_reference.py`` alone, never with the package's
evaluator; ``dinicvx.expr.parse`` only gives it the tree to walk.  The grid
is rebuilt from the report's config as ``np.linspace`` between the ends,
each open end pulled in by the margin.  It checks that

- every witness point is a grid point, and so in the domain;
- f there is the reported value, bit for bit (a zero keeps its sign, and an
  undefined value is NaN);
- a decomposition's three index ranges tile the grid, each range's size and
  first and last points as its indices give them, and a ``pseudoconvex``
  characterization that holds comes with a decomposition that is valid.
"""

from __future__ import annotations

import json
import re
import struct

import numpy as np

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


def _witnesses(report: dict):
    """(where, witness) for every witness of every check and method."""
    for check, found in sorted(report["checks"].items()):
        for method, verdict in sorted(found["methods"].items()):
            for k, w in enumerate(verdict["witnesses"]):
                yield f"{check}/{method}/witness{k}", w


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


def report_problems(text: str) -> list[str]:
    """What in the 1-D ``classify`` report ``text`` disagrees with its
    expression and its grid: empty when the report checks."""
    # an integer as a float keeps the sign of a zero printed "-0"
    report = json.loads(text, parse_int=float)
    config = report["config"]
    grid = grid_of(config)
    fn = parse(config["function"], 1)
    problems = []
    for where, w in _witnesses(report):
        points = np.array([_float(t) for t in w["points"]])
        off = [t for t in points.tolist() if not (grid == t).any()]
        if off:
            problems.append(f"{where}: {off} not grid points")
        values = eval_many_reference(fn, points).tolist() if points.size else []
        for t, got, want in zip(points.tolist(), map(_float, w["values"]), values):
            if not _same(got, want):
                problems.append(f"{where}: f({t!r}) is {want!r}, reported {got!r}")
    dec = report.get("decomposition")
    if dec is not None:
        problems += _tiling(dec, grid)
    char = report["checks"].get("pseudoconvex", {}).get("methods", {}).get("characterization")
    if char is not None and char["outcome"] == "holds" and not (dec and dec["ok"]):
        problems.append("pseudoconvex characterization holds without a valid decomposition")
    return problems

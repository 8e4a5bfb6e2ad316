"""A check of a one-variable ``classify``, ``decompose`` or ``dini`` report
against its expression.

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
  ``i_plus`` above tol.  The steps at the junctions belong to the band;
- a ``decompose`` report's decomposition checks as above, and its
  ``"martos"`` ranges tile the grid in the same way.  A valid martos split
  holds the grid values with its ``tol``: each step up to the first
  ``constant`` point below -tol, each step inside ``constant`` within tol,
  and each step from its last point on above tol.  Where a grid value is
  undefined or not finite, every range of both is empty and neither is
  valid;
- a ``dini`` report's ``"estimate"`` is the reference estimate at ``at``
  toward sign(``direction``), field by field and bit for bit, its ``value``
  scaled by |``direction``|.

A multivariate ``classify`` report is checked against its config alone:

- it has ``config.pairs`` pairs, each with x != y, both in the box, its
  open faces honoured;
- each pair's ``feasible`` interval holds 0 and 1, and the line's point
  (1 - s) x + s y at each finite end s lies on a face of the box, within
  1e-12 relative to max(1, |face|).  An end may be printed as
  ``np.float64(...)`` (ROADMAP item 1), which is read through;
- each pair has an outcome, ``holds``, ``fails`` or ``inconclusive``, for
  exactly the methods of each check that ``--method`` asks for;
- each check's ``methods_aggregate`` is the merge of its pair outcomes:
  ``fails`` if any pair fails, else ``inconclusive`` if any is, else
  ``holds``;
- each check's ``agree`` and ``outcome``, and the report's ``agreement``
  and ``inconclusive``, follow from the aggregates.

A ``verify-theorems`` report is checked against the manifest entries it
ran on, in their order:

- every case's status is ``ok``, ``vacuous``, ``inconclusive`` or
  ``FAIL``, and its theorem ``label``, ``T3``, ``T4``, ``T6``, ``T7`` or
  ``Lpr1``;
- ``n_vacuous`` and ``n_inconclusive`` count those cases, and ``ok`` is
  true exactly when no case is ``FAIL``;
- ``label_mismatches`` names each ``FAIL`` label case once, in case order,
  as ``"{id}: {label} expected {holds|fails}, got {outcome}"``;
- a 1-D entry has its label cases in sorted label order, then T3 exactly
  when ``lsc``, T4 exactly when ``radially_continuous``, then T7; a 2-D
  entry has T6, then, exactly when it is labelled quasiconvex, an Lpr1
  case ``{id}#pair{k}`` for each k below its explicit pairs plus
  ``config.pairs``;
- an ``ok`` Lpr1 detail has (A or B) == C, and a ``FAIL`` one has them
  differ; an ``ok`` T6 detail reads ``both sides hold`` or ``both sides
  fail``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import asdict, replace

import numpy as np

from dini_reference import is_stationary
from dinicvx.dini import DiniSchedule
from dinicvx.domain import parse_interval
from dinicvx.expr import parse
from expr_reference import eval_many_reference

_INTERVAL = re.compile(r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$")
_SPECIAL = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


_FLOAT64 = re.compile(r"np\.float64\(([^()]*)\)")
_OUTCOMES = ("holds", "fails", "inconclusive")
_STATUSES = ("ok", "vacuous", "inconclusive", "FAIL")
_THEOREMS = ("label", "T3", "T4", "T6", "T7", "Lpr1")
_ABC = re.compile(r"^A=(True|False) \(over \d+ directions\), B=(True|False), C=(True|False), ")
# the structural method of each check; "both" asks for it and the definitional one
_STRUCTURAL = {"pseudoconvex": "characterization", "strict-pseudoconvex": "characterization",
               "quasiconvex": "martos", "semistrict-quasiconvex": "martos"}


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


DECOMPOSITION = ("decomposition", ("i_minus", "i_hat", "i_plus"))
MARTOS = ("martos", ("decreasing", "constant", "increasing"))


def _tiling(split: dict, grid: np.ndarray, of=DECOMPOSITION) -> list[str]:
    """How the ranges of ``split``, ``of`` = (its label, its range names),
    fail to tile the grid in order."""
    label, names = of
    problems, end = [], 0
    for name in names:
        r = split[name]
        start, stop = int(r["start"]), int(r["end"])
        if start != end or stop < start:
            problems.append(f"{label} {name} [{start}, {stop}) does not follow {end}")
        if int(r["size"]) != stop - start:
            problems.append(f"{label} {name} size {r['size']} is not {stop - start}")
        if stop > start and not (0 <= start and stop <= grid.size and _same(
                _float(r["t_first"]), float(grid[start])) and _same(
                _float(r["t_last"]), float(grid[stop - 1]))):
            problems.append(f"{label} {name} ends are not grid points {start}, {stop - 1}")
        end = stop
    if end != grid.size:
        problems.append(f"{label} ends at {end}, not at the grid's {grid.size} points")
    return problems


def _empty(split: dict, of, valid: str) -> list[str]:
    """How ``split``, of a grid with an undefined value, is not empty and invalid."""
    label, names = of
    return [f"{label} {name} is not empty at 0" for name in names
            if (split[name]["start"], split[name]["end"]) != (0, 0)] + (
        [f"{label} is {valid} on an undefined grid"] if split[valid] else [])


def _martos(split: dict, values: np.ndarray) -> list[str]:
    """How a valid martos split's ranges miss the grid ``values``."""
    if not split["valid"]:
        return []
    tol, deltas = _float(split["tol"]), np.diff(values)
    a, b = int(split["constant"]["start"]), int(split["constant"]["end"])
    return [f"martos step {k} is {float(deltas[k])!r}, not below -tol"
            for k in range(a) if not deltas[k] < -tol] + [
        f"martos constant step {k} is {float(deltas[k])!r}, not within tol"
        for k in range(a, b - 1) if not abs(deltas[k]) <= tol] + [
        f"martos step {k} is {float(deltas[k])!r}, not above tol"
        for k in range(b - 1, deltas.size) if not deltas[k] > tol]


def _decompose_problems(report: dict, grid: np.ndarray, values: np.ndarray) -> list[str]:
    """How a ``decompose`` report's two splits miss the grid ``values``."""
    dec, martos = report["decomposition"], report["martos"]
    if not np.isfinite(values).all():
        return _empty(dec, DECOMPOSITION, "ok") + _empty(martos, MARTOS, "valid")
    return (_tiling(dec, grid) + _split(dec, values) + _tiling(martos, grid, MARTOS)
            + _martos(martos, values))


def _estimate_problems(report: dict, phi, feasible, schedule: DiniSchedule) -> list[str]:
    """How a ``dini`` report's estimate differs from the reference estimate
    at ``at`` toward sign(``direction``), its value scaled by |direction|."""
    at, u = _float(report["at"]), _float(report["direction"])
    est = is_stationary(phi, at, feasible, schedule).estimates.get("+1" if u > 0 else "-1")
    if est is None:
        return [f"no reference estimate at {at!r} toward {u!r}"]
    got = report["estimate"]
    return [f"estimate {name} is {ref!r}, reported {got[name]!r}"
            for name, ref in asdict(replace(est, value=abs(u) * est.unit_value)).items()
            if not _same_field(got[name], ref)]


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


def _interval(text: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo_closed, hi_closed) of bracket notation, an end maybe
    printed as ``np.float64(...)``."""
    lb, lo, hi, rb = _INTERVAL.match(_FLOAT64.sub(r"\1", text)).groups()
    return float(lo), float(hi), lb == "[", rb == "]"


def _within(v: float, iv: tuple[float, float, bool, bool]) -> bool:
    lo, hi, lo_closed, hi_closed = iv
    return (lo <= v if lo_closed else lo < v) and (v <= hi if hi_closed else v < hi)


def _merge(outcomes) -> str:
    """``fails`` if any outcome is, else ``inconclusive`` if any is, else ``holds``."""
    return next((o for o in ("fails", "inconclusive") if o in outcomes), "holds")


def _pair_problems(where: str, pair: dict, box: list) -> list[str]:
    """How a pair's points and feasible interval miss the box."""
    problems = []
    x, y = (np.array([_float(v) for v in pair[end]]) for end in ("x", "y"))
    if (x == y).all():
        problems.append(f"{where}: x equals y")
    for name, point in (("x", x), ("y", y)):
        if point.size != len(box) or not all(map(_within, point.tolist(), box)):
            problems.append(f"{where}: {name} {point.tolist()} is outside the box")
    feasible = _interval(pair["feasible"])
    if not (_within(0.0, feasible) and _within(1.0, feasible)):
        problems.append(f"{where}: feasible {pair['feasible']} misses 0 or 1")
    for s in filter(math.isfinite, feasible[:2]):
        point = ((1.0 - s) * x + s * y).tolist()
        if not any(abs(v - face) <= 1e-12 * max(1.0, abs(face))
                   for v, iv in zip(point, box) for face in iv[:2]):
            problems.append(f"{where}: the point {point} at the feasible end {s!r} "
                            "is on no face of the box")
    return problems


def _multivariate_problems(report: dict) -> list[str]:
    """How a multivariate ``classify`` report disagrees with its config and
    with itself."""
    config = report["config"]
    box = [_interval(part) for part in config["box"].split("x")]
    asked = {check: {"both": {"definitional", _STRUCTURAL[check]},
                     "definitional": {"definitional"},
                     "structural": {_STRUCTURAL[check]}}[config["method"]]
             for check in config["checks"]}
    problems = [] if len(report["pairs"]) == config["pairs"] else [
        f"{len(report['pairs'])} pairs, config asks for {config['pairs']}"]
    outcomes = {check: {method: [] for method in sorted(methods)}
                for check, methods in asked.items()}
    for k, pair in enumerate(report["pairs"]):
        where = f"pair{k}"
        problems += _pair_problems(where, pair, box)
        if set(pair["checks"]) != set(asked):
            problems.append(f"{where}: checks {sorted(pair['checks'])}, asked {sorted(asked)}")
        for check, methods in asked.items():
            got = pair["checks"].get(check, {})
            if set(got) != methods:
                problems.append(f"{where}: {check} methods {sorted(got)}, asked {sorted(methods)}")
            for method in sorted(methods & set(got)):
                if got[method] not in _OUTCOMES:
                    problems.append(f"{where}: {check}/{method} outcome {got[method]!r}")
                outcomes[check][method].append(got[method])
    if set(report["checks"]) != set(asked):
        problems.append(f"checks {sorted(report['checks'])}, asked {sorted(asked)}")
    aggregates = []
    for check, by_method in outcomes.items():
        found = report["checks"].get(check, {})
        aggregate = found.get("methods_aggregate")
        want = {method: _merge(outs) for method, outs in by_method.items()}
        if aggregate != want:
            problems.append(f"{check}: methods_aggregate {aggregate}, the pairs merge to {want}")
        aggregates.append(want)
        agree = len({o for o in want.values() if o != "inconclusive"}) <= 1
        if found.get("agree") != agree:
            problems.append(f"{check}: agree is {found.get('agree')}, the aggregates say {agree}")
        if found.get("outcome") != _merge(list(want.values())):
            problems.append(f"{check}: outcome {found.get('outcome')!r}, the aggregates merge "
                            f"to {_merge(list(want.values()))!r}")
    agreement = all(len({o for o in a.values() if o != "inconclusive"}) <= 1 for a in aggregates)
    inconclusive = any("inconclusive" in a.values() for a in aggregates)
    if (report["agreement"], report["inconclusive"]) != (agreement, inconclusive):
        problems.append(f"agreement {report['agreement']} and inconclusive "
                        f"{report['inconclusive']}, the aggregates say {agreement} and "
                        f"{inconclusive}")
    return problems


def _expected_cases(entries, pairs: int) -> list[tuple[str, str, str | None]]:
    """(theorem, function, label or None) of each case a run of ``entries``
    makes, in order."""
    cases = []
    for e in entries:
        if e.arity == 1:
            cases += [("label", e.id, name) for name in sorted(e.expected or {})]
            cases += [(t, e.id, None) for t, wanted in (
                ("T3", e.lsc), ("T4", e.radially_continuous), ("T7", True)) if wanted]
        else:
            cases.append(("T6", e.id, None))
            if (e.expected or {}).get("quasiconvex"):
                cases += [("Lpr1", f"{e.id}#pair{k}", None)
                          for k in range(len(e.pairs or ()) + pairs)]
    return cases


def _verify_problems(report: dict, entries) -> list[str]:
    """How a ``verify-theorems`` report disagrees with the ``entries`` it
    ran on and with itself."""
    cases, problems = report["cases"], []
    for k, c in enumerate(cases):
        where = f"case{k} [{c['theorem']}] {c['function']}"
        if c["status"] not in _STATUSES or c["theorem"] not in _THEOREMS:
            problems.append(f"{where}: status {c['status']!r} or theorem {c['theorem']!r}")
        if c["theorem"] == "Lpr1" and c["status"] in ("ok", "FAIL"):
            abc = _ABC.match(c["detail"])  # (A or B) == C is what an ok case shows
            agree = abc and (abc[1] == "True" or abc[2] == "True") == (abc[3] == "True")
            if abc is None or agree != (c["status"] == "ok"):
                problems.append(f"{where}: {c['status']} with detail {c['detail']!r}")
        if (c["theorem"] == "T6" and c["status"] == "ok"
                and c["detail"] not in ("both sides hold", "both sides fail")):
            problems.append(f"{where}: ok with detail {c['detail']!r}")
    for key, status in (("n_vacuous", "vacuous"), ("n_inconclusive", "inconclusive")):
        count = sum(c["status"] == status for c in cases)
        if report[key] != count:
            problems.append(f"{key} {report[key]}, the cases count {count}")
    fails = [c for c in cases if c["status"] == "FAIL"]
    if report["ok"] != (not fails):
        problems.append(f"ok is {report['ok']} with {len(fails)} FAIL cases")
    labels = {e.id: e.expected or {} for e in entries}
    mismatches = []
    for c in fails:
        if c["theorem"] == "label":
            want = labels.get(c["function"], {}).get(c["detail"])
            mismatches.append(f"{c['function']}: {c['detail']} expected "
                              f"{'holds' if want else 'fails'}, got {'fails' if want else 'holds'}")
    if report["label_mismatches"] != mismatches:
        problems.append(f"label_mismatches {report['label_mismatches']}, the FAIL label cases "
                        f"give {mismatches}")
    got = [(c["theorem"], c["function"], c["detail"] if c["theorem"] == "label" else None)
           for c in cases]
    want = _expected_cases(entries, int(report["config"]["pairs"]))
    if got != want:
        k = next(k for k, (g, w) in enumerate(zip(got + [None], want + [None])) if g != w)
        problems.append(f"case{k} is {(got + [None])[k]}, the entries make {(want + [None])[k]}")
    return problems


def python_reprs(obj) -> list[str]:
    """The strings in a report that hold a Python repr such as ``np.float64(...)``."""
    if isinstance(obj, dict):
        return [r for v in obj.values() for r in python_reprs(v)]
    if isinstance(obj, list):
        return [r for v in obj for r in python_reprs(v)]
    return [obj] if isinstance(obj, str) and re.search(r"\b(np|numpy)\.\w+\(", obj) else []


def report_problems(text: str, entries=()) -> list[str]:
    """What in the ``classify``, 1-D ``decompose`` or ``dini`` report
    ``text`` disagrees with its expression and its grid, a multivariate
    ``classify`` report with its config, or a ``verify-theorems`` report
    with the manifest ``entries`` it ran on: empty when the report checks."""
    # an integer as a float keeps the sign of a zero printed "-0"
    report = json.loads(text, parse_int=float)
    config = report["config"]
    if report["command"] == "verify-theorems":
        return _verify_problems(report, entries)
    if config["arity"] > 1:
        return _multivariate_problems(report)
    fn = parse(config["function"], 1)
    phi = lambda ts: eval_many_reference(fn, ts)
    d = config["dini"]
    schedule = DiniSchedule(d["t0"], d["ratio"], int(d["steps"]), d["dini_tol"])
    feasible = parse_interval(config["domain"])
    if report["command"] == "dini":
        return _estimate_problems(report, phi, feasible, schedule)
    grid = grid_of(config)
    on_grid = phi(grid)
    if report["command"] == "decompose":
        return _decompose_problems(report, grid, on_grid)
    band = _band(on_grid) if config["tol"] is None else config["tol"]
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

"""Benchmark batteries: hand-labeled functions plus a seeded random family.

The golden battery is a fixed list of expressions whose classification
outcomes were worked out by hand; it pins the four classifiers to known
answers across the qualitative regimes (smooth valleys, kinks, plateaus at
and off the minimum, lower-semicontinuous jumps, monotone ramps, peaks,
double wells, undefined values).  The random battery generates piecewise
cubic functions that are lower semicontinuous by construction.  Valley and
monotone draws carry expected labels with comfortable numeric margins
(piece slopes at least 0.05 in magnitude, jumps at least 0.05); arbitrary
draws carry no labels and exercise pure oracle/characterization agreement.

Every function is an expression string, which ``run_battery`` parses before
any entry runs, so anything the battery classifies flows through the grammar.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "BatteryEntry",
    "golden_battery",
    "random_battery",
    "write_manifest",
    "load_manifest",
]

LABELS = ("pseudoconvex", "strictly_pseudoconvex", "quasiconvex",
          "semistrictly_quasiconvex")


@dataclass(frozen=True)
class BatteryEntry:
    """One benchmark function with optional hand-derived expected labels.

    ``expected`` maps label names to booleans, or is None for entries used
    only for method-agreement checks.  ``lsc`` and ``radially_continuous``
    gate which theorem checks apply.  ``pairs`` optionally pins explicit
    (x, y) point pairs for restriction-based checks on multivariate
    entries.
    """

    id: str
    expression: str
    arity: int
    domain: str | None = None
    box: tuple[str, ...] | None = None
    lsc: bool = True
    radially_continuous: bool = True
    expected: dict[str, bool] | None = None
    pairs: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] | None = None
    tags: tuple[str, ...] = ()


def _exp(*flags: bool) -> dict[str, bool]:
    """Expected labels: one flag per label of :data:`LABELS`, in its order."""
    return dict(zip(LABELS, flags, strict=True))


def golden_battery() -> tuple[BatteryEntry, ...]:
    """The fixed hand-labeled battery."""
    e: list[BatteryEntry] = []

    def add(id_, expr, dom, pc, spc, qc, ssqc, *, lsc=True, rc=True, tags=()):
        e.append(
            BatteryEntry(
                id=id_, expression=expr, arity=1, domain=dom, lsc=lsc,
                radially_continuous=rc, expected=_exp(pc, spc, qc, ssqc),
                tags=("golden",) + tuple(tags),
            )
        )

    add("sq", "t^2", "[-1,1]", True, True, True, True, tags=("smooth",))
    add("cube", "t^3", "[-1,1]", False, False, True, True,
        tags=("smooth", "stationary_nonmin"))
    add("vee", "abs(t)", "[-1,1]", True, True, True, True, tags=("kink",))
    add("plateau-bowl", "max(0, abs(t) - 1)", "[-2,2]", True, False, True, True,
        tags=("plateau_min",))
    add("half-plateau-ramp", "piecewise(t < 0: 1, else: t)", "[-1,1]",
        False, False, True, False, tags=("plateau_off_min", "jump"), rc=False)
    add("ramp", "t", "[0,1]", True, True, True, True, tags=("monotone",))
    add("neg-ramp", "-t", "[-1,1]", True, True, True, True, tags=("monotone",))
    add("const", "1", "[-1,1]", True, False, True, True, tags=("constant",))
    add("neg-sq", "-t^2", "[-1,1]", False, False, False, False, tags=("peak",))
    add("jump-valley", "piecewise(t < 0: -t, else: t - 1)", "[-2,2]",
        True, True, True, True, tags=("jump",), rc=False)
    add("jump-plateau-valley", "piecewise(t < -1: -t, t <= 1: -1, else: t - 1)",
        "[-2,2]", True, False, True, True, tags=("jump", "plateau_min"), rc=False)
    add("rise-drop-rise", "piecewise(t < 0: t + 2, else: t + 1)", "[-2,2]",
        False, False, False, False, tags=("jump",), rc=False)
    add("exp", "exp(t)", "[-1,1]", True, True, True, True, tags=("smooth",))
    add("exp-vee", "exp(abs(t))", "[-1,1]", True, True, True, True, tags=("kink",))
    add("sqrt-vee", "sqrt(abs(t))", "[-1,1]", True, True, True, True,
        tags=("kink", "infinite_slope"))
    add("neg-vee", "-abs(t)", "[-1,1]", False, False, False, False, tags=("peak",))
    add("w-shape", "min(t^2, (t - 1.5)^2 + 0.3)", "[-1,3]",
        False, False, False, False, tags=("double_well",))
    add("step-down", "piecewise(t < 0.5: 1, else: 0)", "[0,1]",
        False, False, True, False, tags=("jump", "plateau_off_min"), rc=False)
    add("asym-vee", "piecewise(t < 0: -2*t, else: 0.5*t)", "[-1,1]",
        True, True, True, True, tags=("kink",))
    e.append(
        BatteryEntry(
            id="log-partial", expression="log(t)", arity=1, domain="[-1,1]",
            lsc=False, radially_continuous=False, expected=None,
            tags=("golden", "undefined_values"),
        )
    )

    box = ("[-1,1]", "[-1,1]")
    for id_, expr, spc in (("bowl2", "x1^2 + x2^2", True), ("plane", "x1 + x2", True),
                           ("l1-norm", "abs(x1) + abs(x2)", True),
                           ("linf-norm", "max(abs(x1), abs(x2))", False),
                           ("ridge", "x1^2", False)):
        e.append(BatteryEntry(id=id_, expression=expr, arity=2, box=box,
                              expected=_exp(True, spc, True, True),
                              tags=("golden", "multivariate")))
    e.append(BatteryEntry(
        id="cube-x1", expression="x1^3", arity=2, box=box,
        expected=_exp(False, False, True, True),
        pairs=(((0.0, 0.0), (-0.5, 0.1)),),
        tags=("golden", "multivariate", "stationary_nonmin")))
    return tuple(e)


def _fmt(x: float) -> str:
    return repr(float(x))


def _poly_src(c: np.ndarray) -> str:
    """Cubic c0 + c1 t + c2 t^2 + c3 t^3 in Horner form, parse-safe."""
    c0, c1, c2, c3 = (float(v) for v in c)
    return (
        f"((({_fmt(c3)})*t + ({_fmt(c2)}))*t + ({_fmt(c1)}))*t + ({_fmt(c0)})"
    )


def _flank_piece(
    rng: np.random.Generator, lo: float, hi: float, end_value: float,
    direction: int,
) -> tuple[np.ndarray, float]:
    """A cubic strictly monotone on [lo, hi] with |slope| >= 0.05.

    direction -1: strictly decreasing, anchored to ``end_value`` at ``hi``
    (left flank built outward from the valley).  direction +1: strictly
    increasing, anchored at ``lo``.  Returns (coefficients, value at the
    free end).
    """
    a = rng.uniform(0.05, 1.2)
    b = rng.uniform(0.0, 0.8)
    c = rng.uniform(0.0, 0.5)
    # p(t) = v + d a (t-e) + b/2 (t-e)^2 + d c/3 (t-e)^3, with d the direction
    # and e the anchored end
    d, e = direction, (hi if direction < 0 else lo)
    coefs = np.array([end_value - d * a * e + (b / 2) * e**2 - d * (c / 3) * e**3,
                      d * a - b * e + d * c * e**2,
                      b / 2 - d * c * e,
                      d * c / 3])
    span = hi - lo  # the free end is a whole piece away from the anchored one
    free = end_value + a * span + (b / 2) * span**2 + (c / 3) * span**3
    return coefs, free


def _breakpoints(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """k interior breakpoints with mutual gaps of at least 0.15."""
    while True:
        pts = np.sort(rng.uniform(lo + 0.2, hi - 0.2, size=k))
        if k < 2 or float(np.min(np.diff(pts))) >= 0.15:
            return [float(p) for p in pts]


def _assemble(branches: list[tuple[str, float, np.ndarray]], last: np.ndarray) -> str:
    """branches: (op, breakpoint, coefs) for every piece but the last."""
    if not branches:
        return _poly_src(last)
    parts = [f"t {op} {_fmt(b)}: {_poly_src(c)}" for op, b, c in branches]
    parts.append(f"else: {_poly_src(last)}")
    return f"piecewise({', '.join(parts)})"


def _random_valley(rng: np.random.Generator, lo: float, hi: float) -> tuple[str, dict[str, bool]]:
    variant = rng.integers(3)  # 0: plateau min, 1: kink min, 2: jump into min
    m = float(rng.uniform(-1.0, 1.0))
    branches: list[tuple[str, float, np.ndarray]] = []

    if variant == 0:
        c1, c2 = _breakpoints(rng, lo, hi, 2)
        if c2 - c1 < 0.3:
            c1, c2 = max(lo + 0.2, c1 - 0.2), min(hi - 0.2, c2 + 0.2)
        left_end = m + (rng.uniform(0.05, 0.7) if rng.random() < 0.4 else 0.0)
        lcoefs, _ = _flank_piece(rng, lo, c1, left_end, -1)
        branches.append(("<", c1, lcoefs))
        branches.append(("<=", c2, np.array([m, 0.0, 0.0, 0.0])))
        right_start = m + (rng.uniform(0.05, 0.7) if rng.random() < 0.4 else 0.0)
        rcoefs, _ = _flank_piece(rng, c2, hi, right_start, +1)
        return _assemble(branches, rcoefs), _exp(True, False, True, True)

    c = _breakpoints(rng, lo, hi, 1)[0]
    jump = float(rng.uniform(0.05, 0.7)) if variant == 2 else 0.0
    lcoefs, _ = _flank_piece(rng, lo, c, m + jump, -1)
    branches.append(("<", c, lcoefs))
    rcoefs, _ = _flank_piece(rng, c, hi, m, +1)
    return _assemble(branches, rcoefs), _exp(True, True, True, True)


def _random_monotone(rng: np.random.Generator, lo: float, hi: float) -> tuple[str, dict[str, bool]]:
    step = 1 if rng.random() < 0.5 else -1  # 1: increasing, -1: decreasing
    bps = _breakpoints(rng, lo, hi, int(rng.integers(1, 4)))
    ends = [lo] + bps + [hi]
    level = float(rng.uniform(-1.0, 1.0))
    coefs_list = []
    # the pieces from the low end outward, each starting at or above the last
    for a, b in list(zip(ends, ends[1:]))[::step]:
        coefs, top = _flank_piece(rng, a, b, level, step)
        coefs_list.append(coefs)
        level = top + (float(rng.uniform(0.05, 0.6)) if rng.random() < 0.5 else 0.0)
    coefs_list = coefs_list[::step]
    # a jump keeps the breakpoint on its lower piece: the left one of an
    # up-jump, the right one of a down-jump
    branches = [("<=" if step > 0 else "<", b, c) for b, c in zip(bps, coefs_list[:-1])]
    return _assemble(branches, coefs_list[-1]), _exp(True, True, True, True)


def _random_arbitrary(rng: np.random.Generator, lo: float, hi: float) -> str:
    k = int(rng.integers(0, 4))
    bps = _breakpoints(rng, lo, hi, k) if k else []
    coefs = [rng.uniform(-1.0, 1.0, size=4) * np.array([1.0, 1.0, 0.6, 0.3])
             for _ in range(k + 1)]

    def val(c: np.ndarray, t: float) -> float:
        return float(((c[3] * t + c[2]) * t + c[1]) * t + c[0])

    branches: list[tuple[str, float, np.ndarray]] = []
    for i, b in enumerate(bps):
        left_limit = val(coefs[i], b)
        right_value = val(coefs[i + 1], b)
        # keep the breakpoint on whichever side is lower: that is what
        # lower semicontinuity demands at a jump
        op = "<" if right_value <= left_limit else "<="
        branches.append((op, b, coefs[i]))
    return _assemble(branches, coefs[-1])


def random_battery(
    count: int = 200, seed: int = 20260822, domain: str = "[-2,2]"
) -> tuple[BatteryEntry, ...]:
    """Seeded battery of lower-semicontinuous piecewise cubics."""
    from .domain import parse_interval

    iv = parse_interval(domain)
    lo, hi = iv.lo, iv.hi
    rng = np.random.default_rng(seed)
    out: list[BatteryEntry] = []
    for i in range(count):
        u = rng.random()
        if u < 0.40:
            expr, expected = _random_valley(rng, lo, hi)
            kind = "valley"
        elif u < 0.65:
            expr, expected = _random_monotone(rng, lo, hi)
            kind = "monotone"
        else:
            expr = _random_arbitrary(rng, lo, hi)
            expected = None
            kind = "arbitrary"
        out.append(
            BatteryEntry(
                id=f"rand-{seed}-{i:03d}", expression=expr, arity=1,
                domain=domain, lsc=True, radially_continuous=False,
                expected=expected, tags=("random", kind),
            )
        )
    return tuple(out)


def write_manifest(entries: tuple[BatteryEntry, ...], path: str | Path) -> None:
    data = {"version": 1, "entries": [asdict(x) for x in entries]}
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


_DEFAULTS = {f.name: f.default for f in fields(BatteryEntry)}  # MISSING if required


def _require(ok: bool, raw: dict, field: str, want: str, n) -> None:
    if not ok:
        raise ValueError(f"entry {raw.get('id')!r}: {field} must be {want.format(n=n)}")


def _listof(x, ok, n: int | None = None) -> bool:
    """Whether ``x`` is a list, of ``n`` items if given, each of them ``ok``."""
    return isinstance(x, (list, tuple)) and n in (None, len(x)) and all(map(ok, x))


# a text has no lone surrogate, so it encodes; a coordinate is a float or an int a
# float holds: 2**1024 - 2**970 is the least int that rounds past the largest float
_SURROGATE, _PAST_FLOAT = re.compile("[\ud800-\udfff]"), 2**1024 - 2**970
_text = lambda v, n=None: isinstance(v, str) and (v.isascii() or not _SURROGATE.search(v))
_flag = lambda v, n=None: type(v) is bool
_number = lambda c: type(c) is float or (type(c) is int and -_PAST_FLOAT < c < _PAST_FLOAT)
# field -> (what it must be in an entry of arity {n}, its test of the value and n);
# the arity comes first, as the others read it, and a field the arity leaves out
# passes here, to be refused as present after
_RULES = {
    "arity": ("an integer >= 1", lambda v, n: type(v) is int and v >= 1),
    "id": ("a string without lone surrogates", _text),
    "expression": ("a string without lone surrogates", _text),
    "domain": ("an interval string", lambda v, n: _text(v) or n > 1),
    "box": ("a list of {n} interval strings", lambda v, n: _listof(v, _text, n) or n == 1),
    "lsc": ("a boolean", _flag), "radially_continuous": ("a boolean", _flag),
    "expected": (f"booleans keyed by {', '.join(LABELS)}", lambda v, n: v is None or (
        isinstance(v, dict) and v.keys() <= set(LABELS) and all(map(_flag, v.values())))),
    "pairs": ("a list of pairs of two points of {n} numbers in float range", lambda v, n: v is None
              or n == 1 or _listof(v, lambda p: _listof(p, lambda x: _listof(x, _number, n), 2))),
    "tags": ("a list of strings without lone surrogates", lambda v, n: _listof(v, _text)),
}


def load_manifest(path: str | Path) -> tuple[BatteryEntry, ...]:
    """Read a manifest of :func:`write_manifest`; a malformed entry raises
    ValueError naming the entry and the field, or the manifest if it nests too deeply."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"manifest nests too deeply in {path}") from None
    if not isinstance(data, dict) or data.get("version") != 1:
        raise ValueError(f"unsupported manifest version in {path}")
    if not _listof(data.get("entries"), lambda raw: isinstance(raw, dict)):
        raise ValueError(f"manifest entries must be a list of objects in {path}")
    entries = []
    for raw in data["entries"]:
        unknown = sorted(raw.keys() - _DEFAULTS.keys())
        if unknown:
            raise ValueError(f"entry {raw.get('id')!r}: unknown field {unknown[0]!r}")
        entry = {name: raw.get(name, default) for name, default in _DEFAULTS.items()}
        for name, (want, ok) in _RULES.items():
            _require(ok(entry[name], entry["arity"]), raw, name, want, entry["arity"])
        # an entry of arity 1 runs on its domain, any other on its box and pairs
        for name in ("box", "pairs") if entry["arity"] == 1 else ("domain",):
            _require(entry[name] is None, raw, name, "absent at arity {n}", entry["arity"])
        box, pairs = entry["box"], entry["pairs"]
        entries.append(BatteryEntry(**{
            **entry, "box": None if box is None else tuple(box), "tags": tuple(entry["tags"]),
            "pairs": None if pairs is None else tuple((tuple(x), tuple(y)) for x, y in pairs)}))
    return tuple(entries)

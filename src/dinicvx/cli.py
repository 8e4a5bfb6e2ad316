"""Command-line front end.

Subcommands: ``classify`` (run the definitional and structural classifiers
and compare them), ``decompose`` (emit the three-part monotone split, with
optional CSV for plotting), ``dini`` (inspect one lower Dini estimate with
its trace), and ``verify-theorems`` (run the theorem suite over a battery
manifest).  Each takes only the flags it reads (``_TAKES``); a flag it does
not read is refused, and its default still fills the report's config block.

Reports are canonical JSON: keys sorted, floats printed at 17 significant
digits, infinities and NaN encoded as the strings "inf"/"-inf"/"nan".  A
result object (a dataclass such as ``Verdict``) is written as its fields.
Re-running any command with the same configuration produces byte-identical
output; timing is printed to stderr only, so it never perturbs the report.

Exit codes: 0 all methods agree and nothing inconclusive; 1 configuration
or parse error; 2 method disagreement; 3 inconclusive verdicts.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from .battery import golden_battery, load_manifest, random_battery
from .charact import decompose, martos_segments, properties
from .dini import DiniSchedule, lower_dini, stationarity_estimates
from .domain import MARGIN, Interval, make_grid, parse_interval
from .expr import ExpressionError, eval_many, parse
from .oracle import SampledProblem, Verdict
from .theorems import SUITE_SCHEDULE, line_problems, run_battery, sample_pairs

__all__ = ["main", "RunConfig", "canonical_json"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISAGREE = 2
EXIT_INCONCLUSIVE = 3

# Caps on the size flags, checked before anything is allocated.  A grid
# array at the cap is 8 MB.  At the step cap, the full-step redo arrays of
# one dini._probe_rows block (dini._BLOCK_ROWS = 520 rows) hold 520 x 1000
# values, 4.2 MB, and a 0.5 MB mask.  Every cap admits the documented workloads.
MAX_GRID = 2**20 + 1
MAX_PAIRS = 10_000
MAX_RANDOM = 10_000
MAX_DINI_STEPS = 1_000
# The work budget: the grid times the lines a run samples, its pairs for a
# multivariate classify, and for verify-theorems one line per 1-D entry and
# one per pair of a 2-D entry.  It admits verify-theorems --grid 65537 (165
# lines); the slowest run measured at the budget took 15 s on a 2-core VM.
MAX_WORK = 2**24


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation."""

    function: str
    arity: int
    domain: str | None
    box: str | None
    grid: int
    margin: float
    tol: float | None
    stat_tol: float
    dini: DiniSchedule
    method: str
    seed: int
    output: str
    pairs: int
    checks: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.grid < 8:
            raise _ConfigError(f"grid must be >= 8, got {self.grid}")
        if self.grid > MAX_GRID:
            raise _ConfigError(f"grid must be <= {MAX_GRID}, got {self.grid}")
        if not self.margin > 0:
            raise _ConfigError(f"margin must be positive, got {self.margin}")
        if self.dini.steps > MAX_DINI_STEPS:
            raise _ConfigError(
                f"dini-steps must be <= {MAX_DINI_STEPS}, got {self.dini.steps}")
        if self.tol is not None and not self.tol > 0:
            raise _ConfigError("tol must be positive")
        if self.tol is not None and not math.isfinite(self.tol):
            raise _ConfigError(f"tol must be finite, got {self.tol}")
        if not self.stat_tol > 0:
            raise _ConfigError("stat-tol must be positive")
        if not math.isfinite(self.stat_tol):
            raise _ConfigError(f"stat-tol must be finite, got {self.stat_tol}")
        if self.pairs < 1:
            raise _ConfigError("pairs must be >= 1")
        if self.pairs > MAX_PAIRS:
            raise _ConfigError(f"pairs must be <= {MAX_PAIRS}, got {self.pairs}")
        if self.seed < 0:
            raise _ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.arity > 1:
            _within_budget(self.grid, self.pairs, "pairs")
        if self.arity < 1:
            raise _ConfigError("arity must be >= 1")
        if self.arity == 1 and self.domain is None:
            raise _ConfigError("1-variable functions need --domain")
        if self.arity > 1 and self.box is None:
            raise _ConfigError("multivariate functions need --box")


def _within_budget(grid: int, lines: int, what: str) -> None:
    if grid * lines > MAX_WORK:
        raise _ConfigError(f"grid x {what} must be <= {MAX_WORK}, the work budget; "
                           f"got {grid} x {lines}")


# ---------------------------------------------------------------------------
# canonical JSON


class _Texts(dict):
    """The text of each float and each string of one report, made on first
    use; a string, a value or a dict key alike, is quoted and escaped.  A zero
    is formatted each time: 0.0 and -0.0 are one key and print differently."""

    def __missing__(self, x: float | str) -> str:
        if type(x) is str:
            text = '"' + x.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
        elif math.isnan(x):
            return '"nan"'
        elif math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        else:
            text = format(x, ".17g")
        if x:
            self[x] = text
        return text


# what any other value is written as, by the first of these types it has
_PLAIN = ((dict, dict), ((list, tuple), list), (np.bool_, bool), (str, str),
          ((int, np.integer), int), ((float, np.floating), float))


def _text(obj, pad: str, texts: _Texts, shared: dict) -> str:
    """``obj`` written at the indent ``pad``.  ``shared`` keeps the text of
    each result object by (id, indent): a report holds one estimate many
    times, and all of it stays alive while it is written."""
    t = type(obj)
    if t is float or t is str:
        return texts[obj]
    if t is dict or t is list or t is tuple:
        if not obj:
            return "{}" if t is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if t is dict:
            keyed = [f"{texts[str(k)]}: {_text(obj[k], inner, texts, shared)}" for k in sorted(obj)]
            return f"{{\n{inner}{sep.join(keyed)}\n{pad}}}"
        if set(map(type, obj)) == {float}:  # a trace or a point: one join
            return f"[\n{inner}{sep.join(map(texts.__getitem__, obj))}\n{pad}]"
        return f"[\n{inner}{sep.join([_text(v, inner, texts, shared) for v in obj])}\n{pad}]"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if obj is None:
        return "null"
    for kinds, plain in _PLAIN:
        if isinstance(obj, kinds):
            return _text(plain(obj), pad, texts, shared)
    if not is_dataclass(obj):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    key = (id(obj), pad)
    if key not in shared:
        shared[key] = _text(_fields(obj), pad, texts, shared)
    return shared[key]


def canonical_json(obj) -> str:
    return _text(obj, "", _Texts(), {}) + "\n"


# ---------------------------------------------------------------------------
# report pieces: what the field names of a result object do not give


def _fields(obj) -> dict:
    """A dataclass as the dict of its fields, unconverted.  Not ``vars()``:
    a cached property, such as ``DiniSchedule._steps``, is no field."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _with_dini(v: Verdict, dini_at: dict) -> dict:
    """A 1-D verdict whose witnesses carry ``dini_at[t]``, the one-sided
    estimates at their first point, by label."""
    wits = []
    for w in v.witnesses:
        found = dini_at[float(w.points[0])] if w.points else {}
        wits.append({**_fields(w), "dini": {("plus" if label == "+1" else "minus"): est
                                            for label, est in found.items()}}
                    if found else w)
    return {**_fields(v), "witnesses": wits}


def _with_ranges(result, pts: np.ndarray, *names: str) -> dict:
    """``result`` with its index ranges ``names`` as dicts over the grid ``pts``."""
    out = _fields(result)
    for name in names:
        start, end = out[name]
        out[name] = d = {"start": start, "end": end, "size": end - start}
        if end > start:
            d["t_first"] = float(pts[start])
            d["t_last"] = float(pts[end - 1])
    return out


def _config_json(cfg: RunConfig) -> dict:
    return {k: v for k, v in _fields(cfg).items() if k != "output"}


# ---------------------------------------------------------------------------
# classification plumbing


def _merge_outcomes(outcomes: list[str]) -> str:
    """The first of 'fails' and 'inconclusive' among ``outcomes``, else 'holds'."""
    return next((o for o in ("fails", "inconclusive") if o in outcomes), "holds")


def _line_problem(cfg: RunConfig, f) -> SampledProblem:
    """The one line of a one-variable run: ``f`` on the grid of ``--domain``."""
    return SampledProblem(f, make_grid(parse_interval(cfg.domain), cfg.grid, cfg.margin),
                          cfg.dini, cfg.tol, cfg.stat_tol)


def _cmd_classify(cfg: RunConfig, args: argparse.Namespace) -> int:
    fn = parse(cfg.function, cfg.arity)
    f = lambda pts: eval_many(fn, pts)
    report: dict = {"command": "classify", "config": _config_json(cfg)}
    if cfg.arity == 1:
        batches = [(None, _line_problem(cfg, f))]
    else:
        box = _parse_box(cfg.box, cfg.arity)
        batches = line_problems(f, sample_pairs(box, cfg.pairs, cfg.seed), box, cfg.grid,
                                cfg.margin, cfg.dini, cfg.tol, cfg.stat_tol)
    # every line of a batch is decided at once; check -> method -> the
    # outcome of each line, batch after batch
    per_line: dict[str, dict[str, list[str]]] = {check: {} for check in cfg.checks}
    restrictions = []
    by_check = {prop.check: prop for prop in properties()}
    for r, p in batches:
        found = {check: by_check[check].verdicts(p, cfg.method) for check in cfg.checks}
        for check, by_name in found.items():
            for name, verdicts in by_name.items():
                per_line[check].setdefault(name, []).extend(v.outcome for v in verdicts)
        restrictions.append(r)
    outcomes = {check: {name: _merge_outcomes(outs) for name, outs in by_name.items()}
                for check, by_name in per_line.items()}

    if cfg.arity == 1:
        # the report of the one line of the one batch: a witness gets the estimates at its
        # first point, a grid point (so never both 0.0 and -0.0); the checks
        # report many of the same points, so each is estimated once, all of
        # them in one kernel call
        firsts = list(dict.fromkeys(float(w.points[0]) for methods in found.values()
                                    for vs in methods.values() for w in vs[0].witnesses
                                    if w.points))
        dini_at = dict(zip(firsts, stationarity_estimates(p.phi, firsts, p.dom.interval[0],
                                                          cfg.dini)))
        checks_out = {check: {"methods": {name: _with_dini(vs[0], dini_at)
                                          for name, vs in methods.items()}}
                      for check, methods in found.items()}
        if not p.undefined[0] and cfg.method != "definitional":
            report["decomposition"] = _with_ranges(p.verdict(decompose)[0], p.dom.points[0],
                                                   "i_minus", "i_hat", "i_plus")
    else:
        # outcomes only, line by line
        pairs = [pair for r in restrictions for pair in zip(r.x, r.y, r.feasible)]
        report["pairs"] = [{
            "x": [float(v) for v in x],
            "y": [float(v) for v in y],
            "feasible": str(feasible),
            "checks": {check: {name: outs[k] for name, outs in by_name.items()}
                       for check, by_name in per_line.items()},
        } for k, (x, y, feasible) in enumerate(pairs)]
        checks_out = {check: {"methods_aggregate": outcomes[check]} for check in cfg.checks}

    disagreements = {}
    for check, by_method in outcomes.items():
        agree = len({o for o in by_method.values() if o != "inconclusive"}) <= 1
        checks_out[check].update(agree=agree, outcome=_merge_outcomes(list(by_method.values())))
        if not agree:
            disagreements[check] = by_method
    inconclusive = any("inconclusive" in m.values() for m in outcomes.values())
    report.update(checks=checks_out, agreement=not disagreements, inconclusive=inconclusive)
    _emit(report, cfg.output)
    for check, sides in disagreements.items():
        print(f"disagreement on {check}: {sides}", file=sys.stderr)
    if disagreements:
        return EXIT_DISAGREE
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_decompose(cfg: RunConfig, args: argparse.Namespace) -> int:
    fn = parse(cfg.function, cfg.arity)
    p = _line_problem(cfg, lambda ts: eval_many(fn, ts))
    pts, dec = p.dom.points[0], decompose(p)[0]
    if args.csv is not None:
        lines = ["t,value,segment"]
        for t, v, lab in zip(pts, p.values[0], dec.segment_labels(pts.shape[0])):
            lines.append(f"{format(float(t), '.17g')},{format(float(v), '.17g')},{lab}")
        try:
            with open(args.csv, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise _ConfigError(f"cannot write {args.csv}: {exc.strerror or exc}") from exc
    _emit({
        "command": "decompose",
        "config": _config_json(cfg),
        "decomposition": _with_ranges(dec, pts, "i_minus", "i_hat", "i_plus"),
        "martos": _with_ranges(martos_segments(p)[0], pts, "decreasing", "constant",
                               "increasing"),
    }, cfg.output)
    return EXIT_INCONCLUSIVE if p.undefined[0] else EXIT_OK


def _cmd_dini(cfg: RunConfig, args: argparse.Namespace) -> int:
    fn = parse(cfg.function, cfg.arity)
    est = lower_dini(lambda ts: eval_many(fn, ts), args.at, args.dir,
                     parse_interval(cfg.domain), cfg.dini)
    _emit({
        "command": "dini",
        "config": _config_json(cfg),
        "at": args.at,
        "direction": args.dir,
        "estimate": est,
    }, cfg.output)
    return EXIT_OK if est.converged else EXIT_INCONCLUSIVE


def _cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not 0 <= args.random <= MAX_RANDOM:
        raise _ConfigError(f"random must be between 0 and {MAX_RANDOM}, got {args.random}")
    if args.manifest is not None:
        try:
            entries = load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            raise _ConfigError(f"cannot load manifest {args.manifest}: {exc}") from exc
    else:
        entries = golden_battery()
    if args.random:
        entries = entries + random_battery(args.random, seed=cfg.seed)
    _within_budget(cfg.grid, sum(1 if e.arity == 1 else len(e.pairs or ()) + cfg.pairs
                                 for e in entries), "lines")
    result = run_battery(
        entries, n_grid=cfg.grid, margin=cfg.margin, schedule=cfg.dini,
        tol=cfg.tol, stat_tol=cfg.stat_tol, pairs=cfg.pairs, seed=cfg.seed,
    )
    if cfg.output == "json":
        _emit({"command": "verify-theorems", "config": _config_json(cfg),
               **{k: v for k, v in _fields(result).items() if k != "reports"}}, "json")
    else:
        for c in result.cases:
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"[{c.theorem}] {c.function}: {c.status}{detail}")
        for m in result.label_mismatches:
            print(f"label mismatch: {m}")
        print(
            f"cases={len(result.cases)} vacuous={result.n_vacuous} "
            f"inconclusive={result.n_inconclusive} ok={result.ok}"
        )
    return EXIT_OK if result.ok else EXIT_DISAGREE


def _parse_box(text: str, arity: int) -> tuple[Interval, ...]:
    parts = text.split("x")
    if not all(p.strip() for p in parts):
        raise _ConfigError(f"malformed box {text!r}: empty interval around an 'x'")
    box = tuple(parse_interval(p) for p in parts)
    if len(box) != arity:
        raise _ConfigError(
            f"box has {len(box)} intervals but arity is {arity}"
        )
    return box


def _emit(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(canonical_json(report))
        return
    _render_text(report, 0)


def _render_text(obj, depth: int) -> None:
    pad = "  " * depth
    if is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, dict):
        for k in sorted(obj.keys()):
            v = obj[k]
            if is_dataclass(v) or isinstance(v, (dict, list, tuple)) and v:
                print(f"{pad}{k}:")
                _render_text(v, depth + 1)
            else:
                print(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if is_dataclass(v) or isinstance(v, (dict, list, tuple)):
                print(f"{pad}-")
                _render_text(v, depth + 1)
            else:
                print(f"{pad}- {_scalar_text(v)}")


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (dict, list, tuple)) and not v:
        return "(empty)"
    return str(v)


# ---------------------------------------------------------------------------
# argument wiring


# Every flag once, with its argparse keywords and default.  A subcommand
# adds the flags _TAKES names; each other flag keeps its default here, so
# RunConfig and the report's config block name every setting.
_FLAGS: dict[str, dict] = {
    "--function": dict(required=True, help="expression string, e.g. 't^2' or 'x1^2 + x2^2'"),
    "--arity": dict(type=int, default=1),
    "--domain": dict(help="interval such as [-1,1] or (0,1]"),
    "--box": dict(help="product of intervals such as [-1,1]x[-1,1]"),
    "--grid": dict(type=int, default=257, help=f"grid points, 8 to {MAX_GRID}"),
    "--margin": dict(type=float, default=MARGIN),
    "--tol": dict(type=float, help="equality band; default scales with the grid values"),
    "--stat-tol": dict(type=float, default=SampledProblem.stat_tol),
    "--dini-t0": dict(type=float, default=DiniSchedule.t0),
    "--dini-ratio": dict(type=float, default=DiniSchedule.ratio),
    "--dini-steps": dict(type=int, default=DiniSchedule.steps,
                         help=f"probe steps per Dini estimate, 2 to {MAX_DINI_STEPS}"),
    "--dini-tol": dict(type=float, default=DiniSchedule.dini_tol),
    "--seed": dict(type=int, default=0),
    "--output": dict(default="json", choices=["json", "text"]),
    "--pairs": dict(type=int, default=24,
                    help=f"sampled (x,y) pairs for multivariate runs, 1 to {MAX_PAIRS}; "
                         f"grid x lines at most {MAX_WORK}"),
    "--method": dict(default="both", choices=["both", "definitional", "structural"]),
    "--check": dict(action="append", choices=[prop.check for prop in properties()] + ["all"],
                    help="property to test; repeatable; default all"),
    "--csv": dict(help="write t,value,segment rows to this path"),
    "--at": dict(type=float, required=True),
    "--dir": dict(type=float, default=1.0),
    "manifest": dict(nargs="?", help="battery manifest JSON; default: built-in golden battery"),
    "--random": dict(type=int, default=0,
                     help=f"append this many seeded random functions, 0 to {MAX_RANDOM}"),
}
_SCHEDULE = ("--dini-t0", "--dini-ratio", "--dini-steps", "--dini-tol")
# subcommand -> (its help, the flags it reads, the function that runs it)
_TAKES: dict[str, tuple[str, tuple[str, ...], Callable[[RunConfig, argparse.Namespace], int]]] = {
    "classify": ("classify a function", (
        "--function", "--arity", "--domain", "--box", "--grid", "--margin", "--tol",
        "--stat-tol", *_SCHEDULE, "--seed", "--output", "--pairs", "--method", "--check"),
        _cmd_classify),
    "decompose": ("three-part monotone split", (
        "--function", "--domain", "--grid", "--margin", "--tol", "--output", "--csv"),
        _cmd_decompose),
    "dini": ("one lower Dini estimate with trace", (
        "--function", "--domain", *_SCHEDULE, "--output", "--at", "--dir"), _cmd_dini),
    "verify-theorems": ("run the theorem suite", (
        "manifest", "--grid", "--margin", "--tol", "--stat-tol", *_SCHEDULE, "--seed",
        "--pairs", "--output", "--random"), _cmd_verify),
}


# Built once per process: parsing leaves the parser unchanged, and an
# in-process caller of main() need not pay for it on every call.
@functools.cache
def _build_parser() -> _Parser:
    top = _Parser(prog="dinicvx",
                  description="numerical generalized-convexity classifiers")
    sub = top.add_subparsers(dest="cmd", required=True)
    for cmd, (text, takes, _) in _TAKES.items():
        p = sub.add_parser(cmd, help=text)
        for name in takes:
            p.add_argument(name, **_FLAGS[name])
        p.set_defaults(**{name.lstrip("-").replace("-", "_"): kw.get("default")
                          for name, kw in _FLAGS.items() if name not in takes})
    # the theorem suite probes with a noise-safe step floor by default, and
    # its report's config block names the domain [-1,1], as it always has
    s = SUITE_SCHEDULE
    sub.choices["verify-theorems"].set_defaults(
        domain="[-1,1]", dini_t0=s.t0, dini_ratio=s.ratio, dini_steps=s.steps,
        dini_tol=s.dini_tol)
    return top


def _config_from(args: argparse.Namespace) -> RunConfig:
    try:
        dini = DiniSchedule(args.dini_t0, args.dini_ratio, args.dini_steps, args.dini_tol)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    checks = args.check or ["all"]
    if "all" in checks:
        checks = [prop.check for prop in properties()]
    # every other setting is the flag of its name
    built = {"function": args.function or "", "dini": dini, "checks": tuple(checks)}
    return RunConfig(**{f.name: built[f.name] if f.name in built else getattr(args, f.name)
                        for f in fields(RunConfig)})


def main(argv: list[str] | None = None) -> int:
    t_start = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _TAKES[args.cmd][2](_config_from(args), args)
    except (_ConfigError, ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        elapsed = time.monotonic() - t_start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code

"""Command-line front end.

Subcommands: ``classify`` (run the definitional and structural classifiers
and compare them), ``decompose`` (emit the three-part monotone split, with
optional CSV for plotting), ``dini`` (inspect one lower Dini estimate with
its trace), and ``verify-theorems`` (run the theorem suite over a battery
manifest).

Reports are canonical JSON: keys sorted, floats printed at 17 significant
digits, infinities and NaN encoded as the strings "inf"/"-inf"/"nan".
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
from dataclasses import asdict, dataclass

import numpy as np

from .battery import golden_battery, load_manifest, random_battery
from .charact import (
    MonotoneDecomposition,
    SegmentSplit,
    decompose,
    martos_segments,
    pseudoconvex_char,
    quasiconvex_martos,
    strictly_pseudoconvex_char,
)
from .dini import DiniEstimate, DiniSchedule, is_stationary, lower_dini
from .domain import Interval, anchored_grid, make_grid, parse_interval, restrict
from .expr import ExpressionError, eval_many, parse
from .oracle import (
    SampledProblem,
    Verdict,
    Witness,
    pseudoconvex_def,
    quasiconvex_def,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)
from .theorems import SUITE_SCHEDULE, run_battery, sample_pairs

__all__ = ["main", "RunConfig", "canonical_json"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISAGREE = 2
EXIT_INCONCLUSIVE = 3

_CHECKS = ("pseudoconvex", "strict-pseudoconvex", "quasiconvex",
           "semistrict-quasiconvex")

# Caps on the size flags, checked before anything is allocated.  A grid
# array at the cap is 8 MB; a Dini block at the step cap holds 1024 x 1000
# probe positions, 8 MB.  Every cap admits the documented workloads.
MAX_GRID = 2**20 + 1
MAX_PAIRS = 10_000
MAX_RANDOM = 10_000
MAX_DINI_STEPS = 1_000


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
    schedule: DiniSchedule
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
        if self.schedule.steps > MAX_DINI_STEPS:
            raise _ConfigError(
                f"dini-steps must be <= {MAX_DINI_STEPS}, got {self.schedule.steps}")
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
        if self.arity < 1:
            raise _ConfigError("arity must be >= 1")
        if self.arity == 1 and self.domain is None:
            raise _ConfigError("1-variable functions need --domain")
        if self.arity > 1 and self.box is None:
            raise _ConfigError("multivariate functions need --box")


# ---------------------------------------------------------------------------
# canonical JSON


def _f17(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _dump(obj, out: list[str], ind: int) -> None:
    pad = "  " * ind
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(f'{pad}  "{k}": ')
            _dump(obj[k], out, ind + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _dump(v, out, ind + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(
            '"' + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
        )
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_f17(float(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _dump(obj, out, 0)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# report pieces


def _estimate_json(est: DiniEstimate) -> dict:
    return {
        "value": est.value,
        "unit_value": est.unit_value,
        "converged": est.converged,
        "n_probes": est.n_probes,
        "all_undefined": est.all_undefined,
        "tail_min_trace": list(est.tail_min_trace),
    }


def _witness_json(w: Witness, dini_at=None) -> dict:
    """``dini_at(t)`` maps a point to its one-sided estimates, by label."""
    d = {
        "kind": w.kind,
        "points": list(w.points),
        "values": list(w.values),
        "detail": w.detail,
    }
    if w.estimate is not None:
        d["dini"] = _estimate_json(w.estimate)
    elif dini_at is not None and len(w.points) >= 1:
        found = dini_at(float(w.points[0]))
        if found:
            d["dini"] = {("plus" if label == "+1" else "minus"): _estimate_json(est)
                         for label, est in found.items()}
    return d


def _verdict_json(v: Verdict, dini_at=None) -> dict:
    return {
        "outcome": v.outcome,
        "method": v.method,
        "tol": v.tol,
        "stat_tol": v.stat_tol,
        "notes": v.notes,
        "witnesses": [_witness_json(w, dini_at) for w in v.witnesses],
    }


def _range_json(r: tuple[int, int], pts: np.ndarray) -> dict:
    d: dict = {"start": r[0], "end": r[1], "size": r[1] - r[0]}
    if r[1] > r[0]:
        d["t_first"] = float(pts[r[0]])
        d["t_last"] = float(pts[r[1] - 1])
    return d


def _decomposition_json(dec: MonotoneDecomposition, pts: np.ndarray) -> dict:
    return {
        "pattern": dec.pattern,
        "ok": dec.ok,
        "min_value": dec.min_value,
        "tol": dec.tol,
        "i_minus": _range_json(dec.i_minus, pts),
        "i_hat": _range_json(dec.i_hat, pts),
        "i_plus": _range_json(dec.i_plus, pts),
        "witnesses": [_witness_json(w) for w in dec.witnesses],
    }


def _split_json(split: SegmentSplit, pts: np.ndarray) -> dict:
    return {
        "valid": split.valid,
        "tol": split.tol,
        "decreasing": _range_json(split.decreasing, pts),
        "constant": _range_json(split.constant, pts),
        "increasing": _range_json(split.increasing, pts),
        "witnesses": [_witness_json(w) for w in split.witnesses],
    }


def _config_json(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    del out["output"]
    out["dini"] = out.pop("schedule")
    return out


# ---------------------------------------------------------------------------
# classification plumbing


def _semistrict_martos(p: SampledProblem) -> Verdict:
    split = martos_segments(p)
    outcome = "holds" if split.valid else "fails"
    return Verdict(outcome, "martos_segments", split.tol, 0.0, split.witnesses)


def _run_methods(check: str, want_def: bool, want_struct: bool,
                 p: SampledProblem) -> dict[str, Verdict]:
    # check -> (definitional oracle, structural method name, structural
    # classifier); built per call, so the classifiers are looked up as the
    # modules now bind them
    definitional, name, structural = {
        "pseudoconvex": (pseudoconvex_def, "characterization", pseudoconvex_char),
        "strict-pseudoconvex": (strictly_pseudoconvex_def, "characterization",
                                strictly_pseudoconvex_char),
        "quasiconvex": (quasiconvex_def, "martos", quasiconvex_martos),
        "semistrict-quasiconvex": (semistrictly_quasiconvex_def, "martos",
                                   _semistrict_martos),
    }[check]
    out: dict[str, Verdict] = {}
    if want_def:
        out["definitional"] = definitional(p)
    if want_struct:
        out[name] = structural(p)
    return out


def _merge_outcomes(outcomes: list[str]) -> str:
    if any(o == "fails" for o in outcomes):
        return "fails"
    if any(o == "inconclusive" for o in outcomes):
        return "inconclusive"
    return "holds"


def _cmd_classify(cfg: RunConfig) -> int:
    fn = parse(cfg.function, cfg.arity)
    # argparse's choices leave both, definitional, characterization, martos
    want_def = cfg.method in ("both", "definitional")
    want_struct = cfg.method != "definitional"
    report: dict = {"command": "classify", "config": _config_json(cfg)}
    checks_out: dict = {}
    disagreement = False
    inconclusive = False

    if cfg.arity == 1:
        interval = parse_interval(cfg.domain)
        p = SampledProblem(lambda ts: eval_many(fn, ts),
                           make_grid(interval, cfg.grid, cfg.margin),
                           cfg.schedule, cfg.tol, cfg.stat_tol)

        # a witness that carries no estimate gets one at its first point, a
        # grid point (so never both 0.0 and -0.0); the checks report many of
        # the same points, so each is estimated once
        @functools.cache
        def dini_at(t: float) -> dict[str, DiniEstimate]:
            try:
                return is_stationary(p.phi, t, interval, cfg.schedule).estimates
            except ValueError:
                return {}

        for check in cfg.checks:
            methods = _run_methods(check, want_def, want_struct, p)
            outcomes = [v.outcome for v in methods.values()]
            conclusive = [o for o in outcomes if o != "inconclusive"]
            agree = len(set(conclusive)) <= 1
            if not agree:
                disagreement = True
            if "inconclusive" in outcomes:
                inconclusive = True
            checks_out[check] = {
                "methods": {
                    name: _verdict_json(v, dini_at) for name, v in methods.items()
                },
                "agree": agree,
                "outcome": _merge_outcomes(outcomes),
            }
        if not p.undefined and want_struct:
            report["decomposition"] = _decomposition_json(decompose(p), p.dom.points)
    else:
        box = _parse_box(cfg.box, cfg.arity)
        f = lambda pts: eval_many(fn, pts)
        pair_list = sample_pairs(box, cfg.pairs, cfg.seed)
        pair_reports = []
        per_check: dict[str, dict[str, list[str]]] = {
            c: {} for c in cfg.checks
        }
        for x, y in pair_list:
            r = restrict(f, x, y, box)
            p = SampledProblem(r.phi, anchored_grid(r.feasible, cfg.grid, cfg.margin),
                               cfg.schedule, cfg.tol, cfg.stat_tol)
            entry: dict = {
                "x": [float(v) for v in x],
                "y": [float(v) for v in y],
                "feasible": str(r.feasible),
                "checks": {},
            }
            for check in cfg.checks:
                methods = _run_methods(check, want_def, want_struct, p)
                entry["checks"][check] = {
                    name: v.outcome for name, v in methods.items()
                }
                for name, v in methods.items():
                    per_check[check].setdefault(name, []).append(v.outcome)
            pair_reports.append(entry)
        for check in cfg.checks:
            agg = {
                name: _merge_outcomes(outs)
                for name, outs in per_check[check].items()
            }
            conclusive = [o for o in agg.values() if o != "inconclusive"]
            agree = len(set(conclusive)) <= 1
            if not agree:
                disagreement = True
            if "inconclusive" in agg.values():
                inconclusive = True
            checks_out[check] = {"methods_aggregate": agg, "agree": agree,
                                 "outcome": _merge_outcomes(list(agg.values()))}
        report["pairs"] = pair_reports

    report["checks"] = checks_out
    report["agreement"] = not disagreement
    report["inconclusive"] = inconclusive
    _emit(report, cfg.output)
    if disagreement:
        for check, block in checks_out.items():
            if not block["agree"]:
                key = "methods" if "methods" in block else "methods_aggregate"
                sides = {
                    name: (v["outcome"] if isinstance(v, dict) else v)
                    for name, v in block[key].items()
                }
                print(f"disagreement on {check}: {sides}", file=sys.stderr)
        return EXIT_DISAGREE
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_decompose(cfg: RunConfig, csv_path: str | None) -> int:
    if cfg.arity != 1:
        raise _ConfigError("decompose handles one-variable functions only")
    fn = parse(cfg.function, cfg.arity)
    p = SampledProblem(lambda ts: eval_many(fn, ts),
                       make_grid(parse_interval(cfg.domain), cfg.grid, cfg.margin),
                       tol=cfg.tol)
    pts = p.dom.points
    dec = decompose(p)
    if csv_path is not None:
        lines = ["t,value,segment"]
        for t, v, lab in zip(pts, p.values, dec.segment_labels(p.dom.n)):
            lines.append(f"{format(float(t), '.17g')},{format(float(v), '.17g')},{lab}")
        try:
            with open(csv_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise _ConfigError(f"cannot write {csv_path}: {exc.strerror or exc}") from exc
    _emit({
        "command": "decompose",
        "config": _config_json(cfg),
        "decomposition": _decomposition_json(dec, pts),
        "martos": _split_json(martos_segments(p), pts),
    }, cfg.output)
    return EXIT_INCONCLUSIVE if p.undefined else EXIT_OK


def _cmd_dini(cfg: RunConfig, at: float, direction: float) -> int:
    fn = parse(cfg.function, cfg.arity)
    if cfg.arity != 1:
        raise _ConfigError("dini handles one-variable functions only")
    interval = parse_interval(cfg.domain)
    phi = lambda ts: eval_many(fn, ts)
    est = lower_dini(phi, at, direction, interval, cfg.schedule)
    report = {
        "command": "dini",
        "config": _config_json(cfg),
        "at": at,
        "direction": direction,
        "estimate": _estimate_json(est),
    }
    _emit(report, cfg.output)
    return EXIT_OK if est.converged else EXIT_INCONCLUSIVE


def _cmd_verify(cfg: RunConfig, manifest: str | None, n_random: int) -> int:
    if not 0 <= n_random <= MAX_RANDOM:
        raise _ConfigError(f"random must be between 0 and {MAX_RANDOM}, got {n_random}")
    if manifest is not None:
        try:
            entries = load_manifest(manifest)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _ConfigError(f"cannot load manifest {manifest}: {exc}") from exc
    else:
        entries = golden_battery()
    if n_random:
        entries = entries + random_battery(n_random, seed=cfg.seed)
    result = run_battery(
        entries, n_grid=cfg.grid, margin=cfg.margin, schedule=cfg.schedule,
        tol=cfg.tol, stat_tol=cfg.stat_tol, pairs=cfg.pairs, seed=cfg.seed,
    )
    if cfg.output == "json":
        report = {
            "command": "verify-theorems",
            "config": _config_json(cfg),
            "cases": [
                {"theorem": c.theorem_id, "function": c.function_id,
                 "status": c.status, "detail": c.detail}
                for c in result.cases
            ],
            "label_mismatches": list(result.label_mismatches),
            "n_vacuous": result.n_vacuous,
            "n_inconclusive": result.n_inconclusive,
            "ok": result.ok,
        }
        _emit(report, "json")
    else:
        for c in result.cases:
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"[{c.theorem_id}] {c.function_id}: {c.status}{detail}")
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
    if isinstance(obj, dict):
        for k in sorted(obj.keys()):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)) and v:
                print(f"{pad}{k}:")
                _render_text(v, depth + 1)
            else:
                print(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
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


def _add_common(p: argparse.ArgumentParser, problem: bool = True,
                schedule: DiniSchedule = DiniSchedule()) -> None:
    """Flags of every subcommand; ``problem`` adds those that pose one
    function (verify-theorems reads its functions from a manifest), and
    ``schedule`` gives the defaults of the ``--dini-*`` flags."""
    p.add_argument("--function", required=problem,
                   help="expression string, e.g. 't^2' or 'x1^2 + x2^2'")
    if problem:
        p.add_argument("--arity", type=int, default=1)
        p.add_argument("--domain", help="interval such as [-1,1] or (0,1]")
        p.add_argument("--box", help="product of intervals such as [-1,1]x[-1,1]")
    p.add_argument("--grid", type=int, default=257,
                   help=f"grid points, 8 to {MAX_GRID}")
    p.add_argument("--margin", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=None,
                   help="equality band; default scales with the grid values")
    p.add_argument("--stat-tol", type=float, default=1e-7)
    p.add_argument("--dini-t0", type=float, default=schedule.t0)
    p.add_argument("--dini-ratio", type=float, default=schedule.ratio)
    p.add_argument("--dini-steps", type=int, default=schedule.steps,
                   help=f"probe steps per Dini estimate, 2 to {MAX_DINI_STEPS}")
    p.add_argument("--dini-tol", type=float, default=schedule.dini_tol)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="json", choices=["json", "text"])
    p.add_argument("--pairs", type=int, default=24,
                   help=f"sampled (x,y) pairs for multivariate runs, 1 to {MAX_PAIRS}")


# Built once per process: parsing leaves the parser unchanged, and an
# in-process caller of main() need not pay for it on every call.
@functools.cache
def _build_parser() -> _Parser:
    top = _Parser(prog="dinicvx",
                  description="numerical generalized-convexity classifiers")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify a function", parents=[])
    _add_common(p)
    p.add_argument("--method", default="both",
                   choices=["definitional", "characterization", "martos", "both"])
    p.add_argument("--check", action="append", choices=list(_CHECKS) + ["all"],
                   help="property to test; repeatable; default all")

    p = sub.add_parser("decompose", help="three-part monotone split")
    _add_common(p)
    p.add_argument("--csv", help="write t,value,segment rows to this path")
    p.set_defaults(method="both")  # fills the report's config block

    p = sub.add_parser("dini", help="one lower Dini estimate with trace")
    _add_common(p)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--dir", type=float, default=1.0)
    p.set_defaults(method="both")

    p = sub.add_parser("verify-theorems", help="run the theorem suite")
    p.add_argument("manifest", nargs="?", default=None,
                   help="battery manifest JSON; default: built-in golden battery")
    p.add_argument("--random", type=int, default=0,
                   help=f"append this many seeded random functions, 0 to {MAX_RANDOM}")
    # the theorem suite probes with a noise-safe step floor by default; the
    # fixed problem fields fill the report's config block
    _add_common(p, problem=False, schedule=SUITE_SCHEDULE)
    p.set_defaults(arity=1, domain="[-1,1]", box=None, method="both")
    return top


def _config_from(args: argparse.Namespace) -> RunConfig:
    try:
        schedule = DiniSchedule(args.dini_t0, args.dini_ratio, args.dini_steps,
                                args.dini_tol)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    checks = getattr(args, "check", None) or ["all"]
    if "all" in checks:
        checks = list(_CHECKS)
    return RunConfig(
        function=args.function or "",
        arity=args.arity,
        domain=args.domain,
        box=args.box,
        grid=args.grid,
        margin=args.margin,
        tol=args.tol,
        stat_tol=args.stat_tol,
        schedule=schedule,
        method=args.method,
        seed=args.seed,
        output=args.output,
        pairs=args.pairs,
        checks=tuple(checks),
    )


def main(argv: list[str] | None = None) -> int:
    t_start = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "verify-theorems" and args.function:
            raise _ConfigError("verify-theorems takes a manifest, not --function")
        cfg = _config_from(args)
        if args.cmd == "classify":
            code = _cmd_classify(cfg)
        elif args.cmd == "decompose":
            code = _cmd_decompose(cfg, args.csv)
        elif args.cmd == "dini":
            code = _cmd_dini(cfg, args.at, args.dir)
        else:
            code = _cmd_verify(cfg, args.manifest, args.random)
    except (_ConfigError, ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        elapsed = time.monotonic() - t_start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code

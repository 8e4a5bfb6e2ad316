"""Workload inputs, the operation runner and the output checks.

An operation (op) is one in-process call of ``dinicvx.cli.main(argv)`` with
stdout and stderr captured.  Inputs are generated from the workload seed
during set-up; the program sees only the generated argv and, for the
``battery`` workload, one-entry manifest files.

Like ``spans``, this module imports neither numpy nor dinicvx at import
time: :func:`timed_setup` times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

WORKLOADS = ("battery", "classify_fine", "classify_nd")

# The seed used when none is given, and a second seed kept out of tuning so
# that a later claim can be re-checked on inputs it was not written against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242

BATTERY_GRID = 257
# Seeded random_battery entries added to the 26 golden ones, by kind: the
# generator's expected shares of 200 draws.  Kinds differ in cost (valley
# and monotone entries take 2.5 times as long as arbitrary ones), so a fixed
# mix keeps the pass time from varying with the seed.
BATTERY_RANDOM_KINDS = {"valley": 80, "monotone": 50, "arbitrary": 70}
FINE_GRID = 16385
# Seeded random functions added to the 20 golden 1-D ones, by random_battery
# kind.  A fixed mix of kinds keeps the share of slow "holds" verdicts, and
# so the pass time, from varying with the seed.
FINE_RANDOM_KINDS = ("valley", "valley", "monotone", "arbitrary")
ND_GRID = 257
ND_PAIRS = 24
WARMUP_GRID = 257

# Seconds one pass takes on the reference machine (2-core Xeon VM, 2.1 GHz).
# A run makes round(--seconds / this) whole passes, at least one: a fixed
# count, so that two commits compared with the same --seconds time the same
# ops and compute their percentiles over the same number of samples.
NOMINAL_PASS_SECONDS = {"battery": 7.0, "classify_fine": 36.0, "classify_nd": 2.5}

# Layer functions each workload must call at least once, and those it must
# never call.  A traced pass that breaks this has a wrapper that did not
# reach every call site, or a workload that no longer exercises its layers.
_CLASSIFY_USES = frozenset({
    "expr.parse", "expr.eval_many", "domain.parse_interval",
    "dini.grid_dini_profile", "oracle.grid_values", "oracle.pseudoconvex_def",
    "oracle.strictly_pseudoconvex_def", "oracle.quasiconvex_def",
    "oracle.semistrictly_quasiconvex_def", "charact.pseudoconvex_char",
    "charact.strictly_pseudoconvex_char", "charact.quasiconvex_martos",
    "charact.martos_segments", "charact.decompose", "cli.main",
    "cli.canonical_json",
})
_THEOREMS = frozenset({
    "theorems.check_t3", "theorems.check_t4", "theorems.check_t6",
    "theorems.check_t7", "theorems.check_abc", "theorems.run_battery",
})
_CHARACT = frozenset({
    "charact.decompose", "charact.pseudoconvex_char",
    "charact.strictly_pseudoconvex_char", "charact.martos_segments",
    "charact.quasiconvex_martos",
})
USES = {
    "battery": frozenset({
        "expr.parse", "expr.eval_many", "domain.parse_interval",
        "domain.make_grid", "domain.restrict", "domain.anchored_grid",
        "dini.grid_dini_profile", "dini.lower_dini_along", "dini.is_stationary",
        "oracle.grid_values", "oracle.pseudoconvex_def",
        "oracle.strictly_pseudoconvex_def", "oracle.quasiconvex_def",
        "oracle.semistrictly_quasiconvex_def", "theorems.sample_pairs",
        "cli.main", "cli.canonical_json",
    }) | _THEOREMS,
    "classify_fine": _CLASSIFY_USES | {"domain.make_grid"},
    "classify_nd": (_CLASSIFY_USES - {"charact.decompose"})
    | {"domain.restrict", "domain.anchored_grid", "theorems.sample_pairs"},
}
UNUSED = {
    "battery": _CHARACT,
    "classify_fine": _THEOREMS | {"theorems.sample_pairs", "domain.restrict",
                                  "domain.anchored_grid"},
    "classify_nd": _THEOREMS,
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    kind: str  # "verify" (verify-theorems) or "classify"
    key: str  # digest-table key: argv plus manifest content, never its path


@dataclass(frozen=True)
class OpResult:
    code: int | None  # None when main() raised
    stdout: str
    seconds: float
    error: str = ""


def _key(argv: list[str], manifest: str | None) -> str:
    shown = ["<manifest>" if manifest is not None and i == 1 else a
             for i, a in enumerate(argv)]
    blob = json.dumps({"argv": shown, "manifest": manifest}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the ops of one pass over ``workload`` from ``seed``."""
    import numpy as np
    from dinicvx.battery import golden_battery, random_battery, write_manifest

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    golden = golden_battery()
    ops: list[Op] = []
    if workload == "battery":
        wanted = dict(BATTERY_RANDOM_KINDS)
        entries = list(golden)
        for e in random_battery(3 * sum(wanted.values()),
                                seed=int(rng.integers(2**31))):
            if wanted[e.tags[-1]] > 0:
                wanted[e.tags[-1]] -= 1
                entries.append(e)
        if any(wanted.values()):
            raise RuntimeError(f"seed {seed}: random_battery fell short of {wanted}")
        workdir.mkdir(parents=True, exist_ok=True)
        for i, e in enumerate(entries):
            path = workdir / f"entry{i:03d}.json"
            write_manifest((e,), path)
            argv = ["verify-theorems", str(path), "--grid", str(BATTERY_GRID)]
            ops.append(Op(f"battery/{e.id}", tuple(argv), "verify",
                          _key(argv, path.read_text())))
    elif workload == "classify_fine":
        pool = list(random_battery(64, seed=int(rng.integers(2**31))))
        entries = [e for e in golden if e.arity == 1]
        for kind in FINE_RANDOM_KINDS:
            entries.append(next(e for e in pool
                                if e.tags[-1] == kind and e not in entries))
        for e in entries:
            argv = ["classify", f"--function={e.expression}",
                    f"--domain={e.domain}", "--grid", str(FINE_GRID)]
            ops.append(Op(f"classify_fine/{e.id}", tuple(argv), "classify",
                          _key(argv, None)))
    else:
        entries = [e for e in golden if e.arity > 1]
        for e, s in zip(entries, rng.integers(2**31, size=len(entries))):
            argv = ["classify", f"--function={e.expression}",
                    "--arity", str(e.arity), f"--box={'x'.join(e.box)}",
                    "--grid", str(ND_GRID), "--pairs", str(ND_PAIRS),
                    "--seed", str(int(s))]
            ops.append(Op(f"classify_nd/{e.id}", tuple(argv), "classify",
                          _key(argv, None)))
    return ops


def timed_setup(workload: str, seed: int, workdir: Path) -> tuple[float, list[Op]]:
    """Import the program and generate the inputs; return seconds and ops."""
    t0 = perf_counter()
    import dinicvx.cli  # noqa: F401  -- importing the program is set-up work

    ops = build_ops(workload, seed, workdir)
    return perf_counter() - t0, ops


def warmup_argv(op: Op) -> list[str]:
    """The op's argv at the warm-up grid, for a cheap untimed first call."""
    argv = list(op.argv)
    if "--grid" in argv:
        argv[argv.index("--grid") + 1] = str(WARMUP_GRID)
    return argv


def execute(cli, argv) -> OpResult:
    """Run one op: ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a traceback is a failed op, not a crashed benchmark
        code = None
        error = traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    return OpResult(code, out.getvalue(), seconds, error)


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(op: Op, res: OpResult, digests: dict) -> tuple[str | None, int, int]:
    """Check one op's output.

    Returns ``(reason, inconclusive, units)``: the reason the op failed, or
    None; and how many of its ``units`` were inconclusive.  A ``verify`` op
    counts its theorem cases as units, a ``classify`` op is one unit.
    """
    if res.code is None:
        return f"raised: {res.error.strip().splitlines()[-1]}", 0, 1
    rec = digests.get(op.key)
    if rec is not None:
        if res.code != rec["exit"]:
            return f"exit {res.code}, recorded {rec['exit']}", 0, 1
        if stdout_digest(res.stdout) != rec["stdout_sha256"]:
            return "stdout differs from the recorded digest", 0, 1
    elif res.code in (1, 2) or (op.kind == "verify" and res.code != 0):
        return f"exit {res.code}", 0, 1
    if op.kind == "classify":
        if res.code not in (0, 3):
            return f"exit {res.code}", 0, 1
        return None, int(res.code == 3), 1
    try:
        report = json.loads(res.stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON", 0, 1
    cases = len(report.get("cases", ()))
    if report.get("ok") is not True or report.get("label_mismatches"):
        return "battery not ok or label mismatches", 0, max(cases, 1)
    return None, int(report["n_inconclusive"]), max(cases, 1)


def load_digests(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())["ops"]

#!/usr/bin/env python3
"""dinicvx benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --trace 1             # all workloads, traced
    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

With ``--workload`` the named workload runs in this interpreter; without it
each workload runs in a fresh interpreter, one after another.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op passed its output checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
from speed import PROBE_REF_SECONDS, Speedometer, probe_seconds  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 30
# Set-up runs this many times in fresh interpreters; setup_s is the median.
SETUP_PROBES = 7
_PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; "
    "print(workloads.timed_setup(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))[0])"
)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile (in steps of 0.1) with >= 10 samples above its rank.

    Nearest-rank: percentile p is the ``ceil(p * n / 100)``-th smallest
    sample.  Returns ``(p, value)``; needs at least 11 samples.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"need more than {TAIL_MIN_BEYOND} samples, got {n}")
    tenths = 1000 * (n - TAIL_MIN_BEYOND) // n
    rank = -(-tenths * n // 1000)  # ceil, in integers
    return tenths / 10, sorted(samples)[rank - 1]


def machine(seed: int) -> dict:
    """What the result was measured on."""
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif kind == "Data":
            caches["L1d"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "grids": {"battery": workloads.BATTERY_GRID,
                  "classify_fine": workloads.FINE_GRID,
                  "classify_nd": workloads.ND_GRID},
        "load_model": "closed loop, one client, no threads or subprocesses while timing",
        "not_controlled": "CPUs are not pinned and the file cache is not dropped: "
                          "the benchmark runs without the privileges either needs",
    }


class Pass:
    """Results of one pass over the ops: op times and checked outcomes.

    ``seconds`` are wall times.  With a speedometer, ``scaled`` are the same
    times at the reference speed (see speed.py); without, they are the wall
    times, and the op's own timing is used.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[str] = []
        self.inconclusive = 0
        self.units = 0
        self.stdout_bytes = 0

    def run(self, cli, ops, digests, tracer=None, meter=None) -> "Pass":
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if meter is None:
                res = workloads.execute(cli, op.argv)
                wall = scaled = res.seconds
            else:
                res, wall, scaled = meter.measure(
                    lambda: workloads.execute(cli, op.argv))
            self.seconds.append(wall)
            self.scaled.append(scaled)
            self.stdout_bytes += len(res.stdout.encode())
            reason, inc, units = workloads.check(op, res, digests)
            if reason is not None:
                self.failures.append(f"{op.label}: {reason}")
            self.inconclusive += inc
            self.units += units
        if tracer is not None:
            tracer.add("cli.stdout_bytes", self.stdout_bytes)
        return self

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def _setup(workload: str, seed: int, workdir: Path):
    _, ops = workloads.timed_setup(workload, seed, workdir / "main")
    import dinicvx
    import dinicvx.cli as cli

    if Path(dinicvx.__file__).resolve().parent != (SRC / "dinicvx").resolve():
        raise RuntimeError(f"dinicvx imported from {dinicvx.__file__}, not {SRC}")
    samples = []
    before = probe_seconds()
    for k in range(SETUP_PROBES):
        # The child times its own set-up, scaled by speed probes taken here
        # just before and after it.  Probes taken while it runs would share a
        # CPU with it at times, and then read its load as a slow machine.
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(BENCH_DIR), str(SRC), workload,
             str(seed), str(workdir / f"probe{k}")],
            capture_output=True, text=True, timeout=120, check=True)
        after = probe_seconds()
        samples.append(float(proc.stdout.strip().splitlines()[-1])
                       * PROBE_REF_SECONDS * 2 / (before + after))
        before = after
    return cli, ops, statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cli, ops, setup_s = _setup(workload, seed, workdir)
        digests = workloads.load_digests(DIGESTS)
        workloads.execute(cli, workloads.warmup_argv(ops[0]))
        if trace:
            return _traced(workload, seed, seconds, cli, ops, digests)
        return _untraced(workload, seed, seconds, cli, ops, digests, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds its own directory here


def _finish(workload, seed, passes, metrics, extra) -> int:
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.seconds) for p in passes)
    units = sum(p.units for p in passes)
    detail = {
        "workload": workload,
        "machine": machine(seed),
        "passes": len(passes),
        "ops_per_pass": len(passes[0].seconds),
        "failed_frac": len(failures) / attempted,
        "inconclusive_frac": sum(p.inconclusive for p in passes) / units,
        "failures": failures[:20],
        **extra,
    }
    print(f"# {workload}: seed {seed}, {len(passes)} passes of "
          f"{detail['ops_per_pass']} ops")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {detail['failed_frac']:>14.6g} ratio")
    print(f"  {'inconclusive_frac':<44} {detail['inconclusive_frac']:>14.6g} ratio")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def pass_count(workload: str, seconds: float, n_ops: int) -> int:
    """round(seconds / nominal pass time), and enough passes for the tail."""
    wanted = round(seconds / workloads.NOMINAL_PASS_SECONDS[workload])
    return max(1, wanted, -(-(TAIL_MIN_BEYOND + 1) // n_ops))


def _untraced(workload, seed, seconds, cli, ops, digests, setup_s) -> int:
    meter = Speedometer()
    passes = [Pass().run(cli, ops, digests, meter=meter)
              for _ in range(pass_count(workload, seconds, len(ops)))]
    # Times are scaled to the reference speed (speed.py); an op's best
    # scaled time over the passes keeps a spell the probes misread to one
    # sample.
    best = [min(times) for times in zip(*(p.scaled for p in passes))]
    samples = best if len(best) > TAIL_MIN_BEYOND else [
        t for p in passes for t in p.scaled]
    pct, tail = tail_percentile(samples)
    ops_per_s = len(best) / sum(best)
    p50 = statistics.median(best)
    best_wall = [min(times) for times in zip(*(p.seconds for p in passes))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_s": {"value": p50, "unit": "s"},
        "op_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return _finish(workload, seed, passes, metrics,
                   {"op_tail_percentile": pct, "op_samples": len(samples),
                    "op_tail_basis": "best" if samples is best else "all",
                    "wall_ops_per_s": len(best_wall) / sum(best_wall),
                    "wall_op_p50_s": statistics.median(best_wall)})


def _traced(workload, seed, seconds, cli, ops, digests) -> int:
    """One untraced pass, then the passes of an untraced run (at least two) traced.

    Every traced pass must repeat the first one's counts exactly, and must
    call (or not call) the layer functions listed in workloads.USES/UNUSED.
    """
    plain = Pass().run(cli, ops, digests)
    tracer = spans.Tracer()
    tracer.install()
    traced: list[Pass] = []
    counts: list[dict] = []
    selfs: list[dict] = []
    try:
        for _ in range(max(2, pass_count(workload, seconds, len(ops)))):
            tracer.reset()
            traced.append(Pass().run(cli, ops, digests, tracer))
            counts.append(tracer.counts())
            selfs.append(tracer.self_seconds())
    finally:
        tracer.uninstall()
    problems = [f"counts differ between traced passes 1 and {k + 1}: " + ", ".join(
        name for name in c if c[name] != counts[0][name])
        for k, c in enumerate(counts) if c != counts[0]]
    present = {n.rsplit(".", 1)[0] for n in counts[0] if n.endswith(".calls")}
    present -= set(tracer.missing)
    for name in sorted(workloads.USES[workload] & present):
        if counts[0][name + ".calls"] == 0:
            problems.append(f"{name} recorded no call; {workload} uses it")
    for name in sorted(workloads.UNUSED[workload] & present):
        if counts[0][name + ".calls"] != 0:
            problems.append(f"{name} recorded calls; {workload} never uses it")
    metrics = {}
    for name, value in counts[0].items():
        unit = "ratio" if name.endswith(("_frac", "_redundancy")) else (
            "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = {"value": value, "unit": unit}
    for name in selfs[0]:
        metrics[name] = {"value": statistics.median(s[name] for s in selfs),
                         "unit": "s"}
    overhead = statistics.median(p.wall for p in traced) / plain.wall - 1.0
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    plain.failures.extend(f"trace: {p}" for p in problems)
    return _finish(workload, seed, [plain] + traced, metrics,
                   {"traced_passes": len(traced), "missing_functions": tracer.missing})


def run_all(args) -> int:
    """Run every workload in a fresh interpreter; relay their output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return worst or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined, sort_keys=True))
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="dinicvx benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="run one workload here; default: all, each in a fresh interpreter")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dinicvx" / "__init__.py").is_file():
        print(f"error: no dinicvx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

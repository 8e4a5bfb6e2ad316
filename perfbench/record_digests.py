#!/usr/bin/env python3
"""Record the reference stdout digest and exit code of every benchmark op.

Run from the root of a checkout of the commit whose outputs are the
reference (the outputs must not change, so this is the parent of any later
change):

    python3 perfbench/record_digests.py

It runs one pass of every workload for the default and the held-out seed
and writes perfbench/digests.json.  Ops on golden inputs do not depend on
the seed, so their digests are checked on every seed; seeded ops are
checked by digest only on the seeds recorded here.  An op that fails the
checks that need no digest (exit 1 or 2, battery not ok) is not recorded
and the script exits 1.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
import workloads  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)


def main() -> int:
    import dinicvx.cli as cli

    ops_out: dict[str, dict] = {}
    bad = []
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=ROOT / ".perfbench_work"))
    try:
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                for op in workloads.build_ops(workload, seed, work / f"{workload}-{seed}"):
                    if op.key in ops_out:
                        continue
                    res = workloads.execute(cli, op.argv)
                    reason, _, _ = workloads.check(op, res, {})
                    if reason is not None:
                        bad.append(f"{op.label}: {reason}")
                        continue
                    ops_out[op.key] = {"op": op.label, "exit": res.code,
                                       "stdout_sha256": workloads.stdout_digest(res.stdout)}
                print(f"seed {seed} {workload}: {len(ops_out)} ops recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("not recorded, failed checks:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    doc = {"seeds": list(SEEDS), "ops": ops_out}
    (BENCH_DIR / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

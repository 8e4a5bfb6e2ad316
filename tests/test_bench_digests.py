"""Every op of the benchmark's workloads prints the bytes its digest pins,
and a report that checks.

``perfbench/run.py`` checks each op's exit code and stdout against
``perfbench/digests.json``.  This runs the same ops in-process on both
recorded seeds, with the benchmark's own op builder and checks, so a change
that moves an output byte fails here before the benchmark runs.  Each op's
stdout also goes through ``report_check.report_problems``, a
``verify-theorems`` op's with the entries of its manifest.  Nothing under
``perfbench/`` is written: the ``battery`` manifests go to a temporary
directory.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

import dinicvx.cli as cli  # noqa: E402
from dinicvx import load_manifest  # noqa: E402
from report_check import report_problems  # noqa: E402

DIGESTS = workloads.load_digests(BENCH_DIR / "digests.json")


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_matches_its_digest(tmp_path, workload, seed):
    ops = workloads.build_ops(workload, seed, tmp_path)
    # an op without a recorded digest would be checked for its exit code only
    assert [op.label for op in ops if op.key not in DIGESTS] == []
    failed, problems = [], []
    for op in ops:
        res = workloads.execute(cli, op.argv)
        if reason := workloads.check(op, res, DIGESTS)[0]:
            failed.append((op.label, reason))
        entries = load_manifest(op.argv[1]) if op.kind == "verify" else ()
        problems += [(op.label, problem) for problem in report_problems(res.stdout, entries)]
    assert failed == []
    assert problems == []

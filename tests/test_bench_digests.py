"""Every op of the benchmark's workloads prints the bytes its digest pins.

``perfbench/run.py`` checks each op's exit code and stdout against
``perfbench/digests.json``.  This runs the same ops in-process on both
recorded seeds, with the benchmark's own op builder and checks, so a change
that moves an output byte fails here before the benchmark runs.  Nothing
under ``perfbench/`` is written: the ``battery`` manifests go to a
temporary directory.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

import dinicvx.cli as cli  # noqa: E402

DIGESTS = workloads.load_digests(BENCH_DIR / "digests.json")


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_matches_its_digest(tmp_path, workload, seed):
    ops = workloads.build_ops(workload, seed, tmp_path)
    # an op without a recorded digest would be checked for its exit code only
    assert [op.label for op in ops if op.key not in DIGESTS] == []
    failed = [(op.label, reason) for op in ops
              if (reason := workloads.check(op, workloads.execute(cli, op.argv), DIGESTS)[0])]
    assert failed == []

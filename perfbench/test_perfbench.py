"""Tests of the benchmark's own helpers.

Run from the root of a checkout:  python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_self_time_subtracts_children_at_every_depth():
    # root 0..10 caused a 1..4 and b 5..9; a caused c 2..3
    tree = [
        Span(0, -1, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "c", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 9.0),
    ]
    assert self_times(tree) == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}


def test_self_time_sums_spans_of_one_name_and_ignores_other_ops():
    spans_ = [
        Span(0, -1, 0, "main", 0.0, 2.0),
        Span(1, 0, 0, "eval", 0.5, 1.0),
        Span(2, -1, 1, "main", 3.0, 4.0),
        Span(3, 2, 1, "eval", 3.0, 3.25),
        Span(4, 3, 1, "eval", 3.1, 3.2),  # a recursive call
    ]
    t = self_times(spans_)
    assert t["main"] == pytest.approx(1.5 + 0.75)
    assert t["eval"] == pytest.approx(0.5 + 0.15 + 0.1)


@pytest.mark.parametrize("n", [11, 12, 19, 20, 21, 24, 72, 100, 999, 1000, 1130, 4000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)][::-1]  # order must not matter
    pct, value = run.tail_percentile(samples)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    if pct < 100:
        # one step (0.1) higher would leave fewer than 10 beyond
        rank_up = -(-round(pct * 10 + 1) * n // 1000)
        assert n - rank_up < 10


def test_tail_percentile_known_values():
    assert run.tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def _classify_op():
    argv = ["classify", "--function=t^2", "--domain=[-1,1]"]
    return workloads.Op("t/sq", tuple(argv), "classify", workloads._key(argv, None))


def test_digest_check_accepts_recorded_stdout_and_rejects_a_perturbed_one():
    op = _classify_op()
    out = '{\n  "agreement": true\n}\n'
    digests = {op.key: {"op": op.label, "exit": 0,
                        "stdout_sha256": workloads.stdout_digest(out)}}
    ok = workloads.OpResult(0, out, 0.1)
    assert workloads.check(op, ok, digests) == (None, 0, 1)
    for changed in (out.replace("true", "false"), out + " ", out[:-1]):
        reason, _, _ = workloads.check(op, workloads.OpResult(0, changed, 0.1), digests)
        assert reason == "stdout differs from the recorded digest"
    reason, _, _ = workloads.check(op, workloads.OpResult(3, out, 0.1), digests)
    assert reason == "exit 3, recorded 0"


def test_checks_without_a_digest():
    op = _classify_op()
    assert workloads.check(op, workloads.OpResult(3, "{}", 0.1), {}) == (None, 1, 1)
    assert workloads.check(op, workloads.OpResult(2, "{}", 0.1), {})[0] == "exit 2"
    assert workloads.check(op, workloads.OpResult(None, "", 0.1, "Boom\nValueError: x"),
                           {})[0] == "raised: ValueError: x"
    verify = workloads.Op("b/x", ("verify-theorems", "m.json"), "verify", "k")
    bad = '{"ok": false, "label_mismatches": [], "cases": [], "n_inconclusive": 0}'
    assert workloads.check(verify, workloads.OpResult(0, bad, 0.1), {})[0] is not None
    good = '{"ok": true, "label_mismatches": [], "cases": [1, 2, 3, 4], "n_inconclusive": 1}'
    assert workloads.check(verify, workloads.OpResult(0, good, 0.1), {}) == (None, 1, 4)


def test_digest_key_ignores_the_manifest_path_but_not_its_content():
    a = workloads._key(["verify-theorems", "/x/a.json", "--grid", "257"], "M1")
    b = workloads._key(["verify-theorems", "/y/b.json", "--grid", "257"], "M1")
    c = workloads._key(["verify-theorems", "/x/a.json", "--grid", "257"], "M2")
    assert a == b != c


def test_tracer_rebinds_every_imported_name_and_restores_it():
    import dinicvx.cli  # noqa: F401  -- imports every layer

    original = dinicvx.dini.grid_dini_profile
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = dinicvx.dini.grid_dini_profile
        assert wrapped is not original
        assert dinicvx.oracle.grid_dini_profile is wrapped
        assert dinicvx.charact.grid_dini_profile is wrapped
        assert dinicvx.grid_dini_profile is wrapped
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert dinicvx.oracle.grid_dini_profile is original
    assert dinicvx.dini.grid_dini_profile is original


def test_traced_counts_repeat_and_wrappers_leave_output_unchanged():
    import dinicvx.cli as cli

    argv = ["classify", "--function=max(0, abs(t) - 1)", "--domain=[-2,2]"]
    plain = workloads.execute(cli, argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.reset()
            res = workloads.execute(cli, argv)
            runs.append((res.stdout, tracer.counts()))
    finally:
        tracer.uninstall()
    assert runs[0] == runs[1]
    assert runs[0][0] == plain.stdout
    counts = runs[0][1]
    assert counts["cli.main.calls"] == 1
    assert counts["dini.grid_dini_profile.calls"] >= 1
    assert counts["dini.grid_dini_profile.rows"] == 2 * 257 * counts["dini.grid_dini_profile.calls"]
    # every profile of one op is of the same function, grid and schedule
    assert counts["dini.profile_redundancy"] == counts["dini.grid_dini_profile.calls"]


def test_pass_count_follows_seconds_and_always_allows_a_tail():
    assert [run.pass_count(w, 21, n) for w, n in
            (("battery", 226), ("classify_fine", 24), ("classify_nd", 6))] == [3, 1, 8]
    assert [run.pass_count(w, 30, n) for w, n in
            (("battery", 226), ("classify_fine", 24), ("classify_nd", 6))] == [4, 1, 12]
    for seconds in (0.1, 1, 21, 30):
        assert run.pass_count("classify_nd", seconds, 6) * 6 > run.TAIL_MIN_BEYOND


def test_scale_leaves_out_probe_time_and_divides_by_probe_speed():
    ref = speed.PROBE_REF_SECONDS
    # probes at 0..1, 3..4 and 10..11; segments 1..3 and 4..10
    marks = [(0.0, ref, 1.0), (3.0, ref, 4.0), (10.0, 3 * ref, 11.0)]
    wall, scaled = speed.scale(marks)
    assert wall == pytest.approx(2.0 + 6.0)
    # the second segment lies between a probe at reference speed and one
    # three times slower: it is scaled by 1 / mean(1, 3)
    assert scaled == pytest.approx(2.0 + 6.0 / 2)


def test_speedometer_returns_the_result_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(interval=0.001)
    result, wall, scaled = meter.measure(lambda: sum(i * i for i in range(200000)))
    assert result == sum(i * i for i in range(200000))
    assert len(meter._marks) > 2  # probes ran during the call as well
    assert 0 < wall and 0 < scaled
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

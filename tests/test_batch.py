"""The lines of a multivariate run decided as one batch.

Every verdict a line gets inside a ragged batch must be ``repr``-equal to
the verdict of the same line decided alone, as a batch of one and on the
grid of its one-pair restriction, and, where ``oracle_reference`` has a
scan, to that scan.  The guard
tests pin how many profile and evaluation calls a run makes, and that no
batch or kernel block grows past its bound.
"""

from __future__ import annotations

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import oracle_reference as ref
from dinicvx import (DiniSchedule, GridDiniProfile, anchored_grid, charact, cli, dini,
                     golden_battery, grid_dini_profile, make_grid, oracle, parse_interval,
                     restrict, theorems)
from dinicvx.oracle import SampledProblem
from dinicvx.theorems import sample_pairs

from conftest import phi_of

N_GRID = 257

# (name, verdict function) in the order classify asks for them
VERDICTS = (
    ("pseudoconvex_def", oracle.pseudoconvex_def),
    ("pseudoconvex_char", charact.pseudoconvex_char),
    ("strictly_pseudoconvex_def", oracle.strictly_pseudoconvex_def),
    ("strictly_pseudoconvex_char", charact.strictly_pseudoconvex_char),
    ("quasiconvex_def", oracle.quasiconvex_def),
    ("quasiconvex_martos", charact.quasiconvex_martos),
    ("semistrictly_quasiconvex_def", oracle.semistrictly_quasiconvex_def),
    ("semistrictly_quasiconvex_martos", charact.semistrictly_quasiconvex_martos),
    ("decompose", charact.decompose),
    ("martos_segments", charact.martos_segments),
)
REFERENCED = ("pseudoconvex_def", "strictly_pseudoconvex_def", "quasiconvex_def",
              "semistrictly_quasiconvex_def", "decompose", "martos_segments")

# A line from x on a face to y whose grid holds both anchors (n points),
# one on a face with 1 off the grid (n + 1), and generic ones (n + 2).
FACE_PAIRS = [((-1.0, 0.0), (1.0, 0.0)), ((-1.0, 0.3), (0.1, 0.3)), ((0.2, -1.0), (0.2, 0.6))]
CASES = {
    "bowl": ("x1^2 + x2^2", "[-1,1]x[-1,1]"),
    "cube-open-faces": ("x1^3 + abs(x2)", "(-1,1]x[-1,1)"),
    "sqrt-undefined": ("sqrt(x1) + x2", "[-1,1]x[-1,1]"),
    "plateau": ("max(0, abs(x1) - 0.5) + max(x2, 0)", "[-1,1]x[-1,1]"),
}


def lines_of(case: str, seed: int):
    source, box = CASES[case]
    box = tuple(parse_interval(b) for b in box.split("x"))
    pairs = [(np.asarray(x), np.asarray(y)) for x, y in FACE_PAIRS
             if all(iv.contains(v) for iv, v in zip(box, x + y))]
    pairs += list(sample_pairs(box, 9, seed))
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    return phi_of(source, 2), box, xs, ys


def run_all(p: SampledProblem) -> dict:
    return {name: fn(p) for name, fn in VERDICTS}


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_line_of_a_ragged_batch_as_it_is_alone(case, seed):
    f, box, xs, ys = lines_of(case, seed)
    feasible, phi = restrict(f, xs, ys, box)
    batch = SampledProblem(phi, anchored_grid(feasible, N_GRID))
    got = run_all(batch)
    assert batch.dom.points.shape == (len(xs), int(batch.dom.n.max()))
    for i in range(len(xs)):
        one_feasible, one_phi = restrict(f, xs[i : i + 1], ys[i : i + 1], box)
        alone = run_all(SampledProblem(one_phi, anchored_grid(one_feasible, N_GRID)))
        line_feasible, line_phi = restrict(f, xs[i][None], ys[i][None], box)
        grid = anchored_grid(line_feasible, N_GRID)
        assert grid.n[0] == batch.dom.n[i]
        assert np.array_equal(grid.points[0], batch.dom.points[i, : grid.n[0]])
        single = run_all(SampledProblem(line_phi, grid))
        for name, _ in VERDICTS:
            assert repr(got[name][i]) == repr(alone[name][0]) == repr(single[name][0]), (name, i)
        for name in REFERENCED:
            fresh = SampledProblem(line_phi, grid)
            assert repr(getattr(ref, name)(fresh)) == repr(single[name][0]), (name, i)


def test_batches_cover_ragged_lines_open_faces_and_undefined_values():
    counts = set()
    for case in CASES:
        f, box, xs, ys = lines_of(case, 1)
        feasible, phi = restrict(f, xs, ys, box)
        p = SampledProblem(phi, anchored_grid(feasible, N_GRID))
        counts |= set((p.dom.n - N_GRID).tolist())
        if case == "sqrt-undefined":
            outcomes = {v.outcome for v in oracle.pseudoconvex_def(p)}
            assert outcomes == {"inconclusive", "holds"}
    assert counts == {0, 1, 2}


@pytest.mark.parametrize("case", sorted(CASES))
def test_line_problems_carry_the_witnesses_of_each_line_alone(case):
    # the batches a multivariate run decides give each line its verdicts
    # with their witnesses, as the line gets them as one grid
    f, box, xs, ys = lines_of(case, 4242)
    pairs = list(zip(xs, ys))
    got = [(first, x, y, run_all(p)) for first, x, y, p in
           theorems.line_problems(f, pairs, box, N_GRID, 1e-6, DiniSchedule(), None, 1e-7)]
    assert [first for first, *_ in got] == list(range(0, len(pairs), len(got[0][1])))
    assert sum(len(x) for _, x, _, _ in got) == len(pairs)
    witnessed = 0
    for first, x, y, verdicts in got:
        for i in range(len(x)):
            assert np.array_equal(x[i], xs[first + i]) and np.array_equal(y[i], ys[first + i])
            feasible, phi = restrict(f, x[i][None], y[i][None], box)
            single = run_all(SampledProblem(phi, anchored_grid(feasible, N_GRID)))
            for name, _ in VERDICTS[:8]:
                assert repr(verdicts[name][i]) == repr(single[name][0]), (name, i)
                witnessed += len(single[name][0].witnesses)
    assert witnessed or case == "bowl"  # the bowl holds on every line


def classify(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


BOWL = ["classify", "--function", "x1^2 + x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]"]


def count_calls(monkeypatch, argv: list[str]) -> dict[str, int]:
    """The profile and evaluation calls of one successful CLI run."""
    calls = {"grid_dini_profile": 0, "eval_many": 0}
    for module, name in ((oracle, "grid_dini_profile"), (cli, "eval_many")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert classify(argv) == 0
    return calls


def test_a_multivariate_run_makes_few_profile_and_evaluation_calls(monkeypatch):
    calls = count_calls(monkeypatch, BOWL + ["--pairs", "24", "--grid", "257"])
    # For the 24 lines at once: the grid values are one evaluation, and the
    # pair oracles' one round of requests one profile call, which makes one
    # evaluation per settle window (21, 42 and 84 columns, then the rest;
    # each line asks about one side of each column, and every entry settles
    # by its first trailing probe, so no kernel block runs); every later
    # request finds its entries estimated.  One line at a time, the same run
    # made 24 and 72; with blocks sized for both sides of every column, and
    # with windows of one kernel block's rows, 1 and 14.
    assert calls == {"grid_dini_profile": 1, "eval_many": 5}


GOLDEN_2D = [e for e in golden_battery() if e.arity == 2]


# 24 lines of 257 points are one batch; of 1025 points, four batches of 7 lines or fewer
@pytest.mark.parametrize("grid,batches", [(257, 1), (1025, 4)])
@pytest.mark.parametrize("entry", GOLDEN_2D, ids=[e.id for e in GOLDEN_2D])
def test_classify_asks_each_classifier_once_per_batch(monkeypatch, entry, grid, batches):
    calls = Counter()
    for name, _ in VERDICTS[:8]:
        real = getattr(charact, name)
        monkeypatch.setattr(charact, name,
                            lambda p, real=real, name=name: calls.update([(name, p)]) or real(p))
    classify(["classify", f"--function={entry.expression}", "--arity", "2",
              "--box", "x".join(entry.box), "--pairs", "24", "--grid", str(grid)])
    assert {name for name, _ in calls} == {name for name, _ in VERDICTS[:8]}
    assert len({p for _, p in calls}) == batches
    assert list(calls.values()) == [1] * 8 * batches


def test_a_one_variable_run_makes_few_evaluation_calls(monkeypatch):
    # t^2 holds every check: the grid values, then one pair-oracle profile
    # whose windows double from one kernel block's rows, nearly every entry
    # settled by one probe.  With windows of one kernel block's rows the
    # run made 33 evaluations.
    calls = count_calls(monkeypatch, ["classify", "--function", "t^2", "--domain", "[-1,1]",
                                      "--grid", "16385"])
    assert calls["eval_many"] <= 8


def test_only_a_one_variable_report_estimates_its_witnesses(monkeypatch):
    # the report of n variables keeps outcomes per pair: its failing lines'
    # witnesses get no Dini estimates, while the one line of a one-variable
    # run gets them for all its witnesses in one call
    calls = []
    real = cli.stationarity_estimates
    monkeypatch.setattr(cli, "stationarity_estimates",
                        lambda *args: calls.append(args) or real(*args))
    assert classify(["classify", "--function", "x1^3 + x2^2", "--arity", "2", "--box",
                     "[-1,1]x[-1,1]", "--pairs", "24"]) == 0
    assert calls == []
    assert classify(["classify", "--function", "t^3", "--domain", "[-1,1]"]) == 0
    assert len(calls) == 1 and calls[0][1]


# the flat function asks for both sides of every point, and no entry settles
@pytest.mark.parametrize("function", ["x1^2 + x2^2", "0*x1 + 0*x2"])
@pytest.mark.parametrize("grid,pairs", [(8, 1000), (257, 40), (1022, 9), (1023, 3), (2049, 2),
                                        (16385, 2)])
def test_batches_and_blocks_stay_within_their_bounds(monkeypatch, grid, pairs, function):
    batches, probes, blocks = [], [], []
    real_grid, real_rows = theorems.anchored_grid, dini._probe_rows
    real_profile = oracle.grid_dini_profile

    def grids(*args, **kwargs):
        dom = real_grid(*args, **kwargs)
        batches.append(dom.n.copy())
        return dom

    # every evaluation a profile makes: the padded (m, k) probe array of a
    # settle window or of a kernel block
    def profile(phi, *args, **kwargs):
        return real_profile(lambda pts: probes.append(pts.size) or phi(pts), *args, **kwargs)

    def rows(f, x, *args):
        blocks.append(x.shape[0])
        return real_rows(f, x, *args)

    monkeypatch.setattr(theorems, "anchored_grid", grids)
    monkeypatch.setattr(oracle, "grid_dini_profile", profile)
    monkeypatch.setattr(dini, "_probe_rows", rows)
    classify(["classify", "--function", function, "--arity", "2", "--box", "[-1,1]x[-1,1]",
              "--pairs", str(pairs), "--grid", str(grid)])
    assert sum(len(n) for n in batches) == pairs
    for n in batches:
        # the padded (m, W) grid, unless one line passes it alone
        assert len(n) * n.max() <= theorems._BATCH_POINTS or len(n) == 1
        # both sides of a column of every line fit in one kernel block
        assert 2 * len(n) <= dini._BLOCK_ROWS
    steps = dini.DiniSchedule().steps
    assert 0 < max(probes) <= dini._BLOCK_ROWS * (steps - steps // 2)
    assert max(blocks, default=0) <= dini._BLOCK_ROWS
    assert blocks or function == "x1^2 + x2^2"


def parity_problems():
    """(phi, dom): the 1-D golden functions, an open-ended log and sqrt and
    a jump at 257 points, three of them at 2049 (several windows of the
    default size), and a ragged batch of each case."""
    one = [(e.expression, e.domain, 257) for e in golden_battery() if e.arity == 1]
    one += [(source, domain, n) for n in (257, 2049) for source, domain in
            [("log(t)", "[-1,1]"), ("sqrt(t)", "(0,2]"), ("piecewise(t < 0.3: t^2, else: t - 1)",
                                                          "[-1,1]")]]
    out = [(phi_of(source), make_grid(parse_interval(domain), n)) for source, domain, n in one]
    for case in sorted(CASES):
        f, box, xs, ys = lines_of(case, 1)
        feasible, phi = restrict(f, xs, ys, box)
        out.append((phi, anchored_grid(feasible, N_GRID)))
    return out


PARITY = parity_problems()


def decided(phi, dom) -> tuple[list[str], list[GridDiniProfile]]:
    """Every verdict's repr, the profile the verdicts left, and the whole
    profile without ``until``, with and without ``stat_tol``."""
    p = SampledProblem(phi, dom)
    verdicts = [repr(v) for v in run_all(p).values()]
    return verdicts, [p.profile] + [grid_dini_profile(phi, dom, p.values, p.schedule,
                                                      stat_tol=tol) for tol in (p.stat_tol, None)]


@pytest.mark.parametrize("block_rows", [7, 64])
def test_small_windows_and_blocks_decide_as_the_default(monkeypatch, block_rows):
    want = [decided(phi, dom) for phi, dom in PARITY]
    monkeypatch.setattr(dini, "_BLOCK_ROWS", block_rows)
    for (phi, dom), (verdicts, profiles) in zip(PARITY, want):
        got_verdicts, got_profiles = decided(phi, dom)
        assert got_verdicts == verdicts
        # the verdicts may leave settled entries past their stop estimated in
        # one run and not the other: those estimated in both are equal
        both = got_profiles[0].estimated & profiles[0].estimated
        for got, prof, mask in zip(got_profiles, profiles, (both, ..., ...)):
            for name in ("value", "converged", "feasible", "estimated"):
                assert (getattr(got, name)[mask].tobytes()
                        == getattr(prof, name)[mask].tobytes()), name


def test_a_failing_batch_stops_at_the_block_of_the_last_lines_eighth_failure(monkeypatch):
    # every line of -x1^2 - x2^2 fails the pseudoconvex oracle from its
    # first columns on, so its scan stops long before the end of the grid
    f, box = phi_of("-x1^2 - x2^2", 2), tuple(parse_interval("[-1,1]") for _ in range(2))
    pairs = sample_pairs(box, 3, 0)
    (_, x, y, p), = theorems.line_problems(f, pairs, box, 2049, 1e-6, DiniSchedule(), None,
                                           1e-7)
    blocks = []
    real = oracle.grid_dini_profile

    def recording(*args, until=None, **kwargs):
        def asked(rows):
            blocks.append((rows, until(rows)))
            return blocks[-1][1]
        return real(*args, until=asked, **kwargs)

    monkeypatch.setattr(oracle, "grid_dini_profile", recording)
    verdicts = oracle.pseudoconvex_def(p)
    monkeypatch.undo()
    assert [v.outcome for v in verdicts] == ["fails"] * 3
    # the column of each line's 8th failure, and the block that holds the last
    eighth = max(int(np.searchsorted(p.dom.points[i, : p.dom.n[i]], v.witnesses[-1].points[0]))
                 for i, v in enumerate(verdicts))
    assert all(len(v.witnesses) == oracle._WITNESS_CAP for v in verdicts)
    (stop, stopped), = blocks[-1:]
    assert stopped and not any(done for _, done in blocks[:-1])
    assert stop.start <= eighth < stop.stop < p.dom.points.shape[1]
    assert p.profile.estimated[..., : stop.stop].any(axis=(0, 1)).all()
    assert not p.profile.estimated[..., stop.stop :].any()
    for i, verdict in enumerate(verdicts):
        feasible, phi = restrict(f, x[i][None], y[i][None], box)
        alone = SampledProblem(phi, anchored_grid(feasible, 2049))
        assert repr(verdict) == repr(oracle.pseudoconvex_def(alone)[0])

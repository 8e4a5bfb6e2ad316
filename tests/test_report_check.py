"""Every one-variable ``classify`` report of the CLI snapshot, and its JSON
``decompose`` and ``dini`` reports, check against their expressions
(``report_check``), and the checker catches a witness moved one grid point,
two values swapped, a range boundary moved by one, a verdict's ``tol``
halved, a witness whose inequality no longer holds, a Dini estimate one ulp
off, a minimum band stretched into a flank, a martos boundary moved and a
``dini`` estimate one ulp off.

Every JSON multivariate ``classify`` report of the snapshot checks against
its config as well, and the checker catches a pair outcome flipped against
its aggregate, an x moved outside the box and a ``feasible`` end pulled
inward.

Every JSON ``verify-theorems`` report of the snapshot checks against the
golden entries it ran on, and the checker catches a case flipped from
``ok`` to ``FAIL`` with ``ok`` left true, ``n_vacuous`` off by one and the
``C=`` of an ``ok`` Lpr1 detail flipped.

Every ``--output=text`` case of the snapshot is checked through its JSON
twin, the same argv without that flag: the twin checks, and the text is
the reference layout of it, or for ``verify-theorems`` names each case of
it with its status.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time

import numpy as np
import pytest

import test_cli_snapshot as snapshot
from dinicvx import cli
from report_check import grid_of, python_reprs, report_problems
from report_reference import render_text

CASES = {label: argv for label, argv in snapshot.cases().items()
         if (label.startswith("classify-1d/") and "--output=text" not in argv)
         or label in ("decompose/sq", "decompose/log", "dini/abs/json")}

ND_CASES = {label: argv for label, argv in snapshot.cases().items()
            if label.startswith("classify/") and "--output=text" not in argv}

VERIFY_CASES = {label: argv for label, argv in snapshot.cases().items()
                if label.startswith("verify-theorems/") and "--output=text" not in argv}

TEXT_CASES = {label: argv for label, argv in snapshot.cases().items() if "--output=text" in argv}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> dict:
    return snapshot.write_manifests(tmp_path_factory.mktemp("manifests"))


def verify(label: str, manifests: dict) -> tuple[int, str, list]:
    """The exit code and report of the ``verify-theorems`` case ``label``,
    and the golden entries it ran on."""
    argv = VERIFY_CASES[label]
    entries = [e for a in argv for e in snapshot.MANIFESTS.get(a, ())]
    return (*classify([str(manifests.get(a, a)) for a in argv]), entries)


def classify(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_one_variable_report_of_the_snapshot_checks():
    # the 20 one-variable golden functions at 257 and 16385 points, and the
    # decompositions of t^2 and log(t) and one Dini estimate; about a second
    # on a 2-core VM, reference Dini estimates included
    recorded = json.loads(snapshot.SNAPSHOT.read_text())
    assert len(CASES) == 43
    start = time.monotonic()
    for label, argv in sorted(CASES.items()):
        code, text = classify(argv)
        # the report checked is the one the snapshot pins
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert {"exit": code, "stdout_sha256": digest} == recorded[label], label
        assert report_problems(text) == [], label
    assert time.monotonic() - start < 60


def test_every_multivariate_report_of_the_snapshot_checks():
    # the six golden 2-D functions on two seeds, an open box, undefined
    # values and a 2049-point grid; about a second on a 2-core VM
    recorded = json.loads(snapshot.SNAPSHOT.read_text())
    assert len(ND_CASES) == 15
    start = time.monotonic()
    for label, argv in sorted(ND_CASES.items()):
        code, text = classify(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert {"exit": code, "stdout_sha256": digest} == recorded[label], label
        assert report_problems(text) == [], label
    assert time.monotonic() - start < 60


def test_every_verify_theorems_report_of_the_snapshot_checks(manifests):
    # the golden 1-D and 2-D manifests, two seeds, a user tol and 200 pairs
    recorded = json.loads(snapshot.SNAPSHOT.read_text())
    assert len(VERIFY_CASES) == 6
    for label in sorted(VERIFY_CASES):
        code, text, entries = verify(label, manifests)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert {"exit": code, "stdout_sha256": digest} == recorded[label], label
        assert report_problems(text, entries) == [], label


@pytest.mark.parametrize("label", sorted(TEXT_CASES))
def test_every_text_report_lays_out_its_checked_json_twin(label, manifests):
    assert len(TEXT_CASES) == 5
    entries = [e for a in TEXT_CASES[label] for e in snapshot.MANIFESTS.get(a, ())]
    argv = [str(manifests.get(a, a)) for a in TEXT_CASES[label]]
    code, text = classify(argv)
    twin_code, twin = classify([a for a in argv if a != "--output=text"])
    assert code == twin_code
    assert report_problems(twin, entries) == [], label
    report = json.loads(twin)
    if not label.startswith("verify-theorems/"):
        assert text == render_text(report)
        return
    lines = text.splitlines()
    assert report["cases"] and len(lines) == len(report["cases"]) + len(report["label_mismatches"]) + 1
    for line, case in zip(lines, report["cases"]):
        assert line.startswith(f"[{case['theorem']}] {case['function']}: {case['status']}")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a pair's feasible ends are printed "
                                       "as np.float64(...) reprs")
def test_no_report_value_is_a_python_repr():
    for label, argv in sorted(ND_CASES.items()):
        assert python_reprs(json.loads(classify(argv)[1])) == [], label


def mutated(label: str, mutate, manifests: dict | None = None) -> list[str]:
    """The problems of the report of ``label`` once ``mutate`` changed it; a
    ``verify-theorems`` case reads its manifest from ``manifests``."""
    if label in VERIFY_CASES:
        _, text, entries = verify(label, manifests)
    else:
        text, entries = classify({**CASES, **ND_CASES}[label])[1], []
    report = json.loads(text, parse_int=float)
    assert report_problems(json.dumps(report), entries) == []
    mutate(report)
    return report_problems(json.dumps(report), entries)


def first_witness(report: dict, distinct: int) -> dict:
    """The first witness whose first ``distinct`` values differ."""
    return next(w for check in report["checks"].values()
                for verdict in check["methods"].values() for w in verdict["witnesses"]
                if len(set(w["values"][:distinct])) == distinct)


@pytest.mark.parametrize("label", ["classify-1d/cube/grid257", "classify-1d/neg-sq/grid16385"])
def test_a_witness_moved_one_grid_point_fails(label):
    def move(report):
        w, grid = first_witness(report, 1), grid_of(report["config"])
        k = int(np.flatnonzero(grid == w["points"][0])[0])
        w["points"][0] = float(grid[k + 1 if k + 1 < grid.size else k - 1])

    assert any("reported" in problem for problem in mutated(label, move))


@pytest.mark.parametrize("label", ["classify-1d/cube/grid257", "classify-1d/w-shape/grid257"])
def test_two_values_swapped_fail(label):
    def swap(report):
        w = first_witness(report, 2)
        w["values"][0], w["values"][1] = w["values"][1], w["values"][0]

    assert any("reported" in problem for problem in mutated(label, swap))


@pytest.mark.parametrize("name,end", [("i_minus", "end"), ("i_hat", "start"), ("i_hat", "end"),
                                      ("i_plus", "start")])
def test_a_range_boundary_moved_by_one_fails(name, end):
    def shift(report):
        report["decomposition"][name][end] += 1

    assert any("decomposition" in problem
               for problem in mutated("classify-1d/sq/grid257", shift))


@pytest.mark.parametrize("flank,end,hat_end", [("i_minus", "end", "start"),
                                               ("i_plus", "start", "end")])
def test_a_middle_range_stretched_into_a_flank_fails(flank, end, hat_end):
    # the ranges still tile the grid, but the middle one holds a strict step
    def stretch(report):
        dec, grid = report["decomposition"], grid_of(report["config"])
        step = -1 if flank == "i_minus" else 1
        dec[flank][end] += step
        dec["i_hat"][hat_end] += step
        for r in (dec[flank], dec["i_hat"]):
            r["size"] = r["end"] - r["start"]
            r["t_first"], r["t_last"] = float(grid[int(r["start"])]), float(grid[int(r["end"]) - 1])

    problems = mutated("classify-1d/sq/grid257", stretch)
    assert len(problems) == 1 and problems[0].startswith("decomposition i_hat value")


def verdict_of(report: dict, check: str) -> dict:
    return report["checks"][check]["methods"]["definitional"]


@pytest.mark.parametrize("label", ["classify-1d/cube/grid257", "classify-1d/w-shape/grid16385"])
def test_a_halved_tol_fails(label):
    def halve(report):
        verdict_of(report, "quasiconvex")["tol"] /= 2

    assert any("is not the band" in problem for problem in mutated(label, halve))


@pytest.mark.parametrize("check,kind", [("quasiconvex", "interior_peak"),
                                        ("semistrict-quasiconvex", "non_descending_interior"),
                                        ("pseudoconvex", "no_descent")])
def test_a_tol_no_gap_clears_fails_the_witnesses(check, kind):
    def widen(report):
        verdict = verdict_of(report, check)
        assert verdict["witnesses"] and verdict["witnesses"][0]["kind"] == kind
        verdict["tol"] = 1e6

    problems = mutated("classify-1d/neg-sq/grid257", widen)
    assert f"{check}/definitional/witness0: the {kind} inequality fails" in problems


def test_a_no_descent_estimate_below_a_narrowed_stat_tol_fails():
    # t^3's estimate at 0 toward -1 is rounding noise, -1.3e-13, above -1e-7
    def narrow(report):
        verdict_of(report, "pseudoconvex")["stat_tol"] = 1e-20

    problems = mutated("classify-1d/cube/grid257", narrow)
    assert "pseudoconvex/definitional/witness0: the no_descent inequality fails" in problems


def test_a_dini_estimate_one_ulp_off_fails():
    def nudge(report):
        est = verdict_of(report, "pseudoconvex")["witnesses"][0]["dini"]["minus"]
        est["unit_value"] = float(np.nextafter(est["unit_value"], 0.0))

    problems = mutated("classify-1d/cube/grid257", nudge)
    assert any("dini -1 unit_value" in problem for problem in problems)


@pytest.mark.parametrize("end,into", [("end", "start"), ("start", "end")])
def test_a_martos_boundary_moved_fails(end, into):
    # the constant run of t^2 (one point) takes a point of a flank: the
    # ranges still tile the grid, but a step no longer has its sign
    def move(report):
        split, grid = report["martos"], grid_of(report["config"])
        flank = split["decreasing" if end == "start" else "increasing"]
        step = -1 if end == "start" else 1
        split["constant"][end] += step
        flank[into] += step
        for r in (flank, split["constant"]):
            r["size"] = r["end"] - r["start"]
            r["t_first"], r["t_last"] = float(grid[int(r["start"])]), float(grid[int(r["end"]) - 1])

    problems = mutated("decompose/sq", move)
    assert len(problems) == 1 and problems[0].startswith("martos constant step")


def test_a_dini_report_estimate_one_ulp_off_fails():
    def nudge(report):
        est = report["estimate"]
        est["value"] = float(np.nextafter(est["value"], 0.0))

    assert mutated("dini/abs/json", nudge) == ["estimate value is 1.0, reported 0.9999999999999999"]


def test_a_pair_outcome_flipped_against_its_aggregate_fails():
    def flip(report):
        assert report["checks"]["quasiconvex"]["methods_aggregate"]["martos"] == "holds"
        report["pairs"][3]["checks"]["quasiconvex"]["martos"] = "fails"

    assert mutated("classify/bowl2/seed1", flip) == [
        "quasiconvex: methods_aggregate {'definitional': 'holds', 'martos': 'holds'}, "
        "the pairs merge to {'definitional': 'holds', 'martos': 'fails'}",
        "quasiconvex: agree is True, the aggregates say False",
        "quasiconvex: outcome 'holds', the aggregates merge to 'fails'",
        "agreement True and inconclusive False, the aggregates say False and False"]


def test_an_x_moved_outside_the_box_fails():
    def move(report):
        report["pairs"][0]["x"][1] = 1.5

    assert any(p.startswith("pair0: x ") and p.endswith("is outside the box")
               for p in mutated("classify/open-box", move))


@pytest.mark.parametrize("end", [0, 1])
def test_a_feasible_end_pulled_inward_fails(end):
    def pull(report):
        pair = report["pairs"][0]
        lo, hi = re.findall(r"np\.float64\(([^()]*)\)", pair["feasible"])
        ends = [float(lo), float(hi)]
        ends[end] += (0.5 - ends[end]) * 1e-9
        pair["feasible"] = f"{pair['feasible'][0]}{ends[0]!r},{ends[1]!r}{pair['feasible'][-1]}"

    problems = mutated("classify/open-box", pull)
    assert len(problems) == 1 and "is on no face of the box" in problems[0]


@pytest.mark.parametrize("label,theorem", [("verify-theorems/golden-1d", "label"),
                                           ("verify-theorems/golden-2d", "T6")])
def test_a_case_flipped_to_fail_with_ok_left_true_fails(manifests, label, theorem):
    def flip(report):
        case = next(c for c in report["cases"] if c["theorem"] == theorem)
        assert case["status"] == "ok" and report["ok"] is True
        case["status"] = "FAIL"

    problems = mutated(label, flip, manifests)
    assert "ok is True with 1 FAIL cases" in problems
    # a FAIL label case must be named among the label mismatches
    assert any(p.startswith("label_mismatches") for p in problems) == (theorem == "label")


def test_n_vacuous_off_by_one_fails(manifests):
    def miscount(report):
        assert report["n_vacuous"] == 14
        report["n_vacuous"] += 1

    assert mutated("verify-theorems/golden-1d", miscount, manifests) == [
        "n_vacuous 15.0, the cases count 14"]


def test_an_lpr1_c_flipped_fails(manifests):
    def flip(report):
        case = next(c for c in report["cases"] if c["theorem"] == "Lpr1" and c["status"] == "ok")
        assert case["function"] == "bowl2#pair0" and ", C=False, " in case["detail"]
        case["detail"] = case["detail"].replace(", C=False, ", ", C=True, ")

    problems = mutated("verify-theorems/golden-2d", flip, manifests)
    assert len(problems) == 1 and problems[0].startswith(
        "case1 [Lpr1] bowl2#pair0: ok with detail 'A=False (over 64 directions), B=False, C=True")

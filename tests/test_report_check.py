"""Every one-variable ``classify`` report of the CLI snapshot checks against
its expression (``report_check``), and the checker catches a witness moved
one grid point, two values swapped, a range boundary moved by one, a
verdict's ``tol`` halved, a witness whose inequality no longer holds, a
Dini estimate one ulp off and a minimum band stretched into a flank.

The ``classify-1d/cube/text`` case is left out: it renders the report of
``classify-1d/cube/grid257`` as text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import numpy as np
import pytest

import test_cli_snapshot as snapshot
from dinicvx import cli
from report_check import grid_of, report_problems

CASES = {label: argv for label, argv in snapshot.cases().items()
         if label.startswith("classify-1d/") and "--output=text" not in argv}


def classify(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_one_variable_report_of_the_snapshot_checks():
    # the 20 one-variable golden functions at 257 and 16385 points; about a
    # second on a 2-core VM, reference Dini estimates included
    recorded = json.loads(snapshot.SNAPSHOT.read_text())
    assert len(CASES) == 40
    start = time.monotonic()
    for label, argv in sorted(CASES.items()):
        code, text = classify(argv)
        # the report checked is the one the snapshot pins
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert {"exit": code, "stdout_sha256": digest} == recorded[label], label
        assert report_problems(text) == [], label
    assert time.monotonic() - start < 60


def mutated(label: str, mutate) -> list[str]:
    """The problems of the report of ``label`` once ``mutate`` changed it."""
    report = json.loads(classify(CASES[label])[1], parse_int=float)
    assert report_problems(json.dumps(report)) == []
    mutate(report)
    return report_problems(json.dumps(report))


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

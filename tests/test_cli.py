import gc
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dinicvx
import report_reference
from dinicvx import charact, cli, dini, golden_battery, write_manifest
from dinicvx.dini import DiniEstimate, DiniSchedule
from dinicvx.expr import MAX_DEPTH
from dinicvx.oracle import Verdict, Witness
from dinicvx.theorems import SUITE_SCHEDULE
from dinicvx.cli import (
    EXIT_CONFIG,
    EXIT_DISAGREE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    canonical_json,
    main,
)

from conftest import phi_of
from dini_reference import is_stationary

CUBE = ["classify", "--function", "t^3", "--domain", "[-1,1]"]
# sub-tolerance creep: individual rises stay under 1e-6 while the total
# drop past t=0.9 is large enough for the definitional scan to notice
CREEP = ["classify", "--function", "0.0001*t - 0.002*max(0, t - 0.9)",
         "--domain", "[0,1]", "--tol", "1e-6", "--check", "quasiconvex"]


# Nested values of every type a report holds, and every kind of float.
FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                          0.1, 1e308]) | st.floats()
JSON_VALUES = st.recursive(
    st.one_of(FLOATS, FLOATS.map(np.float64), st.booleans(), st.booleans().map(np.bool_),
              st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1).map(np.int64),
              st.text(st.sampled_from('ab\\"\n')), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(st.sampled_from("ab"), max_size=2), inner, max_size=4)),
    max_leaves=24)


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestExitCodes:
    def test_classify_agreement(self, capsys):
        code, out, _ = run(CUBE, capsys)
        assert code == EXIT_OK

    def test_classify_inconclusive(self, capsys):
        code, out, _ = run(["classify", "--function", "log(t)",
                            "--domain", "[-1,1]"], capsys)
        assert code == EXIT_INCONCLUSIVE

    def test_classify_disagreement(self, capsys):
        code, out, err = run(CREEP, capsys)
        assert code == EXIT_DISAGREE
        assert "disagreement on quasiconvex" in err

    def test_parse_error(self, capsys):
        code, _, err = run(["classify", "--function", "t +",
                            "--domain", "[-1,1]"], capsys)
        assert code == EXIT_CONFIG
        assert "error:" in err

    def test_grid_too_small(self, capsys):
        code, _, err = run(CUBE + ["--grid", "4"], capsys)
        assert code == EXIT_CONFIG

    def test_missing_domain(self, capsys):
        code, _, err = run(["classify", "--function", "t^2"], capsys)
        assert code == EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        code, _, err = run(CUBE + ["--no-such-flag"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        CUBE,
        ["verify-theorems"],
        ["classify", "--function", "x1^2 + x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]"],
    ])
    def test_infinite_tol_is_a_config_error(self, argv, capsys):
        code, out, err = run(argv + ["--tol", "inf"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err.splitlines()[0] == "error: tol must be finite, got inf"

    @pytest.mark.parametrize("argv", [
        CUBE,
        ["verify-theorems"],
        ["classify", "--function", "x1^2 + x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]"],
    ])
    def test_infinite_stat_tol_is_a_config_error(self, argv, capsys):
        # with stat_tol inf no direction could descend, so every verdict
        # would rest on a band no estimate can cross
        code, out, err = run(argv + ["--stat-tol", "inf"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err.splitlines()[0] == "error: stat-tol must be finite, got inf"

    @pytest.mark.parametrize("argv", [
        CUBE,
        ["classify", "--function", "x1^2 + x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]"],
        ["dini", "--function", "t^2", "--domain", "[-1,1]", "--at", "0.5", "--dir", "1"],
        ["verify-theorems"],
    ])
    def test_infinite_dini_t0_is_a_config_error(self, argv, capsys):
        # an infinite first step probes no point; each subcommand refuses it
        # before evaluating anything
        code, out, err = run(argv + ["--dini-t0", "inf"], capsys)
        assert code == EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert lines[0] == "error: t0 must be positive and finite, got inf"
        assert len(lines) == 2 and lines[1].startswith("elapsed:")

    @pytest.mark.parametrize("argv", [
        CUBE,
        ["classify", "--function", "x1^2 + x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]"],
        ["dini", "--function", "t^2", "--domain", "[-1,1]", "--at", "0.5", "--dir", "1"],
        ["verify-theorems"],
    ])
    def test_infinite_dini_tol_is_a_config_error(self, argv, capsys):
        # with an infinite tolerance every estimate would read as converged,
        # so no verdict could be inconclusive
        code, out, err = run(argv + ["--dini-tol", "inf"], capsys)
        assert code == EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert lines[0] == "error: dini_tol must be positive and finite, got inf"
        assert len(lines) == 2 and lines[1].startswith("elapsed:")

    @pytest.mark.parametrize("argv", [
        CUBE,
        ["classify", "--function=x1", "--arity=2", "--box=[0,1]x[0,1]"],
        ["verify-theorems", "--random=1"],
    ])
    def test_negative_seed_is_a_config_error(self, argv, capsys):
        # refused with the flag's name before numpy sees it, also where no
        # pairs are sampled (a one-variable classify)
        code, out, err = run(argv + ["--seed=-1"], capsys)
        assert code == EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert lines[0] == "error: seed must be >= 0, got -1"
        assert len(lines) == 2 and lines[1].startswith("elapsed:")

    def test_bad_manifest_path(self, capsys):
        code, _, err = run(["verify-theorems", "/no/such/file.json"], capsys)
        assert code == EXIT_CONFIG

    def test_dini_converged(self, capsys):
        code, out, _ = run(["dini", "--function", "t^2", "--domain", "[-1,1]",
                            "--at", "0.5", "--dir", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["estimate"]["converged"] is True


class TestSplitLine:
    """One line of a multivariate run where the two methods split.

    A spy flips the characterization's verdict on line 0 of the first batch
    to ``holds``, with no witnesses; the definition fails on every line of
    the concave bowl."""

    ARGV = ["classify", "--function=-x1^2-x2^2", "--arity", "2", "--box", "[-1,1]x[-1,1]",
            "--check", "pseudoconvex"]

    def run_split(self, monkeypatch, capsys):
        real, flipped = charact.pseudoconvex_char, []

        def spy(p):
            verdicts = real(p)
            if flipped:
                return verdicts
            flipped.append(p)
            return (replace(verdicts[0], outcome="holds", witnesses=()), *verdicts[1:])

        monkeypatch.setattr(charact, "pseudoconvex_char", spy)
        code, out, err = run(self.ARGV, capsys)
        return code, json.loads(out), err

    def test_the_spy_splits_pair_0_alone(self, monkeypatch, capsys):
        _, report, _ = self.run_split(monkeypatch, capsys)
        sides = [pair["checks"]["pseudoconvex"] for pair in report["pairs"]]
        assert sides[0] == {"definitional": "fails", "characterization": "holds"}
        assert all(side == {"definitional": "fails", "characterization": "fails"}
                   for side in sides[1:])

    @pytest.mark.xfail(strict=True, reason=(
        "item 15: the methods are compared after each one's outcomes are merged over "
        "the lines, so a split on one line stays hidden"))
    def test_a_split_line_is_a_disagreement(self, monkeypatch, capsys):
        code, report, err = self.run_split(monkeypatch, capsys)
        assert report["checks"]["pseudoconvex"]["agree"] is False
        assert code == EXIT_DISAGREE
        assert any(line.startswith("disagreement on pseudoconvex") and "pair 0" in line
                   for line in err.splitlines())


class TestClassifyReport:
    def test_json_structure(self, capsys):
        code, out, _ = run(CUBE, capsys)
        rep = json.loads(out)
        assert rep["command"] == "classify"
        assert set(rep["checks"]) == {"pseudoconvex", "strict-pseudoconvex",
                                      "quasiconvex", "semistrict-quasiconvex"}
        pc = rep["checks"]["pseudoconvex"]
        assert pc["agree"] is True
        assert pc["outcome"] == "fails"
        assert pc["methods"]["definitional"]["outcome"] == "fails"
        assert pc["methods"]["characterization"]["outcome"] == "fails"
        assert rep["checks"]["quasiconvex"]["outcome"] == "holds"
        assert rep["agreement"] is True
        assert rep["decomposition"]["ok"] is True

    def test_witness_sits_at_inflection(self, capsys):
        _, out, _ = run(CUBE, capsys)
        rep = json.loads(out)
        wits = rep["checks"]["pseudoconvex"]["methods"]["definitional"]["witnesses"]
        assert wits and abs(wits[0]["points"][0]) <= 2.0 / 256.0

    def test_witness_traces_are_one_sided_estimates(self, capsys):
        # phi'(t) = 3t^2 - 1; a witness on the left end has no minus side
        _, out, _ = run(["classify", "--function", "t^3 - t", "--domain", "[-1,1]",
                         "--grid", "33", "--check", "quasiconvex"], capsys)
        rep = json.loads(out)
        wits = rep["checks"]["quasiconvex"]["methods"]["definitional"]["witnesses"]
        sides = 0
        for w in wits:
            t = w["points"][0]
            assert ("minus" in w["dini"]) == (t > -1)
            for label, sign in (("plus", 1.0), ("minus", -1.0)):
                if label in w["dini"]:
                    sides += 1
                    got = w["dini"][label]["unit_value"]
                    assert got == pytest.approx(sign * (3 * t * t - 1), abs=1e-4)
        assert sides >= 3

    def test_each_witness_point_estimated_once(self, monkeypatch, capsys):
        # the definitional and structural sides of the four checks report
        # the same grid points, and the ends (-1 has no minus side) among
        # them; all of them are estimated in one call
        argv = ["classify", "--function", "t^3 - t", "--domain", "[-1,1]", "--grid", "33"]
        calls = []

        def counting(phi, ts, *args):
            calls.append(list(ts))
            return dini.stationarity_estimates(phi, ts, *args)

        monkeypatch.setattr(cli, "stationarity_estimates", counting)
        _, out, _ = run(argv, capsys)
        monkeypatch.undo()
        wits = [w for block in json.loads(out)["checks"].values()
                for verdict in block["methods"].values() for w in verdict["witnesses"]]
        points = {w["points"][0] for w in wits}
        assert len(wits) > len(points) > 1
        (ts,) = calls
        assert sorted(ts) == sorted(points)
        phi = phi_of(argv[2])
        for w in wits:
            fresh = is_stationary(phi, w["points"][0], dinicvx.parse_interval(argv[4]),
                                  dinicvx.DiniSchedule())
            expected = {("plus" if label == "+1" else "minus"): est
                        for label, est in fresh.estimates.items()}
            assert canonical_json(w["dini"]) == canonical_json(expected)

    def test_method_definitional_only(self, capsys):
        _, out, _ = run(CUBE + ["--method", "definitional"], capsys)
        rep = json.loads(out)
        for block in rep["checks"].values():
            assert list(block["methods"]) == ["definitional"]

    def test_method_structural_only(self, capsys):
        _, out, _ = run(CUBE + ["--method", "structural"], capsys)
        rep = json.loads(out)
        assert {check: list(block["methods"]) for check, block in rep["checks"].items()} == {
            "pseudoconvex": ["characterization"], "strict-pseudoconvex": ["characterization"],
            "quasiconvex": ["martos"], "semistrict-quasiconvex": ["martos"]}
        assert "decomposition" in rep

    @pytest.mark.parametrize("method", ["characterization", "martos"])
    def test_method_names_a_side_not_a_classifier(self, method, capsys):
        code, out, err = run(CUBE + ["--method", method], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert "invalid choice" in err.splitlines()[0]

    def test_single_check_selection(self, capsys):
        _, out, _ = run(CUBE + ["--check", "quasiconvex"], capsys)
        rep = json.loads(out)
        assert list(rep["checks"]) == ["quasiconvex"]

    def test_multivariate_pairs(self, capsys):
        code, out, _ = run(["classify", "--function", "x1^2 + x2^2",
                            "--arity", "2", "--box", "[-1,1]x[-1,1]",
                            "--pairs", "3", "--check", "quasiconvex"], capsys)
        rep = json.loads(out)
        assert code == EXIT_OK
        assert len(rep["pairs"]) == 3
        agg = rep["checks"]["quasiconvex"]["methods_aggregate"]
        assert agg["definitional"] == "holds"

    def test_text_output(self, capsys):
        code, out, _ = run(CUBE + ["--output", "text"], capsys)
        assert code == EXIT_OK
        assert "pseudoconvex" in out and "fails" in out


class TestDeterminism:
    def test_classify_rerun_byte_identical(self, capsys):
        _, first, _ = run(CUBE, capsys)
        _, second, _ = run(CUBE, capsys)
        assert first == second

    def test_multivariate_rerun_byte_identical(self, capsys):
        argv = ["classify", "--function", "abs(x1) + abs(x2)", "--arity", "2",
                "--box", "[-1,1]x[-1,1]", "--pairs", "4", "--seed", "7"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_timing_only_on_stderr(self, capsys):
        _, out, err = run(CUBE, capsys)
        assert "elapsed" in err and "elapsed" not in out


class TestDecompose:
    def test_report_blocks(self, capsys):
        code, out, _ = run(["decompose", "--function", "t^2",
                            "--domain", "[-1,1]"], capsys)
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["decomposition"]["ok"] is True
        assert rep["martos"]["valid"] is True

    def test_csv_dump(self, tmp_path, capsys):
        path = tmp_path / "seg.csv"
        code, _, _ = run(["decompose", "--function", "t^2",
                          "--domain", "[-1,1]", "--csv", str(path)], capsys)
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value,segment"
        assert len(lines) == 1 + 257
        t0, v0, seg0 = lines[1].split(",")
        assert float(t0) == -1.0 and float(v0) == 1.0
        assert seg0 == "minus"
        assert lines[-1].split(",")[2] == "plus"

    def test_undefined_values_inconclusive(self, capsys):
        code, _, _ = run(["decompose", "--function", "log(t)",
                          "--domain", "[-1,1]"], capsys)
        assert code == EXIT_INCONCLUSIVE


class TestDini:
    def test_kink_ascends_both_ways(self, capsys):
        _, out, _ = run(["dini", "--function", "abs(t)", "--domain", "[-1,1]",
                         "--at", "0", "--dir", "-1"], capsys)
        rep = json.loads(out)
        assert rep["estimate"]["value"] == 1.0

    def test_descent_direction(self, capsys):
        _, out, _ = run(["dini", "--function", "abs(t)", "--domain", "[-1,1]",
                         "--at", "-0.5", "--dir", "1"], capsys)
        rep = json.loads(out)
        assert math.isclose(rep["estimate"]["value"], -1.0, abs_tol=1e-5)

    def test_scaled_direction(self, capsys):
        _, out, _ = run(["dini", "--function", "t^2", "--domain", "[-1,1]",
                         "--at", "0.5", "--dir", "2"], capsys)
        rep = json.loads(out)
        assert math.isclose(rep["estimate"]["value"], 2.0, abs_tol=1e-5)
        assert math.isclose(rep["estimate"]["unit_value"], 1.0, abs_tol=1e-5)

    @pytest.mark.parametrize("function,domain,at,direction,line", [
        ("t^2", "[0,1]", "2", "1", "error: base point [2.0] outside [0,1]"),
        ("log(t)", "[-1,1]", "0", "1", "error: function undefined at the base point [0.0]"),
        ("t^2", "[0,1]", "1", "1", "error: direction leaves domain"),
        ("t^2", "[0,1]", "0.5", "0", "error: direction must be finite and nonzero, got 0.0"),
    ])
    def test_error_lines(self, capsys, function, domain, at, direction, line):
        code, out, err = run(["dini", "--function", function, "--domain", domain,
                              "--at", at, "--dir", direction], capsys)
        assert (code, out, err.splitlines()[0]) == (EXIT_CONFIG, "", line)


class TestParserBuiltOnce:
    def test_calls_in_one_process_print_what_each_prints_alone(self, tmp_path, capsys):
        by_id = {e.id: e for e in golden_battery()}
        path = tmp_path / "mini.json"
        write_manifest((by_id["sq"],), path)
        calls = [
            CUBE + ["--check", "quasiconvex", "--check", "pseudoconvex"],
            CUBE,  # the default checks, after a call that appended two
            ["verify-theorems", str(path), "--grid", "65"],
            ["decompose", "--function", "abs(t)", "--domain", "[-1,1]", "--grid", "33"],
            ["dini", "--function", "t^2", "--domain", "[0,1]", "--at", "0.5"],
            CUBE + ["--no-such-flag"],
            CUBE + ["--check", "quasiconvex", "--output", "text"],
        ]
        together = [run(argv, capsys)[:2] for argv in calls]
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(argv, capsys)[:2])
        assert together == alone
        assert [code for code, _ in together].count(EXIT_CONFIG) == 1


class TestParserDefaults:
    @pytest.mark.parametrize("argv,schedule", [
        (CUBE, DiniSchedule()),
        (["decompose", "--function", "t", "--domain", "[-1,1]"], DiniSchedule()),
        (["dini", "--function", "t", "--domain", "[-1,1]", "--at", "0"], DiniSchedule()),
        (["verify-theorems"], SUITE_SCHEDULE),
    ], ids=["classify", "decompose", "dini", "verify-theorems"])
    def test_schedule_defaults_are_the_schedule_objects(self, argv, schedule):
        cfg = cli._config_from(cli._build_parser().parse_args(argv))
        assert cfg.dini == schedule


# A valid run of each subcommand, to which one flag is added.
BASE_ARGV = {
    "classify": CUBE,
    "decompose": ["decompose", "--function=t^2", "--domain=[-1,1]"],
    "dini": ["dini", "--function=t^2", "--domain=[-1,1]", "--at=0.5"],
    "verify-theorems": ["verify-theorems"],
}
# The flags each subcommand reads, as its --help lists them.
READS = {
    "classify": {"--function", "--arity", "--domain", "--box", "--grid", "--margin", "--tol",
                 "--stat-tol", "--dini-t0", "--dini-ratio", "--dini-steps", "--dini-tol",
                 "--seed", "--output", "--pairs", "--method", "--check"},
    "decompose": {"--function", "--domain", "--grid", "--margin", "--tol", "--output",
                  "--csv"},
    "dini": {"--function", "--domain", "--dini-t0", "--dini-ratio", "--dini-steps",
             "--dini-tol", "--output", "--at", "--dir"},
    "verify-theorems": {"manifest", "--grid", "--margin", "--tol", "--stat-tol", "--dini-t0",
                        "--dini-ratio", "--dini-steps", "--dini-tol", "--seed", "--pairs",
                        "--output", "--random"},
}


class TestFlagTable:
    @pytest.mark.parametrize("cmd", sorted(READS))
    def test_help_lists_exactly_the_flags_it_reads(self, cmd, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        text = capsys.readouterr().out
        options = {w for w in text.split("options:")[1].split() if w.startswith("--")}
        assert options - {"--help"} == READS[cmd] - {"manifest"}
        assert ("positional arguments:\n  manifest" in text) == ("manifest" in READS[cmd])

    @pytest.mark.parametrize("cmd,flag", [(cmd, flag) for cmd in sorted(READS)
                                          for flag in sorted(set().union(*READS.values()))
                                          if flag not in READS[cmd]])
    def test_rejects_flags_it_does_not_read(self, cmd, flag, capsys):
        # refused at the parser, so before anything is evaluated; a flag
        # such as --grid on dini would otherwise fail a run on a value it
        # never reads
        arg = "some.json" if flag == "manifest" else f"{flag}=1"
        code, out, err = run(BASE_ARGV[cmd] + [arg], capsys)
        assert code == EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert lines[0] == f"error: unrecognized arguments: {arg}"
        assert len(lines) == 2 and lines[1].startswith("elapsed:")


class TestVerify:
    def test_small_manifest(self, tmp_path, capsys):
        by_id = {e.id: e for e in golden_battery()}
        path = tmp_path / "mini.json"
        write_manifest((by_id["sq"], by_id["cube"], by_id["vee"]), path)
        code, out, _ = run(["verify-theorems", str(path)], capsys)
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["ok"] is True
        assert rep["label_mismatches"] == []
        assert any(c["theorem"] == "T3" and c["status"] == "vacuous"
                   for c in rep["cases"])

    def test_text_mode(self, tmp_path, capsys):
        by_id = {e.id: e for e in golden_battery()}
        path = tmp_path / "mini.json"
        write_manifest((by_id["sq"],), path)
        code, out, _ = run(["verify-theorems", str(path), "--output", "text"],
                           capsys)
        assert code == EXIT_OK
        assert "cases=" in out and "ok=True" in out

    @pytest.mark.parametrize("entry,field", [
        ({"expected": {"convex": True}}, "expected"),
        ({"expected": {"pseudoconvex": "no"}}, "expected"),
        ({"expected": ["pseudoconvex"]}, "expected"),
        ({"expression": 5}, "expression"),
        ({"domain": None}, "domain"),
        ({"arity": 2, "box": None}, "box"),
        ({"arity": 2, "box": ["[-1,1]", "[-1,1]"], "pairs": [[[0, 0, 0], [1, 1]]]}, "pairs"),
        ({"arity": 0}, "arity"),
        ({"lsc": "no"}, "lsc"),
    ], ids=["expected-label", "expected-string", "expected-list", "expression", "domain",
            "box", "pair-coordinates", "arity", "lsc"])
    def test_malformed_entry_is_one_error_line(self, entry, field, tmp_path, capsys):
        raw = {"id": "bad", "expression": "t^2", "arity": 1, "domain": "[-1,1]", **entry}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "entries": [raw]}))
        code, out, err = run(["verify-theorems", str(path)], capsys)
        assert code == EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[1].startswith("elapsed:")
        assert lines[0].startswith("error: ") and f"entry 'bad': {field} must be" in lines[0]
        assert "Traceback" not in err

    def test_config_block(self, tmp_path, capsys):
        by_id = {e.id: e for e in golden_battery()}
        path = tmp_path / "mini.json"
        write_manifest((by_id["sq"],), path)
        _, out, _ = run(["verify-theorems", str(path), "--grid", "65"], capsys)
        cfg = json.loads(out)["config"]
        assert (cfg["function"], cfg["arity"], cfg["domain"], cfg["box"]) == (
            "", 1, "[-1,1]", None)
        assert cfg["method"] == "both"
        assert cfg["checks"] == ["pseudoconvex", "strict-pseudoconvex",
                                 "quasiconvex", "semistrict-quasiconvex"]
        assert (cfg["grid"], cfg["dini"]["steps"], cfg["dini"]["dini_tol"]) == (
            65, 28, 1e-6)


class TestHostileBox:
    """Each bad box ends, within a time limit, with exit code 1 and a
    one-line message; the CLI runs in a child process so a hang is killed."""

    @pytest.mark.parametrize("box", [
        "[0,0]x[0,0]",              # no two distinct points to draw
        "[0,1e-12]x[5,5]",          # every pair within allclose's tolerance
        "(-inf,inf)x[0,1]",         # uniform draws overflow
        "[-1e308,1e308]x[0,1]",     # finite ends, infinite width
        "[-1,1]x[-1,1]x",           # trailing separator
        "[-1,1]xx[-1,1]",           # empty interval between separators
    ])
    def test_exits_one_with_a_message(self, box):
        env = dict(os.environ, PYTHONPATH=str(Path(dinicvx.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "dinicvx", "classify", "--function=x1 + x2",
             "--arity=2", f"--box={box}", "--pairs=2"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        message, elapsed = proc.stderr.splitlines()
        assert message.startswith("error: ")
        assert elapsed.startswith("elapsed: ")


class TestHostileInput:
    """Bad margins, widths, paths and flags end with exit code 1 and a
    one-line message on stderr (plus the elapsed line), nothing on stdout."""

    @staticmethod
    def assert_config_error(argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        message, elapsed = err.splitlines()
        assert message.startswith("error: ")
        assert elapsed.startswith("elapsed: ")
        return message

    def test_nan_margin(self, capsys):
        message = self.assert_config_error(
            ["classify", "--function=t^2", "--domain=(-1,1)", "--margin", "nan"],
            capsys)
        assert "margin" in message

    @pytest.mark.parametrize("margin", ["0", "-1", "nan"])
    @pytest.mark.parametrize("cmd", [["classify", "--function=t^2", "--domain=(-1,1)"],
                                     ["verify-theorems"]])
    def test_a_bad_margin_is_refused_before_any_entry(self, cmd, margin, capsys):
        # the flag applies to every entry of a battery, so no entry is named
        message = self.assert_config_error(cmd + [f"--margin={margin}"], capsys)
        assert message == f"error: margin must be positive, got {float(margin)}"

    def test_infinite_width_domain(self, capsys):
        message = self.assert_config_error(
            ["classify", "--function=t^2", "--domain=[-1e308,1e308]"], capsys)
        assert "infinite width" in message

    def test_margin_below_an_ulp_of_an_open_end(self, capsys):
        # 3e10 + 1e-6 rounds to 3e10, so the grid would start on the open end
        message = self.assert_config_error(
            ["classify", "--function", "t", "--domain", "(3e10,30000000001)", "--grid", "9"],
            capsys)
        assert "rounds onto an open end" in message

    def test_piecewise_without_a_guarded_branch(self, capsys):
        message = self.assert_config_error(
            ["classify", "--function", "piecewise(else: t)", "--domain", "[0,1]"], capsys)
        assert "(at offset 0)" in message

    def test_non_decimal_digits_in_a_variable_name(self, capsys):
        message = self.assert_config_error(
            ["classify", "--function", "x\u00b2", "--arity", "2", "--box", "[-1,1]x[-1,1]"],
            capsys)
        assert "(at offset 0)" in message

    def test_unwritable_csv_path(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        message = self.assert_config_error(
            ["decompose", "--function=t^2", "--domain=[-1,1]", "--csv", str(target)],
            capsys)
        assert str(target) in message

    @pytest.mark.parametrize("cmd", [
        ["decompose", "--function=t^2", "--domain=[-1,1]"],
        ["dini", "--function=t^2", "--domain=[-1,1]", "--at=0.5"],
    ])
    def test_method_only_on_classify(self, cmd, capsys):
        code, out, _ = run(cmd, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["config"]["method"] == "both"
        self.assert_config_error(cmd + ["--method", "definitional"], capsys)


# Runs the CLI on its arguments in an interpreter whose address space is
# capped, so that a size flag allocated before its check fails with a
# MemoryError traceback rather than taking the machine's memory.
_CAPPED_MAIN = """
import resource, sys
limit = 512 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from dinicvx.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestSizeCaps:
    @pytest.mark.parametrize("argv", [
        CUBE + ["--grid", "1000000000"],
        CUBE + ["--grid", str(cli.MAX_GRID + 1)],
        CUBE + ["--dini-ratio", "0.999999", "--dini-steps", "10000000"],
        CUBE + ["--dini-steps", str(cli.MAX_DINI_STEPS + 1)],
        ["classify", "--function=x1 + x2", "--arity=2", "--box=[-1,1]x[-1,1]",
         "--pairs", "1000000000"],
        ["verify-theorems", "--random", "1000000000"],
        ["verify-theorems", "--random", "-1"],
        ["verify-theorems", "--grid", "1000000000"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_oversized_flag_exits_one_under_a_memory_limit(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(dinicvx.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stdout == ""
        message, elapsed = proc.stderr.splitlines()
        assert message.startswith("error: ")
        assert elapsed.startswith("elapsed: ")

    def test_caps_admit_the_largest_values(self):
        cfg = cli._config_from(cli._build_parser().parse_args(
            CUBE + ["--grid", str(cli.MAX_GRID), "--pairs", str(cli.MAX_PAIRS),
                    "--dini-ratio", "0.99", "--dini-steps", str(cli.MAX_DINI_STEPS)]))
        assert (cfg.grid, cfg.pairs, cfg.dini.steps) == (
            cli.MAX_GRID, cli.MAX_PAIRS, cli.MAX_DINI_STEPS)

    @pytest.mark.parametrize("cmd,caps", [
        ("classify", (cli.MAX_GRID, cli.MAX_PAIRS, cli.MAX_DINI_STEPS)),
        ("verify-theorems", (cli.MAX_GRID, cli.MAX_RANDOM, cli.MAX_DINI_STEPS)),
    ])
    def test_caps_are_in_the_help(self, cmd, caps, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        text = capsys.readouterr().out
        for cap in caps:
            assert f"to {cap}" in text


BOWL = ["classify", "--function=x1^2 + x2^2", "--arity=2", "--box=[-1,1]x[-1,1]"]
# the most pairs, or lines, the work budget admits at the largest grid
_MOST_LINES = cli.MAX_WORK // cli.MAX_GRID


def _child(argv: list[str], timeout: float, capped: bool = True):
    """The CLI run on ``argv`` in a child interpreter, with its wall time."""
    env = dict(os.environ, PYTHONPATH=str(Path(dinicvx.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    code = _CAPPED_MAIN if capped else "import sys; from dinicvx.cli import main; sys.exit(main())"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=timeout, env=env)
    return proc, time.monotonic() - start


class TestWorkBudget:
    """The grid times the lines of a run is capped, checked before the run
    starts: a multivariate classify samples ``--pairs`` lines, and
    verify-theorems one per 1-D entry and one per pair of a 2-D entry."""

    @pytest.fixture(scope="class")
    def bowl_manifest(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("budget") / "bowl2.json"
        write_manifest(tuple(e for e in golden_battery() if e.id == "bowl2"), path)
        return str(path)

    @pytest.mark.parametrize("argv", [
        BOWL + ["--grid", str(cli.MAX_GRID), "--pairs", str(cli.MAX_PAIRS)],
        BOWL + ["--grid", str(cli.MAX_GRID), "--pairs", str(_MOST_LINES + 1)],
        BOWL + ["--grid", "1678", "--pairs", str(cli.MAX_PAIRS)],
        ["verify-theorems", "--grid", str(cli.MAX_GRID)],
        ["verify-theorems", "--grid", "513", "--pairs", str(cli.MAX_PAIRS)],
        ["verify-theorems", "--grid", "16385", "--random", "1000"],
        ["verify-theorems", "<bowl2>", "--grid", str(cli.MAX_GRID),
         "--pairs", str(_MOST_LINES + 1)],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
    def test_over_budget_exits_one_within_a_second(self, argv, bowl_manifest):
        argv = [bowl_manifest if a == "<bowl2>" else a for a in argv]
        proc, elapsed = _child(argv, timeout=10)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stdout == ""
        message, _ = proc.stderr.splitlines()
        assert message.startswith("error: grid x ") and "work budget" in message
        assert elapsed < 1.0

    # These took 9.6 s and 8.7 s on a 2-core VM.  The slowest admitted run
    # measured there, classify at 1677 grid points x 10000 pairs, took 15 s.
    @pytest.mark.parametrize("argv", [
        BOWL + ["--grid", str(cli.MAX_GRID), "--pairs", str(_MOST_LINES)],
        ["verify-theorems", "<bowl2>", "--grid", str(cli.MAX_GRID), "--pairs", str(_MOST_LINES)],
    ], ids=["classify", "verify-theorems"])
    def test_the_largest_admitted_runs_finish_within_a_minute(self, argv, bowl_manifest):
        argv = [bowl_manifest if a == "<bowl2>" else a for a in argv]
        proc, elapsed = _child(argv, timeout=60, capped=False)
        assert proc.returncode != EXIT_CONFIG, proc.stderr
        assert proc.stdout
        assert elapsed < 60

    @pytest.mark.parametrize("argv", [
        BOWL,
        BOWL + ["--grid", "262145", "--pairs", "2"],
        ["verify-theorems", "--grid", "65537"],
        ["verify-theorems", "--random", "200"],
        ["verify-theorems", "--pairs", "200"],
    ])
    def test_the_budget_admits_the_documented_runs(self, argv, monkeypatch):
        # each run gets past every check to the work itself
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(cli, "line_problems", admitted)
        monkeypatch.setattr(cli, "run_battery", admitted)
        with pytest.raises(Admitted):
            main(argv)

    def test_the_budget_is_in_the_help(self, capsys):
        for cmd in ("classify", "verify-theorems"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            assert f"grid x lines at most {cli.MAX_WORK}" in " ".join(
                capsys.readouterr().out.split())


class TestExpressionDepth:
    """The parser stops at MAX_DEPTH levels with a one-line error; whatever
    parses at the limit also classifies."""

    @pytest.mark.parametrize("source", [
        "(" * 10_000 + "t" + ")" * 10_000,
        "+".join(["t"] * 10_000),
        "-" * 10_000 + "t",
        "abs(" * 10_000 + "t" + ")" * 10_000,
    ], ids=["parentheses", "sum", "signs", "calls"])
    def test_deep_expressions_exit_one(self, source, capsys):
        code, out, err = run(["classify", f"--function={source}", "--domain=[-1,1]"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        message, elapsed = err.splitlines()
        assert message.startswith("error: ") and "deeper than" in message
        assert elapsed.startswith("elapsed: ")

    @pytest.mark.parametrize("source", [
        "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "+".join(["t"] * MAX_DEPTH),
        "max(t, " * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "abs(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
    ], ids=["parentheses", "sum", "max", "abs"])
    def test_expressions_at_the_limit_classify(self, source, capsys):
        code, out, err = run(["classify", f"--function={source}", "--domain=[-1,1]",
                              "--grid=65"], capsys)
        assert code == EXIT_OK, err
        assert json.loads(out)["agreement"]


class TestCanonicalJson:
    def test_special_floats_and_sorting(self):
        text = canonical_json({"b": 1.0, "a": float("inf"),
                               "c": float("nan"), "d": float("-inf")})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        parsed = json.loads(text)
        assert parsed == {"a": "inf", "b": 1, "c": "nan", "d": "-inf"}

    def test_seventeen_digit_floats(self):
        assert canonical_json(0.1).strip() == "0.10000000000000001"
        assert canonical_json(1.0).strip() == "1"

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, -0.1,
        np.float64(math.nan), np.float64(-math.inf), np.float64(-0.0), np.float64(0.1),
    ], ids=repr)
    def test_float_bytes_as_with_numpy_checks(self, x):
        def numpy_f17(x):  # the form that called np.isnan and np.isinf
            if np.isnan(x):
                return '"nan"'
            if np.isinf(x):
                return '"inf"' if x > 0 else '"-inf"'
            return format(float(x), ".17g")

        assert cli._Texts()[x] == numpy_f17(x)
        assert canonical_json(x) == numpy_f17(x) + "\n"

    def test_stable_ordering_nested(self):
        a = canonical_json({"z": [1.5, {"b": 2, "a": 1}], "y": True})
        b = canonical_json({"y": True, "z": [1.5, {"a": 1, "b": 2}]})
        assert a == b

    def test_keys_are_escaped_as_strings_are(self):
        # a key holding a quote, a backslash or a newline, here and nested,
        # next to string values holding the same
        obj = {'a"b': 1, "c\\d": [2.5, 'e"\\'], "e\nf": {'"': "g\nh", "\\": {"\n": 'i"'}}}
        text = canonical_json(obj)
        assert json.loads(text) == obj
        assert text == canonical_json(json.loads(text))

    def test_dataclass_is_written_as_its_fields(self):
        schedule = DiniSchedule(t0=0.05, steps=12)
        schedule.step_sizes()  # caches _steps in the instance's __dict__
        assert "_steps" in vars(schedule)
        fields = {"t0": 0.05, "ratio": 0.6, "steps": 12, "dini_tol": 1e-7}
        assert canonical_json(schedule) == canonical_json(fields)
        assert canonical_json({"dini": [schedule]}) == canonical_json({"dini": [fields]})
        assert "_steps" not in canonical_json(schedule)

    def test_text_renders_a_nested_verdict_as_its_fields(self, capsys):
        verdict = Verdict("fails", "definitional", 0.5, 0.25,
                          (Witness("descent", (0.5,), (1.0,), "d"),))
        estimate = DiniEstimate(-1.0, -1.0, (), True, 3)
        cli._emit({"verdict": verdict, "estimate": estimate}, "text")
        assert capsys.readouterr().out == "\n".join([
            "estimate:",
            "  all_undefined: False",
            "  converged: True",
            "  n_probes: 3",
            "  tail_min_trace: (empty)",
            "  unit_value: -1",
            "  value: -1",
            "verdict:",
            "  method: definitional",
            "  notes: ",
            "  outcome: fails",
            "  stat_tol: 0.25",
            "  tol: 0.5",
            "  witnesses:",
            "    -",
            "      detail: d",
            "      kind: descent",
            "      points:",
            "        - 0.5",
            "      values:",
            "        - 1",
        ]) + "\n"

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_bytes_as_the_reference_writer(self, value):
        # one frozen result object at two indents, and a schedule whose
        # cached steps are no field
        shared = Witness("kind", (0.0, -0.0, 0.5), (math.nan,), 'a "b"\n')
        schedule = DiniSchedule(t0=0.05, steps=12)
        schedule.step_sizes()
        obj = {"x": value, "shared": shared, "nested": [shared, {"again": shared}],
               "schedule": schedule, "floats": [-0.0, 0.0, -0.0, np.float64(-0.0)],
               "empty": [{}, [], ()]}
        assert canonical_json(obj) == report_reference.canonical_json(obj)

    def test_writing_a_report_leaves_no_garbage(self, monkeypatch, capsys):
        reports = []
        monkeypatch.setattr(cli, "canonical_json", lambda r: reports.append(r) or "")
        main(["classify", "--function=t^3", "--domain=[-1,1]", "--grid=65"])
        monkeypatch.undo()
        capsys.readouterr()
        gc.collect()
        gc.disable()
        try:
            text = canonical_json(reports[0])
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert text == report_reference.canonical_json(reports[0])

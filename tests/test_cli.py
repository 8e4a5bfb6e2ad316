import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dinicvx
from dinicvx import golden_battery, write_manifest
from dinicvx.cli import (
    EXIT_CONFIG,
    EXIT_DISAGREE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    canonical_json,
    main,
)

CUBE = ["classify", "--function", "t^3", "--domain", "[-1,1]"]
# sub-tolerance creep: individual rises stay under 1e-6 while the total
# drop past t=0.9 is large enough for the definitional scan to notice
CREEP = ["classify", "--function", "0.0001*t - 0.002*max(0, t - 0.9)",
         "--domain", "[0,1]", "--tol", "1e-6", "--check", "quasiconvex"]


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

    def test_bad_manifest_path(self, capsys):
        code, _, err = run(["verify-theorems", "/no/such/file.json"], capsys)
        assert code == EXIT_CONFIG

    def test_dini_converged(self, capsys):
        code, out, _ = run(["dini", "--function", "t^2", "--domain", "[-1,1]",
                            "--at", "0.5", "--dir", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["estimate"]["converged"] is True


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

    def test_method_definitional_only(self, capsys):
        _, out, _ = run(CUBE + ["--method", "definitional"], capsys)
        rep = json.loads(out)
        for block in rep["checks"].values():
            assert list(block["methods"]) == ["definitional"]

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

    def test_rejects_function_flag(self, capsys):
        code, _, err = run(["verify-theorems", "--function", "t^2"], capsys)
        assert code == EXIT_CONFIG
        assert "manifest" in err

    @pytest.mark.parametrize("flag", ["--method=definitional", "--arity=2",
                                      "--domain=[0,1]", "--box=[0,1]x[0,1]"])
    def test_rejects_flags_it_would_ignore(self, flag, capsys):
        code, _, err = run(["verify-theorems", flag], capsys)
        assert code == EXIT_CONFIG
        assert "unrecognized arguments" in err

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

    def test_stable_ordering_nested(self):
        a = canonical_json({"z": [1.5, {"b": 2, "a": 1}], "y": True})
        b = canonical_json({"y": True, "z": [1.5, {"a": 1, "b": 2}]})
        assert a == b

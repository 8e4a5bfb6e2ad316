import json
import re
from dataclasses import replace

import numpy as np
import pytest

from dinicvx import (
    eval_many,
    golden_battery,
    load_manifest,
    make_grid,
    parse,
    parse_interval,
    random_battery,
    write_manifest,
)
from dinicvx import domain, theorems
from dinicvx.cli import main

LABELS = ("pseudoconvex", "strictly_pseudoconvex", "quasiconvex",
          "semistrictly_quasiconvex")

# name -> (a manifest's text that load_manifest refuses, the start of its one-line error)
HOSTILE = {
    # a pair coordinate no float holds
    "huge-int": ('{"version": 1, "entries": [{"id": "b", "expression": "x1^2 + x2^2", '
                 '"arity": 2, "box": ["[-1,1]", "[-1,1]"], "domain": null, '
                 f'"pairs": [[[{10**400}, 0.1], [0.1, 0.2]]]}}]}}',
                 "entry 'b': pairs must be a list of pairs of two points of 2 numbers in "
                 "float range"),
    # tags nested past the JSON reader's recursion limit
    "deep": ('{"version": 1, "entries": [{"id": "d", "expression": "t^2", "arity": 1, '
             '"domain": "[-1,1]", "tags": ' + "[" * 100_000 + "]" * 100_000 + "}]}",
             "manifest nests too deeply in "),
    # a valid JSON escape that no UTF-8 text holds
    "surrogate": ('{"version": 1, "entries": [{"id": "s\\udc80q", "expression": "t^2", '
                  '"arity": 1, "domain": "[-1,1]"}]}',
                  "entry 's\\udc80q': id must be a string without lone surrogates"),
}


class TestGoldenBattery:
    def test_size_and_unique_ids(self):
        g = golden_battery()
        assert len(g) == 26
        ids = [e.id for e in g]
        assert len(set(ids)) == len(ids)

    def test_expected_labels_complete(self):
        for e in golden_battery():
            if e.expected is None:
                continue
            assert set(e.expected) == set(LABELS), e.id

    def test_labels_internally_consistent(self):
        # strict implies non-strict; pseudo implies both quasi flavors
        for e in golden_battery():
            if e.expected is None:
                continue
            x = e.expected
            if x["strictly_pseudoconvex"]:
                assert x["pseudoconvex"], e.id
            if x["pseudoconvex"]:
                assert x["quasiconvex"] and x["semistrictly_quasiconvex"], e.id

    def test_every_expression_parses_and_evaluates(self):
        for e in golden_battery():
            fn = parse(e.expression, e.arity)
            if e.arity == 1:
                dom = make_grid(parse_interval(e.domain), 64)
                vals = eval_many(fn, dom.points)
            else:
                box = [parse_interval(s) for s in e.box]
                pts = np.stack(
                    [np.linspace(iv.lo + 0.01, iv.hi - 0.01, 9) for iv in box],
                    axis=1,
                )
                vals = eval_many(fn, pts)
            assert vals.shape[0] > 0
            if e.id != "log-partial":
                assert np.isfinite(vals).all(), e.id

    def test_multivariate_entries_have_boxes(self):
        for e in golden_battery():
            if e.arity > 1:
                assert e.box is not None and len(e.box) == e.arity

    def test_explicit_pair_present_for_cube_slice(self):
        by_id = {e.id: e for e in golden_battery()}
        e = by_id["cube-x1"]
        assert e.pairs is not None
        x, y = e.pairs[0]
        assert tuple(x) == (0.0, 0.0)


class TestRandomBattery:
    def test_deterministic_for_seed(self):
        a = random_battery(20, seed=99)
        b = random_battery(20, seed=99)
        assert a == b
        c = random_battery(20, seed=100)
        assert a != c

    def test_count_and_ids(self):
        got = random_battery(15, seed=5)
        assert len(got) == 15
        assert all(e.id.startswith("rand-5-") for e in got)

    def test_expressions_evaluate_finite_on_domain(self):
        for e in random_battery(60, seed=12):
            fn = parse(e.expression, 1)
            dom = make_grid(parse_interval(e.domain), 257)
            vals = eval_many(fn, dom.points)
            assert np.isfinite(vals).all(), e.id

    def test_labeled_entries_have_all_four_labels(self):
        labeled = [e for e in random_battery(60, seed=12) if e.expected]
        assert labeled, "expected some labeled random entries"
        for e in labeled:
            assert set(e.expected) == set(LABELS)

    def test_mix_contains_shapes(self):
        entries = random_battery(80, seed=3)
        kinds = {tag for e in entries for tag in e.tags}
        assert {"valley", "monotone", "arbitrary"} <= kinds

    def test_not_radially_continuous_by_default(self):
        # the generator may emit jumps, so entries never claim continuity
        assert all(not e.radially_continuous for e in random_battery(10, seed=1))


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        entries = golden_battery()[:5] + random_battery(3, seed=2)
        write_manifest(entries, path)
        again = load_manifest(path)
        assert again == entries

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 2, "entries": []}')
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_manifest(tmp_path / "absent.json")

    # (entry id, field, value; None deletes it) -> what the error names
    MALFORMED = [
        ("sq", "lsc", "no", "entry 'sq': lsc must be a boolean"),
        ("sq", "radially_continuous", 0, "entry 'sq': radially_continuous must be a boolean"),
        ("sq", "id", 3, "entry 3: id must be a string"),
        ("sq", "tags", "golden", "entry 'sq': tags must be a list of strings"),
        ("sq", "colour", "red", "entry 'sq': unknown field 'colour'"),
        ("sq", "arity", True, "entry 'sq': arity must be an integer >= 1"),
        ("sq", "expression", None, "entry 'sq': expression must be a string"),
        ("sq", "domain", ["[-1,1]"], "entry 'sq': domain must be an interval string"),
        ("sq", "expected", {"convex": True}, "entry 'sq': expected must be booleans"),
        ("sq", "expected", [], "entry 'sq': expected must be booleans"),
        ("bowl2", "pairs", 5, "entry 'bowl2': pairs must be a list of pairs"),
        ("bowl2", "pairs", [[[0.5, "a"], [0.1, 0.2]]], "entry 'bowl2': pairs must be"),
        ("bowl2", "pairs", [[[0.5, 0.1]]], "entry 'bowl2': pairs must be"),
        ("bowl2", "box", ["[-1,1]"], "entry 'bowl2': box must be a list of 2 interval"),
        ("bowl2", "domain", 5, "entry 'bowl2': domain must be absent at arity 2"),
        ("sq", "expression", "t^2\ud800", "entry 'sq': expression must be a string without"),
        ("sq", "tags", ["ok", "\udfff"], "entry 'sq': tags must be a list of strings without"),
        ("bowl2", "pairs", [[[0.5, 0.1], [-(2**1024 - 2**970), 0.2]]], "entry 'bowl2': pairs"),
        ("bowl2", "pairs", [[[0.5, 0.1], [True, 0.2]]], "entry 'bowl2': pairs must be"),
        # an entry of arity 1 runs on its domain, one of arity 2 on its box and pairs
        ("sq", "box", ["[0.5,1]"], "entry 'sq': box must be absent at arity 1"),
        ("sq", "pairs", [[[0.5], [0.1]]], "entry 'sq': pairs must be absent at arity 1"),
        ("sq", "box", 5, "entry 'sq': box must be absent at arity 1"),
        ("sq", "pairs", 5, "entry 'sq': pairs must be absent at arity 1"),
    ]

    @pytest.mark.parametrize("entry_id,field,value,message", MALFORMED)
    def test_malformed_entry_names_the_entry_and_the_field(self, tmp_path, entry_id, field,
                                                           value, message):
        path = tmp_path / "m.json"
        write_manifest(tuple(e for e in golden_battery() if e.id in ("sq", "bowl2")), path)
        data = json.loads(path.read_text())
        raw = next(e for e in data["entries"] if e["id"] == entry_id)
        if value is None:
            del raw[field]
        else:
            raw[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as ei:
            load_manifest(path)
        assert str(ei.value).startswith(message)

    # (field, value) -> the parse error, reported after the entry's id
    UNPARSABLE = [
        ("expression", "t +", "unexpected end of expression (at offset 3)"),
        ("expression", "x2", "variable 'x2' out of range for arity 1 (at offset 0)"),
        ("domain", "[1,-1]", "empty interval: lo=1.0 > hi=-1.0"),
    ]

    @pytest.mark.parametrize("field,value,message", UNPARSABLE)
    def test_unparsable_entry_names_the_entry(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "m.json"
        sq = next(e for e in golden_battery() if e.id == "sq")
        write_manifest((replace(sq, **{field: value}),), path)
        assert main(["verify-theorems", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"error: entry 'sq': {message}"

    def test_an_unparsable_last_entry_fails_before_any_entry_runs(self, tmp_path, capsys,
                                                                  monkeypatch):
        path = tmp_path / "m.json"
        bad = replace(next(e for e in golden_battery() if e.id == "sq"), id="last",
                      expression="t +")
        write_manifest(golden_battery() + (bad,), path)
        calls = []
        real = theorems.check_t3
        monkeypatch.setattr(theorems, "check_t3", lambda *a, **k: calls.append(a) or real(*a, **k))
        assert main(["verify-theorems", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: entry 'last': unexpected end of expression (at offset 3)"
        assert len(golden_battery()) == 26 and calls == []

    # (golden entry, fields of a last entry the run cannot start, message)
    UNRUNNABLE = [
        ("sq", {"domain": "(0,inf)"}, "cannot grid unbounded interval (0,inf)"),
        ("bowl2", {"pairs": (((0.5, 0.5), (0.5, 0.5)),)}, "x and y must differ"),
        ("bowl2", {"pairs": (((0.1, 0.2), (0.4, 0.2)), ((0.5, 2.0), (0.1, 0.1)))},
         "endpoint outside the box in coordinate 2"),
        ("bowl2", {"box": ("(-inf,inf)", "[-1,1]")},
         "sampling pairs needs a box of finite width"),
    ]

    @pytest.mark.parametrize("base,fields,message", UNRUNNABLE,
                             ids=["unbounded-domain", "equal-pair", "pair-outside", "wide-box"])
    def test_an_unrunnable_last_entry_fails_before_any_entry_runs(
            self, tmp_path, capsys, monkeypatch, base, fields, message):
        # the grid, pair and sampling checks of every entry run before the first entry
        path = tmp_path / "m.json"
        bad = replace(next(e for e in golden_battery() if e.id == base), id="last", **fields)
        write_manifest(golden_battery() + (bad,), path)
        calls = []
        for name in ("check_t3", "check_t6"):
            real = getattr(theorems, name)
            monkeypatch.setattr(theorems, name,
                                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        assert main(["verify-theorems", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: entry 'last': {message}"
        assert len(err) == 2 and err[1].startswith("elapsed:")
        assert calls == []

    def test_a_one_dimensional_entry_is_gridded_once(self, monkeypatch):
        # its interval is checked before any entry runs and gridded when it
        # runs; a bad last entry stops the run before anything is gridded
        entries = tuple(e for e in golden_battery() if e.id in ("sq", "vee", "log-partial"))
        grids, batches = [], []
        make_grid, grids_of = theorems.make_grid, domain._grids
        monkeypatch.setattr(theorems, "make_grid", lambda *a: grids.append(a[0]) or make_grid(*a))
        monkeypatch.setattr(domain, "_grids", lambda *a: batches.append(a) or grids_of(*a))
        assert theorems.run_battery(entries).ok
        assert grids == [parse_interval(e.domain) for e in entries] and batches == []
        grids.clear()
        bad = replace(entries[0], id="last", domain="(0,inf)")
        with pytest.raises(ValueError, match=r"^entry 'last': cannot grid unbounded interval"):
            theorems.run_battery(entries + (bad,))
        assert grids == [] and batches == []

    def test_an_int_a_float_holds_is_a_coordinate(self, tmp_path):
        # the largest such int rounds to the largest float; one more is refused
        path = tmp_path / "m.json"
        write_manifest(tuple(e for e in golden_battery() if e.id == "bowl2"), path)
        data = json.loads(path.read_text())
        data["entries"][0]["pairs"] = [[[2**1024 - 2**970 - 1, 0], [0.1, 0.2]]]
        path.write_text(json.dumps(data))
        x, _ = load_manifest(path)[0].pairs[0]
        assert float(x[0]) == 1.7976931348623157e308 and x[1] == 0

    def test_non_ascii_text_is_kept(self, tmp_path):
        # characters outside ASCII, a surrogate pair's included, are text
        path = tmp_path / "m.json"
        sq = next(e for e in golden_battery() if e.id == "sq")
        entries = (replace(sq, id="caf\u00e9 \U0001f600", tags=("\u00fc", "\t")),)
        write_manifest(entries, path)
        assert "\\ud83d\\ude00" in path.read_text()
        assert load_manifest(path) == entries

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_a_hostile_manifest_is_one_error_line(self, tmp_path, capsys, name):
        # exit 1 with one line naming the entry and the field, or the
        # manifest, where the run once raised a traceback or wrote a lone
        # surrogate into its report
        text, message = HOSTILE[name]
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_manifest(path)
        assert main(["verify-theorems", str(path)]) == 1
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 2 and lines[1].startswith("elapsed:")
        assert lines[0].startswith(f"error: cannot load manifest {path}: {message}")

    def test_manifest_without_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1}')
        with pytest.raises(ValueError, match="entries must be a list"):
            load_manifest(path)

    def test_written_golden_manifest_runs_as_the_built_in_battery(self, tmp_path, capsys):
        # a 1-D entry's label lines come in sorted label order, the order in
        # which a manifest stores the labels
        path = tmp_path / "golden.json"
        write_manifest(golden_battery(), path)
        assert load_manifest(path) == golden_battery()
        runs = []
        for argv in (["verify-theorems"], ["verify-theorems", str(path)]):
            runs.append((main(argv), capsys.readouterr().out))
        assert runs[0] == runs[1]

"""Fuzz ``verify-theorems`` in-process over hostile manifests.

Whatever a manifest holds, a run of ``verify-theorems`` on it must end
within a time limit, with an exit code in {0, 1, 2, 3} and without a
traceback, and a run that prints a report (exit 0, 2 or 3) prints JSON
that encodes as strict UTF-8.  The same run with ``--output text`` prints
one line per case and per label mismatch and a summary line, with no
control character but the newlines.  Each manifest holds one or two
entries.  Two manifests in three hold only valid entries, whose ids and
tags may still hold control and non-ASCII characters; the others put a
hostile value in one field of one entry, or nest its tags.  The hostile
manifests of ``test_battery.HOSTILE`` are explicit examples.  The grid is
8 points and the pairs 1 so the suite stays quick.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_battery import HOSTILE
from test_cli_fuzz import run_bounded

# text that is valid: controls, non-ASCII and a character outside the BMP
TEXT = st.text(st.sampled_from(["a", "q", "-", " ", "\t", "\n", "\x00", "\x7f", "é", " ",
                                "\U0001f600"]), max_size=5)
# text that is not: it holds a lone surrogate
SURROGATE_TEXT = st.builds(lambda a, s, b: a + s + b, TEXT,
                           st.sampled_from(["\ud800", "\udc80", "\udfff"]), TEXT)
COORDS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400, -(10**400),
          2**1024 - 2**970 - 1, True, "a", None]

VALID_1D = st.fixed_dictionaries({
    "arity": st.just(1),
    "expression": st.sampled_from(["t^2", "t^3", "abs(t)", "log(t)", "-t^2", "1",
                                   "max(0, abs(t) - 1)"]),
    "domain": st.sampled_from(["[-1,1]", "(0,1]", "[-2,1)"]),
    "box": st.none(), "pairs": st.none(),
})
VALID_2D = st.fixed_dictionaries({
    "arity": st.just(2),
    "expression": st.sampled_from(["x1^2 + x2^2", "x1^3", "max(abs(x1), abs(x2))",
                                   "log(x1) + x2"]),
    "domain": st.none(),
    "box": st.sampled_from([["[-1,1]", "[-1,1]"], ["(0,1]", "[-1,1]"]]),
    "pairs": st.one_of(st.none(), st.just([[[0.5, 0.1], [0.1, 0.2]]])),
})
COMMON = st.fixed_dictionaries({
    "id": TEXT,
    "tags": st.lists(TEXT, max_size=2),
    "expected": st.one_of(st.none(), st.dictionaries(
        st.sampled_from(["pseudoconvex", "quasiconvex", "semistrictly_quasiconvex"]),
        st.booleans(), max_size=2)),
    "lsc": st.booleans(),
    "radially_continuous": st.booleans(),
})
# field -> hostile values; "depth" nests the tags that many lists deep
HOSTILE_VALUES = {
    "id": st.one_of(SURROGATE_TEXT, st.sampled_from([3, None, ["sq"]])),
    "expression": st.one_of(SURROGATE_TEXT, st.sampled_from(
        ["t +", "x9", "", 5, "(" * 500 + "t" + ")" * 500, "+".join(["t"] * 500)])),
    "arity": st.sampled_from([0, -1, 10**30, True, "1", 1.0, 3, None]),
    "domain": st.sampled_from(["(0,inf)", "[1,-1]", "[0,0]", "x", "", "[nan,1]", 3, None]),
    "box": st.sampled_from([["[-1,1]"], ["(-inf,inf)", "[-1,1]"], "[-1,1]", [1, 2],
                            ["[0,0]", "[0,0]"], ["[1e308,inf)", "[-1,1]"], None]),
    "pairs": st.one_of(
        st.lists(st.sampled_from(COORDS + [0.5, 0.1]), min_size=4, max_size=4).map(
            lambda c: [[c[:2], c[2:]]]),
        st.sampled_from([5, [[[0.5]]], [[[0.5, 0.5], [0.5, 0.5]]], [[[0.5, 0.1]]]])),
    "expected": st.sampled_from([{"convex": True}, {"quasiconvex": 1}, [], "yes"]),
    "tags": st.one_of(st.lists(SURROGATE_TEXT, min_size=1, max_size=2),
                      st.sampled_from(["golden", [1], None])),
    "lsc": st.sampled_from(["no", 0, None]),
    "colour": st.just("red"),
    "depth": st.sampled_from([2, 999, 5000, 100_000]),
}


@st.composite
def manifests(draw) -> str:
    """The text of a manifest of one or two entries."""
    entries = [{**draw(COMMON), **draw(st.one_of(VALID_1D, VALID_2D))}
               for _ in range(draw(st.integers(1, 2)))]
    bad = draw(st.one_of(st.none(), st.none(), st.sampled_from(sorted(HOSTILE_VALUES))))
    depth = 0
    if bad == "depth":
        depth = draw(HOSTILE_VALUES["depth"])
        entries[-1]["tags"] = "<tags>"
    elif bad is not None:
        entries[draw(st.integers(0, len(entries) - 1))][bad] = draw(HOSTILE_VALUES[bad])
    # json.dumps escapes every lone surrogate and writes NaN and Infinity
    text = json.dumps({"version": 1, "entries": entries})
    return text.replace('"<tags>"', "[" * depth + "]" * depth)


def test_verify_theorems_survives_hostile_manifests():
    # each run ends in time with an exit code in 0-3 and no traceback, and a
    # report is strict UTF-8 JSON; at least a third print a report
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")

        @given(manifests())
        @example(HOSTILE["huge-int"][0])
        @example(HOSTILE["deep"][0])
        @example(HOSTILE["surrogate"][0])
        @settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        def run(text):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, out, err = run_bounded(["verify-theorems", path, "--grid=8", "--pairs=1"])
            assert code in (0, 1, 2, 3), text[:300]
            assert "Traceback" not in err, text[:300]
            if code != 1:
                out.encode("utf-8")  # strict: a lone surrogate raises
                report = json.loads(out)
                assert report["command"] == "verify-theorems"
                text_code, printed, _ = run_bounded(
                    ["verify-theorems", path, "--grid=8", "--pairs=1", "--output=text"])
                assert text_code == code, text[:300]
                assert not any(c < " " for c in printed.replace("\n", "")), text[:300]
                lines = len(report["cases"]) + len(report["label_mismatches"]) + 1
                assert printed.count("\n") == lines and printed.endswith("\n"), text[:300]
            codes.append(code)

        run()
    assert codes[:3] == [1, 1, 1] and len(codes) == 153
    assert sum(code != 1 for code in codes) >= len(codes) / 3, sorted(codes)

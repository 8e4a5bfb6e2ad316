"""Fuzz the command line in-process over hostile argv fragments.

Whatever the intervals, boxes, margins, tolerances and Dini schedules, a
run of ``classify``, ``decompose`` or ``dini`` must end within a time
limit, with an exit code in {0, 1, 2, 3}, and without a traceback.  Each
run draws the flags its subcommand takes, from the table the parser is
built from, so no example stops at an unknown flag.  Two examples in three
hold only valid values and so reach a run; the others put a hostile value
in one place, the posed problem or one flag.  The grid is capped at 65
points and the pairs at 3 so the suite stays quick.
"""

import contextlib
import io
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dinicvx.cli import _TAKES, main

# Seconds one run may take before it counts as a hang.
_LIMIT = 10.0

ENDPOINTS = st.sampled_from(
    ["-1", "0", "1", "0.5", "2", "-inf", "inf", "nan", "1e308", "-1e308",
     "1e-300", "x"]
)
INTERVALS = st.one_of(
    st.builds(
        lambda lb, lo, hi, rb: f"{lb}{lo},{hi}{rb}",
        st.sampled_from("[("), ENDPOINTS, ENDPOINTS, st.sampled_from("])"),
    ),
    st.sampled_from(["[-1,1]", "(0,1]", "[0,0]", "(0,0)", "[1,-1]", "", "[1,2,3]"]),
)
BOXES = st.lists(INTERVALS, min_size=0, max_size=3).map("x".join)
# at the depth limit, among the valid expressions, and past it among the others
VALID_EXPRESSIONS = ["t^2", "t^3", "abs(t)", "log(t)", "1/t", "sqrt(t)", "-t^2", "1",
                     "piecewise(t < 0: 1, else: t)", "exp(1000*t)", "+".join(["t"] * 100)]
ONE_VAR = st.sampled_from(
    VALID_EXPRESSIONS + ["t +", "(" * 500 + "t" + ")" * 500, "+".join(["t"] * 500)])
TWO_VAR = st.sampled_from(
    ["x1^2 + x2^2", "x1^3", "x1 / x2", "log(x1) + x2", "max(abs(x1), abs(x2))"]
)
# The posed problem and dini's point, each a valid one: every valid point
# lies in every valid domain.
VALID_ONE_VAR = st.sampled_from(VALID_EXPRESSIONS)
VALID_DOMAINS = st.sampled_from(["[-1,1]", "(0,1]", "[1e-300,1]", "[-2,1)"])
VALID_BOXES = st.sampled_from(["[-1,1]x[-1,1]", "[0,1]x(0,1]", "[0,0]x[0,1]"])
VALID_POINTS = st.sampled_from(["0.5", "0.25"])
# 1 closes [-1,1] and (0,1] but lies outside [-2,1)
HOSTILE_POINTS = st.sampled_from(["0", "1", "-1", "nan", "inf", "5"])

# (valid, hostile) values of every flag a subcommand may take besides those
# that pose the problem (function, arity, domain or box, and dini's point)
# and the CSV path; a flag missing here fails the strategy with a KeyError.
VALUES = {
    "--grid": (["8", "9", "33", "65"], ["7", "0", "-5"]),
    "--margin": (["1e-6", "0.3", "1e-300", "inf"], ["0", "-1", "nan"]),
    "--tol": (["1e-6", "0.5"], ["0", "-1", "nan", "inf"]),
    "--stat-tol": (["1e-7", "1e-3"], ["0", "nan", "inf"]),
    "--dini-t0": (["1e-2", "0.5"], ["0", "-1", "nan", "inf"]),
    "--dini-ratio": (["0.6", "0.9"], ["0", "1", "nan"]),
    "--dini-steps": (["2", "28", "40"], ["200", "1", "0"]),
    "--dini-tol": (["1e-7", "1e-2"], ["0", "nan", "inf"]),
    "--seed": (["0", "7"], ["-3", "x", "1.5"]),
    "--output": (["json", "text"], ["xml"]),
    "--pairs": (["1", "2", "3"], ["0", "-1"]),
    "--method": (["both", "definitional", "structural"], ["martos"]),
    "--check": (["all", "pseudoconvex", "semistrict-quasiconvex"], ["convex"]),
    "--dir": (["1", "-1", "2"], ["0", "nan", "inf"]),
}
POSED = {"--function", "--arity", "--domain", "--box", "--at", "--csv"}
COMMANDS = ("classify", "decompose", "dini")


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(COMMANDS))
    flags = [flag for flag in _TAKES[cmd][1] if flag not in POSED]
    # the one place that gets a hostile value, if any
    bad = draw(st.one_of(st.none(), st.none(), st.sampled_from(["problem", *flags])))
    hostile = bad == "problem"
    argv = [cmd]
    if cmd == "classify" and draw(st.booleans()):
        argv += [f"--function={draw(TWO_VAR)}", "--arity=2",
                 f"--box={draw(BOXES if hostile else VALID_BOXES)}"]
    else:
        argv += [f"--function={draw(ONE_VAR if hostile else VALID_ONE_VAR)}",
                 f"--domain={draw(INTERVALS if hostile else VALID_DOMAINS)}"]
    if cmd == "dini":
        argv += [f"--at={draw(HOSTILE_POINTS if hostile else VALID_POINTS)}"]
    for flag in flags:
        if flag == bad or draw(st.booleans()):
            argv += [f"{flag}={draw(st.sampled_from(VALUES[flag][flag == bad]))}"]
    return argv


class _Hang(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the CLI catches it."""


def _alarm(signum, frame):
    raise _Hang()


def run_bounded(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, _LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Hang:
        pytest.fail(f"no result within {_LIMIT} s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def test_cli_survives_hostile_arguments():
    # each example ends in time, with an exit code in 0-3 and no traceback;
    # at least half get past validation and print a report (exit 0, 2 or 3,
    # where a config error exits 1)
    codes = []

    @given(argvs())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def run(argv):
        code, _, err = run_bounded(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.append(code)

    run()
    assert len(codes) == 150
    assert sum(code != 1 for code in codes) >= len(codes) / 2, sorted(codes)

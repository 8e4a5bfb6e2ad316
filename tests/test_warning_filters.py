"""The pytest settings in ``pyproject.toml`` turn every warning into an
error.  A failing hypothesis test must still be reported as one failure, and
the tests after it must still run: hypothesis's failure report may import
``libcst``, whose import warns about ``mypy_extensions.TypedDict``, and an
error there once ended the whole session with an INTERNALERROR.  Without
``libcst`` that import fails, hypothesis goes on without it, and the test
checks nothing, so it is skipped."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_ends_no_session(tmp_path):
    pytest.importorskip("libcst")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider",
         "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout

"""The repository's pytest settings report a failing property test like any other failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis imports libcst to report a failing example, and libcst
    # raises a DeprecationWarning that `filterwarnings = ["error"]` alone
    # turns into an INTERNALERROR, which ends the session before later tests
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    result = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout

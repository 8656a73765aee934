"""The test session's own settings: a failing property test is reported like
any other failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path, fresh_interpreter_env):
    # every warning is an error, and reporting a hypothesis failure imports
    # libcst, which warns that mypy_extensions.TypedDict is deprecated; raised
    # inside pytest's report hook, that warning ends the session
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, env=fresh_interpreter_env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout

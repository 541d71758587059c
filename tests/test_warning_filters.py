"""A failing property test is reported as a failure, not a crash.

The suite turns every warning into an error (``filterwarnings`` in
pyproject.toml).  When a ``@given`` test fails, Hypothesis's report hook
imports libcst, whose import warns that ``mypy_extensions.TypedDict`` is
deprecated; unless the ini options ignore that one warning, pytest stops
with INTERNALERROR, exit code 3, and runs no later test.
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_fails_without_internal_error(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.abspath(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout

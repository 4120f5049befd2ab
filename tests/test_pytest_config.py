"""The suite's pytest configuration lets every failure report.

Hypothesis's failure path imports libcst, which raises a mypy_extensions
DeprecationWarning; under a bare ``filterwarnings = ["error"]`` that warning
ended the run with INTERNALERROR at the first failing property test, and no
later test ran.
"""
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_test():
    pass
'''


def test_a_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout

"""The repository's pytest settings report a failing property test as a failure.

pyproject.toml turns every warning into an error. hypothesis's failure report
raises a DeprecationWarning of its own (mypy_extensions.TypedDict), which
under that setting became an INTERNALERROR that hid the falsifying example;
the ini ignores exactly that one warning.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(_FAILING, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            str(tmp_path / "test_failing.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed" in out

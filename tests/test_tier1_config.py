"""The pytest configuration reports a failing property as one failed test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_does_not_stop_the_session(tmp_path):
    # Under filterwarnings = ["error"] alone, a warning raised while
    # hypothesis reports the failure ends the run with an INTERNALERROR.
    (tmp_path / "test_child.py").write_text(CHILD)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out[-2000:]
    assert done.returncode == 1, out[-2000:]
    assert "1 failed, 1 passed" in out, out[-2000:]

"""The repository's pytest configuration, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x > 0
"""


def test_failing_property_prints_its_example(tmp_path):
    """DeprecationWarnings are errors under the repo's filterwarnings, but a
    failing hypothesis property must still report its falsifying example: the
    one warning that explaining the failure raises (libcst through
    mypy_extensions, where libcst is installed) is ignored."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out

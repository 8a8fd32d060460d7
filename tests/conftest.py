import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def child_python(tmp_path):
    """Run `python *args` in tmp_path in a child process with a 60 s timeout,
    so that a regression that loops forever fails its test instead of
    hanging the suite."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    return run

import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

# The golden digests (test_golden.py) hold under one numeric configuration:
# numpy 2.4.6 with OpenBLAS's Haswell kernels and numpy's AVX2 dispatch, which
# every x86-64 CI runner can run, whatever its CPU would select. numpy reads
# both variables when it loads, so they are set before anything imports it;
# child processes inherit them. A configuration set outside is kept.
if version("numpy") == "2.4.6" and platform.machine().lower() in ("x86_64", "amd64"):
    os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
    os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")

import pytest  # noqa: E402

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

"""The package must import and run its CLI with only its declared dependencies.

``pyproject.toml`` declares numpy alone.  Each check runs in a fresh
interpreter whose ``sys.meta_path`` refuses ``scipy``, so an eager import of
an undeclared package fails here instead of on a clean install.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

BLOCKER = """
import sys

class _Block:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"blocked undeclared dependency: {name}")
        return None

sys.meta_path.insert(0, _Block())
"""

IMPORT = BLOCKER + """
import repro
assert "scipy" not in sys.modules, "scipy was imported"
"""

CLI_HELP = BLOCKER + """
import runpy
sys.argv = ["repro", "--help"]
runpy.run_module("repro", run_name="__main__")
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("code", [IMPORT, CLI_HELP], ids=["import", "cli-help"])
def test_runs_without_scipy(code):
    result = _run(code)
    assert result.returncode == 0, result.stderr


def test_blocker_is_effective():
    result = _run(BLOCKER + "import scipy\n")
    assert result.returncode != 0
    assert "blocked undeclared dependency" in result.stderr

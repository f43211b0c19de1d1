import importlib
import os
import subprocess
import sys
from pathlib import Path

import capsched

SRC = Path(capsched.__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_the_list_is_sorted():
    assert capsched.__all__ == sorted(set(capsched.__all__))
    assert [name for name in capsched.__all__ if not hasattr(capsched, name)] == []


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "capsched", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: capsched ")
    assert done.stderr == ""


def test_importing_the_main_module_does_not_run_the_command_line():
    # tools that import every submodule must not trigger a CLI run and exit
    importlib.import_module("capsched.__main__")

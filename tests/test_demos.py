import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# sha256 of each demo's stdout and of the CSV files it writes under sweep_out/,
# recorded on numpy 2.4.6; a change to any printed or written byte shows here
DIGESTS = {
    "01_workload_tour.py": (
        "b06b709aead1451feb43930bcb278ac368d880954f471fe8569a53f6b1f090bd", {}),
    "02_planner_shootout.py": (
        "21be642a47fc8bdf0d347d5f955c5ebaed52272a21e724f06404ff172319d505", {}),
    "03_integer_program.py": (
        "7f2169169595ed9a99e2a75744263e7ddd299c88f28306632accc80c9cfc5a83", {}),
    "04_experiment_sweep.py": (
        "f7a0f43a31640561447880b4d8ca6596915151d356591a458ff1ebc52e121259",
        {"mmog.csv": "6e94531565097f86e112195209849bf50d1b3c2875fb3f3ab208c853435a031c",
         "oppd.csv": "cbed04760689c079b3e12514ddc56ef7021bb0d42c2ef0ae0371f3c686e2e717"}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_demos_are_found():
    assert len(DEMOS) >= 4
    assert sorted(DIGESTS) == [path.name for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # run from a scratch directory: the sweep demo writes sweep_out/ there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    output = (done.stdout + done.stderr).decode(errors="replace")
    assert done.returncode == 0, output
    assert "Traceback" not in output
    stdout, files = DIGESTS[demo.name]
    assert _sha256(done.stdout) == stdout, output
    written = {path.name: _sha256(path.read_bytes())
               for path in sorted((tmp_path / "sweep_out").glob("*.csv"))}
    assert written == files

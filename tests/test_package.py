import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import capsched
from capsched import Config, ScenarioParams, build_model, format_workload, generate_workload
from capsched.cli import main

SRC = Path(capsched.__file__).resolve().parent.parent
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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


def test_traced_benchmark_counts_the_models_rows_and_terms(tmp_path):
    # the traced benchmark run reads these counts off every build_model result
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    config = Config(n=8, delta=2, theta=3)
    workload = generate_workload(ScenarioParams(name="t", amplitude=3, seed=1), config)
    path = tmp_path / "wl.json"
    path.write_text(format_workload(config, workload), encoding="utf-8")
    model = build_model(workload, config)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert main(["export-lp", str(path), "--out", str(tmp_path / "model.lp")]) == 0
    finally:
        recorder.uninstall()
    assert recorder.counts == {"rows": len(model.rhs), "terms": int(model.run_lengths.sum())}

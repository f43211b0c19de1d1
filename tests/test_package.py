import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import capsched
from capsched import Config, ScenarioParams, build_model, format_workload, generate_workload
from capsched.cli import ALGORITHMS, main

SRC = Path(capsched.__file__).resolve().parent.parent
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_exported_name_resolves_and_the_list_is_sorted():
    assert capsched.__all__ == sorted(set(capsched.__all__))
    assert [name for name in capsched.__all__ if not hasattr(capsched, name)] == []


def _annotations(tree):
    """Every annotation in tree: of arguments, returns and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unread_imports(path):
    """'file:line name' for each name path's imports bind that its code never
    reads; a string annotation such as "np.random.PCG64" reads np."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    trees = [tree] + [ast.parse(node.value, mode="eval")
                      for annotation in _annotations(tree) for node in ast.walk(annotation)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    read = {node.id for top in trees for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_module_reads_each_name_it_imports():
    # __init__.py imports to export, so it is the one module left out
    modules = sorted(path for path in SRC.joinpath("capsched").glob("*.py")
                     if path.name != "__init__.py")
    assert modules
    assert [unread for path in modules for unread in _unread_imports(path)] == []


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "capsched", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: capsched ")
    assert done.stderr == ""


# run in a child process that cannot import the test extra's packages; it
# runs each command line in turn and checks its exit code
_WITHOUT_TEST_EXTRA = """
import json
import sys

REFUSED = {"scipy", "hypothesis", "pytest"}


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            raise ModuleNotFoundError(f"No module named {name!r}")


assert not REFUSED & set(sys.modules)
sys.meta_path.insert(0, Refuse())
from capsched.cli import main

# numpy 1.24 imports numpy.ma with itself; numpy 2.4 loads it only when a
# function that needs it runs, such as np.unique
numpy_loads_ma = "numpy.ma" in sys.modules
for argv, code in json.loads(sys.argv[1]):
    assert main(argv) == code, argv
    assert numpy_loads_ma or "numpy.ma" not in sys.modules, argv
assert not REFUSED & set(sys.modules)
"""


def test_every_command_runs_on_numpy_alone(tmp_path):
    # README's only runtime dependency is numpy, while CI installs the test
    # extra: a command that reached for scipy, hypothesis or pytest fails here,
    # and so does one that loads numpy.ma, which costs a fresh process about 10 ms
    shape = ["--n", "8", "--delta", "2", "--theta", "3", "--amplitude", "2"]
    runs = [(["generate", *shape, "--seed", "11", "--out", "wl.json"], 0)]
    for name in ALGORITHMS:
        runs += [(["solve", "wl.json", "--algorithm", name, "--out", f"{name}.json"], 0),
                 (["evaluate", "wl.json", f"{name}.json"], 0),
                 (["validate", "wl.json", "--schedule", f"{name}.json"], 0)]
    runs += [(["validate", "wl.json", "--solution", "empty.sol"], 1),   # covers no arrival
             (["export-lp", "wl.json", "--out", "model.lp"], 0),
             (["compare", *shape, "--seeds", "0..9", "--algorithms", ",".join(ALGORITHMS)], 0)]
    (tmp_path / "empty.sol").write_text("", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_TEST_EXTRA, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(",oracle,") == 10
    assert (tmp_path / "model.lp").stat().st_size > 0


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

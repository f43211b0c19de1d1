"""Benchmark workloads and the workload process that runs them.

A job is the unit a user of capsched waits on: one or more command lines,
each run through ``capsched.cli.main(argv)`` in this process, with stdout
and stderr captured in memory.  One client runs jobs back to back with no
think time (a closed loop), so there are no queues and no waiting to
measure.

Every workload has a pool of jobs whose outputs were recorded on the seed
commit in ``golden.json``.  The pool is several times larger than one run
covers, and the workload seed picks the window of it that a run walks.  A
job passes only when its exit codes and output digests match the golden
record and the invariants below hold, so a fast wrong answer counts as a
failure.

Between jobs the process times ``calibrate``, a fixed piece of pure-Python
work that does not depend on capsched, so that ``run.py`` can take out the
host's changes of speed (see README.md).

Run as a script this is the workload process started by ``run.py``:

    python3 bench/jobs.py --workload sweep --seed 1 --seconds 20 \
        --trace 0 --result out.json [--spans spans.jsonl]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate() -> int:
    """Nanoseconds taken by a fixed piece of dict, integer and sorting work
    (about 4 ms on the host of README.md's numbers, in its fast phase)."""
    start = time.perf_counter_ns()
    table, total = {}, 0
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * 3 % 7
    total += len(sorted(range(5000, 0, -1)))
    return time.perf_counter_ns() - start


def import_capsched(root: str):
    """Import capsched from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capsched", "__init__.py")):
        raise SystemExit(f"error: no capsched sources under {src}")
    sys.path.insert(0, src)
    import capsched
    import capsched.cli
    if not os.path.abspath(capsched.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: capsched was imported from {capsched.__file__}")
    return capsched


def call_cli(argv):
    """Run one command line in process; returns (exit code, stdout, stderr).

    ``capsched.cli.main`` is looked up on every call so that the traced run
    enters through the recorder's wrapper.
    """
    import capsched.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = capsched.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def parse_compare_csv(text: str):
    """Split a compare report into rows {seed: {algorithm: row}} and notes."""
    lines = text.splitlines()
    rows = {}
    notes = []
    if not lines or lines[0] != ("seed,algorithm,resource_cost,qos_cost,"
                                 "max_capacity,num_requests,feasible"):
        raise ValueError("compare output lacks the CSV header")
    for line in lines[1:]:
        if line.startswith("#"):
            notes.append(line[1:].strip())
            continue
        seed, algorithm, cost, qos, cap, requests, feasible = line.split(",")
        rows.setdefault(int(seed), {})[algorithm] = {
            "resource_cost": int(cost), "feasible": feasible == "true"}
    return rows, notes


class Workload:
    """One benchmark workload.

    A job is named by a key into the golden pool.  A run walks ``window``
    consecutive keys of the pool from a start the workload seed picks,
    wrapping round within the window; a workload without a window walks
    the whole pool.  ``prepare`` makes the input files those keys need,
    ``run`` executes one job and returns its exit codes and outputs,
    ``check`` returns invariant failures plus any exact counts the job
    yields.
    """

    name = ""
    n = 0                 # slots per simulated workload, for simulate.slots
    window = None
    repeats = 1           # consecutive jobs on each key
    min_trace_jobs = 1
    trace_jobs_per_s = 0.0

    def keys(self):
        raise NotImplementedError

    def run_keys(self, seed: int):
        """The keys a run with this workload seed walks, in order."""
        pool = self.keys()
        offset = random.Random(seed).randrange(len(pool))
        return [pool[(offset + i) % len(pool)] for i in range(self.window or len(pool))]

    def job_key(self, run_keys, k: int) -> str:
        return run_keys[(k // self.repeats) % len(run_keys)]

    def trace_jobs(self, seconds: int) -> int:
        """Jobs in each pass of a traced run; fixed by the run length alone,
        so that the counts a traced run reports repeat exactly."""
        return max(self.min_trace_jobs, int(seconds * self.trace_jobs_per_s))

    def prepare(self, workdir: str, keys) -> None:
        self.workdir = workdir

    def path(self, key, kind):
        return os.path.join(self.workdir, f"{key}.{kind}")

    def start_pass(self) -> None:
        """Forget state carried from job to job within one pass."""

    def run(self, key: str):
        raise NotImplementedError

    def check(self, key, codes, outputs):
        return [], {}


class CompareWorkload(Workload):
    """Jobs are ``compare`` runs over blocks of ten consecutive seeds."""

    def block_argv(self, key: str):
        raise NotImplementedError

    def run(self, key: str):
        code, out, err = call_cli(self.block_argv(key))
        return [code], {"csv": out, "stderr": err}

    def check(self, key, codes, outputs):
        errors, _, _ = self.check_rows(key, outputs)
        return errors, {}

    def check_rows(self, key, outputs):
        """Every seed has a feasible ads and greedy row; returns the errors,
        the parsed rows and the comment notes."""
        errors = []
        rows, notes = parse_compare_csv(outputs["csv"])
        first = self.first_seed(key)
        if sorted(rows) != list(range(first, first + 10)):
            errors.append(f"rows cover seeds {sorted(rows)}")
        for seed, by_algorithm in rows.items():
            for algorithm in ("ads", "greedy"):
                row = by_algorithm.get(algorithm)
                if row is None or not row["feasible"]:
                    errors.append(f"seed {seed}: {algorithm} row missing or infeasible")
        return errors, rows, notes

    @staticmethod
    def first_seed(key: str) -> int:
        return 10 * int(key.rsplit(":", 1)[1])


class Sweep(CompareWorkload):
    """The paper's experiment at n=100: both presets, ten seeds a job."""

    name = "sweep"
    n = 100
    blocks = 2000
    presets = ("mmog", "oppd")
    trace_jobs_per_s = 20.0

    def keys(self):
        return [f"{preset}:{b}" for b in range(self.blocks) for preset in self.presets]

    def block_argv(self, key):
        preset = key.split(":", 1)[0]
        a = self.first_seed(key)
        return ["compare", "--scenario", preset, "--seeds", f"{a}..{a + 9}",
                "--algorithms", "ads,greedy"]


class ExactTiny(CompareWorkload):
    """Tiny instances where the exhaustive oracle runs, or refuses."""

    name = "exact-tiny"
    n = 10
    blocks = 1000
    trace_jobs_per_s = 4.0

    def keys(self):
        return [f"tiny:{b}" for b in range(self.blocks)]

    def block_argv(self, key):
        a = self.first_seed(key)
        return ["compare", "--n", "10", "--delta", "2", "--theta", "3",
                "--amplitude", "2", "--seeds", f"{a}..{a + 9}",
                "--algorithms", "ads,greedy,oracle"]

    def check(self, key, codes, outputs):
        errors, rows, notes = self.check_rows(key, outputs)
        skipped = sum(1 for note in notes if note.startswith("oracle skipped"))
        accepted = 0
        for seed, by_algorithm in rows.items():
            oracle = by_algorithm.get("oracle")
            if oracle is None:
                continue
            accepted += 1
            heuristics = [by_algorithm[a]["resource_cost"]
                          for a in ("ads", "greedy") if a in by_algorithm]
            if heuristics and oracle["resource_cost"] > min(heuristics):
                errors.append(f"seed {seed}: oracle cost {oracle['resource_cost']} "
                              f"above the heuristics' {min(heuristics)}")
        if accepted + skipped != 10:
            errors.append(f"{accepted} oracle rows and {skipped} skip notes for 10 seeds")
        return errors, {"oracle_attempted": 10, "oracle_accepted": 10 - skipped}


def preset_inputs(preset: str, n: int, seed: int):
    """(config, workload) of a scenario preset cut to n slots."""
    from capsched.cli import SCENARIO_PRESETS
    from capsched.workload import Config, ScenarioParams, generate_workload
    values = SCENARIO_PRESETS[preset]
    config = Config(n=n, delta=values["delta"], theta=values["theta"])
    params = ScenarioParams(name=preset, amplitude=values["amplitude"],
                            plateau_fraction=values["plateau_fraction"], seed=seed)
    return config, generate_workload(params, config)


class LongHorizon(Workload):
    """Plan one long mmog workload (n=2000) with ads and with greedy, then
    evaluate each plan.  The workload files are written at set-up.  At the
    roadmap's n=10 000 a job takes 10 s or more, too few jobs for a steady
    figure in one run (see README.md); at n=2000 the quadratic scan in
    ``adaptive_schedule`` still takes more than nine tenths of a job."""

    name = "long-horizon"
    n = 2000
    pool = 300
    window = 60
    trace_jobs_per_s = 1.0

    def keys(self):
        return [f"h{s}" for s in range(self.pool)]

    def prepare(self, workdir, keys):
        from capsched.workload import format_workload
        super().prepare(workdir, keys)
        for key in keys:
            config, workload = preset_inputs("mmog", self.n, int(key[1:]))
            write_file(self.path(key, "workload"), format_workload(config, workload))

    def run(self, key):
        wl = self.path(key, "workload")
        codes, outputs = [], {"stderr": ""}
        for algorithm in ("ads", "greedy"):
            code, out, err = call_cli(["solve", wl, "--algorithm", algorithm])
            codes.append(code)
            outputs[f"schedule_{algorithm}"] = out
            outputs["stderr"] += err
            write_file(self.path(key, algorithm), out)
        for algorithm in ("ads", "greedy"):
            code, out, err = call_cli(["evaluate", wl, self.path(key, algorithm)])
            codes.append(code)
            outputs[f"evaluate_{algorithm}"] = out
            outputs["stderr"] += err
        return codes, outputs

    def check(self, key, codes, outputs):
        return [f"{name} does not report feasible=true"
                for name in ("evaluate_ads", "evaluate_greedy")
                if "feasible=true\n" not in outputs[name]], {}


class LpRoundtrip(Workload):
    """Generate an oppd workload cut to n=40, export its integer program,
    then validate a solution and a schedule against it.  The solution and
    schedule are made at set-up.  Jobs come in pairs on one workload, so
    every second export is checked byte for byte against the first.  At the
    preset's n=100 a job takes seconds, too long to measure steadily on a
    shared host (see README.md)."""

    name = "lp-roundtrip"
    n = 40
    pool = 300
    window = 60
    repeats = 2
    min_trace_jobs = 2
    trace_jobs_per_s = 1.0
    last_export = None    # (key, sha256) of the previous job's LP text

    def keys(self):
        return [f"w{s}" for s in range(self.pool)]

    def prepare(self, workdir, keys):
        from capsched.schedule import format_schedule
        from capsched.solvers import adaptive_schedule, lift_schedule
        super().prepare(workdir, keys)
        for key in keys:
            config, workload = preset_inputs("oppd", self.n, int(key[1:]))
            schedule = adaptive_schedule(workload, config)
            write_file(self.path(key, "schedule"), format_schedule(config, schedule))
            write_file(self.path(key, "solution"),
                       solution_text(lift_schedule(workload, schedule, config)))

    def start_pass(self):
        self.last_export = None

    def run(self, key):
        wl = self.path(key, "workload")
        code, out, err = call_cli(["generate", "--scenario", "oppd", "--n", str(self.n),
                                   "--seed", key[1:]])
        codes, outputs = [code], {"workload": out, "stderr": err}
        write_file(wl, out)
        for name, argv in (
                ("lp", ["export-lp", wl]),
                ("validate_solution", ["validate", wl, "--solution", self.path(key, "solution")]),
                ("validate_schedule", ["validate", wl, "--schedule", self.path(key, "schedule")])):
            code, out, err = call_cli(argv)
            codes.append(code)
            outputs[name] = out
            outputs["stderr"] += err
        return codes, outputs

    def check(self, key, codes, outputs):
        errors = [f"{name} printed {outputs[name][:80]!r}, not OK"
                  for name in ("validate_solution", "validate_schedule")
                  if outputs[name] != "OK\n"]
        digest = sha256(outputs["lp"])
        if self.last_export is not None and self.last_export[0] == key \
                and self.last_export[1] != digest:
            errors.append("two exports of one workload differ")
        self.last_export = (key, digest)
        return errors, {"lp_bytes": len(outputs["lp"].encode("utf-8"))}


def solution_text(matrices) -> str:
    """Solver-style ``<variable> <value>`` lines for the nonzero entries."""
    lines = []
    for prefix, matrix in (("x", matrices.allocations), ("y", matrices.deallocations)):
        for i, j in zip(*matrix.nonzero()):
            lines.append(f"{prefix}_{i + 1}_{j + 1} {matrix[i, j]}")
    lines.extend(f"r_{j + 1} 1" for j in matrices.requests.nonzero()[0])
    return "".join(line + "\n" for line in lines)


WORKLOADS = {wl.name: wl for wl in (Sweep(), LongHorizon(), LpRoundtrip(), ExactTiny())}


def run_job(workload: Workload, key: str, golden):
    """Run and check one job.  Returns (wall ns, errors, counts)."""
    start = time.perf_counter_ns()
    try:
        codes, outputs = workload.run(key)
    except Exception:
        return time.perf_counter_ns() - start, [traceback.format_exc()], {}
    wall = time.perf_counter_ns() - start
    errors = [f"{name} shows a traceback" for name, text in outputs.items()
              if "Traceback (most recent call last)" in text]
    try:
        invariant_errors, counts = workload.check(key, codes, outputs)
    except (ValueError, KeyError) as exc:
        invariant_errors, counts = [f"unreadable output: {exc!r}"], {}
    errors.extend(invariant_errors)
    expected = golden[key]
    if codes != expected["codes"]:
        errors.append(f"exit codes {codes}, golden {expected['codes']}")
    for name, digest in expected["sha256"].items():
        if sha256(outputs.get(name, "")) != digest:
            errors.append(f"{name} differs from the golden output")
    return wall, errors, counts


def job_record(k, key, wall, errors, counts, **extra):
    return {"job": k, "key": key, "wall_ns": wall, "errors": errors, "counts": counts,
            **extra}


def run_pass(workload, run_keys, golden, seconds):
    """Run jobs back to back until ``seconds`` of wall time have passed.

    Each record carries ``cal_ns``, the mean of the calibration times just
    before and just after the job."""
    workload.start_pass()
    records = []
    before = calibrate()
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        k = len(records)
        key = workload.job_key(run_keys, k)
        wall, errors, counts = run_job(workload, key, golden)
        after = calibrate()
        records.append(job_record(k, key, wall, errors, counts, cal_ns=(before + after) / 2))
        before = after
    return records


def run_traced(workload, run_keys, golden, jobs, recorder):
    """Run each of the first ``jobs`` jobs untraced and then traced.

    Pairing the two runs of a job lets both see the same host speed, and a
    warm-up job first keeps one-time costs out of either side.  Returns the
    untraced and the traced records.
    """
    run_job(workload, workload.job_key(run_keys, 0), golden)
    workload.start_pass()
    untraced, traced = [], []
    for k in range(jobs):
        key = workload.job_key(run_keys, k)
        untraced.append(job_record(k, key, *run_job(workload, key, golden)))
        recorder.job = k
        recorder.install()
        try:
            traced.append(job_record(k, key, *run_job(workload, key, golden)))
        finally:
            recorder.uninstall()
    return untraced, traced


def source_sha256(root: str, *dirs: str) -> str:
    """sha256 over the Python files under ``dirs`` (default: src/capsched)."""
    digest = hashlib.sha256()
    for top in dirs or (os.path.join(root, "src", "capsched"),):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None
    when the tree is not a git work tree."""
    git = os.path.join(root, ".git")
    try:
        head = read_file(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            return read_file(os.path.join(git, ref)).strip()
        for line in read_file(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in read_file("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_context(root: str):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "capsched_source_sha256": source_sha256(root),
    }


def load_golden(name: str):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="path of the result JSON")
    parser.add_argument("--spans", help="path of the span file (traced runs)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_capsched(root)
    workload = WORKLOADS[args.workload]
    golden = load_golden(workload.name)
    run_keys = workload.run_keys(args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.prepare(workdir, run_keys)
        result = {"context": run_context(root), "first_key": run_keys[0]}
        if not args.trace:
            result["jobs"] = run_pass(workload, run_keys, golden, args.seconds)
        else:
            from spans import SpanRecorder
            recorder = SpanRecorder()
            result["untraced_jobs"], result["jobs"] = run_traced(
                workload, run_keys, golden, workload.trace_jobs(args.seconds), recorder)
            recorder.write(args.spans)
            result["model_counts"] = recorder.counts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    write_file(args.result, json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

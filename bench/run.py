"""capsched benchmark: one run of one workload.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a capsched source tree; it imports capsched from
``src`` and exits with code 2 when that is missing.  It measures set-up
time in fresh interpreters, then starts one workload process
(``jobs.py``) and waits for it, so at most two of its processes are alive
at once.

With ``--trace 0`` it prints the end-to-end metrics, with every timing
scaled to a fixed reference host speed: a job's time by the calibration
work timed around it, a set-up launch's by reference interpreter launches
timed around it.  The measured times are in the details line.  With
``--trace 1``
the workload process runs a fixed set of jobs untraced and then traced,
and this script derives the per-layer metrics from the recorded spans.
The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run context and the details behind the figures, which are also
written under ``bench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import jobs
import spans

SETUP_LAUNCHES = 4       # before the workload process, and again after it
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import capsched, capsched.cli; capsched.cli.build_parser()")
REFERENCE_CODE = "import argparse, json, numpy"
# The host speed that timings are scaled to: how long ``jobs.calibrate``
# and a launch of REFERENCE_CODE take on the host of README.md's numbers,
# in its fast phase.
CALIBRATION_REF_MS = 4.0
REFERENCE_LAUNCH_S = 0.16
RUN_LIMIT_S = 170
JOB_P90_MIN_JOBS = 100
COUNT_UNITS = ("count", "bytes", "builds/job", "ratio")


def launch(root, code):
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                   stdout=subprocess.DEVNULL, timeout=30)
    return time.perf_counter() - start


def time_setup(root):
    """(set-up time, reference time) per launch of a fresh interpreter that
    imports capsched and builds the command line parser.  Reference
    launches run before and after each set-up launch; their mean is its
    reference time."""
    pairs = []
    before = launch(root, REFERENCE_CODE)
    for _ in range(SETUP_LAUNCHES):
        setup = launch(root, SETUP_CODE)
        after = launch(root, REFERENCE_CODE)
        pairs.append((setup, (before + after) / 2))
        before = after
    return pairs


def run_workload(root, args, result_path, spans_path, deadline):
    argv = [sys.executable, os.path.join(jobs.BENCH_DIR, "jobs.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", result_path]
    if args.trace:
        argv += ["--spans", spans_path]
    subprocess.run(argv, cwd=root, check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(records, result, setup_pairs, details):
    """Timings scaled to the reference host speed, with the measured ones in
    ``details``.  A job's time is scaled by the calibration around it, a
    set-up launch's by the reference launches around it."""
    walls_ms = [r["wall_ns"] / 1e6 for r in records]
    scaled_ms = [r["wall_ns"] / r["cal_ns"] * CALIBRATION_REF_MS for r in records]
    passed = sum(1 for r in records if not r["errors"])
    setup_scaled = [setup / reference * REFERENCE_LAUNCH_S for setup, reference in setup_pairs]
    details.update({
        "setup_launches_s": [setup for setup, _ in setup_pairs],
        "reference_launches_s": [reference for _, reference in setup_pairs],
        "measured_setup_s": statistics.median(setup for setup, _ in setup_pairs),
        "calibration_p50_ms": statistics.median(r["cal_ns"] for r in records) / 1e6,
        "measured_job_p50_ms": statistics.median(walls_ms),
        "measured_jobs_per_s": passed / (sum(walls_ms) / 1e3),
    })
    if len(records) >= JOB_P90_MIN_JOBS:
        details["job_p90_ms"] = p90(scaled_ms)
        details["measured_job_p90_ms"] = p90(walls_ms)
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "job_p50_ms": (statistics.median(scaled_ms), "ms"),
        "jobs_per_s": (passed / (sum(scaled_ms) / 1e3), "1/s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(workload, records, result, spans_path, problems):
    recorded = spans.read_spans(spans_path)
    selfs, span_problems = spans.self_times(recorded)
    walls = {r["job"]: r["wall_ns"] for r in records}
    problems.extend(span_problems)
    problems.extend(spans.check_jobs(recorded, selfs, walls))
    traced_wall = sum(walls.values())
    untraced_wall = sum(r["wall_ns"] for r in result["untraced_jobs"])
    metrics = spans.layer_metrics(recorded, selfs, traced_wall)

    def total(counts, key):
        return sum(c.get(key, 0) for c in counts)

    builds = metrics["ilp.build_model.calls"][0]
    model = result["model_counts"]
    job_counts = [r["counts"] for r in records]
    exports = sum(1 for c in job_counts if "lp_bytes" in c)
    oracle_tried = total(job_counts, "oracle_attempted")
    metrics.update({
        "ilp.build_model.rows": (model.get("rows", 0) / builds if builds else 0, "count"),
        "ilp.build_model.terms": (model.get("terms", 0) / builds if builds else 0, "count"),
        "ilp.build_model.per_job": (builds / len(records), "builds/job"),
        "ilp.export_lp.bytes": (total(job_counts, "lp_bytes") / exports if exports else 0, "bytes"),
        "solvers.exact_oracle.accepted_ratio": (
            total(job_counts, "oracle_accepted") / oracle_tried if oracle_tried else 0.0, "ratio"),
        "schedule.simulate.slots": (workload.n * metrics["schedule.simulate.calls"][0], "count"),
        "trace_overhead": (traced_wall / untraced_wall - 1, "fraction"),
    })
    return metrics


def check_counts_repeat(root, args, metrics, problems):
    """Counts of a traced run must equal those of any earlier traced run of
    the same program and benchmark code, workload, seed and length."""
    counts = {name: value for name, (value, unit) in metrics.items() if unit in COUNT_UNITS}
    code = jobs.source_sha256(root, os.path.join(root, "src", "capsched"), jobs.BENCH_DIR)
    folder = os.path.join(jobs.OUT_DIR, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{args.workload}-seed{args.seed}-s{args.seconds}-{code[:16]}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            before = json.load(handle)
        changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if changed:
            problems.append("counts differ from an earlier traced run: " + ", ".join(changed))
    else:
        jobs.write_file(path, json.dumps(counts, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one capsched benchmark workload.")
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: picks the inputs (default 1)")
    parser.add_argument("--seconds", type=int, default=25, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "capsched", "__init__.py")):
        print(f"error: run from the root of a capsched tree; no src/capsched under {root}",
              file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]
    os.makedirs(jobs.OUT_DIR, exist_ok=True)
    stem = os.path.join(jobs.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    setup_pairs = [] if args.trace else time_setup(root)
    result = run_workload(root, args, stem + ".result.json", stem + ".spans.jsonl", deadline)
    if not args.trace:
        setup_pairs += time_setup(root)
    records = result["jobs"] + result.get("untraced_jobs", [])
    details["context"] = result["context"]
    details["first_key"] = result["first_key"]

    problems = []
    if args.trace:
        metrics = per_layer(workload, result["jobs"], result, stem + ".spans.jsonl", problems)
        check_counts_repeat(root, args, metrics, problems)
    else:
        metrics = end_to_end(result["jobs"], result, setup_pairs, details)
    failed = [r for r in records if r["errors"]]
    details.update({
        "jobs": len(result["jobs"]),
        "error_rate": len(failed) / len(records),
        "failures": [{"key": r["key"], "errors": r["errors"][:3]} for r in failed[:5]],
        "problems": problems,
    })
    summary = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    jobs.write_file(stem + ".json", json.dumps({"details": details, **summary}, indent=1))
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate.

Each test covers one promised behavior end to end and prints a single
PASS/FAIL line, so the suite output doubles as the acceptance report.
Budgeted runtimes are asserted alongside the functional checks.
"""

import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from capsched import (
    CompareSpec,
    Config,
    ScenarioParams,
    SolutionMatrices,
    adaptive_schedule,
    build_model,
    check_feasibility,
    evaluate,
    exact_oracle,
    export_lp,
    format_workload,
    generate_workload,
    greedy_schedule,
    matrices_to_schedule,
    objective_value,
    parse_solution,
    resource_cost,
    run_compare,
    validate_solution,
)

REF_CONFIG = Config(n=8, delta=2, theta=3)


def _ref_workload():
    from capsched import Workload
    return Workload(arrivals=np.array([2, 0, 1, 0, 0, 0, 0, 0]),
                    departures=np.array([0, 0, 0, 0, 2, 0, 0, 0]))


def _report(num, desc, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def _tiny_suite(amplitude, count=50):
    """First seeded n=8 workloads with 1..6 total participants."""
    cfg = Config(n=8, delta=2, theta=3)
    instances = []
    seed = 0
    while len(instances) < count:
        wl = generate_workload(
            ScenarioParams(name="tiny", amplitude=amplitude, seed=seed), cfg)
        if 1 <= int(wl.arrivals.sum()) <= 6:
            instances.append((seed, wl))
        seed += 1
    return cfg, instances


def test_criterion_1_hand_traced_reference_values():
    start = time.perf_counter()
    wl = _ref_workload()
    ads = adaptive_schedule(wl, REF_CONFIG)
    ads_report = evaluate(wl, ads, REF_CONFIG)
    greedy = greedy_schedule(wl, REF_CONFIG)
    greedy_report = evaluate(wl, greedy, REF_CONFIG)
    matrices, oracle_cost = exact_oracle(wl, REF_CONFIG)
    elapsed = time.perf_counter() - start
    ok = (
        ads.changes.tolist() == [0, 3, 0, 0, -2, 0, 0, 0]
        and ads_report.resource_cost == 10 and ads_report.qos_cost == 7
        and greedy.changes.tolist() == [3, 0, -2, 0, 0, 0, 0, 0]
        and greedy_report.resource_cost == 9 and greedy_report.qos_cost == 4
        and oracle_cost == 6
        and validate_solution(matrices, wl, REF_CONFIG) == []
        and elapsed < 1.0
    )
    _report(1, f"reference traces match exactly ({elapsed:.3f}s)", ok)


def test_criterion_2_cost_form_equivalence():
    rng = np.random.default_rng(20260822)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        cfg = Config(n=n, delta=2, theta=3)
        m = SolutionMatrices(
            allocations=rng.integers(-9, 10, size=(n, n)),
            deallocations=rng.integers(-9, 10, size=(n, n)),
            requests=rng.integers(0, 2, size=n))
        direct = objective_value(m, cfg)
        collapsed = resource_cost(matrices_to_schedule(m, cfg), cfg)
        if direct != collapsed:
            mismatches += 1
    _report(2, f"1000 random assignments, {mismatches} cost mismatches",
            mismatches == 0)


def test_criterion_3_planners_always_feasible():
    start = time.perf_counter()
    shapes = [
        (Config(n=30, delta=3, theta=4), 30),
        (Config(n=30, delta=3, theta=4), 6),
        (Config(n=100, delta=3, theta=4), 1500),
        (Config(n=100, delta=3, theta=4), 300),
    ]
    violations = 0
    checked = 0
    for cfg, amplitude in shapes:
        for seed in range(100):
            wl = generate_workload(
                ScenarioParams(name="suite", amplitude=amplitude, seed=seed), cfg)
            for planner in (adaptive_schedule, greedy_schedule):
                checked += 1
                if check_feasibility(wl, planner(wl, cfg), cfg):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and checked == 800 and elapsed < 60.0
    _report(3, f"{checked} schedules, {violations} infeasible ({elapsed:.1f}s)", ok)


def test_criterion_4_oracle_dominates_heuristics():
    start = time.perf_counter()
    cfg, instances = _tiny_suite(amplitude=2)
    dominated = 0
    validated = 0
    for _, wl in instances:
        matrices, cost = exact_oracle(wl, cfg)
        ads_cost = resource_cost(adaptive_schedule(wl, cfg), cfg)
        greedy_cost = resource_cost(greedy_schedule(wl, cfg), cfg)
        if cost <= min(ads_cost, greedy_cost):
            dominated += 1
        if validate_solution(matrices, wl, cfg) == []:
            validated += 1
    elapsed = time.perf_counter() - start
    ok = dominated == 50 and validated == 50 and elapsed < 300.0
    _report(4, f"oracle <= heuristics on {dominated}/50, "
               f"{validated}/50 validate ({elapsed:.1f}s)", ok)


def test_criterion_5_load_bound_is_implied():
    cfg, instances = _tiny_suite(amplitude=2)
    clean = 0
    for _, wl in instances:
        matrices, _ = exact_oracle(wl, cfg, skip_families=("EQ8",))
        violations = validate_solution(matrices, wl, cfg)
        if not any(v.tag == "EQ8" for v in violations):
            clean += 1
    _report(5, f"EQ8 family holds unasked on {clean}/50 relaxed solutions",
            clean == 50)


def test_criterion_6_scale_orderings():
    medians = {}
    for name, amplitude in (("mmog", 1500), ("oppd", 300)):
        cfg = Config(n=100, delta=3, theta=4)
        rc = {"ads": [], "greedy": []}
        qos = {"ads": [], "greedy": []}
        for seed in range(100):
            wl = generate_workload(
                ScenarioParams(name=name, amplitude=amplitude, seed=seed), cfg)
            for alg, planner in (("ads", adaptive_schedule),
                                 ("greedy", greedy_schedule)):
                report = evaluate(wl, planner(wl, cfg), cfg)
                rc[alg].append(report.resource_cost)
                qos[alg].append(report.qos_cost)
        medians[name] = {
            "rc": {alg: median(vals) for alg, vals in rc.items()},
            "qos": {alg: median(vals) for alg, vals in qos.items()},
        }
    cfg, instances = _tiny_suite(amplitude=2)
    ads_qos = []
    oracle_qos = []
    for _, wl in instances:
        matrices, _ = exact_oracle(wl, cfg)
        oracle_sched = matrices_to_schedule(matrices, cfg)
        ads_qos.append(evaluate(wl, adaptive_schedule(wl, cfg), cfg).qos_cost)
        oracle_qos.append(evaluate(wl, oracle_sched, cfg).qos_cost)
    ok = all(
        m["rc"]["ads"] <= m["rc"]["greedy"]
        and m["qos"]["greedy"] <= m["qos"]["ads"]
        for m in medians.values()
    ) and median(ads_qos) <= median(oracle_qos)
    summary = ", ".join(
        f"{name} rc {m['rc']['ads']}<={m['rc']['greedy']} "
        f"qos {m['qos']['greedy']}<={m['qos']['ads']}"
        for name, m in medians.items())
    _report(6, f"{summary}, tiny qos {median(ads_qos)}<={median(oracle_qos)}", ok)


def test_criterion_7_gap_grows_with_fluctuation():
    gaps = {}
    for label, amplitude in (("low", 1), ("high", 3)):
        cfg, instances = _tiny_suite(amplitude=amplitude)
        rel = []
        for _, wl in instances:
            _, oracle_cost = exact_oracle(wl, cfg)
            if oracle_cost == 0:
                continue
            ads_cost = resource_cost(adaptive_schedule(wl, cfg), cfg)
            rel.append((ads_cost - oracle_cost) / oracle_cost)
        gaps[label] = median(rel)
    ok = gaps["low"] < gaps["high"]
    _report(7, f"median relative gap low={gaps['low']:.1%} "
               f"high={gaps['high']:.1%}", ok)


def test_criterion_8_lp_round_trip(tmp_path):
    wl = _ref_workload()
    model = build_model(wl, REF_CONFIG)
    first = export_lp(model)
    second = export_lp(build_model(wl, REF_CONFIG))
    wl_path = tmp_path / "ref.json"
    wl_path.write_text(format_workload(REF_CONFIG, wl), encoding="utf-8")
    outputs = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("a.lp", "b.lp"):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from capsched.cli import main; "
             "sys.exit(main(['export-lp', sys.argv[1], '--out', sys.argv[2]]))",
             str(wl_path), str(out)],
            check=True, env=env)
        outputs.append(out.read_text(encoding="utf-8"))
    matrices = parse_solution(
        "x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 1\n", REF_CONFIG)
    ok = (
        first == second
        and outputs[0] == first and outputs[1] == first
        and objective_value(matrices, REF_CONFIG) == 6
        and validate_solution(matrices, wl, REF_CONFIG) == []
    )
    _report(8, "byte-stable export, hand assignment costs 6 and validates", ok)


def test_criterion_9_planner_speed():
    cfg = Config(n=100, delta=3, theta=4)
    wl = generate_workload(
        ScenarioParams(name="mmog", amplitude=1500, seed=0), cfg)
    timings = {}
    for name, planner in (("ads", adaptive_schedule), ("greedy", greedy_schedule)):
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            planner(wl, cfg)
            samples.append(time.perf_counter() - start)
        timings[name] = median(samples)
    spec = CompareSpec(
        config=cfg,
        scenario=ScenarioParams(name="mmog", amplitude=1500),
        seeds=tuple(range(100)), algorithms=("ads", "greedy"))
    start = time.perf_counter()
    text = run_compare(spec)
    compare_elapsed = time.perf_counter() - start
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#")]
    ok = (
        timings["ads"] < 0.010 and timings["greedy"] < 0.010
        and compare_elapsed < 5.0 and len(rows) == 1 + 200
    )
    _report(9, f"ads {timings['ads'] * 1000:.2f}ms, "
               f"greedy {timings['greedy'] * 1000:.2f}ms, "
               f"compare {compare_elapsed:.2f}s", ok)

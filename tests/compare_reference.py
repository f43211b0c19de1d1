"""A reference copy of the compare run: the original loop that generates,
plans and evaluates one seed at a time, each plan by the slot-loop planners
of planner_reference or the oracle's first, matrix route in
oracle_reference, each evaluation by its own replay in closed form with
Python-integer costs.  run_compare's block pass must give its CSV text byte
for byte."""

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from capsched import CostReport, SimulationReport, generate_workload
from capsched.cli import (CSV_HEADER, ORACLE_MAX_N, _REPORT_FIELDS, _median_text,
                          _refusal, _report_cells)
from capsched.schedule import _violations
from oracle_reference import _reference_oracle_schedule
from planner_reference import _reference_adaptive_schedule, _reference_greedy_schedule


def _reference_simulate(workload, schedule, config) -> SimulationReport:
    n, delta = config.n, config.delta
    cap = np.zeros(n, dtype=np.int64)
    np.add.accumulate(schedule.changes[:n - delta], out=cap[delta:])
    a = workload.arrivals

    arrived = np.zeros(n + 1, dtype=np.int64)
    departed = np.zeros(n + 1, dtype=np.int64)
    exited = np.zeros(n + 1, dtype=np.int64)
    ca, cd, ex = arrived[1:], departed[1:], exited[1:]
    np.add.accumulate(a, out=ca)
    np.add.accumulate(workload.departures, out=cd)
    np.maximum(np.minimum(cap, ca - cd), 0, out=ex)
    ex += cd
    np.maximum.accumulate(exited, out=exited)

    kept = np.maximum(exited[:-1], cd) - cd
    over = (cap < kept).nonzero()[0]
    due = np.empty(n, dtype=np.int64)
    due[:n - config.theta] = exited[1 + config.theta:]
    due[n - config.theta:] = exited[n]
    late = ((due < ca) & (a > 0)).nonzero()[0]
    unadmitted: Dict[int, int] = {}
    if exited[n] < arrived[n]:
        short = ca[late] - exited[n]
        stuck = short > 0
        unadmitted = dict(zip((late[stuck] + 1).tolist(),
                              np.minimum(a[late][stuck], short[stuck]).tolist()))
    qos = sum((arrived - exited).tolist()) - sum(
        count * (n - arr + 1) for arr, count in unadmitted.items())
    return SimulationReport(
        qos_cost=qos,
        theta_violations=(late + 1).tolist(),
        capacity=cap,
        unadmitted=unadmitted,
        overcommit=list(zip((over + 1).tolist(), kept[over].tolist(), cap[over].tolist()))
        if over.size else [],
        arrived=arrived,
        departed=departed,
        exited=exited,
    )


def _reference_resource_cost(schedule, config) -> int:
    n, delta = config.n, config.delta
    s = schedule.changes[: n - delta]
    hot = s.nonzero()[0]
    return sum(c * (n - j - 1 - delta) for j, c in zip(hot.tolist(), s[hot].tolist()))


def _reference_evaluate(workload, schedule, config) -> CostReport:
    sim = _reference_simulate(workload, schedule, config)
    return CostReport(
        resource_cost=_reference_resource_cost(schedule, config),
        qos_cost=sim.qos_cost,
        max_capacity=int(sim.capacity.max()),
        num_requests=int(np.count_nonzero(schedule.changes)),
        violations=tuple(_violations(schedule.changes, config, sim)),
    )


def _reference_plan(algorithm, workload, config):
    if algorithm == "ads":
        return _reference_adaptive_schedule(workload, config)
    if algorithm == "greedy":
        return _reference_greedy_schedule(workload, config)
    return _reference_oracle_schedule(workload, config)


def _reference_run_compare(spec) -> str:
    config, params = spec.config, spec.scenario
    notes: List[str] = []
    algorithms = list(spec.algorithms)
    if "oracle" in algorithms and config.n > ORACLE_MAX_N:
        algorithms.remove("oracle")
        notes.append(f"oracle excluded: n={config.n} exceeds the oracle "
                     f"limit max_n={ORACLE_MAX_N}")
    rows: List[Tuple[int, str, CostReport]] = []
    for seed in spec.seeds:
        workload = generate_workload(replace(params, seed=seed), config)
        for algorithm in algorithms:
            refusal = _refusal(algorithm, config.n, int(workload.arrivals.sum()))
            if refusal:
                notes.append(f"{algorithm} skipped seed={seed}: {refusal}")
                continue
            schedule = _reference_plan(algorithm, workload, config)
            rows.append((seed, algorithm, _reference_evaluate(workload, schedule, config)))
    rows.sort(key=lambda row: row[:2])
    lines = [CSV_HEADER]
    lines.extend(",".join([str(seed), algorithm, *_report_cells(report)])
                 for seed, algorithm, report in rows)
    for algorithm in sorted(set(algorithms)):
        reports = [report for _, name, report in rows if name == algorithm]
        if reports:
            medians = " ".join(f"{field}={_median_text([getattr(r, field) for r in reports])}"
                               for field in _REPORT_FIELDS[:2])
            lines.append(f"# median algorithm={algorithm} {medians}")
        bad = sum(1 for report in reports if not report.feasible)
        if bad:
            lines.append(f"# infeasible algorithm={algorithm} rows={bad}")
    lines.extend(f"# {note}" for note in notes)
    return "".join(line + "\n" for line in lines)

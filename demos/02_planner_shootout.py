"""Run all three planners on one tiny instance and compare their answers.

The adaptive planner looks ahead to batch capacity requests, the greedy
baseline reacts slot by slot, and the exact oracle finds the integer
program's cheapest schedule outright; lifting that schedule gives an optimal
assignment at the same cost.  On a trace this small all three finish
instantly, so the gap between heuristic and optimal is easy to see.
"""

from capsched import (
    Config,
    ScenarioParams,
    adaptive_schedule,
    evaluate,
    exact_schedule,
    generate_workload,
    greedy_schedule,
    lift_schedule,
    objective_value,
    resource_cost,
    simulate,
)


def describe(name, workload, schedule, config):
    report = evaluate(workload, schedule, config)
    sim = simulate(workload, schedule, config)
    print(f"--- {name}")
    print(f"changes:    {[int(v) for v in schedule.changes]}")
    print(f"capacity:   {[int(v) for v in sim.capacity]}")
    print(f"resource cost {report.resource_cost}, qos cost {report.qos_cost}, "
          f"peak capacity {report.max_capacity}, requests {report.num_requests}")
    if sim.theta_violations:
        print(f"waits past the join threshold: {sim.theta_violations}")
    print()
    return report


def main():
    config = Config(n=8, delta=2, theta=3)
    workload = generate_workload(
        ScenarioParams(name="tiny", amplitude=2, seed=11), config)

    print("arrivals:  ", [int(v) for v in workload.arrivals])
    print("departures:", [int(v) for v in workload.departures])
    print()

    ads = describe("adaptive look-ahead",
                   workload, adaptive_schedule(workload, config), config)
    greedy = describe("periodic greedy",
                      workload, greedy_schedule(workload, config), config)

    schedule = exact_schedule(workload, config)
    oracle = describe("exact oracle", workload, schedule, config)
    # the lift is an optimal assignment of the integer program, at the schedule's cost
    assignment = lift_schedule(workload, schedule, config)
    assert objective_value(assignment, config) == resource_cost(schedule, config)

    best_heuristic = min(ads.resource_cost, greedy.resource_cost)
    print(f"oracle {oracle.resource_cost} <= best heuristic {best_heuristic}")
    if oracle.resource_cost < best_heuristic:
        gap = (best_heuristic - oracle.resource_cost) / oracle.resource_cost
        print(f"heuristic overspend on this trace: {gap:.0%}")


if __name__ == "__main__":
    main()

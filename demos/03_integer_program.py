"""Build the integer program for a small trace, export it, and check answers.

Shows the full loop an external solver would sit in the middle of: model
out, solution text back in, validation against every constraint family,
and collapse of the assignment matrices down to a plain schedule.
"""

from capsched import (
    Config,
    ScenarioParams,
    adaptive_schedule,
    build_model,
    evaluate,
    export_lp,
    generate_workload,
    lift_schedule,
    matrices_to_schedule,
    objective_value,
    parse_solution,
    validate_solution,
)


def main():
    config = Config(n=8, delta=2, theta=3)
    workload = generate_workload(
        ScenarioParams(name="tiny", amplitude=2, seed=11), config)

    model = build_model(workload, config)
    text = export_lp(model)
    print(f"model: {len(model.variables)} variables, "
          f"{len(model.rhs)} constraint rows")
    print(f"LP text is {len(text)} bytes; first lines:")
    for line in text.splitlines()[:12]:
        print("   ", line)
    print()

    # a solver would return variable assignments; fake one by lifting the
    # adaptive planner's schedule into assignment matrices
    schedule = adaptive_schedule(workload, config)
    matrices = lift_schedule(workload, schedule, config)

    violations = validate_solution(matrices, workload, config)
    print(f"lifted solution: {len(violations)} violations, "
          f"objective {objective_value(matrices, config)}")

    # round trip through the solver text format
    lines = []
    for i, j in zip(*matrices.allocations.nonzero()):
        lines.append(f"x_{i + 1}_{j + 1} {matrices.allocations[i, j]}")
    for i, j in zip(*matrices.deallocations.nonzero()):
        lines.append(f"y_{i + 1}_{j + 1} {matrices.deallocations[i, j]}")
    for j in range(1, config.n + 1):
        if matrices.requests[j - 1]:
            lines.append(f"r_{j} 1")
    parsed = parse_solution("\n".join(lines) + "\n", config)
    assert objective_value(parsed, config) == objective_value(matrices, config)
    print("solution text round trip preserves the objective")
    print()

    # collapsing the matrices recovers the schedule we started from
    collapsed = matrices_to_schedule(matrices, config)
    assert list(collapsed.changes) == list(schedule.changes)
    report = evaluate(workload, collapsed, config)
    print(f"collapsed back to the planner's schedule, cost {report.resource_cost}")

    # break one constraint on purpose to see what validation reports
    broken = parse_solution("\n".join(lines[:-1]) + "\n", config)
    for v in validate_solution(broken, workload, config)[:3]:
        print(v.render())


if __name__ == "__main__":
    main()

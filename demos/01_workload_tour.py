"""Generate a synthetic session trace and poke at its structure."""

from capsched import (
    Config,
    ScenarioParams,
    format_workload,
    generate_workload,
    mandatory_load,
    occupancy,
    segment_lengths,
)


def main():
    config = Config(n=30, delta=3, theta=4)
    params = ScenarioParams(name="demo", amplitude=12, plateau_fraction=0.3, seed=7)

    workload = generate_workload(params, config)

    print("=" * 60)
    print("Workload tour")
    print("=" * 60)
    print(f"slots={config.n} lag={config.delta} join_threshold={config.theta}")
    print(f"amplitude={params.amplitude} seed={params.seed}")
    print()

    # the trace is three phases: ramp up, churn plateau, ramp down
    growth, plateau, decay = segment_lengths(config.n, params.plateau_fraction)
    print(f"segments: growth={growth} plateau={plateau} decay={decay}")
    print()

    print("slot  arrivals  departures  occupancy")
    occ = occupancy(workload)
    for t in range(config.n):
        print(f"{t + 1:4d}  {workload.arrivals[t]:8d}  {workload.departures[t]:10d}  {occ[t]:9d}")
    print()

    # every arrival eventually leaves, so the trace nets to zero
    print(f"total arrivals   = {int(workload.arrivals.sum())}")
    print(f"total departures = {int(workload.departures.sum())}")
    print(f"peak occupancy   = {int(occ.max())}")
    print()

    # the floor a feasible capacity trajectory must clear at each slot:
    # everyone whose patience ran out, minus everyone already gone
    load = mandatory_load(workload, config)
    print("mandatory load per slot:")
    print(" ", load)
    print()

    print("serialized form (what the file format looks like):")
    print(format_workload(config, workload))


if __name__ == "__main__":
    main()

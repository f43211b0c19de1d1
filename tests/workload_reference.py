"""A reference copy of the workload generator: the original loop that makes
one scalar draw per growth slot, per drawing plateau slot and per decay
slot, which generate_workload must reproduce bit for bit."""

import numpy as np

from capsched import Config, ScenarioParams, Workload, segment_lengths


def _reference_generate_workload(params: ScenarioParams, config: Config) -> Workload:
    rng = np.random.Generator(np.random.PCG64(params.seed))
    n = config.n
    growth, plateau, _ = segment_lengths(n, params.plateau_fraction)
    amp = int(params.amplitude)

    arrivals = np.zeros(n, dtype=np.int64)
    departures = np.zeros(n, dtype=np.int64)
    occ = 0
    for t in range(n):
        if t < growth:
            a = int(rng.integers(0, amp + 1))
            arrivals[t] = a
            occ += a
        elif t < growth + plateau:
            if (t - growth) % 2 == 0:
                k = int(rng.integers(0, amp + 1))
                arrivals[t] = k
                departures[t] = k
        else:
            d = int(rng.integers(0, min(amp, occ) + 1))
            departures[t] = d
            occ -= d
    return Workload(arrivals, departures)

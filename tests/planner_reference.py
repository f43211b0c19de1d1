"""A reference copy of the two heuristic planners: the original slot loops,
one restart scan (adaptive) or one tick (greedy) at a time, which the block
planners behind adaptive_schedule and greedy_schedule must reproduce row for
row."""

import math

import numpy as np

from capsched import Config, Schedule, Workload
from capsched.workload import occupancy


def _reference_adaptive_schedule(workload: Workload, config: Config) -> Schedule:
    n, delta, theta = config.n, config.delta, config.theta
    occ = occupancy(workload).tolist()
    changes = np.zeros(n, dtype=np.int64)

    old_size = 0
    i = 1
    while i + delta <= n:
        min_size = math.inf
        best_t = 0
        for t in range(i + delta, min(i + theta, n) + 1):
            total_size = occ[t - 1]
            if min_size >= total_size:
                min_size = total_size
                best_t = t - delta
        new_size = int(min_size)
        if new_size != old_size:
            changes[best_t - 1] = new_size - old_size
        old_size = new_size
        i = best_t + delta
    return Schedule(changes)


def _reference_greedy_schedule(workload: Workload, config: Config) -> Schedule:
    n, delta = config.n, config.delta
    occ = occupancy(workload).tolist()
    changes = np.zeros(n, dtype=np.int64)
    level = 0
    t = 1
    while t <= n - delta:
        lo = t + delta
        hi = min(t + 2 * delta, n)
        target = max(occ[lo - 1: hi])
        if target != level:
            changes[t - 1] = target - level
            level = target
        t += delta
    return Schedule(changes)

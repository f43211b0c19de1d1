"""Capacity planning strategies.

Three planners share the same contract: given a workload and horizon
parameters they return a schedule of capacity changes.

* adaptive_schedule: a look-ahead heuristic that provisions the smallest
  conference size visible inside each scan window, as late as the join
  delay allows.
* greedy_schedule: a fixed-period baseline that re-targets capacity to the
  occupancy peak of the next window.
* exact_oracle: exhaustive search over request placements, each priced
  once in closed form; exact but restricted to tiny instances.

All planners are pure functions of their inputs.
"""

import math
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .ilp import SolutionMatrices
from .schedule import Schedule
from .workload import (Config, ConfigurationError, Workload, mandatory_load, occupancy,
                       _require_matching)


class OracleLimitError(RuntimeError):
    """Raised when an instance is too large for exhaustive search."""


class OracleInfeasibleError(RuntimeError):
    """Raised when no assignment satisfies the constraints."""


class LiftError(RuntimeError):
    """Raised when a schedule cannot be earmarked into per-arrival matrices."""


def adaptive_schedule(workload: Workload, config: Config) -> Schedule:
    """Plan capacity by chasing the smallest upcoming conference size.

    Starting from slot i, the planner scans candidate effect slots t from
    i + delta through i + theta (clipped to the horizon) and reads the
    conference size at each from the occupancy prefix sums.  Ties go to the
    latest t attaining the minimum; the capacity change lands delta slots
    before it, so the new level becomes active exactly when the size
    bottoms out.  A change of zero is not recorded as a request.  The scan
    then restarts delta slots after the chosen request slot, and planning
    stops once no effect slot fits the horizon.

    Every restart advances i by at least delta and each scan reads at most
    theta - delta + 1 slots, so planning costs O(n * theta / delta) after
    one O(n) occupancy pass.
    """
    _require_matching(workload, config)
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


def greedy_schedule(workload: Workload, config: Config) -> Schedule:
    """Re-target capacity every delta slots to the next window's occupancy peak.

    Ticks run at slots 1, 1 + delta, 1 + 2*delta, ... while the tick still
    has time to take effect (tick <= n - delta).  Each tick sets capacity to
    the maximum occupancy over slots [tick + delta, tick + 2*delta] clipped
    to the horizon, emitting the difference from the current level when it
    is nonzero.
    """
    _require_matching(workload, config)
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


@dataclass(frozen=True)
class OracleLimits:
    """Hard ceilings for exhaustive search; beyond them the oracle refuses."""

    max_n: int = 10
    max_total_participants: int = 8
    time_budget: float = 60.0

    def __post_init__(self):
        if not self.time_budget >= 0:
            raise ConfigurationError(f"time_budget must be >= 0, got {self.time_budget!r}")


def _request_slot_sets(last_slot: int, delta: int) -> List[Tuple[int, ...]]:
    # every ascending tuple from 1..last_slot with pairwise gaps >= delta
    out: List[Tuple[int, ...]] = []

    def grow(start: int, acc: List[int]) -> None:
        out.append(tuple(acc))
        for j in range(start, last_slot + 1):
            acc.append(j)
            grow(j + delta, acc)
            acc.pop()

    grow(1, [])
    return out


def exact_oracle(workload: Workload, config: Config,
                 limits: Optional[OracleLimits] = None,
                 skip_families: Iterable[str] = ()) -> Tuple[SolutionMatrices, int]:
    """Minimum-cost assignment by exhaustive search over request placements.

    Enumerates request slot placements with the minimum spacing and prices
    each in closed form: every arrival cohort is allocated at the last
    column of its window, and the releases are the cheapest within each
    column's cap (its departure budget and, where EQ7 or EQ8 is screened,
    its cumulative allocation), found by _cheapest_releases.  EQ8 acts only
    by ruling out placements whose first column comes after a slot with
    mandatory load, so skip_families={"EQ7"} alone changes nothing.  Ties
    on cost resolve to the smallest solution in row-major allocation,
    de-allocation, flag order.

    skip_families accepts the tags EQ7 and EQ8 to drop those families from
    the screen; the remaining families are built into the enumeration
    itself and cannot be disabled.

    Instances beyond the limits, or searches beyond the time budget, raise
    OracleLimitError rather than approximating.
    """
    _require_matching(workload, config)
    limits = limits if limits is not None else OracleLimits()
    n, delta, theta = config.n, config.delta, config.theta
    total = int(workload.arrivals.sum())
    if n > limits.max_n:
        raise OracleLimitError(f"n={n} exceeds the search limit max_n={limits.max_n}")
    if total > limits.max_total_participants:
        raise OracleLimitError(
            f"{total} participants exceed the search limit "
            f"max_total_participants={limits.max_total_participants}")
    deadline = time.monotonic() + limits.time_budget
    skip = set(skip_families)
    capped = "EQ7" not in skip or "EQ8" not in skip

    load = [int(v) for v in mandatory_load(workload, config).values]
    last = n - delta
    arr_cohorts = [(i, v) for i, v in enumerate(workload.arrivals.tolist(), 1) if v]
    dep_cohorts = [(i, v) for i, v in enumerate(workload.departures.tolist(), 1) if v]

    best_cost: Optional[int] = None
    best_key = None  # the allocations, de-allocations and flags of the best pick
    for slots in _request_slot_sets(last, delta):
        if time.monotonic() > deadline:
            raise OracleLimitError(
                f"time budget {limits.time_budget}s exhausted during search")
        m = len(slots)
        weights = [n - j - delta for j in slots]
        # eligible column count per arrival cohort (columns are a prefix)
        xwin = [sum(1 for j in slots if j <= min(i + theta - delta, last))
                for i, _ in arr_cohorts]
        if 0 in xwin:
            continue
        # mandatory load before the first column takes effect cannot be covered
        if "EQ8" not in skip and max(load[delta:slots[0] + delta - 1 if m else n],
                                     default=0) > 0:
            continue
        # eligible departure cohort count per column (cohorts are a prefix)
        ywin = [sum(1 for i, _ in dep_cohorts if i <= j + delta) for j in slots]
        dk = [sum(amount for _, amount in dep_cohorts[:h]) for h in ywin]
        # Each cohort sits at the last column of its window, so the cumulative
        # allocation cu is the smallest any Hall-feasible split allows.  That
        # is the cheapest split: by parts the cost is the sum over columns of
        # (w[k] - w[k + 1]) * (cu[k] - V[k]), with V[k] the releases up to
        # column k, at best min(dk[k], cu[k]) or dk[k]; every coefficient is
        # >= 0 and every term grows with cu[k].  It also wins the row-major
        # tie rule, since each cohort's row is zero before its last column.
        # The EQ8 cap cu[k] - (peak load over column k's interval) never
        # binds: cohorts mandatory at a slot t there have windows that end
        # before the next column, so they sit at or before column k, and
        # cu[k] - load[t] >= departures through t >= dk[k].
        cu = [sum(amount for (_, amount), win in zip(arr_cohorts, xwin) if win <= k + 1)
              for k in range(m)]
        u = [hi - lo for lo, hi in zip([0] + cu, cu)]
        v = _cheapest_releases([min(b, c) for b, c in zip(dk, cu)] if capped else dk,
                               weights)
        cost = sum((gross - freed) * w for gross, freed, w in zip(u, v, weights))
        if best_cost is not None and cost > best_cost:
            continue
        key = _pick_flat((slots, u, v), n, arr_cohorts, xwin, dep_cohorts, ywin)
        if best_cost is None or cost < best_cost or key < best_key:
            best_cost, best_key = cost, key

    if best_key is None:
        raise OracleInfeasibleError("no feasible assignment exists for this workload")
    x, y, r = best_key
    matrices = SolutionMatrices(np.reshape(x, (n, n)), np.reshape(y, (n, n)), np.array(r))
    return matrices, int(best_cost)


def _cheapest_releases(caps: List[int], weights: List[int]) -> Optional[List[int]]:
    """Releases per column that save the most, sum(v * w), while the
    releases up to each column stay within its cap; None if a cap is below 0.

    By parts the saving is the sum of V[c] * (w[c] - w[c + 1]), with V the
    cumulative releases and w past the last column 0.  The weights fall
    strictly and end at 0 or above, so every term grows with V[c], and the
    best V[c] is the smallest cap at or after column c (a suffix minimum).
    A last column of weight 0 saves nothing either way and releases
    nothing, which gives the oracle its row-major smallest de-allocations.
    """
    if any(cap < 0 for cap in caps):
        return None
    reach = list(caps)
    for c in range(len(reach) - 2, -1, -1):
        reach[c] = min(reach[c], reach[c + 1])
    if reach and weights[-1] == 0:
        reach[-1] = reach[-2] if len(reach) > 1 else 0
    return [hi - lo for lo, hi in zip([0] + reach, reach)]


def _pick_flat(pick, n, arr_cohorts, xwin, dep_cohorts, ywin):
    """The allocations, de-allocations and flags of a pick as row-major tuples,
    which order candidates of equal cost.

    A pick is (request slots, allocation per slot, release per slot).  The
    windows are nested: an arrival cohort may be covered at the first
    xwin[r] columns, a prefix that grows with the cohort's slot, and column
    k may release the first ywin[k] departure cohorts, a prefix that grows
    with the column.  On such windows a direct fill gives the row-major
    smallest split.  Arrival cohorts, earliest first, are poured into their
    latest columns first; what a cohort leaves lies inside every later
    cohort's window, so no entry could be smaller.  Each column's releases
    come from its latest eligible departure cohort first; a cohort eligible
    at one column stays eligible at every later one, so earlier rows are
    drawn on only when later rows run dry.  The oracle's picks meet Hall's
    condition (arrival mass per column suffix within reach, releases per
    column prefix within the departures), so both fills place everything
    without a feasibility trial.
    """
    slots, u, v = pick
    xflat = [0] * (n * n)
    room = list(u)
    for (i, amount), win in zip(arr_cohorts, xwin):
        for k in range(win - 1, -1, -1):
            take = min(amount, room[k])
            xflat[(i - 1) * n + slots[k] - 1] = take
            room[k] -= take
            amount -= take
    yflat = [0] * (n * n)
    left = [amount for _, amount in dep_cohorts]
    for k, need in enumerate(v):
        for r in range(ywin[k] - 1, -1, -1):
            take = min(need, left[r])
            yflat[(dep_cohorts[r][0] - 1) * n + slots[k] - 1] = take
            left[r] -= take
            need -= take
    rflat = [0] * n
    for j in slots:
        rflat[j - 1] = 1
    return tuple(xflat), tuple(yflat), tuple(rflat)


def lift_schedule(workload: Workload, schedule: Schedule, config: Config) -> SolutionMatrices:
    """Earmark a feasible schedule's capacity to concrete arrivals and departures.

    Arrival cohorts are allocated first-in-first-out to the earliest request
    with gross room that can still cover them; extra gross allocation at a
    request is paired with releases drawn first-in-first-out from departures
    that have happened by the request's effect slot, so reused capacity shows
    up as matched allocation and de-allocation mass at the same request slot.
    A cohort that outlives every such request rides capacity freed by
    departures instead: it is covered at a host request inside its window
    together with an equal release, a zero-net pairing that leaves every
    column sum unchanged.  When no flagged slot falls inside the window, a
    fresh request flag with zero net change is inserted, provided the
    spacing rule leaves a legal slot.  The net change at every request slot
    therefore equals the schedule's change, so the assignment costs exactly
    what the schedule costs and collapses back to the same schedule.

    Raises LiftError when this first-fit earmarking cannot be completed:
    the schedule fails feasibility checking, or reuse of freed capacity
    cannot be expressed because a cohort's window holds no usable host and
    the spacing rule leaves no slot to flag.  With the join threshold at
    least twice the lag minus two, a host slot always exists; narrower
    thresholds combined with lags of four or more can defeat the greedy
    host choice even when a cleverer earmarking would fit.
    """
    _require_matching(workload, config)
    n, delta, theta = config.n, config.delta, config.theta
    s = [int(v) for v in schedule.changes]
    cols = [j for j in range(1, n + 1) if s[j - 1]]
    if any(j > n - delta for j in cols):
        raise LiftError("request past the usable range cannot be earmarked")
    cum_dep = np.concatenate([[0], np.cumsum(workload.departures)])

    cs = []
    running = 0
    for j in cols:
        running += s[j - 1]
        cs.append(running)
    budget = [cs[c] + int(cum_dep[min(cols[c] + delta, n)]) for c in range(len(cols))]
    suffix_cap = list(budget)
    for c in range(len(cols) - 2, -1, -1):
        suffix_cap[c] = min(suffix_cap[c], suffix_cap[c + 1])

    arr_queue = [[i, int(workload.arrivals[i - 1])]
                 for i in range(1, n + 1) if workload.arrivals[i - 1]]
    dep_queue = [[i, int(workload.departures[i - 1])]
                 for i in range(1, n + 1) if workload.departures[i - 1]]
    x = np.zeros((n, n), dtype=np.int64)
    y = np.zeros((n, n), dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    flagged = set(cols)
    di = 0

    def draw_releases(col, amount):
        nonlocal di
        while amount > 0:
            if di >= len(dep_queue) or dep_queue[di][0] > col + delta:
                raise LiftError(
                    f"release at slot {col} has no departed participants to draw on")
            dep_slot, rem = dep_queue[di]
            take = min(rem, amount)
            y[dep_slot - 1, col - 1] += take
            amount -= take
            dep_queue[di][1] -= take
            if dep_queue[di][1] == 0:
                di += 1

    def host_reuse(i, amount):
        hi = min(i + theta - delta, n - delta)
        col = 0
        for j in range(hi, 0, -1):
            if j in flagged or all(abs(j - f) >= delta for f in flagged):
                col = j
                break
        if not col:
            raise LiftError(
                f"arrival cohort at slot {i} rides freed capacity but no request "
                f"flag fits at any slot up to {hi}")
        if col not in flagged:
            flagged.add(col)
            r[col - 1] = 1
        x[i - 1, col - 1] += amount
        draw_releases(col, amount)

    cu = 0
    ai = 0
    for c, j in enumerate(cols):
        while ai < len(arr_queue) and min(arr_queue[ai][0] + theta - delta, n - delta) < j:
            host_reuse(arr_queue[ai][0], arr_queue[ai][1])
            ai += 1
        r[j - 1] = 1
        room = suffix_cap[c] - cu
        assigned = 0
        while assigned < room and ai < len(arr_queue):
            i, rem = arr_queue[ai]
            take = min(rem, room - assigned)
            x[i - 1, j - 1] += take
            assigned += take
            arr_queue[ai][1] -= take
            if arr_queue[ai][1] == 0:
                ai += 1
        gross = assigned + max(0, s[j - 1] - assigned)
        if gross > room:
            raise LiftError(f"request at slot {j} exceeds the earmarking budget")
        if gross > assigned:
            x[n - 1, j - 1] += gross - assigned
        cu += gross
        draw_releases(j, gross - s[j - 1])
    while ai < len(arr_queue):
        host_reuse(arr_queue[ai][0], arr_queue[ai][1])
        ai += 1
    return SolutionMatrices(x, y, r)

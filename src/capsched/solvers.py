"""Capacity planning strategies.

Three planners share the same contract: given a workload and horizon
parameters they return a schedule of capacity changes.

* adaptive_schedule: a look-ahead heuristic that provisions the smallest
  conference size visible inside each scan window, as late as the join
  delay allows.
* greedy_schedule: a fixed-period baseline that re-targets capacity to the
  occupancy peak of the next window.
* exact_oracle: exhaustive search over request placements and allocation
  totals, with releases derived in closed form; exact but restricted to
  tiny instances.

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
    """Minimum-cost assignment by exhaustive search.

    Enumerates request slot placements with the minimum spacing, then the
    allocation totals per column that cover the arrivals exactly (the last
    column takes what remains), cutting a branch only when no completion
    can be feasible.  Releases are derived, not enumerated: each column's
    cap (its departure budget and, where EQ7 and EQ8 are screened, its
    gross allocation, less the next interval's peak load for EQ8) bounds
    the cumulative releases up to it, and the release weight n - j - delta
    falls strictly, so _cheapest_releases prices each allocation at once.
    Ties on cost resolve to the smallest solution in row-major allocation,
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
    check7 = "EQ7" not in skip
    check8 = "EQ8" not in skip

    load = [int(v) for v in mandatory_load(workload, config).values]
    last = n - delta
    arr_cohorts = [(i, v) for i, v in enumerate(workload.arrivals.tolist(), 1) if v]
    dep_cohorts = [(i, v) for i, v in enumerate(workload.departures.tolist(), 1) if v]

    best_cost: Optional[int] = None
    best_key = None  # the allocations, de-allocations and flags of the best pick
    priced = 0

    def check_time() -> None:
        if time.monotonic() > deadline:
            raise OracleLimitError(
                f"time budget {limits.time_budget}s exhausted during search")

    for slots in _request_slot_sets(last, delta):
        check_time()
        m = len(slots)
        weights = [n - j - delta for j in slots]
        # eligible column count per arrival cohort (columns are a prefix)
        xwin = [sum(1 for j in slots if j <= min(i + theta - delta, last))
                for i, _ in arr_cohorts]
        if 0 in xwin:
            continue
        # eligible departure cohort count per column (cohorts are a prefix)
        ywin = [sum(1 for i, _ in dep_cohorts if i <= j + delta) for j in slots]
        dk = [sum(amount for _, amount in dep_cohorts[:h]) for h in ywin]
        # peak mandatory load per equal-cost screen interval
        maxl = []
        for k in range(m + 1):
            lo = slots[k - 1] + delta if k else delta + 1
            hi = slots[k] + delta - 1 if k < m else n
            maxl.append(max(load[lo - 1:hi], default=0))
        if check8 and maxl[0] > 0:
            continue
        # arrival mass that can still be placed at or after column k
        suffix_budget = [sum(amount for (_, amount), win in zip(arr_cohorts, xwin) if win > k)
                         for k in range(m)]
        u_vec = [0] * m

        def price(cu: List[int], cost_u: int) -> None:
            nonlocal best_cost, best_key, priced
            priced += 1
            if priced % 4096 == 0:
                check_time()
            # load peaks are >= 0, so the EQ8 cap implies the EQ7 one
            v_vec = _cheapest_releases(
                [min(b, u - peak) if check8 else min(b, u) if check7 else b
                 for b, u, peak in zip(dk, cu, maxl[1:])], weights)
            if v_vec is None:
                return
            cost = cost_u - sum(v * w for v, w in zip(v_vec, weights))
            if best_cost is not None and cost > best_cost:
                return
            key = _pick_flat((slots, u_vec, v_vec), n, arr_cohorts, xwin,
                             dep_cohorts, ywin)
            if best_cost is None or cost < best_cost:
                best_cost, best_key = cost, key
            elif key < best_key:
                best_key = key

        def search_u(c: int, placed: int, cu: List[int], cost_u: int) -> None:
            if c == m:
                price(cu, cost_u)
                return
            rem = total - placed
            if rem > suffix_budget[c]:
                return
            for u in ([rem] if c == m - 1 else range(rem + 1)):
                u_vec[c] = u
                cu.append((cu[-1] if cu else 0) + u)
                search_u(c + 1, placed + u, cu, cost_u + u * weights[c])
                cu.pop()
                u_vec[c] = 0

        search_u(0, 0, [], 0)

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
    drawn on only when later rows run dry.  The search admits only picks
    that meet Hall's condition (arrival mass per column suffix within
    reach, releases per column prefix within the departures), so both
    fills place everything without a feasibility trial.
    """
    slots, u_vec, v_vec = pick
    xflat = [0] * (n * n)
    room = list(u_vec)
    for (i, amount), win in zip(arr_cohorts, xwin):
        for k in range(win - 1, -1, -1):
            take = min(amount, room[k])
            xflat[(i - 1) * n + slots[k] - 1] = take
            room[k] -= take
            amount -= take
    yflat = [0] * (n * n)
    left = [amount for _, amount in dep_cohorts]
    for k, need in enumerate(v_vec):
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

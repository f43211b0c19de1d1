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

import bisect
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .ilp import SolutionMatrices
from .schedule import Schedule, _raw_trajectory, _require_schedule_span
from .workload import (Config, ConfigurationError, Workload, mandatory_load, occupancy,
                       _require_matching)


class OracleLimitError(RuntimeError):
    """Raised when an instance is too large for exhaustive search."""


class LiftError(RuntimeError):
    """Raised when no assignment of the integer program nets to a schedule."""


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
    each in closed form from the prefixes _prefixes returns: every arrival
    cohort is allocated at the last column of its window, so the cumulative
    allocation at a column is A at the next column (every arrival after the
    last), and the cumulative releases are D within reach of the column,
    capped by that allocation where EQ7 or EQ8 is screened.  EQ8 acts only
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
    n, delta = config.n, config.delta
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

    load = mandatory_load(workload, config).values.tolist()
    arr_cohorts, dep_cohorts, due, freed = _prefixes(workload, config)

    best_cost, best_key = None, None  # best_key: allocations, de-allocations, flags
    for slots in _request_slot_sets(n - delta, delta):
        if time.monotonic() > deadline:
            raise OracleLimitError(f"time budget {limits.time_budget}s exhausted during search")
        m = len(slots)
        first = slots[0] if m else n
        # an arrival whose window ends before the first column, or mandatory
        # load before that column takes effect, cannot be covered
        if due[first] or ("EQ8" not in skip and any(load[delta:first + delta - 1])):
            continue
        # With each cohort at the last column of its window, the cumulative
        # allocation cu[k] = A(c_{k+1}) is the least Hall's condition allows.
        # By parts the cost is the sum of (cu[k] - V[k]) * (c_{k+1} - c_k),
        # c_{m+1} = n - delta, so the cumulative releases V[k] take their caps,
        # D(c_k) and, with EQ7 or EQ8 screened, cu[k]; both rise with k.  The
        # EQ8 cap cu[k] - load[t] over column k's interval never binds: cohorts
        # mandatory at t sit at or before column k, so it is >= the departures
        # through t >= dk[k].  Rows are zero before their last column and a last
        # column at n - delta (weight 0) releases nothing: the tie rule's pick.
        cu = [due[c] for c in slots[1:] + (n,)][:m]
        dk = [freed[min(j + delta, n)] for j in slots]
        reach = [min(d, c) if capped else d for d, c in zip(dk, cu)]
        if m and slots[-1] == n - delta:
            reach[-1] = reach[-2] if m > 1 else 0
        cost = sum((c - r) * (nxt - j)
                   for c, r, j, nxt in zip(cu, reach, slots, slots[1:] + (n - delta,)))
        if best_cost is not None and cost > best_cost:
            continue
        u = [hi - lo for lo, hi in zip([0] + cu, cu)]
        v = [hi - lo for lo, hi in zip([0] + reach, reach)]
        xwin, ywin = _windows(slots, arr_cohorts, dep_cohorts, config)
        key = _pick_flat((slots, u, v), n, arr_cohorts, xwin, dep_cohorts, ywin)
        if best_cost is None or cost < best_cost or key < best_key:
            best_cost, best_key = cost, key

    x, y, r = best_key
    matrices = SolutionMatrices(np.reshape(x, (n, n)), np.reshape(y, (n, n)), np.array(r))
    return matrices, int(best_cost)


def _prefixes(workload: Workload, config: Config):
    """Arrival and departure cohorts, (slot, amount) with amount > 0, and the
    prefixes that price columns: due[c] = A(c), the arrival mass whose window
    end min(i + theta - delta, n - delta) is before slot c (due[n] is every
    arrival), and freed[t], the departures through slot t, so that D(c), the
    departures within reach of column c, is freed[min(c + delta, n)]."""
    n, delta, theta = config.n, config.delta, config.theta
    arr_cohorts = [(i, v) for i, v in enumerate(workload.arrivals.tolist(), 1) if v]
    dep_cohorts = [(i, v) for i, v in enumerate(workload.departures.tolist(), 1) if v]
    ending = [0] * n
    for i, amount in arr_cohorts:
        ending[min(i + theta - delta, n - delta)] += amount
    due = list(itertools.accumulate(ending, initial=0))
    freed = list(itertools.accumulate(workload.departures.tolist(), initial=0))
    return arr_cohorts, dep_cohorts, due, freed


def _windows(cols, arr_cohorts, dep_cohorts, config: Config):
    """_pick_flat's windows over ascending columns: the columns by each arrival
    cohort's window end, and the departure cohorts by each column plus delta."""
    n, delta, theta = config.n, config.delta, config.theta
    xwin = [bisect.bisect_right(cols, min(i + theta - delta, n - delta)) for i, _ in arr_cohorts]
    dep_slots = [i for i, _ in dep_cohorts]
    ywin = [bisect.bisect_right(dep_slots, c + delta) for c in cols]
    return xwin, ywin


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
    drawn on only when later rows run dry.  The picks meet Hall's condition
    (arrival mass per column suffix within reach, releases per column prefix
    within the departures), so both fills place everything without a
    feasibility trial.  Allocation beyond the arrivals (a lifted schedule may
    hold more) goes to rows n, n - 1, ..., at most max(total, 1) per entry.
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
    cap = max(sum(amount for _, amount in arr_cohorts), 1)
    for k, extra in enumerate(room):
        i = n
        while extra:
            cell = (i - 1) * n + slots[k] - 1
            take = min(extra, cap - xflat[cell])
            xflat[cell] += take
            extra -= take
            i -= 1
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
    """Assign a schedule's capacity to concrete arrivals and departures.

    Returns an assignment of the integer program whose columns net to the
    schedule's changes, so it costs what the schedule costs and collapses
    back to it.  Its flags are the requests plus zero-net columns, slots at
    least delta from every other flag that allocate what they release.

    Over columns c_1 < ... < c_m with net capacity C_k the least cumulative
    allocation is U_k = max(A(c_{k+1}), U_{k-1} + (C_k - C_{k-1})+), U_0 = 0,
    with A and D the prefixes of _prefixes (past c_m, A is every arrival).
    The columns carry an assignment iff A(c_1) = 0 and each U_k - C_k is at
    most D(c_k).  A zero-net column never raises U nor breaks that test, so
    one forward pass keeps per slot the least U over valid columns ending
    there, looking back to the last request (or the start) and to slots
    2 * delta - 1 to delta before; ties go to fewer columns, then to the
    later one.  Slot n stands for the end, needing every arrival.
    _pick_flat splits the deltas.

    Raises LiftError exactly when no assignment nets to the schedule: a
    request past n - delta or within delta of another, capacity below zero
    or the mandatory load, a change more than n entries of the EQ10
    coefficient hold, or no valid columns.  check_feasibility can accept a
    schedule that raises: the FIFO simulator admits a cohort into any freed
    capacity, the program only through a zero-net column in its window.
    """
    _require_matching(workload, config)
    _require_schedule_span(schedule, config)
    n, delta = config.n, config.delta
    last = n - delta
    s = schedule.changes.tolist()
    requests = [j for j in range(1, n + 1) if s[j - 1]]
    total = int(workload.arrivals.sum())
    for j, j2 in zip(requests, requests[1:]):
        if j2 - j < delta:
            raise LiftError(f"requests at slots {j} and {j2} are closer than delta={delta}")
    for j in requests:
        if j > last:
            raise LiftError(f"request at slot {j} cannot take effect by slot {n}")
        if s[j - 1] > n * max(total, 1):
            raise LiftError(f"request at slot {j} adds more than n entries of {max(total, 1)} hold")
    cap = _raw_trajectory(schedule, config)
    load = mandatory_load(workload, config).values
    short = np.flatnonzero(cap < load)
    if short.size:
        t = int(short[0])
        raise LiftError(f"capacity {int(cap[t])} at slot {t + 1} is below zero "
                        f"or the mandatory load {int(load[t])}")

    arr_cohorts, dep_cohorts, due, freed = _prefixes(workload, config)
    running = list(itertools.accumulate(s, initial=0))
    # the most U column p may hold, releasing U - C_p; the start (p = 0) holds nothing
    room = [0] + [freed[min(p + delta, n)] + running[p] for p in range(1, last + 1)]
    blocked = set(range(last + 1, n))       # slot n stands for the end of the horizon
    for j in requests:
        blocked.update(range(j - delta + 1, j + delta))

    # best[q] = (U before q plus q's gross increase, columns, predecessor)
    best = [(0, 0, None)] + [None] * n

    def held(p, need):
        # U at column p when the next column needs `need` covered; None if out of room
        u = max(need, best[p][0])
        return u if u <= room[p] else None

    prior = 0
    for q in range(1, n + 1):
        if s[q - 1] or q not in blocked:
            for p in [prior, *range(max(prior + 1, q - 2 * delta + 1), q - delta + 1)]:
                u = held(p, due[q]) if best[p] else None
                key = None if u is None else (u + max(s[q - 1], 0), best[p][1] + 1)
                if key and (best[q] is None or key <= best[q][:2]):
                    best[q] = (*key, p)
        if s[q - 1]:
            prior = q
    if best[n] is None:
        raise LiftError("no request flags cover every arrival within its window "
                        "while releasing only departed capacity")
    end, cols = best[n][2], []
    while end:
        cols.append(end)
        end = best[end][2]
    cols.reverse()
    top = [held(c, due[c_next]) for c, c_next in zip(cols, cols[1:] + [n])]
    u = [hi - lo for lo, hi in zip([0] + top, top)]
    v = [gross - s[c - 1] for gross, c in zip(u, cols)]
    xwin, ywin = _windows(cols, arr_cohorts, dep_cohorts, config)
    x, y, r = _pick_flat((cols, u, v), n, arr_cohorts, xwin, dep_cohorts, ywin)
    return SolutionMatrices(np.reshape(x, (n, n)), np.reshape(y, (n, n)), np.array(r))

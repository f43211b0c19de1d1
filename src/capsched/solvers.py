"""Capacity planning strategies.

Every planner is a row function in _PLANNERS: it maps (rows x n) int64
arrivals and departures to the (rows x n) int64 changes it plans for each
row, and the CLI's solve and compare plan through that table.  Each public
planner is the one-row case of its row function:

* adaptive_schedule (_adaptive_rows): a look-ahead heuristic that provisions
  the smallest conference size visible inside each scan window, as late as
  the join delay allows.
* greedy_schedule (_greedy_rows): a fixed-period baseline that re-targets
  capacity to the occupancy peak of the next window.
* exact_schedule (_exact_rows): the integer program's optimum, by a
  shortest path over request placements priced in closed form, in O(n^2)
  list steps per row.

lift_schedule turns a schedule into the integer program's matrices through
_assign, so an optimal assignment is lift_schedule of exact_schedule's
schedule, and it costs that schedule's resource_cost.  All planners are pure
functions of their inputs.
"""

import bisect
import itertools
import math

import numpy as np

from .ilp import SolutionMatrices
from .schedule import Schedule, _screen, simulate
from .workload import Config, Workload, _require_matching


class LiftError(RuntimeError):
    """Raised when no assignment of the integer program nets to a schedule."""


def _one_row(rows, workload: Workload, config: Config) -> Schedule:
    """The schedule the row function rows plans for one workload."""
    _require_matching(workload, config)
    return Schedule(rows(workload.arrivals[None], workload.departures[None], config)[0])


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

    This is the one-row case of _adaptive_rows, which builds every slot's
    scan result at once from theta - delta + 1 shifted slices of the
    occupancy and then follows the restarts.  Planning costs
    O(n * (theta - delta + 1)) array work after one O(n) occupancy pass, plus
    one Python step per restart, of which there are at most n / delta.
    """
    return _one_row(_adaptive_rows, workload, config)


def _adaptive_rows(arrivals: np.ndarray, departures: np.ndarray, config: Config) -> np.ndarray:
    """adaptive_schedule's changes for every row of a (rows x n) block.

    With occ the rows' occupancy, scanning from slot p + 1 (0-based p) picks
    the latest argmin q of occ over [p + delta, min(p + theta, n - 1)]; the
    plan restarts from slot q + 1, so the restarts of a row form a chain
    through that table, from p = 0 while p < n - delta.  Each link q sets
    capacity to occ[q] by a change at q - delta.
    """
    occ = np.cumsum(arrivals - departures, axis=1)
    rows, n = occ.shape
    delta, theta = config.delta, config.theta
    low = occ[:, delta:].copy()
    # restart[r, p] is the flat index r * n + q of row r's pick from p; the
    # last delta columns are never read
    restart = np.zeros((rows, n), dtype=np.int64)
    restart[:, :n - delta] = np.arange(delta, n)
    for k in range(delta + 1, min(theta, n - 1) + 1):
        # the picks from p < n - k may lie k slots on; later ties win
        better = occ[:, k:] <= low[:, :n - k]
        np.copyto(low[:, :n - k], occ[:, k:], where=better)
        np.copyto(restart[:, :n - k], np.arange(k, n), where=better)
    restart += np.arange(0, rows * n, n)[:, None]

    step = restart.ravel().tolist()
    chain, firsts = [], []
    for start in range(0, rows * n, n):
        firsts.append(len(chain))
        p, stop = start, start + n - delta
        while p < stop:
            p = step[p]
            chain.append(p)
    level = occ.ravel()[chain]
    change = level.copy()
    change[1:] -= level[:-1]
    change[firsts] = level[firsts]
    changes = np.zeros(rows * n, dtype=np.int64)
    changes[np.array(chain, dtype=np.int64) - delta] = change
    return changes.reshape(rows, n)


def greedy_schedule(workload: Workload, config: Config) -> Schedule:
    """Re-target capacity every delta slots to the next window's occupancy peak.

    Ticks run at slots 1, 1 + delta, 1 + 2*delta, ... while the tick still
    has time to take effect (tick <= n - delta).  Each tick sets capacity to
    the maximum occupancy over slots [tick + delta, tick + 2*delta] clipped
    to the horizon, emitting the difference from the current level when it
    is nonzero.  This is the one-row case of _greedy_rows.
    """
    return _one_row(_greedy_rows, workload, config)


def _greedy_rows(arrivals: np.ndarray, departures: np.ndarray, config: Config) -> np.ndarray:
    """greedy_schedule's changes for every row of a (rows x n) block: the
    occupancy's window peaks of all ticks (0-based k * delta) from delta + 1
    shifted slices, each clipped to the ticks whose window reaches it, then
    their differences at the ticks."""
    occ = np.cumsum(arrivals - departures, axis=1)
    rows, n = occ.shape
    delta = config.delta
    target = occ[:, delta::delta].copy()
    for k in range(delta + 1, min(2 * delta, n - 1) + 1):
        reach = occ[:, k::delta]
        np.maximum(target[:, :reach.shape[1]], reach, out=target[:, :reach.shape[1]])
    changes = np.zeros((rows, n), dtype=np.int64)
    changes[:, :n - delta:delta] = np.diff(target, axis=1, prepend=0)
    return changes


def exact_schedule(workload: Workload, config: Config) -> Schedule:
    """The integer program's optimum as a schedule: its resource_cost is the
    optimal cost and its lift an optimal assignment.  This is the one-row
    case of _exact_rows."""
    return _one_row(_exact_rows, workload, config)


def _exact_rows(arrivals: np.ndarray, departures: np.ndarray, config: Config) -> np.ndarray:
    """exact_schedule's changes for every row of a (rows x n) block, one
    _oracle_path per row: each of a path's columns steps capacity from the
    level before it to its own.  The changes gather in one list, made an
    array once."""
    n = config.n
    changes = [0] * (len(arrivals) * n)
    for r, row_arrivals in enumerate(arrivals):
        (cols, levels), _ = _oracle_path(row_arrivals, departures[r], config)
        held = 0
        for c, level in zip(cols, levels):
            changes[r * n + c - 1], held = level - held, level
    return np.array(changes, dtype=np.int64).reshape(len(arrivals), n)


# the planners by name, each a row function; the CLI's solve and compare
# plan through this table, and its order is the CLI's ALGORITHMS
_PLANNERS = {"ads": _adaptive_rows, "greedy": _greedy_rows, "oracle": _exact_rows}


def _oracle_path(arrivals: np.ndarray, departures: np.ndarray, config: Config):
    """exact_schedule's shortest path: the columns, the capacity held from
    each on, and the cost.

    Request slots are columns at least delta apart, up to n - delta.  Every
    arrival cohort is allocated at the last column of its window, so the
    cumulative allocation at a column is A at the next column (every arrival
    after the last), and the cumulative releases are D within reach of the
    column, capped by that allocation; A and D are the prefixes _prefixes
    returns.  Each term of the cost then depends on two consecutive columns
    only, as in Wagner-Whitin lot sizing, so one forward pass over the
    columns, then the end (slot n), keeps per column the best placement
    ending there.  EQ8 acts only by ruling out placements whose first column
    takes effect after a slot with mandatory load, and these already leave
    an arrival window ending before the first column: a cohort mandatory at
    slot t arrived by t - theta, so its window ends by t - delta.  Ties on
    cost go to the row-major smallest allocations, then the smallest flags.
    That is the row-major allocation, de-allocation, flag order of the
    matrices unless the de-allocations alone would break a tie, which no
    instance the tests compare against the full enumeration has shown.  The
    pass takes O(n^2) list steps and builds tie keys only among equal costs.

    The level after column c_k, its allocation less its releases, is
    max(A(c_{k+1}) - D(c_k), 0); a last column at n - delta weighs nothing and
    releases nothing itself (the tie rule's pick), so it holds
    A(n) - min(D(c_{k-1}), A(n - delta)), or A(n) when it is the only column.
    """
    n, delta, theta = config.n, config.delta, config.theta
    arr_cohorts, _, due, freed = _prefixes(arrivals.tolist(), departures.tolist(), config)
    last = n - delta
    ends = [min(i + theta - delta, last) for i, _ in arr_cohorts]
    # reach[p] = D(p) for p <= n - delta; cols[c] are the cheapest columns
    # ending at c, cost[c] their cost (inf if none), 0 the start and n the end
    reach = freed[delta:]
    cost, cols = [0] + [math.inf] * n, [()] + [None] * n

    def tie_key(path):
        # with each cohort at the last column of its window, row-major
        # allocation order is the cohorts' columns, later first, and those
        # of the cohorts whose window ends before path[-1] are fixed by then;
        # the flags order the columns the same way
        return ([-path[bisect.bisect_right(path, e) - 1] for e in ends if e < path[-1]],
                [-j for j in path])

    for c in [*range(1, last + 1), n]:
        # By parts the cost is the sum of (A(c) - V) * (c - p) over consecutive
        # columns p < c, with c = n - delta after the last column, so the
        # cumulative releases V at p take their caps, D(p) and A(c).  The EQ8
        # cap A(c) - load[t] over p's interval never binds: cohorts mandatory
        # at t sit at or before p, so it is >= the departures through t >= D(p).
        need, span = due[c], c if c < n else last
        if not need:    # c may come first, at no cost and with the smallest flags
            cost[c], cols[c] = 0, (c,)
            continue
        low, tied = math.inf, []
        for p in range(1, c - delta + 1):
            here = cost[p]
            if reach[p] < need:
                here += (need - reach[p]) * (span - p)
            if here < low:
                low, tied = here, [p]
            elif here == low:
                tied.append(p)
        if low < math.inf:  # tied lists p ascending
            cost[c], cols[c] = low, (cols[tied[0]] + (c,) if len(tied) == 1 else
                                     min([cols[p] + (c,) for p in tied], key=tie_key))

    picked = list(cols[n][:-1])
    levels = [max(due[c_next] - reach[c], 0) for c, c_next in zip(picked, picked[1:] + [n])]
    if picked and picked[-1] == last:
        levels[-1] = due[n] - (min(reach[picked[-2]], due[last]) if len(picked) > 1 else 0)
    return (picked, levels), cost[n]


def _prefixes(arrivals: list, departures: list, config: Config):
    """Cohorts, (slot, amount) with amount > 0, of the per-slot lists, and the
    prefixes that price columns: due[c] = A(c), the arrival mass whose window
    end min(i + theta - delta, n - delta) is before slot c (due[n] is every
    arrival), and freed[t], the departures through slot t, so that D(c), the
    departures within reach of column c, is freed[min(c + delta, n)]."""
    n, delta, theta = config.n, config.delta, config.theta
    arr_cohorts = [(i, v) for i, v in enumerate(arrivals, 1) if v]
    dep_cohorts = [(i, v) for i, v in enumerate(departures, 1) if v]
    ending = [0] * n
    for i, amount in arr_cohorts:
        ending[min(i + theta - delta, n - delta)] += amount
    due = list(itertools.accumulate(ending, initial=0))
    freed = list(itertools.accumulate(departures, initial=0))
    return arr_cohorts, dep_cohorts, due, freed


def _assign(cols, allocated, released, arr_cohorts, dep_cohorts,
            config: Config) -> SolutionMatrices:
    """The assignment whose request slots are the ascending columns cols, with
    cumulative allocation allocated[k] and cumulative releases released[k] at
    cols[k].

    The windows are nested: an arrival cohort at slot i may be covered at the
    columns up to min(i + theta - delta, n - delta), a prefix that grows with
    the cohort's slot, and a column c may release the departure cohorts up to
    slot c + delta, a prefix that grows with the column.  On such windows a
    direct fill gives the row-major smallest split.  Arrival cohorts, earliest
    first, are poured into their latest columns first; what a cohort leaves
    lies inside every later cohort's window, so no entry could be smaller.
    Each column's releases come from its latest eligible departure cohort
    first; a cohort eligible at one column stays eligible at every later one,
    so earlier rows are drawn on only when later rows run dry.  The callers'
    picks meet Hall's condition (arrival mass per column suffix within reach,
    releases per column prefix within the departures), so both fills place
    everything without a feasibility trial, and each fill stops once its
    cohort or column is placed: the entries it skips stay zero.  Allocation
    beyond the arrivals (a lifted schedule may hold more) goes to rows n,
    n - 1, ..., at most max(total, 1) per entry.
    """
    n, delta, theta = config.n, config.delta, config.theta
    x = np.zeros((n, n), dtype=np.int64)
    y = np.zeros((n, n), dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    room = [hi - lo for lo, hi in zip([0, *allocated], allocated)]
    for i, amount in arr_cohorts:
        for k in reversed(range(bisect.bisect_right(cols, min(i + theta - delta, n - delta)))):
            if not amount:
                break
            take = min(amount, room[k])
            x[i - 1, cols[k] - 1] = take
            room[k] -= take
            amount -= take
    cap = max(sum(amount for _, amount in arr_cohorts), 1)
    for c, extra in zip(cols, room):
        i = n
        while extra:
            take = min(extra, cap - int(x[i - 1, c - 1]))
            x[i - 1, c - 1] += take
            extra -= take
            i -= 1
    dep_slots = [i for i, _ in dep_cohorts]
    left = [amount for _, amount in dep_cohorts]
    for c, lo, hi in zip(cols, [0, *released], released):
        need = hi - lo
        for k in reversed(range(bisect.bisect_right(dep_slots, c + delta))):
            if not need:
                break
            take = min(need, left[k])
            y[dep_slots[k] - 1, c - 1] = take
            left[k] -= take
            need -= take
    r[[c - 1 for c in cols]] = 1
    return SolutionMatrices(x, y, r)


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
    _assign splits each column's allocation and releases over the cohorts.

    Raises LiftError exactly when no assignment nets to the schedule: on the
    first violation of check_feasibility's structural screen (a request past
    n - delta or within delta of another, capacity below zero or the
    mandatory load), carrying that violation's line; on a change more than
    n entries of the EQ10 coefficient hold; or when no valid columns exist.
    check_feasibility accepts some schedules that raise: it admits a cohort
    into any freed capacity, the program only through a zero-net column in
    its window, and it caps no change at n EQ10 coefficients.
    """
    screen = _screen(schedule.changes, config, simulate(workload, schedule, config))
    if screen:
        raise LiftError(screen[0].render())
    n, delta = config.n, config.delta
    last = n - delta
    s = schedule.changes.tolist()
    requests = [j for j in range(1, n + 1) if s[j - 1]]
    total = int(workload.arrivals.sum())
    for j in requests:
        if s[j - 1] > n * max(total, 1):
            raise LiftError(f"request at slot {j} adds more than n entries of {max(total, 1)} hold")

    arr_cohorts, dep_cohorts, due, freed = _prefixes(workload.arrivals.tolist(),
                                                     workload.departures.tolist(), config)
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
    # every request is a column, so C_k = running[c_k] and V_k = U_k - C_k
    return _assign(cols, top, [u - running[c] for u, c in zip(top, cols)],
                   arr_cohorts, dep_cohorts, config)

"""A reference copy of the exact oracle: the original enumeration of every
request slot set, allocation vector and release vector, shared by the
solver tests and the acceptance gate.  It returns the optimum's matrices,
which exact_schedule's schedule must collapse from, and unlike
exact_schedule it can drop the EQ7 and EQ8 screens, which gives the relaxed
optima those tests compare.  It also keeps the oracle's shortest path as it
first priced the columns, and the schedule the oracle took from that path's
matrices."""

import bisect
import itertools

from capsched import mandatory_load, matrices_to_schedule
from capsched import solvers

# the enumeration is exponential in both; it refuses larger instances
ENUMERATION_MAX_N = 10
ENUMERATION_MAX_PARTICIPANTS = 8


def _request_slot_sets(last_slot, delta):
    """Every ascending tuple from 1..last_slot with pairwise gaps >= delta."""
    out = []

    def grow(start, acc):
        out.append(tuple(acc))
        for j in range(start, last_slot + 1):
            acc.append(j)
            grow(j + delta, acc)
            acc.pop()

    grow(1, [])
    return out


class _NoAssignment(RuntimeError):
    """Raised by the reference search when nothing meets its constraints."""


class _TooLarge(RuntimeError):
    """Raised by the reference search beyond its size guard."""


def _reference_optimum(workload, config, skip_families=()):
    """Reference oracle: the original search, which enumerates every request
    slot set, every release vector within the caps under each allocation
    vector, and every allocation total for the last column too.  Instances
    beyond its size guard raise _TooLarge."""
    n, delta, theta = config.n, config.delta, config.theta
    total = int(workload.arrivals.sum())
    if n > ENUMERATION_MAX_N or total > ENUMERATION_MAX_PARTICIPANTS:
        raise _TooLarge(f"n={n} with {total} participants is beyond the enumeration")
    check7 = "EQ7" not in set(skip_families)
    check8 = "EQ8" not in set(skip_families)
    a = [int(v) for v in workload.arrivals]
    d = [int(v) for v in workload.departures]
    load = [int(v) for v in mandatory_load(workload, config)]
    last = n - delta
    weight = [n - j - delta for j in range(1, n + 1)]
    arr_cohorts = [(i, a[i - 1]) for i in range(1, n + 1) if a[i - 1]]
    dep_cohorts = [(i, d[i - 1]) for i in range(1, n + 1) if d[i - 1]]
    best = {}

    for slots in _request_slot_sets(last, delta):
        m = len(slots)
        xwin = [sum(1 for j in slots if j <= min(i + theta - delta, last))
                for i, _ in arr_cohorts]
        if 0 in xwin:
            continue
        ywin = [sum(1 for i, _ in dep_cohorts if i <= j + delta) for j in slots]
        dk = [sum(amount for _, amount in dep_cohorts[:h]) for h in ywin]
        maxl = []
        for k in range(m + 1):
            lo = slots[k - 1] + delta if k else delta + 1
            hi = min(slots[k] + delta - 1 if k < m else n, n)
            maxl.append(max([load[j - 1] for j in range(lo, hi + 1)], default=0))
        if check8 and maxl[0] > 0:
            continue
        suffix_budget = [sum(amount for (_, amount), win in zip(arr_cohorts, xwin)
                             if win >= k + 1) for k in range(m)]
        v_vec = [0] * m

        def search_v(c, cu, cv_prev, gain, cost_u):
            if c == m:
                cost = cost_u - gain
                if "cost" in best and cost > best["cost"]:
                    return
                matrices = solvers._assign(slots, cu, list(itertools.accumulate(v_vec)),
                                           arr_cohorts, dep_cohorts, config)
                key = tuple(tuple(a.ravel().tolist()) for a in (
                    matrices.allocations, matrices.deallocations, matrices.requests))
                if "cost" not in best or cost < best["cost"] or key < best["key"]:
                    best.update(cost=cost, key=key, matrices=matrices)
                return
            ub = dk[c] - cv_prev
            if check7:
                ub = min(ub, cu[c] - cv_prev)
            if check8:
                ub = min(ub, cu[c] - maxl[c + 1] - cv_prev)
            for v in range(ub + 1):
                v_vec[c] = v
                search_v(c + 1, cu, cv_prev + v, gain + v * weight[slots[c] - 1], cost_u)
                v_vec[c] = 0

        def search_u(c, placed, cu, cost_u):
            if c == m:
                if placed == total:
                    search_v(0, cu, 0, 0, cost_u)
                return
            rem = total - placed
            if rem > suffix_budget[c]:
                return
            for u in range(rem + 1):
                cu.append((cu[-1] if cu else 0) + u)
                search_u(c + 1, placed + u, cu, cost_u + u * weight[slots[c] - 1])
                cu.pop()

        search_u(0, 0, [], 0)

    if "key" not in best:
        raise _NoAssignment("no feasible assignment exists for this workload")
    return best["matrices"], best["cost"]


def _reference_oracle_path(arrivals, departures, config):
    """solvers._oracle_path as it first priced the columns, kept verbatim but
    for its module references: each candidate's releases through a closure,
    a (cost, columns) tuple per column, every option listed, and tie_key
    called on every option tied at the minimum.  The tests pin the
    flat-list pass to it, ties included, at any n."""
    n, delta, theta = config.n, config.delta, config.theta
    arr_cohorts, dep_cohorts, due, freed = solvers._prefixes(arrivals.tolist(), departures.tolist(), config)
    last = n - delta
    ends = [min(i + theta - delta, last) for i, _ in arr_cohorts]
    # best[c] = (cost, columns) of the cheapest columns ending at c, where
    # column 0 stands for the start and column n for the end of the horizon
    best = [(0, ())] + [None] * n

    def released(p, c):
        # the cumulative releases at column p when column c comes next
        return min(freed[min(p + delta, n)], due[c])

    def tie_key(cols):
        # with each cohort at the last column of its window, row-major
        # allocation order is the cohorts' columns, later first, and those
        # of the cohorts whose window ends before cols[-1] are fixed by then;
        # the flags order the columns the same way
        return ([-cols[bisect.bisect_right(cols, e) - 1] for e in ends if e < cols[-1]],
                [-j for j in cols])

    for c in [*range(1, last + 1), n]:
        # c may come first unless an arrival's window ends before it
        first = not due[c]
        options = [(0, 0)] if first else []
        # By parts the cost is the sum of (A(c) - V) * (c - p) over consecutive
        # columns p < c, with c = n - delta after the last column, so the
        # cumulative releases V at p take their caps, D(p) and A(c).  The EQ8
        # cap A(c) - load[t] over p's interval never binds: cohorts mandatory
        # at t sit at or before p, so it is >= the departures through t >= D(p).
        options += [(best[p][0] + (due[c] - released(p, c)) * (min(c, last) - p), p)
                    for p in range(1, min(c - delta, last) + 1) if best[p]]
        if options:
            low = min(options)[0]
            tied = [best[p][1] + (c,) for cost, p in options if cost == low]
            best[c] = (low, min(tied, key=tie_key))

    cols = list(best[n][1][:-1])
    following = cols[1:] + [n]
    reach = [released(c, c_next) for c, c_next in zip(cols, following)]
    # rows are zero before their last column and a last column at n - delta
    # (weight 0) releases nothing: the tie rule's pick
    if cols and cols[-1] == last:
        reach[-1] = reach[-2] if len(cols) > 1 else 0
    return (cols, [due[c] for c in following], reach, arr_cohorts, dep_cohorts), int(best[n][0])


def _reference_oracle_schedule(workload, config):
    """The oracle's schedule as it was first taken: _assign's matrices on the
    reference pass's columns, allocations and releases, collapsed."""
    picks, _ = _reference_oracle_path(workload.arrivals, workload.departures, config)
    return matrices_to_schedule(solvers._assign(*picks, config), config)

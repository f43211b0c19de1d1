import functools
import itertools
import math
import time
from statistics import median
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capsched import (
    Config,
    ConfigurationError,
    LiftError,
    OracleInfeasibleError,
    OracleLimitError,
    OracleLimits,
    ScenarioParams,
    Schedule,
    SolutionMatrices,
    Workload,
    adaptive_schedule,
    check_feasibility,
    evaluate,
    exact_oracle,
    generate_workload,
    greedy_schedule,
    lift_schedule,
    mandatory_load,
    matrices_to_schedule,
    objective_value,
    resource_cost,
    simulate,
    validate_solution,
)
from capsched import solvers


def _quadratic_adaptive_changes(workload, config):
    """Reference ads planner: the original scan, which re-sums a - d from
    slot 1 for every candidate effect slot."""
    n, delta, theta = config.n, config.delta, config.theta
    a, d = workload.arrivals, workload.departures
    changes = [0] * n
    old_size = 0
    i = 1
    while i + delta <= n:
        min_size = math.inf
        best_t = 0
        for t in range(i + delta, min(i + theta, n) + 1):
            total_size = 0
            for p in range(1, t + 1):
                total_size += int(a[p - 1]) - int(d[p - 1])
            if min_size >= total_size:
                min_size = total_size
                best_t = t - delta
        new_size = int(min_size)
        if new_size != old_size:
            changes[best_t - 1] = new_size - old_size
        old_size = new_size
        i = best_t + delta
    return changes


def _column_hall_ok(demands, supplies):
    """Reference Hall check: demands per column; supplies as (amount,
    eligible column list); checks every nonempty column subset."""
    m = len(demands)
    for mask in range(1, 1 << m):
        need = 0
        for k in range(m):
            if mask >> k & 1:
                need += demands[k]
        if need == 0:
            continue
        have = 0
        for amount, cols in supplies:
            if any(mask >> k & 1 for k in cols):
                have += amount
        if need > have:
            return False
    return True


def _lexmin_transport(rows, demands, exact):
    """Reference split of column demands over supply rows: each entry in
    row-major order takes the smallest value that leaves the rest feasible.

    rows are (row index, amount, eligible columns); exact means every
    supply must be fully placed (amounts and demands then balance).
    """
    rem_demand = list(demands)
    rem_supply = [amount for _, amount, _ in rows]
    assign = {}
    for pos, (row, _, cols) in enumerate(rows):
        for ci, col in enumerate(cols):
            ub = min(rem_supply[pos], rem_demand[col])
            chosen = None
            for v in range(0, ub + 1):
                rest = []
                leftover = rem_supply[pos] - v
                if leftover:
                    rest.append((leftover, cols[ci + 1:]))
                for later_pos in range(pos + 1, len(rows)):
                    rest.append((rem_supply[later_pos], rows[later_pos][2]))
                trial = list(rem_demand)
                trial[col] -= v
                if exact and sum(amt for amt, _ in rest) != sum(trial):
                    continue
                if exact and rest and any(not cs for amt, cs in rest if amt):
                    # a supply with nowhere to go can never be placed
                    continue
                if _column_hall_ok(trial, rest):
                    chosen = v
                    break
            if chosen is None:
                raise OracleInfeasibleError("no transport decomposition exists")
            if chosen:
                assign[(row, col)] = chosen
                rem_supply[pos] -= chosen
                rem_demand[col] -= chosen
    return assign


def _transport_split(pick, n, xrows, yrows):
    """Reference allocations and de-allocations of a pick as row-major
    tuples, each split by _lexmin_transport over the given rows."""
    slots, u_vec, v_vec = pick
    flats = []
    for rows, demands, exact in ((xrows, u_vec, True), (yrows, v_vec, False)):
        flat = [0] * (n * n)
        for (i, k), amt in _lexmin_transport(rows, demands, exact).items():
            flat[(i - 1) * n + slots[k] - 1] = amt
        flats.append(tuple(flat))
    return tuple(flats)


def _reference_pick_flat(config, pick, n, arr_cohorts, xwin, dep_cohorts, ywin):
    """Drop-in for solvers._pick_flat that ignores the windows it is given,
    derives each cohort's eligible columns from the config, and splits the
    pick with _lexmin_transport."""
    slots = pick[0]
    delta, theta = config.delta, config.theta
    xrows = [(i, amount, [k for k, j in enumerate(slots)
                          if j <= min(i + theta - delta, n - delta)])
             for i, amount in arr_cohorts]
    yrows = [(i, amount, [k for k, j in enumerate(slots) if j >= max(i - delta, 1)])
             for i, amount in dep_cohorts]
    rflat = tuple(int(j in slots) for j in range(1, n + 1))
    return (*_transport_split(pick, n, xrows, yrows), rflat)


def _reference_exact_oracle(workload, config, limits=None, skip_families=()):
    """Reference oracle: the original search, which enumerates every release
    vector within the caps under each allocation vector, and every
    allocation total for the last column too."""
    limits = limits if limits is not None else OracleLimits()
    n, delta, theta = config.n, config.delta, config.theta
    total = int(workload.arrivals.sum())
    if n > limits.max_n:
        raise OracleLimitError(f"n={n} exceeds the search limit max_n={limits.max_n}")
    if total > limits.max_total_participants:
        raise OracleLimitError(
            f"{total} participants exceed the search limit "
            f"max_total_participants={limits.max_total_participants}")
    check7 = "EQ7" not in set(skip_families)
    check8 = "EQ8" not in set(skip_families)
    a = [int(v) for v in workload.arrivals]
    d = [int(v) for v in workload.departures]
    load = [int(v) for v in mandatory_load(workload, config).values]
    last = n - delta
    weight = [n - j - delta for j in range(1, n + 1)]
    arr_cohorts = [(i, a[i - 1]) for i in range(1, n + 1) if a[i - 1]]
    dep_cohorts = [(i, d[i - 1]) for i in range(1, n + 1) if d[i - 1]]
    best = {}

    for slots in solvers._request_slot_sets(last, delta):
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
        u_vec = [0] * m
        v_vec = [0] * m

        def search_v(c, cu, cv_prev, gain, cost_u):
            if c == m:
                cost = cost_u - gain
                if "cost" in best and cost > best["cost"]:
                    return
                key = solvers._pick_flat((slots, u_vec, v_vec), n, arr_cohorts,
                                         xwin, dep_cohorts, ywin)
                if "cost" not in best or cost < best["cost"] or key < best["key"]:
                    best.update(cost=cost, key=key)
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
                u_vec[c] = u
                cu.append((cu[-1] if cu else 0) + u)
                search_u(c + 1, placed + u, cu, cost_u + u * weight[slots[c] - 1])
                cu.pop()
                u_vec[c] = 0

        search_u(0, 0, [], 0)

    if "key" not in best:
        raise OracleInfeasibleError("no feasible assignment exists for this workload")
    x, y, r = best["key"]
    matrices = SolutionMatrices(np.reshape(x, (n, n)), np.reshape(y, (n, n)), np.array(r))
    return matrices, best["cost"]


def _oracle_outcome(oracle, workload, config, skip_families):
    """Cost and the three matrices as lists, or the error type and message."""
    try:
        matrices, cost = oracle(workload, config, skip_families=skip_families)
    except (OracleInfeasibleError, OracleLimitError) as exc:
        return type(exc), str(exc)
    return (cost, matrices.allocations.tolist(), matrices.deallocations.tolist(),
            matrices.requests.tolist())


SKIP_SETTINGS = [(), ("EQ8",), ("EQ7",), ("EQ7", "EQ8")]


def _workload_from_levels(levels):
    """Workload whose occupancy at the end of slot k is levels[k]."""
    steps = np.diff(np.asarray([0] + list(levels), dtype=np.int64))
    return Workload(arrivals=np.maximum(steps, 0),
                    departures=np.maximum(-steps, 0))


class TestAdaptive:
    def test_reference_trace(self, ref_config, ref_workload):
        s = adaptive_schedule(ref_workload, ref_config)
        assert s.changes.tolist() == [0, 3, 0, 0, -2, 0, 0, 0]
        assert resource_cost(s, ref_config) == 10

    def test_tie_breaks_toward_the_later_slot(self, ref_config):
        # constant size over the scan window: the later effect slot wins,
        # postponing provisioning by one slot and saving one weight unit
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        s = adaptive_schedule(wl, ref_config)
        assert s.changes.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]
        assert resource_cost(s, ref_config) == 4

    def test_empty_workload_plans_nothing(self, ref_config):
        wl = Workload(arrivals=np.zeros(8, dtype=int),
                      departures=np.zeros(8, dtype=int))
        assert not adaptive_schedule(wl, ref_config).changes.any()

    def test_zero_diff_is_not_a_request(self):
        cfg = Config(n=12, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(12, dtype=int))
        s = adaptive_schedule(wl, cfg)
        assert np.count_nonzero(s.changes) == 1

    @pytest.mark.parametrize("levels", [
        [0, 3, 3, 3, 3, 3, 3, 3],        # flat after the first slot
        [2, 2, 1, 1, 1, 1, 2, 2],        # minimum held across a window
        [0, 0, 2, 2, 1, 1, 1, 1],        # two short plateaus
        [5, 5, 5, 5, 0, 0, 0, 0],        # drop to an empty plateau
    ])
    def test_plateau_ties_match_the_quadratic_scan(self, ref_config, levels):
        wl = _workload_from_levels(levels)
        s = adaptive_schedule(wl, ref_config)
        assert s.changes.tolist() == _quadratic_adaptive_changes(wl, ref_config)

    @given(seed=st.integers(0, 10 ** 6), amplitude=st.integers(0, 60),
           plateau=st.floats(0.0, 1.0), n=st.integers(3, 90),
           delta=st.integers(2, 6), spread=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_quadratic_scan(self, seed, amplitude, plateau, n,
                                        delta, spread):
        assume(delta + spread <= n)
        cfg = Config(n=n, delta=delta, theta=delta + spread)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              plateau_fraction=plateau,
                                              seed=seed), cfg)
        s = adaptive_schedule(wl, cfg)
        assert s.changes.tolist() == _quadratic_adaptive_changes(wl, cfg)

    @given(levels=st.lists(st.integers(0, 3), min_size=3, max_size=60),
           delta=st.integers(2, 4), spread=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_tied_levels_match_the_quadratic_scan(self, levels, delta, spread):
        # few distinct occupancy levels, so windows often hold tied minima
        assume(delta + spread <= len(levels))
        cfg = Config(n=len(levels), delta=delta, theta=delta + spread)
        wl = _workload_from_levels(levels)
        s = adaptive_schedule(wl, cfg)
        assert s.changes.tolist() == _quadratic_adaptive_changes(wl, cfg)

    def test_long_horizon_plans_in_linear_time(self):
        # the quadratic scan took about ten seconds here
        cfg = Config(n=10_000, delta=3, theta=4)
        wl = generate_workload(ScenarioParams(name="mmog", amplitude=1500,
                                              seed=0), cfg)
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            adaptive_schedule(wl, cfg)
            samples.append(time.perf_counter() - start)
        assert median(samples) < 0.050


class TestGreedy:
    def test_reference_trace(self, ref_config, ref_workload):
        s = greedy_schedule(ref_workload, ref_config)
        assert s.changes.tolist() == [3, 0, -2, 0, 0, 0, 0, 0]
        assert resource_cost(s, ref_config) == 9

    def test_single_arrival(self, ref_config):
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        s = greedy_schedule(wl, ref_config)
        assert s.changes.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert resource_cost(s, ref_config) == 5

    def test_ticks_respect_spacing(self):
        cfg = Config(n=20, delta=3, theta=4)
        wl = generate_workload(ScenarioParams(name="t", amplitude=8, seed=5), cfg)
        s = greedy_schedule(wl, cfg)
        hot = np.nonzero(s.changes)[0] + 1
        assert all(b - a >= cfg.delta for a, b in zip(hot, hot[1:]))
        assert all(j <= cfg.n - cfg.delta for j in hot)


class TestOracle:
    def test_reference_witness(self, ref_config, ref_workload):
        matrices, cost = exact_oracle(ref_workload, ref_config)
        assert cost == 6
        assert matrices.allocations[0, 1] == 2
        assert matrices.allocations[2, 3] == 1
        assert int(matrices.allocations.sum()) == 3
        assert matrices.deallocations[4, 3] == 2
        assert int(matrices.deallocations.sum()) == 2
        assert matrices.requests.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]
        assert validate_solution(matrices, ref_workload, ref_config) == []
        assert objective_value(matrices, ref_config) == 6

    def test_empty_workload_costs_nothing(self, ref_config):
        wl = Workload(arrivals=np.zeros(8, dtype=int),
                      departures=np.zeros(8, dtype=int))
        matrices, cost = exact_oracle(wl, ref_config)
        assert cost == 0
        assert not matrices.requests.any()

    def test_refuses_wide_horizon(self):
        cfg = Config(n=12, delta=2, theta=3)
        wl = Workload(arrivals=np.zeros(12, dtype=int),
                      departures=np.zeros(12, dtype=int))
        with pytest.raises(OracleLimitError, match="max_n"):
            exact_oracle(wl, cfg)

    def test_refuses_heavy_workload(self, ref_config):
        wl = Workload(arrivals=np.array([9, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        with pytest.raises(OracleLimitError, match="participants"):
            exact_oracle(wl, ref_config)

    def test_refuses_when_time_is_up(self, ref_config, ref_workload):
        with pytest.raises(OracleLimitError, match="time budget"):
            exact_oracle(ref_workload, ref_config,
                         OracleLimits(time_budget=0.0))

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_unusable_time_budget_is_rejected(self, budget):
        with pytest.raises(ConfigurationError, match="time_budget"):
            OracleLimits(time_budget=budget)

    def test_zero_and_infinite_time_budgets_are_valid(self, ref_config, ref_workload):
        assert OracleLimits(time_budget=0.0).time_budget == 0.0
        _, cost = exact_oracle(ref_workload, ref_config,
                               OracleLimits(time_budget=math.inf))
        assert cost == 6

    def test_deterministic(self, ref_config, ref_workload):
        a, cost_a = exact_oracle(ref_workload, ref_config)
        b, cost_b = exact_oracle(ref_workload, ref_config)
        assert cost_a == cost_b
        assert np.array_equal(a.allocations, b.allocations)
        assert np.array_equal(a.deallocations, b.deallocations)
        assert np.array_equal(a.requests, b.requests)

    def test_dominates_heuristics_on_small_instances(self):
        cfg = Config(n=8, delta=2, theta=3)
        checked = 0
        for seed in range(30):
            wl = generate_workload(ScenarioParams(name="t", amplitude=2,
                                                  seed=seed), cfg)
            if not 1 <= int(wl.arrivals.sum()) <= 6:
                continue
            matrices, cost = exact_oracle(wl, cfg)
            assert validate_solution(matrices, wl, cfg) == []
            assert cost <= resource_cost(adaptive_schedule(wl, cfg), cfg)
            assert cost <= resource_cost(greedy_schedule(wl, cfg), cfg)
            checked += 1
        assert checked >= 10

    def test_relaxed_screen_can_only_lower_cost(self, ref_config, ref_workload):
        _, full = exact_oracle(ref_workload, ref_config)
        relaxed_matrices, relaxed = exact_oracle(ref_workload, ref_config,
                                                 skip_families={"EQ8"})
        assert relaxed <= full
        held = validate_solution(relaxed_matrices, ref_workload, ref_config,
                                 skip_families={"EQ8"})
        assert held == []

    def test_oracle_schedule_is_feasible(self, ref_config, ref_workload):
        matrices, _ = exact_oracle(ref_workload, ref_config)
        schedule = matrices_to_schedule(matrices, ref_config)
        assert check_feasibility(ref_workload, schedule, ref_config) == []

    def test_ilp_admits_what_the_simulator_overcommits(self, ref_config):
        # the integer program covers the slot-5 cohort with x_5_6, which
        # takes effect at slot 8 (a wait of theta), and releases the freed
        # capacity through y_5_4; the FIFO simulator admits that cohort at
        # slot 5 into the capacity about to be released, so the drop at
        # slot 6 leaves it overcommitted; nobody departs while waiting
        wl = Workload(arrivals=np.array([2, 0, 0, 0, 2, 0, 0, 0]),
                      departures=np.array([0, 0, 0, 0, 2, 0, 0, 0]))
        matrices, cost = exact_oracle(wl, ref_config)
        assert cost == 4
        assert validate_solution(matrices, wl, ref_config) == []
        assert matrices.allocations[4, 5] == 2
        assert matrices.deallocations[4, 3] == 2
        schedule = matrices_to_schedule(matrices, ref_config)
        assert schedule.changes.tolist() == [0, 2, 0, -2, 0, 2, 0, 0]
        violations = check_feasibility(wl, schedule, ref_config)
        assert [(v.kind, v.slot) for v in violations] == [
            ("capacity_below_occupancy", 6), ("capacity_below_occupancy", 7)]
        report = simulate(wl, schedule, ref_config)
        assert report.departed_waiting == {}
        assert report.admissions[5] == [(2, 5)]


class TestOracleSplit:
    @given(data=st.data(), m=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_fills_match_the_lexmin_transport(self, data, m):
        # arrival windows are column prefixes that grow with the cohort;
        # departure windows are cohort prefixes that grow with the column
        slots = tuple(range(1, m + 1))
        xwin = sorted(data.draw(st.lists(st.integers(1, m), max_size=6), label="xwin"))
        amounts = data.draw(st.lists(st.integers(1, 3), min_size=len(xwin),
                                     max_size=len(xwin)), label="arrivals")
        u_vec = [0] * m
        for win, amount in zip(xwin, amounts):
            for _ in range(amount):
                u_vec[data.draw(st.integers(0, win - 1))] += 1
        n_dep = data.draw(st.integers(0, 6), label="departure cohorts")
        dep_amounts = data.draw(st.lists(st.integers(1, 3), min_size=n_dep,
                                         max_size=n_dep), label="departures")
        ywin = sorted(data.draw(st.lists(st.integers(0, n_dep), min_size=m,
                                         max_size=m), label="ywin"))
        v_vec = [0] * m
        for r, amount in enumerate(dep_amounts):
            cols = [k for k in range(m) if r < ywin[k]]
            if cols:
                for _ in range(data.draw(st.integers(0, amount))):
                    v_vec[data.draw(st.sampled_from(cols))] += 1
        n = max(m, len(xwin), n_dep)
        arr_cohorts = [(i + 1, amount) for i, amount in enumerate(amounts)]
        dep_cohorts = [(i + 1, amount) for i, amount in enumerate(dep_amounts)]

        pick = (slots, u_vec, v_vec)
        xflat, yflat, rflat = solvers._pick_flat(pick, n, arr_cohorts, xwin,
                                                 dep_cohorts, ywin)
        xrows = [(i, amount, list(range(win)))
                 for (i, amount), win in zip(arr_cohorts, xwin)]
        yrows = [(i, amount, [k for k in range(m) if r < ywin[k]])
                 for r, (i, amount) in enumerate(dep_cohorts)]
        assert (xflat, yflat) == _transport_split(pick, n, xrows, yrows)
        assert rflat == tuple([1] * m + [0] * (n - m))

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 10),
           delta=st.integers(2, 4), spread=st.integers(1, 3),
           amplitude=st.integers(1, 4), plateau=st.sampled_from([0.0, 0.3, 0.6]),
           skip=st.sampled_from([(), ("EQ8",), ("EQ7",), ("EQ7", "EQ8")]))
    @settings(max_examples=60, deadline=None)
    def test_oracle_output_matches_the_transport_split(self, seed, n, delta,
                                                       spread, amplitude,
                                                       plateau, skip):
        assume(delta + spread <= n)
        cfg = Config(n=n, delta=delta, theta=delta + spread)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              plateau_fraction=plateau,
                                              seed=seed), cfg)
        assume(int(wl.arrivals.sum()) <= OracleLimits().max_total_participants)

        def solve():
            try:
                return exact_oracle(wl, cfg, skip_families=skip)
            except OracleInfeasibleError:
                return None

        got = solve()
        with mock.patch.object(solvers, "_pick_flat",
                               functools.partial(_reference_pick_flat, cfg)):
            want = solve()
        if want is None:
            assert got is None
            return
        assert got is not None and got[1] == want[1]
        for name in ("allocations", "deallocations", "requests"):
            assert np.array_equal(getattr(got[0], name), getattr(want[0], name))


class TestOracleReleases:
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 10),
           delta=st.integers(2, 4), spread=st.integers(1, 4),
           amplitude=st.integers(1, 4), plateau=st.sampled_from([0.0, 0.3, 0.6]),
           skip=st.sampled_from(SKIP_SETTINGS))
    @settings(max_examples=120, deadline=None)
    def test_generated_workloads_match_the_release_search(self, seed, n, delta,
                                                          spread, amplitude,
                                                          plateau, skip):
        assume(delta + spread <= n)
        cfg = Config(n=n, delta=delta, theta=delta + spread)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              plateau_fraction=plateau,
                                              seed=seed), cfg)
        assume(int(wl.arrivals.sum()) <= OracleLimits().max_total_participants)
        assert (_oracle_outcome(exact_oracle, wl, cfg, skip)
                == _oracle_outcome(_reference_exact_oracle, wl, cfg, skip))

    @given(data=st.data(), n=st.integers(3, 10), skip=st.sampled_from(SKIP_SETTINGS))
    @settings(max_examples=120, deadline=None)
    def test_drawn_workloads_match_the_release_search(self, data, n, skip):
        # departures anywhere in the horizon, not only in a decay phase
        delta = data.draw(st.integers(2, min(4, n - 1)), label="delta")
        theta = data.draw(st.integers(delta + 1, n), label="theta")
        arrivals = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                             .filter(lambda a: sum(a) <= 8), label="arrivals")
        departures = []
        present = 0
        for joined in arrivals:
            present += joined
            departures.append(data.draw(st.integers(0, present)))
            present -= departures[-1]
        cfg = Config(n=n, delta=delta, theta=theta)
        wl = Workload(arrivals=np.array(arrivals), departures=np.array(departures))
        assert (_oracle_outcome(exact_oracle, wl, cfg, skip)
                == _oracle_outcome(_reference_exact_oracle, wl, cfg, skip))

    @given(caps=st.lists(st.integers(-1, 4), max_size=5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cheapest_releases_match_brute_force(self, caps, data):
        # the caps here may fall and go negative, which the oracle's never do
        weights = sorted(data.draw(st.sets(st.integers(0, 9), min_size=len(caps),
                                           max_size=len(caps))), reverse=True)
        best = None
        for v in itertools.product(range(5), repeat=len(caps)):
            if all(sum(v[:c + 1]) <= cap for c, cap in enumerate(caps)):
                rank = (-sum(r * w for r, w in zip(v, weights)), sum(v))
                if best is None or rank < best[0]:
                    best = (rank, list(v))
        want = None if best is None else best[1]
        assert solvers._cheapest_releases(caps, weights) == want

    def test_zero_weight_last_column_releases_nothing(self):
        # the request at slot n - delta costs nothing either way; releasing
        # the departure there would tie on cost with a larger y
        cfg = Config(n=4, delta=2, theta=3)
        wl = Workload(arrivals=np.array([0, 0, 0, 1]), departures=np.array([0, 0, 0, 1]))
        matrices, cost = exact_oracle(wl, cfg)
        assert cost == 0
        assert matrices_to_schedule(matrices, cfg).changes.tolist() == [0, 1, 0, 0]
        assert not matrices.deallocations.any()

    def test_releases_are_priced_not_searched(self):
        # the release search visited 278 272 leaves here and took about 0.3 s
        cfg = Config(n=10, delta=2, theta=8)
        wl = Workload(arrivals=np.array([0, 3, 2, 2, 1, 0, 0, 0, 0, 0]),
                      departures=np.array([0, 2, 3, 2, 1, 0, 0, 0, 0, 0]))
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            exact_oracle(wl, cfg)
            samples.append(time.perf_counter() - start)
        assert median(samples) < 0.15


class TestLift:
    def test_reference_lifts_preserve_cost(self, ref_config, ref_workload):
        for planner in (adaptive_schedule, greedy_schedule):
            schedule = planner(ref_workload, ref_config)
            matrices = lift_schedule(ref_workload, schedule, ref_config)
            assert validate_solution(matrices, ref_workload, ref_config) == []
            assert objective_value(matrices, ref_config) == resource_cost(
                schedule, ref_config)
            collapsed = matrices_to_schedule(matrices, ref_config)
            assert np.array_equal(collapsed.changes, schedule.changes)

    @given(seed=st.integers(0, 10 ** 6), amplitude=st.integers(1, 40),
           n=st.integers(6, 24), delta=st.integers(2, 3),
           spread=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_lifts_of_generated_workloads_validate(self, seed, amplitude, n,
                                                   delta, spread):
        theta = delta + spread
        assume(theta < n)
        cfg = Config(n=n, delta=delta, theta=theta)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              seed=seed), cfg)
        for planner in (adaptive_schedule, greedy_schedule):
            schedule = planner(wl, cfg)
            matrices = lift_schedule(wl, schedule, cfg)
            assert validate_solution(matrices, wl, cfg) == []
            assert objective_value(matrices, cfg) == resource_cost(schedule, cfg)
            collapsed = matrices_to_schedule(matrices, cfg)
            assert np.array_equal(collapsed.changes, schedule.changes)

    def test_reuse_of_freed_capacity_gets_a_zero_net_flag(self):
        # one steady-phase cohort joins the same slot another leaves; the
        # planner keeps capacity flat, so the lift must flag a fresh slot
        # carrying equal allocation and release mass
        cfg = Config(n=20, delta=2, theta=4)
        wl = generate_workload(ScenarioParams(name="t", amplitude=1, seed=0),
                               cfg)
        schedule = adaptive_schedule(wl, cfg)
        assert [int(v) for v in schedule.changes[:3]] == [0, 0, 3]
        matrices = lift_schedule(wl, schedule, cfg)
        flags = [j + 1 for j in range(cfg.n) if matrices.requests[j]]
        assert flags == [3, 13, 15]
        col = matrices.allocations[:, 12]
        assert col.sum() == 1 and matrices.deallocations[:, 12].sum() == 1
        assert validate_solution(matrices, wl, cfg) == []
        assert objective_value(matrices, cfg) == resource_cost(schedule, cfg)

    def test_narrow_threshold_reuse_can_defeat_the_earmarking(self):
        # with a lag of four and a threshold of five the spacing rule can
        # leave no host slot for reused capacity; the lift refuses rather
        # than distorting the cost, even though the schedule is feasible
        cfg = Config(n=30, delta=4, theta=5)
        wl = generate_workload(ScenarioParams(name="t", amplitude=1, seed=41),
                               cfg)
        schedule = adaptive_schedule(wl, cfg)
        assert check_feasibility(wl, schedule, cfg) == []
        with pytest.raises(LiftError, match="no departed participants"):
            lift_schedule(wl, schedule, cfg)


class TestFeasibilityProperties:
    @given(seed=st.integers(0, 10 ** 6), amplitude=st.integers(0, 60),
           n=st.integers(6, 40), delta=st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_planners_always_produce_feasible_schedules(self, seed, amplitude,
                                                        n, delta):
        cfg = Config(n=n, delta=delta, theta=delta + 1)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              seed=seed), cfg)
        for planner in (adaptive_schedule, greedy_schedule):
            assert check_feasibility(wl, planner(wl, cfg), cfg) == []

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_planners_are_deterministic(self, seed):
        cfg = Config(n=30, delta=3, theta=4)
        wl = generate_workload(ScenarioParams(name="t", amplitude=25, seed=seed),
                               cfg)
        for planner in (adaptive_schedule, greedy_schedule):
            assert np.array_equal(planner(wl, cfg).changes,
                                  planner(wl, cfg).changes)

    @given(seed=st.integers(0, 10 ** 6), amplitude=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_capacity_covers_every_admission_deadline(self, seed, amplitude):
        # by the time a cohort has waited theta slots, enough capacity is
        # active to hold everyone overdue
        cfg = Config(n=20, delta=3, theta=5)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              seed=seed), cfg)
        for planner in (adaptive_schedule, greedy_schedule):
            report = evaluate(wl, planner(wl, cfg), cfg)
            assert report.feasible

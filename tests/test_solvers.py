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
    SCENARIO_PRESETS,
    Config,
    ConfigurationError,
    LiftError,
    OracleLimitError,
    ScenarioParams,
    Schedule,
    SolutionMatrices,
    Workload,
    adaptive_schedule,
    build_model,
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
from capsched import ilp, solvers
from oracle_reference import _NoAssignment, _reference_exact_oracle, _request_slot_sets


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


def _milp_finds_assignment(workload, schedule, config):
    """Whether scipy's MILP finds an assignment of the integer program whose
    columns net to the schedule's changes (x_.j - y_.j = s_j for every j)."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    model = build_model(workload, config)
    n = config.n
    size = 2 * n * n + n
    run_rows = np.repeat(np.arange(len(model.rhs)), np.diff(model.run_ptr))
    rows = sparse.csr_matrix((np.repeat(model.run_coefs, model.run_lengths),
                              (np.repeat(run_rows, model.run_lengths),
                               ilp._ranges(model.run_starts, model.run_lengths))),
                             shape=(len(model.rhs), size))
    lo = np.where(model.senses == "<=", -np.inf, model.rhs)
    hi = np.where(model.senses == ">=", np.inf, model.rhs)
    net = np.zeros((n, size))
    for j in range(n):
        net[j, j:n * n:n] = 1
        net[j, n * n + j:2 * n * n:n] = -1
    changes = schedule.changes.astype(float)
    # HiGHS's presolve (scipy 1.17) wrongly declares some of these models
    # infeasible, e.g. n=10, delta=3, theta=4, arrivals [2,0,0,0,2,3,3,3,3,3],
    # departures [1,0,1,0,0,4,4,1,0,0] and changes 8 at slot 7
    result = optimize.milp(
        np.zeros(size), integrality=np.ones(size),
        bounds=optimize.Bounds(0, np.r_[np.full(2 * n * n, np.inf), np.ones(n)]),
        constraints=[optimize.LinearConstraint(rows, lo, hi),
                     optimize.LinearConstraint(net, changes, changes)],
        options={"presolve": False})
    assert result.status in (0, 2), result.message     # solved, or proven infeasible
    return result.status == 0


@st.composite
def _small_lift_cases(draw, max_n):
    """A small workload with a schedule: either levels held from delta-spaced
    request slots, or arbitrary changes, mostly zero, up to slot n - delta."""
    n = draw(st.integers(3, max_n), label="n")
    delta = draw(st.integers(2, n - 1), label="delta")
    theta = draw(st.integers(delta + 1, n), label="theta")
    arrivals = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="arrivals")
    departures, present = [], 0
    for joined in arrivals:
        present += joined
        departures.append(draw(st.integers(0, present)))
        present -= departures[-1]
    if draw(st.booleans()):
        slots = draw(st.sampled_from(_request_slot_sets(n - delta, delta)))
        levels = draw(st.lists(st.integers(0, sum(arrivals) + 2), min_size=len(slots),
                               max_size=len(slots)), label="levels")
        changes = [0] * n
        for j, lo, hi in zip(slots, [0, *levels], levels):
            changes[j - 1] = hi - lo
    else:
        changes = draw(st.lists(st.one_of(st.just(0), st.integers(-2, 4)), min_size=n - delta,
                                max_size=n - delta), label="changes") + [0] * delta
    return (Workload(np.array(arrivals), np.array(departures)), Schedule(np.array(changes)),
            Config(n=n, delta=delta, theta=theta))


def _lifts(workload, schedule, config):
    """Whether lift_schedule lifts the schedule; a lift must validate and
    collapse back to the schedule."""
    try:
        matrices = lift_schedule(workload, schedule, config)
    except LiftError:
        return False
    assert validate_solution(matrices, workload, config) == []
    assert np.array_equal(matrices_to_schedule(matrices, config).changes, schedule.changes)
    return True


# n=8, delta=2, theta=3: one participant joins at slot 1 and leaves at slot 8
_LONE_STAY = (Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                       departures=np.array([0, 0, 0, 0, 0, 0, 0, 1])), Config(n=8, delta=2, theta=3))
# n=6, delta=3, theta=4: greedy holds one unit, which the simulator finds
# enough and the integer program cannot express
_FREED_REUSE = (Workload(arrivals=np.array([0, 1, 1, 0, 1, 0]),
                         departures=np.array([0, 0, 1, 0, 1, 0])), Config(n=6, delta=3, theta=4))


# n=8, delta=2, theta=3: with EQ7 and EQ8 both dropped the reference
# enumeration releases capacity before allocating it, and its cost is -2
_OVER_RELEASE = (Workload(arrivals=np.array([1, 1, 2, 0, 2, 0, 0, 0]),
                          departures=np.array([0, 0, 2, 0, 2, 0, 0, 0])),
                 Config(n=8, delta=2, theta=3))


def _preset_workload(name, n):
    """The named preset's seed-0 workload over n slots."""
    values = SCENARIO_PRESETS[name]
    cfg = Config(n=n, delta=values["delta"], theta=values["theta"])
    params = ScenarioParams(name=name, amplitude=values["amplitude"],
                            plateau_fraction=values["plateau_fraction"], seed=0)
    return generate_workload(params, cfg), cfg


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
                raise _NoAssignment("no transport decomposition exists")
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


def _reference_assign(cols, allocated, released, arr_cohorts, dep_cohorts, config):
    """Drop-in for solvers._assign that derives each cohort's eligible columns
    from the config and splits the columns' amounts with _lexmin_transport."""
    n, delta, theta = config.n, config.delta, config.theta
    u_vec = [hi - lo for lo, hi in zip([0, *allocated], allocated)]
    v_vec = [hi - lo for lo, hi in zip([0, *released], released)]
    xrows = [(i, amount, [k for k, j in enumerate(cols)
                          if j <= min(i + theta - delta, n - delta)])
             for i, amount in arr_cohorts]
    yrows = [(i, amount, [k for k, j in enumerate(cols) if j >= max(i - delta, 1)])
             for i, amount in dep_cohorts]
    x, y = _transport_split((cols, u_vec, v_vec), n, xrows, yrows)
    r = [int(j in cols) for j in range(1, n + 1)]
    return SolutionMatrices(np.reshape(x, (n, n)), np.reshape(y, (n, n)), np.array(r))


def _oracle_outcome(oracle, workload, config):
    """Cost and the three matrices as lists, or the error type and message."""
    try:
        matrices, cost = oracle(workload, config)
    except (_NoAssignment, OracleLimitError) as exc:
        return type(exc), str(exc)
    return (cost, matrices.allocations.tolist(), matrices.deallocations.tolist(),
            matrices.requests.tolist())


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

    def test_dropping_both_screens_releases_before_allocating(self):
        wl, cfg = _OVER_RELEASE
        matrices, cost = _reference_exact_oracle(wl, cfg, skip_families=("EQ7", "EQ8"))
        assert cost == -2
        assert {v.tag for v in validate_solution(matrices, wl, cfg)} == {"EQ7", "EQ8"}

    @pytest.mark.parametrize("name, optimum", [("oppd", 310657), ("mmog", 1554643)])
    def test_paper_scale_optima(self, monkeypatch, name, optimum):
        # the optima scipy's MILP proves for the n=100 presets at seed 0
        monkeypatch.setattr(solvers, "ORACLE_MAX_N", 1000)
        monkeypatch.setattr(solvers, "ORACLE_MAX_PARTICIPANTS", 10 ** 9)
        wl, cfg = _preset_workload(name, 100)
        matrices, cost = exact_oracle(wl, cfg)
        assert cost == optimum
        assert validate_solution(matrices, wl, cfg) == []
        assert objective_value(matrices, cfg) == cost

    def test_long_horizon_is_solved_quickly(self, monkeypatch):
        # the pass is quadratic in n: about 1 s at n=1000 on a 2-vCPU Xeon
        monkeypatch.setattr(solvers, "ORACLE_MAX_N", 1000)
        monkeypatch.setattr(solvers, "ORACLE_MAX_PARTICIPANTS", 10 ** 9)
        wl, cfg = _preset_workload("oppd", 1000)
        start = time.perf_counter()
        matrices, cost = exact_oracle(wl, cfg)
        assert time.perf_counter() - start < 5
        assert objective_value(matrices, cfg) == cost

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
        relaxed_matrices, relaxed = _reference_exact_oracle(ref_workload, ref_config,
                                                            skip_families=("EQ8",))
        assert relaxed <= full
        held = [v for v in validate_solution(relaxed_matrices, ref_workload, ref_config)
                if v.tag != "EQ8"]
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
        # no departure reaches the queue, and the exits after slots 4 and 5
        # are 2 and 4: the slot-5 cohort is admitted at slot 5
        assert (report.departed[1:] <= report.exited[:-1]).all()
        assert report.exited[4:6].tolist() == [2, 4]


class TestOracleSplit:
    @given(data=st.data(), m=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_fills_match_the_lexmin_transport(self, data, m):
        # cohorts sit at distinct slots and are poured into the columns their
        # windows allow, so the cumulative amounts meet Hall's condition
        delta = data.draw(st.integers(2, 4), label="delta")
        theta = data.draw(st.integers(delta + 1, delta + 4), label="theta")
        n = data.draw(st.integers(max(theta, m + delta), 14), label="n")
        cfg = Config(n=n, delta=delta, theta=theta)
        cols = sorted(data.draw(st.sets(st.integers(1, n - delta), min_size=m, max_size=m),
                                label="columns"))
        arr_slots = sorted(i for i in data.draw(st.sets(st.integers(1, n), max_size=6),
                                                label="arrival slots")
                           if cols[0] <= i + theta - delta)
        dep_slots = sorted(data.draw(st.sets(st.integers(1, n), max_size=6),
                                     label="departure slots"))
        arr_cohorts = [(i, data.draw(st.integers(1, 3))) for i in arr_slots]
        dep_cohorts = [(i, data.draw(st.integers(1, 3))) for i in dep_slots]
        u_vec = [0] * m
        for i, amount in arr_cohorts:
            eligible = [k for k, c in enumerate(cols) if c <= min(i + theta - delta, n - delta)]
            for _ in range(amount):
                u_vec[data.draw(st.sampled_from(eligible))] += 1
        v_vec = [0] * m
        for i, amount in dep_cohorts:
            eligible = [k for k, c in enumerate(cols) if i <= c + delta]
            if eligible:
                for _ in range(data.draw(st.integers(0, amount))):
                    v_vec[data.draw(st.sampled_from(eligible))] += 1
        allocated = list(itertools.accumulate(u_vec))
        released = list(itertools.accumulate(v_vec))

        got = solvers._assign(cols, allocated, released, arr_cohorts, dep_cohorts, cfg)
        want = _reference_assign(cols, allocated, released, arr_cohorts, dep_cohorts, cfg)
        for name in ("allocations", "deallocations", "requests"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 10),
           delta=st.integers(2, 4), spread=st.integers(1, 3),
           amplitude=st.integers(1, 4), plateau=st.sampled_from([0.0, 0.3, 0.6]))
    @settings(max_examples=60, deadline=None)
    def test_oracle_output_matches_the_transport_split(self, seed, n, delta,
                                                       spread, amplitude, plateau):
        assume(delta + spread <= n)
        cfg = Config(n=n, delta=delta, theta=delta + spread)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              plateau_fraction=plateau,
                                              seed=seed), cfg)
        assume(int(wl.arrivals.sum()) <= solvers.ORACLE_MAX_PARTICIPANTS)

        got = exact_oracle(wl, cfg)
        with mock.patch.object(solvers, "_assign", _reference_assign):
            want = exact_oracle(wl, cfg)
        assert got[1] == want[1]
        for name in ("allocations", "deallocations", "requests"):
            assert np.array_equal(getattr(got[0], name), getattr(want[0], name))


class TestOracleReleases:
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 10),
           delta=st.integers(2, 4), spread=st.integers(1, 4),
           amplitude=st.integers(1, 4), plateau=st.sampled_from([0.0, 0.3, 0.6]))
    @settings(max_examples=120, deadline=None)
    def test_generated_workloads_match_the_release_search(self, seed, n, delta,
                                                          spread, amplitude, plateau):
        assume(delta + spread <= n)
        cfg = Config(n=n, delta=delta, theta=delta + spread)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              plateau_fraction=plateau,
                                              seed=seed), cfg)
        assume(int(wl.arrivals.sum()) <= solvers.ORACLE_MAX_PARTICIPANTS)
        assert (_oracle_outcome(exact_oracle, wl, cfg)
                == _oracle_outcome(_reference_exact_oracle, wl, cfg))

    @given(data=st.data(), n=st.integers(3, 10))
    @settings(max_examples=120, deadline=None)
    def test_drawn_workloads_match_the_release_search(self, data, n):
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
        assert (_oracle_outcome(exact_oracle, wl, cfg)
                == _oracle_outcome(_reference_exact_oracle, wl, cfg))

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


class TestOraclePrice:
    def test_only_the_winner_is_windowed(self, monkeypatch):
        # 55 request slot sets fit n=10, delta=2; only the optimum is split
        cfg = Config(n=10, delta=2, theta=9)
        wl = Workload(arrivals=np.array([1] * 8 + [0, 0]), departures=np.zeros(10, dtype=int))
        assigned = []
        assign = solvers._assign

        def counted(cols, *rest):
            assigned.append(list(cols))
            return assign(cols, *rest)

        monkeypatch.setattr(solvers, "_assign", counted)
        matrices, _ = exact_oracle(wl, cfg)
        assert assigned == [(np.flatnonzero(matrices.requests) + 1).tolist()]

    @given(data=st.data(), n=st.integers(3, 10))
    @settings(max_examples=150, deadline=None)
    def test_prefixes_give_the_oracle_its_path_cost(self, data, n):
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
        ends = [min(i + theta - delta, n - delta) for i in range(1, n + 1)]

        def window_mass(c):     # A(c): arrivals whose window ends before slot c
            return sum(a for a, end in zip(arrivals, ends) if end < c)

        def within_reach(c):    # D(c): departures through slot c + delta
            return sum(departures[:c + delta])

        arr_cohorts, dep_cohorts, due, freed = solvers._prefixes(wl, cfg)
        assert arr_cohorts == [(i, a) for i, a in enumerate(arrivals, 1) if a]
        assert dep_cohorts == [(i, d) for i, d in enumerate(departures, 1) if d]
        assert due == [window_mass(c) for c in range(n + 1)]
        assert due[n] == sum(arrivals)
        assert freed == [sum(departures[:t]) for t in range(n + 1)]

        # the cost of columns c_1 < ... < c_m is the sum over k of
        # (A(c_{k+1}) - D(c_k))+ * (c_{k+1} - c_k), where c_{m+1} = n - delta
        # spaces the last term and A there is every arrival
        load = mandatory_load(wl, cfg).tolist()
        costs = []
        for slots in _request_slot_sets(n - delta, delta):
            first = slots[0] if slots else n
            if window_mass(first) or any(load[t - 1] for t in
                                         range(delta + 1, min(first + delta, n + 1))):
                continue
            needs = [window_mass(c) for c in slots[1:]] + [sum(arrivals)]
            costs.append(sum(max(need - within_reach(c), 0) * (c_next - c)
                             for c, c_next, need in zip(slots, [*slots[1:], n - delta], needs)))
        assert exact_oracle(wl, cfg)[1] == min(costs)

    @given(data=st.data(), n=st.integers(3, 10))
    @settings(max_examples=100, deadline=None)
    def test_eq8_caps_never_bind(self, data, n):
        # the lemma behind the closed-form price: under every allocation that
        # places each arrival cohort inside its window, the EQ8 cap of column
        # k (cumulative allocation less the peak load over the next interval)
        # is at least min(departures within reach, cumulative allocation)
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
        load = mandatory_load(Workload(arrivals=np.array(arrivals),
                                       departures=np.array(departures)), cfg)
        total = sum(arrivals)
        for slots in _request_slot_sets(n - delta, delta):
            supplies = [(amount, [k for k, j in enumerate(slots)
                                  if j <= min(i + theta - delta, n - delta)])
                        for i, amount in enumerate(arrivals, 1) if amount]
            if not slots or any(not cols for _, cols in supplies):
                continue
            dk = [sum(departures[:min(j + delta, n)]) for j in slots]
            ends = [j + delta - 1 for j in slots[1:]] + [n]
            peaks = [max(load[j + delta - 1:end]) for j, end in zip(slots, ends)]
            # every cumulative allocation that places all arrivals, kept when
            # its per-column split passes the reference Hall check
            for cut in itertools.combinations_with_replacement(range(total + 1),
                                                               len(slots) - 1):
                cu = [*cut, total]
                u = [hi - lo for lo, hi in zip([0, *cu], cu)]
                if _column_hall_ok(u, supplies):
                    for k, held in enumerate(cu):
                        assert held - peaks[k] >= min(dk[k], held)


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

    def test_narrow_threshold_reuse_lifts(self):
        # with a lag of four and a threshold of five the spacing rule leaves
        # few slots for a zero-net column; the forward pass still finds one
        cfg = Config(n=30, delta=4, theta=5)
        wl = generate_workload(ScenarioParams(name="t", amplitude=1, seed=41),
                               cfg)
        schedule = adaptive_schedule(wl, cfg)
        assert check_feasibility(wl, schedule, cfg) == []
        assert _lifts(wl, schedule, cfg)

    def test_requests_closer_than_delta_are_refused(self):
        workload, cfg = _LONE_STAY
        schedule = Schedule(np.array([1, 1, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(LiftError) as info:
            lift_schedule(workload, schedule, cfg)
        assert str(info.value) == (
            "VIOLATION separation slot=1 slot2=2 detail=requests 1 slots apart, need 2")

    def test_capacity_beyond_the_arrivals_fills_rows_up_to_big_m(self):
        # three units for one participant: the two spare allocations sit in
        # rows 8 and 7, at most the EQ10 coefficient (the arrival total, 1) each
        workload, cfg = _LONE_STAY
        schedule = Schedule(np.array([3, 0, 0, 0, 0, 0, 0, 0]))
        assert check_feasibility(workload, schedule, cfg) == []
        matrices = lift_schedule(workload, schedule, cfg)
        assert matrices.allocations[:, 0].tolist() == [1, 0, 0, 0, 0, 0, 1, 1]
        assert validate_solution(matrices, workload, cfg) == []
        assert np.array_equal(matrices_to_schedule(matrices, cfg).changes, schedule.changes)

    def test_capacity_beyond_every_row_is_refused(self):
        workload, cfg = _LONE_STAY
        assert _lifts(workload, Schedule(np.array([8, 0, 0, 0, 0, 0, 0, 0])), cfg)
        with pytest.raises(LiftError, match="request at slot 1"):
            lift_schedule(workload, Schedule(np.array([9, 0, 0, 0, 0, 0, 0, 0])), cfg)

    def test_simulator_reuse_of_freed_capacity_can_be_unliftable(self):
        # the slot-5 cohort is admitted into the unit the slot-3 departure
        # frees; the program must cover it at a column no later than slot 3,
        # and no second column fits delta=3 from the request at slot 1
        workload, cfg = _FREED_REUSE
        schedule = greedy_schedule(workload, cfg)
        assert schedule.changes.tolist() == [1, 0, 0, 0, 0, 0]
        assert check_feasibility(workload, schedule, cfg) == []
        with pytest.raises(LiftError, match="no request flags"):
            lift_schedule(workload, schedule, cfg)

    def test_zero_net_column_may_sit_more_than_delta_before_the_next(self):
        # the slot-1 cohort's window ends at slot 2, so a column must sit
        # there, three slots (delta + 1) before the request at slot 5
        cfg = Config(n=7, delta=2, theta=3)
        workload = Workload(arrivals=np.array([3, 0, 2, 2, 0, 0, 0]),
                            departures=np.array([0, 2, 0, 4, 1, 0, 0]))
        schedule = Schedule(np.array([0, 0, 0, 0, 2, 0, 0]))
        matrices = lift_schedule(workload, schedule, cfg)
        assert (np.flatnonzero(matrices.requests) + 1).tolist() == [2, 5]
        assert validate_solution(matrices, workload, cfg) == []

    @given(case=_small_lift_cases(max_n=12))
    @settings(max_examples=300, deadline=None)
    def test_lift_validates_and_collapses_or_raises(self, case):
        _lifts(*case)

    @given(case=_small_lift_cases(max_n=10))
    @settings(max_examples=150, deadline=None)
    def test_lift_raises_iff_milp_finds_no_assignment(self, case):
        assert _lifts(*case) == _milp_finds_assignment(*case)

    @pytest.mark.parametrize("case, changes, lifts", [
        (_LONE_STAY, [1, 1, 0, 0, 0, 0, 0, 0], False),
        (_LONE_STAY, [3, 0, 0, 0, 0, 0, 0, 0], True),
        (_LONE_STAY, [8, 0, 0, 0, 0, 0, 0, 0], True),
        (_LONE_STAY, [9, 0, 0, 0, 0, 0, 0, 0], False),
        (_FREED_REUSE, [1, 0, 0, 0, 0, 0], False),
        ((Workload(arrivals=np.array([2, 0, 0, 0, 2, 3, 3, 3, 3, 3]),
                   departures=np.array([1, 0, 1, 0, 0, 4, 4, 1, 0, 0])),
          Config(n=10, delta=3, theta=4)), [0, 0, 0, 0, 0, 0, 8, 0, 0, 0], True),
    ])
    def test_pinned_cases_match_milp(self, case, changes, lifts):
        workload, cfg = case
        schedule = Schedule(np.array(changes))
        assert _lifts(workload, schedule, cfg) == lifts
        assert _milp_finds_assignment(workload, schedule, cfg) == lifts


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


class TestGuards:
    @pytest.mark.parametrize("make, error, message", [
        (lambda wl: adaptive_schedule(wl, Config(9, 2, 3)),
         ConfigurationError, "workload has 8 slots but config.n is 9"),
        (lambda wl: lift_schedule(wl, Schedule(np.array([1, 0, 0, 0, 0, 0, 0, -1])),
                                  Config(8, 2, 3)),
         LiftError, "VIOLATION tail_request slot=8 detail=cannot take effect by slot 8"),
    ])
    def test_rejections_name_the_fault(self, ref_workload, make, error, message):
        with pytest.raises(error) as info:
            make(ref_workload)
        assert type(info.value) is error
        assert str(info.value) == message

import itertools
import math
import re
import time
from statistics import median
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capsched import (
    SCENARIO_PRESETS,
    Config,
    ConfigurationError,
    LiftError,
    ScenarioParams,
    Schedule,
    SolutionMatrices,
    Workload,
    adaptive_schedule,
    build_model,
    check_feasibility,
    evaluate,
    exact_schedule,
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
from capsched.workload import INT64_MAX
from compare_reference import _reference_plan
from oracle_reference import (ENUMERATION_MAX_N, ENUMERATION_MAX_PARTICIPANTS,
                              _NoAssignment, _TooLarge,
                              _reference_optimum, _reference_oracle_path,
                              _reference_oracle_schedule, _request_slot_sets)


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


def _milp(model, objective, *extra):
    """scipy's MILP result for the model's rows, bounds and integrality,
    minimising the objective vector, under each extra (rows, lo, hi) too."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = model.config.n
    size = 2 * n * n + n
    run_rows = np.repeat(np.arange(len(model.rhs)), np.diff(model.run_ptr))
    rows = sparse.csr_matrix((np.repeat(model.run_coefs, model.run_lengths),
                              (np.repeat(run_rows, model.run_lengths),
                               ilp._ranges(model.run_starts, model.run_lengths))),
                             shape=(len(model.rhs), size))
    lo = np.where(model.senses == "<=", -np.inf, model.rhs)
    hi = np.where(model.senses == ">=", np.inf, model.rhs)
    # HiGHS's presolve (scipy 1.17) wrongly declares some of these models
    # infeasible, e.g. n=10, delta=3, theta=4, arrivals [2,0,0,0,2,3,3,3,3,3],
    # departures [1,0,1,0,0,4,4,1,0,0] and changes 8 at slot 7
    return optimize.milp(
        objective, integrality=np.ones(size),
        bounds=optimize.Bounds(0, np.r_[np.full(2 * n * n, np.inf), np.ones(n)]),
        constraints=[optimize.LinearConstraint(rows, lo, hi),
                     *(optimize.LinearConstraint(*row) for row in extra)],
        options={"presolve": False})


def _milp_finds_assignment(workload, schedule, config):
    """Whether scipy's MILP finds an assignment of the integer program whose
    columns net to the schedule's changes (x_.j - y_.j = s_j for every j)."""
    n = config.n
    size = 2 * n * n + n
    net = np.zeros((n, size))
    for j in range(n):
        net[j, j:n * n:n] = 1
        net[j, n * n + j:2 * n * n:n] = -1
    changes = schedule.changes.astype(float)
    result = _milp(build_model(workload, config), np.zeros(size), (net, changes, changes))
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


@st.composite
def _spaced_cases(draw):
    """A small workload with requests delta to delta + 2 slots apart, each
    slot's change nonzero with probability 0.6, in [-3, 6]."""
    n = draw(st.integers(3, 10))
    delta = draw(st.integers(2, min(3, n - 1)))
    theta = draw(st.integers(delta + 1, min(n, delta + 3)))
    arrivals = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    departures, present = [], 0
    for joined in arrivals:
        present += joined
        departures.append(draw(st.integers(0, present)))
        present -= departures[-1]
    changes, j = [0] * n, 1
    while j <= n:
        if draw(st.integers(0, 9)) < 6:
            changes[j - 1] = draw(st.sampled_from([v for v in range(-3, 7) if v]))
        j += delta + draw(st.integers(0, 2))
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


def _preset_workload(name, n, seed=0):
    """The named preset's workload over n slots."""
    values = SCENARIO_PRESETS[name]
    cfg = Config(n=n, delta=values["delta"], theta=values["theta"])
    params = ScenarioParams(name=name, amplitude=values["amplitude"],
                            plateau_fraction=values["plateau_fraction"], seed=seed)
    return generate_workload(params, cfg), cfg


def _tiny_oracle_instance(data, n):
    """A drawn n-slot workload with at most two arrivals a slot and departures
    anywhere, and its config: n=11 and more than eight participants are
    beyond the reference enumeration."""
    delta = data.draw(st.integers(2, min(4, n - 1)), label="delta")
    cfg = Config(n=n, delta=delta, theta=data.draw(st.integers(delta + 1, n), label="theta"))
    arrivals = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="arrivals")
    departures, present = [], 0
    for joined in arrivals:
        present += joined
        departures.append(data.draw(st.integers(0, present)))
        present -= departures[-1]
    return Workload(arrivals=np.array(arrivals), departures=np.array(departures)), cfg


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


def _oracle_outcome(plan, workload, config):
    """The planned schedule's changes, or the error type and message."""
    try:
        return plan(workload, config).changes.tolist()
    except _NoAssignment as exc:
        return type(exc), str(exc)


def _reference_oracle_plan(workload, config):
    """matrices_to_schedule of the reference enumeration's optimum, or beyond
    the enumeration's size guard the reference pass's schedule."""
    try:
        matrices = _reference_optimum(workload, config)[0]
    except _TooLarge:
        return _reference_oracle_schedule(workload, config)
    return matrices_to_schedule(matrices, config)


def _certify(workload, schedule, config):
    """The lift of the oracle's schedule, after checking that it validates and
    costs what the schedule, the shortest path and the model's objective cost."""
    matrices = lift_schedule(workload, schedule, config)
    assert validate_solution(matrices, workload, config) == []
    path_cost = solvers._oracle_path(workload.arrivals, workload.departures, config)[1]
    assert objective_value(matrices, config) == resource_cost(schedule, config) == path_cost
    values = np.concatenate([matrices.allocations.ravel(), matrices.deallocations.ravel(),
                             matrices.requests]).tolist()
    priced = sum(c * v for c, v in zip(build_model(workload, config).objective.tolist(), values))
    assert priced == path_cost
    return matrices


def _check_oracle(workload, config):
    """exact_schedule is the collapsed optimum of the reference enumeration,
    or beyond it the reference pass's schedule, and its lift is certified."""
    got = _oracle_outcome(exact_schedule, workload, config)
    assert got == _oracle_outcome(_reference_oracle_plan, workload, config)
    if isinstance(got, list):
        _certify(workload, Schedule(np.array(got)), config)


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


def _within_int64(levels):
    """levels with every rise that would take the arrivals summed past int64
    flattened, so that a workload has them as its occupancy."""
    out, level, arrived = [], 0, 0
    for target in levels:
        rise = max(target - level, 0)
        if arrived + rise <= INT64_MAX:
            level, arrived = target, arrived + rise
        out.append(level)
    return out


@st.composite
def _occupancy_blocks(draw):
    """A config, theta = n among them, and one to five workloads whose
    occupancy takes few levels, so scans meet ties and flat stretches, with
    INT64_MAX among them and empty workloads as a special case."""
    n = draw(st.integers(3, 30))
    delta = draw(st.integers(2, n - 1))
    theta = n if draw(st.booleans()) else draw(st.integers(delta + 1, n))
    levels = st.lists(st.sampled_from([0, 1, 2, INT64_MAX]), min_size=n, max_size=n)
    return Config(n, delta, theta), [_workload_from_levels(_within_int64(draw(levels)))
                                     for _ in range(draw(st.integers(1, 5)))]


# the public planner of each row function in the planner table
_PUBLIC_PLANNERS = {"ads": adaptive_schedule, "greedy": greedy_schedule, "oracle": exact_schedule}


def _reference_reaches(name, workload, config):
    """Whether _reference_plan is checked for the planner name on workload:
    the oracle's only within the reference enumeration's guard."""
    return name != "oracle" or (config.n <= ENUMERATION_MAX_N and
                                int(workload.arrivals.sum()) <= ENUMERATION_MAX_PARTICIPANTS)


def _assert_table_plans(config, workloads):
    """Every row function in the planner table plans each row of the block of
    workloads as its public planner and _reference_plan do, on the rows the
    reference reaches; a planner whose reference reaches no row is skipped."""
    assert list(solvers._PLANNERS) == list(_PUBLIC_PLANNERS)
    arrivals = np.stack([workload.arrivals for workload in workloads])
    departures = np.stack([workload.departures for workload in workloads])
    for name, rows in solvers._PLANNERS.items():
        reached = [_reference_reaches(name, workload, config) for workload in workloads]
        if not any(reached):
            continue
        planned = rows(arrivals, departures, config)
        assert planned.shape == arrivals.shape and planned.dtype == np.int64
        for row, workload, reaches in zip(planned, workloads, reached):
            if reaches:
                want = _reference_plan(name, workload, config).changes.tolist()
                assert row.tolist() == want, name
                assert _PUBLIC_PLANNERS[name](workload, config).changes.tolist() == want, name


class TestBlockPlanners:
    @given(block=_occupancy_blocks())
    @example(block=(Config(8, 2, 3), [_workload_from_levels([0] * 8)] * 2))
    @example(block=(Config(9, 2, 9), [_workload_from_levels([INT64_MAX] * 9),
                                      _workload_from_levels([1, 1, 0, 0, 2, 2, 2, 1, 1])]))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_slot_loops(self, block):
        _assert_table_plans(*block)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_rows_equal_the_slot_loops(self, seed):
        config = Config(n=1000, delta=3, theta=7)
        _assert_table_plans(config, [
            generate_workload(ScenarioParams("t", 40, 0.3, 10 * seed + k), config)
            for k in range(5)])

    @pytest.mark.parametrize("name", list(solvers._PLANNERS))
    def test_an_empty_block_plans_no_rows(self, name):
        empty = np.zeros((0, 8), dtype=np.int64)
        planned = solvers._PLANNERS[name](empty, empty, Config(8, 2, 3))
        assert (planned.shape, planned.dtype) == ((0, 8), np.int64)


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
        schedule = exact_schedule(ref_workload, ref_config)
        assert schedule.changes.tolist() == [0, 2, 0, -1, 0, 0, 0, 0]
        assert resource_cost(schedule, ref_config) == 6
        matrices = _certify(ref_workload, schedule, ref_config)
        assert matrices.allocations[0, 1] == 2
        assert matrices.allocations[2, 3] == 1
        assert int(matrices.allocations.sum()) == 3
        assert matrices.deallocations[4, 3] == 2
        assert int(matrices.deallocations.sum()) == 2
        assert matrices.requests.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]

    def test_empty_workload_costs_nothing(self, ref_config):
        wl = Workload(arrivals=np.zeros(8, dtype=int),
                      departures=np.zeros(8, dtype=int))
        schedule = exact_schedule(wl, ref_config)
        assert not schedule.changes.any()
        assert not _certify(wl, schedule, ref_config).requests.any()

    def test_dropping_both_screens_releases_before_allocating(self):
        wl, cfg = _OVER_RELEASE
        matrices, cost = _reference_optimum(wl, cfg, skip_families=("EQ7", "EQ8"))
        assert cost == -2
        assert {v.tag for v in validate_solution(matrices, wl, cfg)} == {"EQ7", "EQ8"}

    @pytest.mark.parametrize("name, optimum", [("oppd", 310657), ("mmog", 1554643)])
    def test_paper_scale_optima(self, name, optimum):
        # the optima scipy's MILP proves for the n=100 presets at seed 0
        wl, cfg = _preset_workload(name, 100)
        schedule = exact_schedule(wl, cfg)
        assert resource_cost(schedule, cfg) == optimum
        _certify(wl, schedule, cfg)

    @pytest.mark.parametrize("name", ["oppd", "mmog"])
    def test_long_horizon_is_solved_quickly(self, name):
        # the pass is quadratic in n: the schedule and its lift, with the
        # lift's two n x n matrices, take about 0.5 s at n=2000 on a 2-vCPU Xeon
        wl, cfg = _preset_workload(name, 2000)
        start = time.perf_counter()
        schedule = exact_schedule(wl, cfg)
        matrices = lift_schedule(wl, schedule, cfg)
        assert time.perf_counter() - start < 5
        assert objective_value(matrices, cfg) == resource_cost(schedule, cfg)

    def test_deterministic(self, ref_config, ref_workload):
        a = exact_schedule(ref_workload, ref_config)
        b = exact_schedule(ref_workload, ref_config)
        assert np.array_equal(a.changes, b.changes)

    def test_dominates_heuristics_on_small_instances(self):
        cfg = Config(n=8, delta=2, theta=3)
        checked = 0
        for seed in range(30):
            wl = generate_workload(ScenarioParams(name="t", amplitude=2,
                                                  seed=seed), cfg)
            if not 1 <= int(wl.arrivals.sum()) <= 6:
                continue
            schedule = exact_schedule(wl, cfg)
            _certify(wl, schedule, cfg)
            cost = resource_cost(schedule, cfg)
            assert cost <= resource_cost(adaptive_schedule(wl, cfg), cfg)
            assert cost <= resource_cost(greedy_schedule(wl, cfg), cfg)
            checked += 1
        assert checked >= 10

    @given(data=st.data(), n=st.integers(3, 10), seed=st.integers(0, 10 ** 6),
           amplitude=st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_highs_solves_the_model_to_the_oracle_cost(self, data, n, seed, amplitude):
        # the program export-lp writes: its rows and its own objective
        delta = data.draw(st.integers(2, min(4, n - 1)), label="delta")
        theta = data.draw(st.integers(delta + 1, min(n, delta + 4)), label="theta")
        cfg = Config(n=n, delta=delta, theta=theta)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude, seed=seed), cfg)
        model = build_model(wl, cfg)
        result = _milp(model, model.objective)
        assert result.status == 0, result.message
        assert round(result.fun) == resource_cost(exact_schedule(wl, cfg), cfg)

    def test_relaxed_screen_can_only_lower_cost(self, ref_config, ref_workload):
        full = resource_cost(exact_schedule(ref_workload, ref_config), ref_config)
        relaxed_matrices, relaxed = _reference_optimum(ref_workload, ref_config,
                                                       skip_families=("EQ8",))
        assert relaxed <= full
        held = [v for v in validate_solution(relaxed_matrices, ref_workload, ref_config)
                if v.tag != "EQ8"]
        assert held == []

    def test_oracle_schedule_is_feasible(self, ref_config, ref_workload):
        schedule = exact_schedule(ref_workload, ref_config)
        assert check_feasibility(ref_workload, schedule, ref_config) == []

    def test_ilp_admits_what_the_simulator_overcommits(self, ref_config):
        # the integer program covers the slot-5 cohort with x_5_6, which
        # takes effect at slot 8 (a wait of theta), and releases the freed
        # capacity through y_5_4; the FIFO simulator admits that cohort at
        # slot 5 into the capacity about to be released, so the drop at
        # slot 6 leaves it overcommitted; nobody departs while waiting
        wl = Workload(arrivals=np.array([2, 0, 0, 0, 2, 0, 0, 0]),
                      departures=np.array([0, 0, 0, 0, 2, 0, 0, 0]))
        schedule = exact_schedule(wl, ref_config)
        assert schedule.changes.tolist() == [0, 2, 0, -2, 0, 2, 0, 0]
        assert resource_cost(schedule, ref_config) == 4
        matrices = _certify(wl, schedule, ref_config)
        assert matrices.allocations[4, 5] == 2
        assert matrices.deallocations[4, 3] == 2
        violations = check_feasibility(wl, schedule, ref_config)
        assert [(v.kind, v.slot) for v in violations] == [
            ("capacity_below_occupancy", 6), ("capacity_below_occupancy", 7)]
        report = simulate(wl, schedule, ref_config)
        # no departure reaches the queue, and the exits after slots 4 and 5
        # are 2 and 4: the slot-5 cohort is admitted at slot 5
        assert (report.departed[1:] <= report.exited[:-1]).all()
        assert report.exited[4:6].tolist() == [2, 4]

    def test_exact_schedule_builds_no_matrices(self):
        # 55 request slot sets fit n=10, delta=2; the schedule comes from the
        # winner's columns alone
        cfg = Config(n=10, delta=2, theta=9)
        wl = Workload(arrivals=np.array([1] * 8 + [0, 0]), departures=np.zeros(10, dtype=int))
        with mock.patch.object(solvers, "_assign",
                               side_effect=AssertionError("_assign called")):
            schedule = exact_schedule(wl, cfg)
        _certify(wl, schedule, cfg)


class TestOracleSchedule:
    @given(data=st.data(), n=st.integers(3, 11))
    @settings(max_examples=200, deadline=None)
    def test_plan_is_the_collapsed_assignment(self, data, n):
        _check_oracle(*_tiny_oracle_instance(data, n))


class TestOraclePath:
    """The flat-list pass against the reference copy of the pass that kept a
    (cost, columns) tuple per column and keyed every tied option."""

    @staticmethod
    def outcome(wl, cfg):
        """(columns, levels, cost) of solvers._oracle_path, after checking it
        against the reference pass's, whose levels are its allocations less
        its releases."""
        (cols, levels), cost = solvers._oracle_path(wl.arrivals, wl.departures, cfg)
        (ref_cols, allocated, released, _, _), ref_cost = _reference_oracle_path(
            wl.arrivals, wl.departures, cfg)
        got = cols, levels, cost
        assert got == (ref_cols, [u - v for u, v in zip(allocated, released)], ref_cost)
        return got

    @given(data=st.data(), n=st.integers(3, 11))
    @settings(max_examples=400, deadline=None)
    def test_tiny_shapes_match_the_reference_pass(self, data, n):
        # columns, levels and cost, ties included
        self.outcome(*_tiny_oracle_instance(data, n))

    @pytest.mark.parametrize("arrivals, departures, cols", [
        # the start and a column at slot 1 tie at no cost: no column is the
        # smallest flags
        ([0, 0, 0], [0, 0, 0], []),
        # columns 1, 2 and 1, 3 all hold the arrival at no cost; it goes to
        # the last column of its window, the row-major smallest allocation
        ([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [2]),
    ])
    def test_tied_costs_go_by_the_tie_rule(self, arrivals, departures, cols):
        wl = Workload(arrivals=np.array(arrivals), departures=np.array(departures))
        cfg = Config(n=len(arrivals), delta=2, theta=3)
        assert self.outcome(wl, cfg)[0] == cols

    @pytest.mark.parametrize("name", ["oppd", "mmog"])
    @pytest.mark.parametrize("n", [30, 100])
    def test_presets_match_the_reference_pass(self, name, n):
        for seed in range(3):
            self.outcome(*_preset_workload(name, n, seed))

    @pytest.mark.parametrize("name", ["oppd", "mmog"])
    def test_long_horizon_is_planned_quickly(self, name):
        # the schedule straight from the columns: about 0.3 s at n=2000 on
        # a 2-vCPU Xeon, so the bound leaves some 10x headroom
        wl, cfg = _preset_workload(name, 2000)
        start = time.perf_counter()
        schedule = exact_schedule(wl, cfg)
        assert time.perf_counter() - start < 3
        assert resource_cost(schedule, cfg) == solvers._oracle_path(wl.arrivals, wl.departures, cfg)[1]


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
        assume(int(wl.arrivals.sum()) <= ENUMERATION_MAX_PARTICIPANTS)
        _check_oracle(wl, cfg)

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
        _check_oracle(wl, cfg)

    def test_zero_weight_last_column_releases_nothing(self):
        # the request at slot n - delta costs nothing either way; releasing
        # the departure there would tie on cost with a larger y
        cfg = Config(n=4, delta=2, theta=3)
        wl = Workload(arrivals=np.array([0, 0, 0, 1]), departures=np.array([0, 0, 0, 1]))
        schedule = exact_schedule(wl, cfg)
        assert schedule.changes.tolist() == [0, 1, 0, 0]
        assert resource_cost(schedule, cfg) == 0
        assert not _certify(wl, schedule, cfg).deallocations.any()

    def test_releases_are_priced_not_searched(self):
        # the release search visited 278 272 leaves here and took about 0.3 s
        cfg = Config(n=10, delta=2, theta=8)
        wl = Workload(arrivals=np.array([0, 3, 2, 2, 1, 0, 0, 0, 0, 0]),
                      departures=np.array([0, 2, 3, 2, 1, 0, 0, 0, 0, 0]))
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            exact_schedule(wl, cfg)
            samples.append(time.perf_counter() - start)
        assert median(samples) < 0.15


class TestOraclePrice:
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

        arr_cohorts, dep_cohorts, due, freed = solvers._prefixes(wl.arrivals.tolist(), wl.departures.tolist(), cfg)
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
        assert solvers._oracle_path(wl.arrivals, wl.departures, cfg)[1] == min(costs)
        assert resource_cost(exact_schedule(wl, cfg), cfg) == min(costs)

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
        # the program caps each column at n entries of the arrival total; the
        # simulator has no such bound and accepts the over-provisioned plan
        workload, cfg = _LONE_STAY
        assert _lifts(workload, Schedule(np.array([8, 0, 0, 0, 0, 0, 0, 0])), cfg)
        schedule = Schedule(np.array([9, 0, 0, 0, 0, 0, 0, 0]))
        assert check_feasibility(workload, schedule, cfg) == []
        with pytest.raises(LiftError, match="request at slot 1"):
            lift_schedule(workload, schedule, cfg)

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

    @given(case=_spaced_cases())
    # over-provisioning past the big-M: the simulator accepts, the lift raises
    @example(case=(Workload(np.array([1, 0, 0]), np.zeros(3, dtype=int)),
                   Schedule(np.array([4, 0, 0])), Config(n=3, delta=2, theta=3)))
    @settings(max_examples=300, deadline=None)
    def test_simulator_and_program_differ_only_in_the_three_classes(self, case):
        # the simulator accepts what the lift refuses only through freed
        # capacity reuse or capacity past the big-M; the lift validates what
        # the simulator refuses only through overcommit
        workload, schedule, cfg = case
        violations = check_feasibility(workload, schedule, cfg)
        try:
            matrices = lift_schedule(workload, schedule, cfg)
        except LiftError as exc:
            if not violations:
                assert re.match(r"no request flags cover |"
                                r"request at slot \d+ adds more than n entries ", str(exc))
            return
        assert validate_solution(matrices, workload, cfg) == []
        assert {v.kind for v in violations} <= {"capacity_below_occupancy"}

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

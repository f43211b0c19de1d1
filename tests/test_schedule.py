import json
from collections import deque
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import capsched.schedule as schedule_module
from capsched import (
    SCENARIO_PRESETS,
    Config,
    CostReport,
    ScenarioParams,
    Schedule,
    ScheduleFormatError,
    Violation,
    Workload,
    WorkloadFormatError,
    adaptive_schedule,
    check_feasibility,
    evaluate,
    format_schedule,
    format_workload,
    generate_workload,
    greedy_schedule,
    mandatory_load,
    parse_schedule,
    resource_cost,
    simulate,
)
from capsched.workload import INT64_MAX, INT64_MIN
from json_reference import _reference_read_json_object, assert_reads_alike, edited, json_lists


def sched(*changes):
    return Schedule(np.array(changes, dtype=np.int64))


def _queue_account(rep):
    """Per-slot admissions and departures while waiting, read from the
    cumulative curves: within a slot, departures leave the queue first."""
    before = np.maximum(rep.exited[:-1], rep.departed[1:])
    return (rep.exited[1:] - before).tolist(), (before - rep.exited[:-1]).tolist()


def _queue_exits(rep):
    """(arrival slot, slot it left the queue) of each participant in arrival
    order; the participant count must be small."""
    k = np.arange(1, rep.exited[-1] + 1)
    return list(zip(np.searchsorted(rep.arrived, k).tolist(),
                    np.searchsorted(rep.exited, k).tolist()))


def _reference_parse_schedule(text):
    doc = _reference_read_json_object(text, "schedule", ScheduleFormatError,
                                      ("n", "delta"), ("changes",))
    n, delta, changes = doc["n"], doc["delta"], doc["changes"]
    if len(changes) != n:
        raise ScheduleFormatError(f"changes has {len(changes)} entries but n is {n}")
    if not 2 <= delta <= n - 1:
        raise ScheduleFormatError(f"delta must lie in 2..n-1, got delta={delta} with n={n}")
    return n, delta, Schedule(np.array(changes, dtype=np.int64))


@st.composite
def schedule_docs(draw):
    n = draw(st.integers(1, 8))
    return {"n": n, "delta": draw(st.sampled_from([2, n - 1, n])),
            "changes": draw(st.one_of(json_lists(draw(st.sampled_from([n, n, 0, n + 1]))),
                                      st.integers(0, 9)))}


@st.composite
def int64_schedules(draw):
    """A schedule at 3 to 50 slots with changes anywhere in int64 that keep
    the running sum in int64."""
    n = draw(st.integers(3, 50))
    changes, total = [], 0
    for v in draw(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=n, max_size=n)):
        v = v if INT64_MIN <= total + v <= INT64_MAX else 0
        total += v
        changes.append(v)
    return Config(n=n, delta=2, theta=3), sched(*changes)


@st.composite
def planned_schedules(draw):
    """An ads or greedy plan of a generated workload at 4 to 40 slots, whose
    changes of either sign have up to 18 digits."""
    config = Config(n=draw(st.integers(4, 40)), delta=2, theta=3)
    workload = generate_workload(ScenarioParams(
        name="t", amplitude=draw(st.sampled_from([9, 1500, 10 ** 16])),
        seed=draw(st.integers(0, 2 ** 32))), config)
    planner = draw(st.sampled_from([adaptive_schedule, greedy_schedule]))
    return config, planner(workload, config)


def assert_parses_alike(text):
    """_read_json_object and parse_schedule read text as the references do,
    returning equal values or raising the same message."""
    assert_reads_alike(text, "schedule", ScheduleFormatError, ("n", "delta"), ("changes",))
    try:
        n, delta, expected = _reference_parse_schedule(text)
    except ScheduleFormatError as exc:
        with pytest.raises(ScheduleFormatError) as info:
            parse_schedule(text)
        assert str(info.value) == str(exc)
        return
    got = parse_schedule(text)
    assert got[:2] == (n, delta)
    assert np.array_equal(got[2].changes, expected.changes)


class TestContainer:
    def test_sums_beyond_int64_are_rejected(self):
        # check_feasibility would otherwise see capacity -2^63 at slot 5
        with pytest.raises(ScheduleFormatError,
                           match="changes summed through slot 3 exceed the int64 range"):
            sched(2 ** 62, 0, 2 ** 62, 0, 0, 0)

    @given(changes=st.lists(st.sampled_from([0, -1, 1, 2 ** 62, -2 ** 62, -2 ** 63, 2 ** 63 - 1])
                            | st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_sum_check_equals_exact_sums(self, changes):
        over = [k + 1 for k, total in enumerate(accumulate(changes))
                if not -2 ** 63 <= total < 2 ** 63]
        if over:
            with pytest.raises(ScheduleFormatError,
                               match=f"changes summed through slot {over[0]} exceed"):
                sched(*changes)
        else:
            assert sched(*changes).changes.tolist() == changes


    def test_unsigned_entries_beyond_int64_are_rejected(self):
        # cast to int64, 2^63 wrapped to -2^63
        with pytest.raises(ScheduleFormatError,
                           match="changes has an entry outside the int64 range at slot 2"):
            Schedule(np.array([0, 2 ** 63], dtype=np.uint64))
        assert Schedule(np.array([2 ** 63 - 1], dtype=np.uint64)).changes.tolist() == [2 ** 63 - 1]


class TestTrajectory:
    def test_lag_shifts_activation(self, ref_config, ref_workload):
        s = sched(0, 3, 0, 0, -2, 0, 0, 0)
        assert simulate(ref_workload, s, ref_config).capacity.tolist() == [0, 0, 0, 3, 3, 3, 1, 1]

    def test_span_mismatch_rejected(self, ref_config, ref_workload):
        with pytest.raises(ScheduleFormatError):
            simulate(ref_workload, sched(0, 0, 0), ref_config)


class TestResourceCost:
    def test_reference_costs(self, ref_config):
        assert resource_cost(sched(0, 3, 0, 0, -2, 0, 0, 0), ref_config) == 10
        assert resource_cost(sched(3, 0, -2, 0, 0, 0, 0, 0), ref_config) == 9
        assert resource_cost(sched(0, 2, 0, -1, 0, 0, 0, 0), ref_config) == 6

    def test_change_at_effect_boundary_is_free(self):
        cfg = Config(n=6, delta=2, theta=3)
        assert resource_cost(sched(0, 0, 0, 5, 0, 0), cfg) == 0

    def test_cost_beyond_int64_is_exact(self):
        cfg = Config(n=10, delta=2, theta=3)
        big = 2 ** 62
        assert resource_cost(sched(big, 0, 0, 0, 0, 0, 0, 0, 0, 0), cfg) == 7 * big

    @given(data=st.data(), n=st.integers(3, 60))
    @settings(max_examples=300, deadline=None)
    def test_cost_is_the_capacity_summed_over_slots_1_to_n_minus_1(self, data, n):
        delta = data.draw(st.integers(2, n - 1))
        cfg = Config(n=n, delta=delta, theta=data.draw(st.integers(delta + 1, n)))
        changes = data.draw(st.lists(st.integers(-2 ** 40 + 1, 2 ** 40 - 1) | st.just(0),
                                     min_size=n, max_size=n))
        cost = sum(c * (n - j - delta) for j, c in enumerate(changes[:n - delta], start=1))
        capacity = simulate(Workload(np.zeros(n, dtype=int), np.zeros(n, dtype=int)),
                            sched(*changes), cfg).capacity.tolist()
        assert resource_cost(sched(*changes), cfg) == cost == sum(capacity[:n - 1])

    @given(changes=st.lists(st.integers(-6, 6), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_cost_equals_area_under_raw_trajectory(self, changes):
        # summing the trajectory double-counts each change once per active
        # slot including the activation slot, hence the correction term
        cfg = Config(n=8, delta=2, theta=3)
        s = sched(*changes)
        cum = np.concatenate([[0], np.cumsum(s.changes)])
        idx = np.clip(np.arange(1, cfg.n + 1) - cfg.delta, 0, cfg.n)
        raw = cum[idx]
        assert resource_cost(s, cfg) == int(raw.sum()) - int(s.changes[: 6].sum())


class TestSimulate:
    def test_reference_adaptive_report(self, ref_config, ref_workload):
        rep = simulate(ref_workload, sched(0, 3, 0, 0, -2, 0, 0, 0), ref_config)
        assert rep.qos_cost == 7
        # the two slot-1 joiners wait 3 slots and the slot-3 joiner 1, all
        # admitted at slot 4
        assert _queue_exits(rep) == [(1, 4), (1, 4), (3, 4)]
        assert _queue_account(rep) == ([0, 0, 0, 3, 0, 0, 0, 0], [0] * 8)
        assert rep.theta_violations == []
        assert rep.unadmitted == {}
        assert rep.overcommit == []

    def test_reference_greedy_report(self, ref_config, ref_workload):
        rep = simulate(ref_workload, sched(3, 0, -2, 0, 0, 0, 0, 0), ref_config)
        assert rep.qos_cost == 4
        assert _queue_exits(rep) == [(1, 3), (1, 3), (3, 3)]
        assert _queue_account(rep) == ([0, 0, 3, 0, 0, 0, 0, 0], [0] * 8)

    def test_departure_frees_room_for_waiting(self, ref_config, ref_workload):
        # two slot-1 joiners leave at slot 5, making room for the slot-3 one
        rep = simulate(ref_workload, sched(0, 2, 0, -1, 0, 0, 0, 0), ref_config)
        assert rep.qos_cost == 8
        assert _queue_exits(rep) == [(1, 4), (1, 4), (3, 5)]
        assert _queue_account(rep) == ([0, 0, 0, 2, 1, 0, 0, 0], [0] * 8)

    def test_departure_can_hit_waiting_participant(self):
        cfg = Config(n=6, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0]),
                      departures=np.array([0, 0, 1, 0, 0, 0]))
        rep = simulate(wl, sched(0, 0, 0, 0, 0, 0), cfg)
        # the participant waited slots 1..3 and left without admission
        assert _queue_exits(rep) == [(1, 3)]
        assert _queue_account(rep) == ([0] * 6, [0, 0, 1, 0, 0, 0])
        assert rep.qos_cost == 2
        assert rep.unadmitted == {}
        assert rep.theta_violations == []

    def test_late_capacity_flags_long_wait(self):
        cfg = Config(n=8, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        rep = simulate(wl, sched(0, 0, 0, 1, 0, 0, 0, 0), cfg)
        # admitted at slot 6 after waiting 5 slots
        assert _queue_exits(rep) == [(1, 6)]
        assert _queue_account(rep) == ([0, 0, 0, 0, 0, 1, 0, 0], [0] * 8)
        assert rep.theta_violations == [1]

    def test_never_admitted_participants_are_flagged(self):
        cfg = Config(n=5, delta=2, theta=3)
        wl = Workload(arrivals=np.array([0, 2, 0, 0, 0]),
                      departures=np.zeros(5, dtype=int))
        rep = simulate(wl, sched(0, 0, 0, 0, 0), cfg)
        assert rep.unadmitted == {2: 2}
        assert rep.theta_violations == [2]
        assert rep.qos_cost == 0

    def test_overcommit_recorded_when_capacity_drops(self):
        cfg = Config(n=8, delta=2, theta=3)
        wl = Workload(arrivals=np.array([2, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        rep = simulate(wl, sched(2, 0, -1, 0, 0, 0, 0, 0), cfg)
        # both admitted at slot 3, then capacity falls to 1 under them
        assert _queue_exits(rep) == [(1, 3), (1, 3)]
        assert _queue_account(rep) == ([0, 0, 2, 0, 0, 0, 0, 0], [0] * 8)
        assert [(t, occ, cap) for t, occ, cap in rep.overcommit] == [
            (5, 2, 1), (6, 2, 1), (7, 2, 1), (8, 2, 1)]


def _reference_simulate(workload, schedule, config):
    """The slot-by-slot FIFO replay that simulate's closed form replaced.

    Returns every SimulationReport field but the cumulative curves as plain
    Python values, plus, per slot, the admitted and waiting counts after it
    and the participants it admitted and lost from the queue by departure.
    """
    n, delta, theta = config.n, config.delta, config.theta
    cum = [0] + list(accumulate(schedule.changes.tolist()))
    cap_at = [cum[max(t - delta, 0)] for t in range(1, n + 1)]
    arrivals = workload.arrivals.tolist()
    departures = workload.departures.tolist()

    waiting = deque()    # [arrival slot, count], arrival order
    admitted_total = 0
    qos = 0
    violators = set()
    overcommit, admitted_after, waiting_after = [], [], []
    admitted_at, departed_waiting_at = [0] * n, [0] * n

    def record_wait(arr_slot, count, wait):
        nonlocal qos
        qos += wait * count
        if wait > theta:
            violators.add(arr_slot)

    for t in range(1, n + 1):
        a = arrivals[t - 1]
        if a:
            waiting.append([t, a])
        d = departures[t - 1]
        take = min(d, admitted_total)
        admitted_total -= take
        d -= take
        while d > 0:
            assert waiting, f"departures at slot {t} exceed participants present"
            batch = waiting[0]
            take = min(d, batch[1])
            batch[1] -= take
            record_wait(batch[0], take, t - batch[0])
            departed_waiting_at[t - 1] += take
            if batch[1] == 0:
                waiting.popleft()
            d -= take
        free = cap_at[t - 1] - admitted_total
        if free < 0:
            overcommit.append((t, admitted_total, cap_at[t - 1]))
        while free > 0 and waiting:
            batch = waiting[0]
            take = min(free, batch[1])
            batch[1] -= take
            if batch[1] == 0:
                waiting.popleft()
            record_wait(batch[0], take, t - batch[0])
            admitted_at[t - 1] += take
            admitted_total += take
            free -= take
        admitted_after.append(admitted_total)
        waiting_after.append(sum(count for _, count in waiting))

    unadmitted = {arr: count for arr, count in waiting if count > 0}
    violators.update(unadmitted)
    return {"qos_cost": qos, "theta_violations": sorted(violators), "capacity": cap_at,
            "unadmitted": unadmitted, "overcommit": overcommit, "admitted": admitted_after,
            "waiting": waiting_after, "admitted_at": admitted_at,
            "departed_waiting_at": departed_waiting_at}


def _assert_matches_reference(workload, schedule, config):
    ref = _reference_simulate(workload, schedule, config)
    rep = simulate(workload, schedule, config)
    for name in ("qos_cost", "theta_violations", "overcommit"):
        assert getattr(rep, name) == ref[name], name
    # dict equality ignores order, so compare items in order
    assert list(rep.unadmitted.items()) == list(ref["unadmitted"].items())
    assert rep.capacity.tolist() == ref["capacity"]
    assert rep.arrived[0] == rep.departed[0] == rep.exited[0] == 0
    assert (rep.exited - rep.departed)[1:].tolist() == ref["admitted"]
    assert (rep.arrived - rep.exited)[1:].tolist() == ref["waiting"]
    assert _queue_account(rep) == (ref["admitted_at"], ref["departed_waiting_at"])
    return rep


def _reference_violations(workload, schedule, config, ref):
    """check_feasibility's list, slot by slot, from _reference_simulate's report."""
    n, delta, theta = config.n, config.delta, config.theta
    out = []
    hot = [j + 1 for j, c in enumerate(schedule.changes.tolist()) if c]
    for j, j2 in zip(hot, hot[1:]):
        if j2 - j < delta:
            out.append(Violation("separation", j, j2,
                                 f"requests {j2 - j} slots apart, need {delta}"))
    out += [Violation("tail_request", j, detail=f"cannot take effect by slot {n}")
            for j in hot if j > n - delta]
    cap, load = ref["capacity"], mandatory_load(workload, config).tolist()
    out += [Violation("negative_capacity", t, detail=f"capacity {c}")
            for t, c in enumerate(cap, start=1) if c < 0]
    out += [Violation("mandatory_load", t, detail=f"capacity {c} below floor {f}")
            for t, (c, f) in enumerate(zip(cap, load), start=1) if 0 <= c < f]
    for arr in ref["theta_violations"]:
        if arr in ref["unadmitted"]:
            out.append(Violation("never_admitted", arr, detail=f"{ref['unadmitted'][arr]} "
                                 "participants still waiting at horizon end"))
        else:
            out.append(Violation("theta_delay", arr, detail=f"waited beyond theta={theta}"))
    out += [Violation("capacity_below_occupancy", t, detail=f"{occ} admitted but capacity {c}")
            for t, occ, c in ref["overcommit"]]
    return out


def _configs(draw):
    # Config needs n >= theta > delta >= 2, so n starts at 3
    n = draw(st.integers(3, 30))
    delta = draw(st.integers(2, n - 1))
    return Config(n=n, delta=delta, theta=draw(st.integers(delta + 1, n)))


@st.composite
def _fifo_instances(draw, config=None):
    """A workload and a schedule with any capacity path: negative levels,
    drops under admitted participants, departures that reach the queue,
    cohorts never admitted, and at most one cohort near 2^62 (two would pass
    int64 in sum); the config is drawn unless given."""
    config = config or _configs(draw)
    n = config.n
    arrivals = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    big = draw(st.none() | st.integers(0, n - 1))
    if big is not None:
        arrivals[big] += 2 ** 62 + draw(st.integers(-3, 3))
    departures, present = [], 0
    for a in arrivals:
        present += a
        d = draw(st.just(0) | st.integers(0, min(present, 3)) | st.integers(0, present))
        departures.append(d)
        present -= d
    total = sum(arrivals)
    levels, level = [], 0
    for _ in range(n):
        if draw(st.booleans()):
            level = draw(st.integers(-2, 6) | st.sampled_from([total - 1, total, total + 1]))
        levels.append(level)
    changes = [levels[0]] + [b - a for a, b in zip(levels, levels[1:])]
    return config, Workload(np.array(arrivals), np.array(departures)), sched(*changes)


@st.composite
def _blocks(draw):
    """A config and one to five instances drawn for it, rows of one block."""
    config = _configs(draw)
    return config, draw(st.lists(_fifo_instances(config), min_size=1, max_size=5))


class TestClosedForm:
    @given(instance=_fifo_instances())
    # a wait of exactly theta, which is not late
    @example(instance=(Config(n=8, delta=2, theta=3), Workload(np.eye(1, 8, dtype=int)[0],
                                                               np.zeros(8, dtype=int)),
                       sched(0, 1, 0, 0, 0, 0, 0, 0)))
    # a 2^62 cohort waits 4 slots, so qos_cost passes int64; the slot-5
    # joiner is never admitted
    @example(instance=(Config(n=6, delta=2, theta=3),
                       Workload(np.array([2 ** 62, 0, 0, 0, 1, 0]), np.zeros(6, dtype=int)),
                       sched(0, 0, 2 ** 62, 0, 0, 0)))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_slot_loop(self, instance):
        config, workload, schedule = instance
        _assert_matches_reference(workload, schedule, config)
        assert check_feasibility(workload, schedule, config) == _reference_violations(
            workload, schedule, config, _reference_simulate(workload, schedule, config))

    @given(block=_blocks())
    @settings(max_examples=100, deadline=None)
    def test_block_rows_equal_the_slot_loop(self, block):
        # evaluate is the one-row case; a block of rows sharing a config must
        # give every row the report the slot-by-slot replay gives it
        config, rows = block
        reports = schedule_module._evaluate_rows(
            *(np.stack([getattr(item, field) for _, item, _ in rows])
              for field in ("arrivals", "departures")),
            np.stack([changes.changes for _, _, changes in rows]), config)
        for (_, workload, schedule), report in zip(rows, reports):
            ref = _reference_simulate(workload, schedule, config)
            n, delta = config.n, config.delta
            cost = sum(c * (n - j - delta)
                       for j, c in enumerate(schedule.changes.tolist()[:n - delta], start=1))
            assert report == CostReport(cost, ref["qos_cost"], max(ref["capacity"]),
                                        int(np.count_nonzero(schedule.changes)),
                                        tuple(_reference_violations(workload, schedule,
                                                                    config, ref)))
            assert report == evaluate(workload, schedule, config)

    @given(block=_blocks())
    # a 2^62 cohort waits 4 slots, so qos_cost passes int64, and the slot-5
    # joiner is never admitted
    @example(block=(Config(n=6, delta=2, theta=3), [
        (None, Workload(np.array([2 ** 62, 0, 0, 0, 1, 0]), np.zeros(6, dtype=int)),
         sched(0, 0, 2 ** 62, 0, 0, 0))]))
    @settings(max_examples=100, deadline=None)
    def test_replay_qos_equals_the_slot_loop(self, block):
        # the closed form caps the waiting at exited[n]: those still waiting
        # at the horizon end are charged nothing, as the loop never charges them
        config, rows = block
        refs = [_reference_simulate(workload, schedule, config) for _, workload, schedule in rows]
        assume(any(ref["unadmitted"] for ref in refs))
        replay = schedule_module._replay(
            *(np.stack([getattr(item, field) for _, item, _ in rows])
              for field in ("arrivals", "departures")),
            np.stack([changes.changes for _, _, changes in rows]), config)
        assert replay.qos == [ref["qos_cost"] for ref in refs]

    def test_each_flag_alone_reports_its_row(self, ref_config):
        # one row a kind the block flags: separation, tail_request,
        # never_admitted (a late cohort), capacity_below_occupancy; then
        # negative capacity and the mandatory load, which overcommit too
        empty = np.zeros(8, dtype=int)
        last = Workload(np.eye(1, 8, 6, dtype=int)[0], empty)
        held = Workload(np.array([2, 0, 0, 0, 2, 0, 0, 0]), np.array([0, 0, 0, 0, 2, 0, 0, 0]))
        first = Workload(np.eye(1, 8, dtype=int)[0], empty)
        rows = [(Workload(empty, empty), sched(1, 1, 0, 0, 0, 0, 0, 0)),
                (Workload(empty, empty), sched(0, 0, 0, 0, 0, 0, 0, 1)),
                (last, sched(0, 0, 0, 0, 0, 0, 0, 0)),
                (held, sched(0, 2, 0, -2, 0, 2, 0, 0)),
                (Workload(empty, empty), sched(-1, 0, 0, 0, 0, 0, 0, 0)),
                (first, sched(1, 0, -1, 0, 0, 0, 0, 0))]
        reports = schedule_module._evaluate_rows(
            np.stack([w.arrivals for w, _ in rows]), np.stack([w.departures for w, _ in rows]),
            np.stack([s.changes for _, s in rows]), ref_config)
        assert [sorted({v.kind for v in report.violations}) for report in reports] == [
            ["separation"], ["tail_request"], ["never_admitted"],
            ["capacity_below_occupancy"], ["capacity_below_occupancy", "negative_capacity"],
            ["capacity_below_occupancy", "mandatory_load"]]
        for (workload, schedule), report in zip(rows, reports):
            assert list(report.violations) == _reference_violations(
                workload, schedule, ref_config, _reference_simulate(workload, schedule, ref_config))

    @pytest.mark.parametrize("planner", [adaptive_schedule, greedy_schedule])
    def test_equals_the_slot_loop_at_ten_thousand_slots(self, planner):
        values = SCENARIO_PRESETS["mmog"]
        config = Config(n=10_000, delta=values["delta"], theta=values["theta"])
        workload = generate_workload(
            ScenarioParams(name="mmog", amplitude=values["amplitude"], seed=3), config)
        _assert_matches_reference(workload, planner(workload, config), config)

    @given(counts=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=3, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_queue_never_runs_dry(self, counts):
        # Workload refuses every prefix where departures outrun arrivals, so
        # the replay always finds someone present to depart
        arrivals, departures = map(list, zip(*counts))
        try:
            workload = Workload(np.array(arrivals), np.array(departures))
        except WorkloadFormatError:
            assert any(d > a for a, d in zip(accumulate(arrivals), accumulate(departures)))
            return
        config = Config(n=len(counts), delta=2, theta=3)
        _assert_matches_reference(workload, sched(*[0] * config.n), config)


class TestCheckFeasibility:
    def test_clean_schedule_has_no_violations(self, ref_config, ref_workload):
        assert check_feasibility(ref_workload, sched(0, 3, 0, 0, -2, 0, 0, 0),
                                 ref_config) == []

    def test_request_spacing(self, ref_config, ref_workload):
        out = check_feasibility(ref_workload, sched(2, 1, 0, 0, -2, 0, 0, 0),
                                ref_config)
        assert any(v.kind == "separation" and (v.slot, v.slot2) == (1, 2)
                   for v in out)

    def test_tail_request(self, ref_config, ref_workload):
        out = check_feasibility(ref_workload, sched(3, 0, 0, -2, 0, 0, 0, 1),
                                ref_config)
        assert any(v.kind == "tail_request" and v.slot == 8 for v in out)

    def test_negative_capacity(self, ref_config, ref_workload):
        out = check_feasibility(ref_workload, sched(3, 0, 0, -4, 0, 0, 3, 0),
                                ref_config)
        assert any(v.kind == "negative_capacity" and v.slot == 6 for v in out)

    def test_negative_capacity_names_each_slot(self, ref_config, ref_workload):
        # capacity 1 from slot 4, then -1 from slot 6 when the drop of 2 lands
        out = check_feasibility(ref_workload, sched(0, 1, 0, -2, 0, 0, 0, 0), ref_config)
        assert [(v.slot, v.detail) for v in out if v.kind == "negative_capacity"] == [
            (6, "capacity -1"), (7, "capacity -1"), (8, "capacity -1")]

    def test_mandatory_load_floor(self, ref_config, ref_workload):
        # capacity stays at 1 from slot 4 on, below the floor of 2 at slot 4
        out = check_feasibility(ref_workload, sched(0, 1, 0, 0, 0, 0, 0, 0),
                                ref_config)
        assert any(v.kind == "mandatory_load" and v.slot == 4 for v in out)

    def test_never_admitted(self, ref_config, ref_workload):
        out = check_feasibility(ref_workload, sched(0, 0, 0, 0, 0, 0, 0, 0),
                                ref_config)
        kinds = {v.kind for v in out}
        assert "never_admitted" in kinds

    def test_violation_rendering(self):
        v = Violation("separation", 3, 4, "requests 1 slots apart, need 2")
        assert v.render() == ("VIOLATION separation slot=3 slot2=4 "
                              "detail=requests 1 slots apart, need 2")


class TestEvaluate:
    def test_reference_report(self, ref_config, ref_workload):
        rep = evaluate(ref_workload, sched(0, 3, 0, 0, -2, 0, 0, 0), ref_config)
        assert (rep.resource_cost, rep.qos_cost, rep.max_capacity,
                rep.num_requests, rep.feasible) == (10, 7, 3, 2, True)

    def test_infeasible_schedule_still_reports_costs(self, ref_config, ref_workload):
        rep = evaluate(ref_workload, sched(0, 0, 0, 0, 0, 0, 0, 0), ref_config)
        assert not rep.feasible
        assert rep.resource_cost == 0


class TestSerialization:
    def test_round_trip(self, ref_config):
        s = sched(0, 3, 0, 0, -2, 0, 0, 0)
        text = format_schedule(ref_config, s)
        n, delta, parsed = parse_schedule(text)
        assert (n, delta) == (8, 2)
        assert np.array_equal(parsed.changes, s.changes)
        assert format_schedule(ref_config, parsed) == text

    def test_parse_rejects_missing_changes(self):
        with pytest.raises(ScheduleFormatError, match="changes"):
            parse_schedule('{"n": 3, "delta": 2}')

    def test_parse_rejects_length_mismatch(self):
        with pytest.raises(ScheduleFormatError):
            parse_schedule('{"n": 4, "delta": 2, "changes": [0, 0]}')

    @pytest.mark.parametrize("changes, slot", [([2 ** 62, 2 ** 62, 0], 2),
                                               ([-2 ** 62, -2 ** 62, -1], 3)])
    def test_parse_rejects_sums_beyond_int64(self, changes, slot):
        text = json.dumps({"n": 3, "delta": 2, "changes": changes})
        with pytest.raises(ScheduleFormatError,
                           match=f"changes summed through slot {slot} exceed the int64 range"):
            parse_schedule(text)

    @pytest.mark.parametrize("n, delta", [(3, -7), (3, 1), (3, 3), (8, 8), (2, 2), (0, 2)])
    def test_parse_rejects_deltas_no_config_holds(self, n, delta):
        text = json.dumps({"n": n, "delta": delta, "changes": [0] * n})
        with pytest.raises(ScheduleFormatError) as info:
            parse_schedule(text)
        assert str(info.value) == f"delta must lie in 2..n-1, got delta={delta} with n={n}"

    @pytest.mark.parametrize("n, delta", [(3, 2), (8, 7)])
    def test_parse_accepts_every_delta_a_config_holds(self, n, delta):
        text = json.dumps({"n": n, "delta": delta, "changes": [0] * n})
        assert parse_schedule(text)[:2] == (n, delta)

    @pytest.mark.parametrize("text, message", [
        ('{"n": 3, "delta": 2, "changes": [0, 0, 0], "changes": [1, 0, 0]}',
         "duplicate schedule field: changes"),
        ('{"delta": 2, "n": 3, "changes": [0, 0, 0], "delta": 2}',
         "duplicate schedule field: delta"),
    ])
    def test_parse_rejects_repeated_field(self, text, message):
        with pytest.raises(ScheduleFormatError) as info:
            parse_schedule(text)
        assert str(info.value) == message
        assert_reads_alike(text, "schedule", ScheduleFormatError, ("n", "delta"), ("changes",))

    def test_parse_rejects_fractional_change(self):
        with pytest.raises(ScheduleFormatError, match="slot 1"):
            parse_schedule('{"n": 2, "delta": 2, "changes": [0.5, 0]}')

    @given(int64_schedules())
    @example((Config(n=3, delta=2, theta=3), sched(INT64_MAX, INT64_MIN, 0)))
    @settings(max_examples=200, deadline=None)
    def test_format_equals_json_dumps_with_indent(self, instance):
        config, schedule = instance
        doc = {"n": config.n, "delta": config.delta, "changes": schedule.changes.tolist()}
        assert format_schedule(config, schedule) == json.dumps(doc, indent=2) + "\n"

    @given(schedule_docs())
    @settings(max_examples=500, deadline=None)
    def test_reader_and_parser_equal_the_entry_loop(self, doc):
        # compact text goes to the decoder, the writer's indented layout to the array pass
        for text in (json.dumps(doc), json.dumps(doc, indent=2) + "\n"):
            assert_parses_alike(text)

    @given(st.one_of(int64_schedules(), planned_schedules()).flatmap(
        lambda instance: edited(format_schedule(*instance))))
    @example('{\n  "n": 3,\n  "delta": 2,\n  "changes": [\n    -9223372036854775808,\n'
             '    9223372036854775807,\n    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "changes": [\n    1,\n    -0,\n    -1\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "changes": [\n    1,\n    -01,\n    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "changes": [\n    0,\n    -9999999999999999999,\n'
             '    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": \uff12,\n  "changes": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @example('{\n  "n": 1\uff13,\n  "delta": 2,\n  "changes": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @settings(max_examples=500, deadline=None)
    def test_edited_layout_reads_as_the_decoder_reads_it(self, text):
        assert_parses_alike(text)

    # the smallest horizon any Config holds, lp-roundtrip's and long-horizon's
    @pytest.mark.parametrize("n, delta, theta", [(3, 2, 3), (40, 3, 4), (2000, 3, 4)])
    def test_canonical_text_skips_the_decoder(self, n, delta, theta):
        config = Config(n=n, delta=delta, theta=theta)
        workload = generate_workload(
            ScenarioParams(name="mmog", amplitude=SCENARIO_PRESETS["mmog"]["amplitude"]), config)
        schedule = adaptive_schedule(workload, config)
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads used")):
            got_n, got_delta, parsed = parse_schedule(format_schedule(config, schedule))
        assert (got_n, got_delta) == (n, delta)
        assert np.array_equal(parsed.changes, schedule.changes)

    def test_writers_skip_the_pure_python_encoder(self, monkeypatch, ref_config, ref_workload):
        # json.dumps(..., indent=2) builds its encoder here, once per call
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        format_workload(ref_config, ref_workload)
        format_schedule(ref_config, sched(0, 3, 0, 0, -2, 0, 0, 0))

    def test_round_trip_at_ten_thousand_slots(self):
        values = SCENARIO_PRESETS["mmog"]
        config = Config(n=10_000, delta=values["delta"], theta=values["theta"])
        workload = generate_workload(
            ScenarioParams(name="mmog", amplitude=values["amplitude"], seed=3), config)
        schedule = adaptive_schedule(workload, config)
        text = format_schedule(config, schedule)
        n, delta, parsed = parse_schedule(text)
        assert (n, delta) == (config.n, config.delta)
        assert np.array_equal(parsed.changes, schedule.changes)
        assert format_schedule(config, parsed) == text


class TestGuards:
    @pytest.mark.parametrize("changes, message", [
        (np.zeros((2, 2), dtype=np.int64), "changes must be a non-empty 1-d array"),
        (np.zeros(0, dtype=np.int64), "changes must be a non-empty 1-d array"),
        (np.array([0.5, 0.0]), "changes must contain integers"),
    ])
    def test_rejections_name_the_fault(self, changes, message):
        with pytest.raises(ScheduleFormatError) as info:
            Schedule(changes)
        assert str(info.value) == message

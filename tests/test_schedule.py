import json
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsched import (
    Config,
    InfeasibleScheduleError,
    Schedule,
    ScheduleFormatError,
    Workload,
    capacity_trajectory,
    check_feasibility,
    evaluate,
    format_schedule,
    parse_schedule,
    resource_cost,
    simulate,
)


def sched(*changes):
    return Schedule(np.array(changes, dtype=np.int64))


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
    def test_lag_shifts_activation(self, ref_config):
        s = sched(0, 3, 0, 0, -2, 0, 0, 0)
        assert capacity_trajectory(s, ref_config).tolist() == [0, 0, 0, 3, 3, 3, 1, 1]

    def test_negative_capacity_raises_with_slot(self, ref_config):
        s = sched(0, 1, 0, -2, 0, 0, 0, 0)
        with pytest.raises(InfeasibleScheduleError, match="slot 6"):
            capacity_trajectory(s, ref_config)

    def test_span_mismatch_rejected(self, ref_config):
        with pytest.raises(ScheduleFormatError):
            capacity_trajectory(sched(0, 0, 0), ref_config)


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
        assert rep.waits == {3: 2, 1: 1}
        assert rep.admissions == {1: [(2, 4)], 3: [(1, 4)]}
        assert rep.theta_violations == []
        assert rep.unadmitted == {}
        assert rep.overcommit == []

    def test_reference_greedy_report(self, ref_config, ref_workload):
        rep = simulate(ref_workload, sched(3, 0, -2, 0, 0, 0, 0, 0), ref_config)
        assert rep.qos_cost == 4
        assert rep.waits == {2: 2, 0: 1}
        assert rep.admissions == {1: [(2, 3)], 3: [(1, 3)]}

    def test_departure_frees_room_for_waiting(self, ref_config, ref_workload):
        # two slot-1 joiners leave at slot 5, making room for the slot-3 one
        rep = simulate(ref_workload, sched(0, 2, 0, -1, 0, 0, 0, 0), ref_config)
        assert rep.qos_cost == 8
        assert rep.admissions == {1: [(2, 4)], 3: [(1, 5)]}

    def test_departure_can_hit_waiting_participant(self):
        cfg = Config(n=6, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0]),
                      departures=np.array([0, 0, 1, 0, 0, 0]))
        rep = simulate(wl, sched(0, 0, 0, 0, 0, 0), cfg)
        # the participant waited slots 1..3 and left without admission
        assert rep.departed_waiting == {1: [(1, 3)]}
        assert rep.qos_cost == 2
        assert rep.unadmitted == {}
        assert rep.theta_violations == []

    def test_late_capacity_flags_long_wait(self):
        cfg = Config(n=8, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                      departures=np.zeros(8, dtype=int))
        rep = simulate(wl, sched(0, 0, 0, 1, 0, 0, 0, 0), cfg)
        assert rep.admissions == {1: [(1, 6)]}
        assert rep.waits == {5: 1}
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
        assert rep.admissions == {1: [(2, 3)]}
        assert [(t, occ, cap) for t, occ, cap in rep.overcommit] == [
            (5, 2, 1), (6, 2, 1), (7, 2, 1), (8, 2, 1)]


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
        from capsched import Violation
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

    def test_parse_rejects_fractional_change(self):
        with pytest.raises(ScheduleFormatError, match="slot 1"):
            parse_schedule('{"n": 2, "delta": 2, "changes": [0.5, 0]}')

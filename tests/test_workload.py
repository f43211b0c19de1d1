import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsched import (
    Config,
    ConfigurationError,
    ScenarioParams,
    Workload,
    WorkloadFormatError,
    format_workload,
    generate_workload,
    mandatory_load,
    occupancy,
    parse_workload,
    segment_lengths,
)


class TestConfig:
    def test_accepts_reference_parameters(self):
        cfg = Config(n=8, delta=2, theta=3)
        assert (cfg.n, cfg.delta, cfg.theta) == (8, 2, 3)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "delta": 2, "theta": 3},
        {"n": 8, "delta": 1, "theta": 3},     # lag must exceed one slot
        {"n": 8, "delta": 3, "theta": 3},     # join delay must exceed the lag
        {"n": 8, "delta": 2, "theta": 9},     # join delay cannot exceed horizon
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            Config(**kwargs)


    @pytest.mark.parametrize("kwargs", [
        {"n": 2 ** 63, "delta": 2, "theta": 3},
        {"n": 10 ** 20, "delta": 2, "theta": 10 ** 19},
        {"n": 8, "delta": -(2 ** 63) - 1, "theta": 3},
    ])
    def test_rejects_dimensions_outside_int64(self, kwargs):
        with pytest.raises(ConfigurationError, match="int64"):
            Config(**kwargs)

    def test_accepts_the_largest_int64_horizon(self):
        assert Config(n=2 ** 63 - 1, delta=2, theta=3).n == 2 ** 63 - 1


class TestWorkloadContainer:
    def test_rejects_negative_counts(self):
        with pytest.raises(WorkloadFormatError, match="slot 2"):
            Workload(arrivals=np.array([1, -1, 0]), departures=np.zeros(3, dtype=int))

    def test_rejects_departures_ahead_of_arrivals(self):
        # cumulative departures may never exceed cumulative arrivals
        with pytest.raises(WorkloadFormatError, match="slot 2"):
            Workload(arrivals=np.array([1, 0, 2]), departures=np.array([0, 2, 0]))

    def test_same_slot_arrival_can_depart(self):
        wl = Workload(arrivals=np.array([1, 2, 0]), departures=np.array([1, 2, 0]))
        assert occupancy(wl).tolist() == [0, 0, 0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(WorkloadFormatError):
            Workload(arrivals=np.array([1, 0]), departures=np.zeros(3, dtype=int))


class TestSegments:
    @pytest.mark.parametrize("n,fraction,expected", [
        (8, 0.3, (3, 2, 3)),
        (100, 0.3, (35, 30, 35)),
        (10, 0.0, (5, 0, 5)),
        (10, 1.0, (0, 10, 0)),
    ])
    def test_lengths(self, n, fraction, expected):
        assert segment_lengths(n, fraction) == expected

    def test_segments_cover_horizon(self):
        for n in range(1, 40):
            for fraction in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
                growth, plateau, decay = segment_lengths(n, fraction)
                assert growth + plateau + decay == n
                assert min(growth, plateau, decay) >= 0


class TestGenerator:
    def test_frozen_draw(self):
        cfg = Config(n=8, delta=2, theta=3)
        wl = generate_workload(ScenarioParams(name="t", amplitude=2, seed=1), cfg)
        assert wl.arrivals.tolist() == [1, 1, 2, 2, 0, 0, 0, 0]
        assert wl.departures.tolist() == [0, 0, 0, 2, 0, 0, 0, 2]

    def test_deterministic_per_seed(self):
        cfg = Config(n=30, delta=3, theta=4)
        params = ScenarioParams(name="t", amplitude=30, seed=17)
        a = generate_workload(params, cfg)
        b = generate_workload(params, cfg)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.departures, b.departures)

    def test_seed_changes_draw(self):
        cfg = Config(n=30, delta=3, theta=4)
        a = generate_workload(ScenarioParams(name="t", amplitude=30, seed=0), cfg)
        b = generate_workload(ScenarioParams(name="t", amplitude=30, seed=1), cfg)
        assert not (np.array_equal(a.arrivals, b.arrivals)
                    and np.array_equal(a.departures, b.departures))

    def test_zero_amplitude_is_empty(self):
        cfg = Config(n=10, delta=2, theta=3)
        wl = generate_workload(ScenarioParams(name="t", amplitude=0, seed=3), cfg)
        assert not wl.arrivals.any()
        assert not wl.departures.any()

    @given(seed=st.integers(0, 10 ** 6), amplitude=st.integers(0, 50),
           n=st.integers(4, 40))
    @settings(max_examples=60, deadline=None)
    def test_generated_shape(self, seed, amplitude, n):
        cfg = Config(n=n, delta=2, theta=3)
        wl = generate_workload(ScenarioParams(name="t", amplitude=amplitude,
                                              seed=seed), cfg)
        growth, plateau, decay = segment_lengths(n, 0.3)
        # nobody joins during decay, nobody leaves during growth
        assert not wl.arrivals[growth + plateau:].any()
        assert not wl.departures[:growth].any()
        assert wl.arrivals.max(initial=0) <= amplitude
        # container construction already enforced the prefix invariant
        assert occupancy(wl).min(initial=0) >= 0


class TestDerivedSeries:
    def test_reference_occupancy(self, ref_config, ref_workload):
        assert occupancy(ref_workload).tolist() == [2, 2, 3, 3, 1, 1, 1, 1]

    def test_reference_mandatory_load(self, ref_config, ref_workload):
        load = mandatory_load(ref_workload, ref_config)
        assert load.values.tolist() == [0, 0, 0, 2, 0, 1, 1, 1]

    def test_load_is_zero_inside_grace_window(self, ref_config, ref_workload):
        load = mandatory_load(ref_workload, ref_config).values
        assert not load[: ref_config.theta].any()

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_load_matches_direct_count(self, seed):
        cfg = Config(n=14, delta=2, theta=4)
        wl = generate_workload(ScenarioParams(name="t", amplitude=5, seed=seed), cfg)
        load = mandatory_load(wl, cfg).values
        for i in range(1, cfg.n + 1):
            overdue = int(wl.arrivals[: max(i - cfg.theta, 0)].sum())
            gone = int(wl.departures[:i].sum())
            assert load[i - 1] == max(0, overdue - gone)


class TestSerialization:
    def test_round_trip(self, ref_config, ref_workload):
        text = format_workload(ref_config, ref_workload)
        cfg, wl = parse_workload(text)
        assert cfg == ref_config
        assert np.array_equal(wl.arrivals, ref_workload.arrivals)
        assert np.array_equal(wl.departures, ref_workload.departures)
        assert format_workload(cfg, wl) == text

    def test_parse_rejects_missing_field(self):
        payload = {"n": 3, "delta": 2, "theta": 3, "arrivals": [0, 0, 0]}
        with pytest.raises(WorkloadFormatError, match="departures"):
            parse_workload(json.dumps(payload))

    def test_parse_rejects_unknown_field(self):
        payload = {"n": 3, "delta": 2, "theta": 3, "arrivals": [0, 0, 0],
                   "departures": [0, 0, 0], "extra": 1}
        with pytest.raises(WorkloadFormatError, match="extra"):
            parse_workload(json.dumps(payload))

    def test_parse_rejects_fractional_entry(self):
        payload = {"n": 3, "delta": 2, "theta": 3, "arrivals": [0, 1.5, 0],
                   "departures": [0, 0, 0]}
        with pytest.raises(WorkloadFormatError, match="slot 2"):
            parse_workload(json.dumps(payload))

    def test_parse_rejects_wrong_length(self):
        payload = {"n": 4, "delta": 2, "theta": 3, "arrivals": [0, 0, 0],
                   "departures": [0, 0, 0, 0]}
        with pytest.raises(WorkloadFormatError):
            parse_workload(json.dumps(payload))

    def test_parse_rejects_non_object(self):
        with pytest.raises(WorkloadFormatError):
            parse_workload("[1, 2, 3]")

    def test_parse_rejects_bad_json(self):
        with pytest.raises(WorkloadFormatError):
            parse_workload("{not json")

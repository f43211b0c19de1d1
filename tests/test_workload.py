import json
import time
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsched import (
    SCENARIO_PRESETS,
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
from capsched.workload import INT64_MAX, INT64_MIN, _write_json_object
from json_reference import INT64, _reference_read_json_object, assert_reads_alike, json_lists
from workload_reference import _reference_generate_workload


def _reference_parse_workload(text):
    doc = _reference_read_json_object(text, "workload", WorkloadFormatError,
                                      ("n", "delta", "theta"), ("arrivals", "departures"))
    try:
        config = Config(doc["n"], doc["delta"], doc["theta"])
    except ConfigurationError as exc:
        raise WorkloadFormatError(str(exc)) from exc
    for f in ("arrivals", "departures"):
        if len(doc[f]) != config.n:
            raise WorkloadFormatError(
                f"{f} has {len(doc[f])} entries but n is {config.n}")
    return config, Workload(np.array(doc["arrivals"], dtype=np.int64),
                            np.array(doc["departures"], dtype=np.int64))


@st.composite
def workload_docs(draw):
    n = draw(st.integers(3, 8))
    doc = {"n": n, "delta": 2, "theta": draw(st.sampled_from([3, 4, n + 1]))}
    for f in ("arrivals", "departures"):
        doc[f] = draw(st.one_of(json_lists(draw(st.sampled_from([n, n, 0, n + 1]))),
                                st.integers(0, 9)))
    return doc


@st.composite
def valid_workloads(draw):
    """A workload at 3 to 50 slots with counts anywhere in int64 that keep
    the arrival sum in int64 and occupancy non-negative."""
    n = draw(st.integers(3, 50))
    arrivals, departures, total, occ = [], [], 0, 0
    for a, d in draw(st.lists(st.tuples(st.integers(0, INT64_MAX), st.integers(0, INT64_MAX)),
                              min_size=n, max_size=n)):
        a = a if total + a <= INT64_MAX else 0
        d = min(d, occ + a)
        total, occ = total + a, occ + a - d
        arrivals.append(a)
        departures.append(d)
    return Config(n=n, delta=2, theta=3), Workload(np.array(arrivals), np.array(departures))


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

    @pytest.mark.parametrize("field", ["arrivals", "departures"])
    @pytest.mark.parametrize("big", [np.array([0, 2 ** 63], dtype=np.uint64),
                                     np.array([0.0, 1e19]), np.array([0.0, np.inf])])
    def test_entries_beyond_int64_are_rejected(self, field, big):
        # cast to int64 these wrapped negative, and were refused for the wrong reason
        counts = dict(arrivals=np.array([1, 0]), departures=np.array([0, 0]))
        counts[field] = big
        with pytest.raises(WorkloadFormatError,
                           match=f"{field} has an entry outside the int64 range at slot 2"):
            Workload(**counts)

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


# numpy bounds a draw with 32-bit words below a range of 2**32 and 64-bit words from it
AMPLITUDES = st.one_of(st.integers(0, 2000), st.sampled_from(
    [2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 62, INT64_MAX]))


@st.composite
def scenarios(draw):
    """Generator parameters at 3 to 300 slots with any delta and theta that
    Config accepts."""
    n = draw(st.integers(3, 300))
    delta = draw(st.integers(2, n - 1))
    config = Config(n=n, delta=delta, theta=draw(st.integers(delta + 1, n)))
    params = ScenarioParams(name="t", amplitude=draw(AMPLITUDES),
                            plateau_fraction=draw(st.floats(0.0, 1.0)),
                            seed=draw(st.integers(0, 2 ** 32)))
    return params, config


def _generated(generate, params, config):
    """The arrays generate draws, or the type and message of what it raises."""
    try:
        wl = generate(params, config)
    except Exception as exc:
        return type(exc), str(exc)
    return wl.arrivals.tolist(), wl.departures.tolist()


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

    @given(case=scenarios())
    @example(case=(ScenarioParams(name="t", amplitude=INT64_MAX, seed=5),
                   Config(n=20, delta=2, theta=3)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_slot_reference(self, case):
        assert _generated(generate_workload, *case) == _generated(
            _reference_generate_workload, *case)

    def test_guard_generate_at_n10000(self):
        preset = SCENARIO_PRESETS["mmog"]
        config = Config(n=10_000, delta=preset["delta"], theta=preset["theta"])
        params = ScenarioParams(name="mmog", amplitude=preset["amplitude"],
                                plateau_fraction=preset["plateau_fraction"], seed=0)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            generate_workload(params, config)
            times.append(time.perf_counter() - start)
        assert median(times) < 0.005


class TestDerivedSeries:
    def test_reference_occupancy(self, ref_config, ref_workload):
        assert occupancy(ref_workload).tolist() == [2, 2, 3, 3, 1, 1, 1, 1]

    def test_reference_mandatory_load(self, ref_config, ref_workload):
        load = mandatory_load(ref_workload, ref_config)
        assert load.dtype == np.int64
        assert load.tolist() == [0, 0, 0, 2, 0, 1, 1, 1]

    def test_load_is_zero_inside_grace_window(self, ref_config, ref_workload):
        load = mandatory_load(ref_workload, ref_config)
        assert not load[: ref_config.theta].any()

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_load_matches_direct_count(self, seed):
        cfg = Config(n=14, delta=2, theta=4)
        wl = generate_workload(ScenarioParams(name="t", amplitude=5, seed=seed), cfg)
        load = mandatory_load(wl, cfg)
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

    @given(st.dictionaries(st.sampled_from(["n", "delta", "theta"]), INT64),
           st.dictionaries(st.sampled_from(["arrivals", "departures", "changes"]),
                           st.lists(INT64, min_size=1, max_size=50), min_size=1))
    @example({"n": INT64_MIN, "delta": INT64_MAX},
             {"changes": [INT64_MIN, INT64_MAX, 0, -1]})
    @settings(max_examples=300, deadline=None)
    def test_writer_equals_json_dumps_with_indent(self, scalars, lists):
        arrays = {f: np.array(v, dtype=np.int64) for f, v in lists.items()}
        assert _write_json_object(scalars, arrays) == json.dumps(
            {**scalars, **lists}, indent=2) + "\n"

    @given(valid_workloads())
    @settings(max_examples=200, deadline=None)
    def test_format_equals_json_dumps_with_indent(self, instance):
        config, workload = instance
        doc = {"n": config.n, "delta": config.delta, "theta": config.theta,
               "arrivals": workload.arrivals.tolist(),
               "departures": workload.departures.tolist()}
        assert format_workload(config, workload) == json.dumps(doc, indent=2) + "\n"

    @given(workload_docs())
    @settings(max_examples=500, deadline=None)
    def test_reader_and_parser_equal_the_entry_loop(self, doc):
        text = json.dumps(doc)
        assert_reads_alike(text, "workload", WorkloadFormatError,
                           ("n", "delta", "theta"), ("arrivals", "departures"))
        try:
            config, expected = _reference_parse_workload(text)
        except WorkloadFormatError as exc:
            with pytest.raises(WorkloadFormatError) as info:
                parse_workload(text)
            assert str(info.value) == str(exc)
            return
        assert parse_workload(text)[0] == config
        got = parse_workload(text)[1]
        assert np.array_equal(got.arrivals, expected.arrivals)
        assert np.array_equal(got.departures, expected.departures)

    def test_round_trip_at_ten_thousand_slots(self):
        cfg = Config(n=10_000, delta=3, theta=4)
        wl = generate_workload(ScenarioParams(name="mmog", amplitude=1500, seed=3), cfg)
        text = format_workload(cfg, wl)
        parsed_cfg, parsed = parse_workload(text)
        assert parsed_cfg == cfg
        assert np.array_equal(parsed.arrivals, wl.arrivals)
        assert np.array_equal(parsed.departures, wl.departures)
        assert format_workload(parsed_cfg, parsed) == text


class TestGuards:
    @pytest.mark.parametrize("make, error, message", [
        (lambda: Workload(np.zeros((2, 2), int), np.zeros(2, int)),
         WorkloadFormatError, "arrivals must be a non-empty 1-d array"),
        (lambda: Workload(np.zeros(0, int), np.zeros(0, int)),
         WorkloadFormatError, "arrivals must be a non-empty 1-d array"),
        (lambda: Workload(np.array([0.5, 0.0]), np.zeros(2, int)),
         WorkloadFormatError, "arrivals must contain integers"),
        (lambda: Config(3.0, 2, 3), ConfigurationError, "n must be an integer, got 3.0"),
        (lambda: Config(True, 2, 3), ConfigurationError, "n must be an integer, got True"),
        # a bool is an int to Python, but Config refuses it and so does ScenarioParams
        (lambda: ScenarioParams(name="x", amplitude=True), ConfigurationError,
         "amplitude must be a non-negative int64 integer, got True"),
        (lambda: ScenarioParams(name="x", amplitude=1, seed=True), ConfigurationError,
         "seed must be a non-negative integer, got True"),
        (lambda: ScenarioParams(name="x", amplitude=1, plateau_fraction=True),
         ConfigurationError, "plateau_fraction must lie in [0, 1], got True"),
        (lambda: ScenarioParams(name="x", amplitude=1, plateau_fraction="0.5"),
         ConfigurationError, "plateau_fraction must lie in [0, 1], got '0.5'"),
        (lambda: ScenarioParams(name="x", amplitude=1, plateau_fraction="abc"),
         ConfigurationError, "plateau_fraction must lie in [0, 1], got 'abc'"),
        (lambda: ScenarioParams(name="x", amplitude=1, plateau_fraction=None),
         ConfigurationError, "plateau_fraction must lie in [0, 1], got None"),
    ])
    def test_rejections_name_the_fault(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("plateau", [0, 1, 0.5, np.int64(1), np.float64(0.5),
                                         np.float32(0.25)])
    def test_numpy_and_python_numbers_are_accepted(self, plateau):
        params = ScenarioParams(name="x", amplitude=np.int64(2), plateau_fraction=plateau,
                                seed=np.uint8(1))
        config = Config(n=8, delta=2, theta=3)
        assert len(generate_workload(params, config).arrivals) == 8

import json
import time
from dataclasses import replace
from statistics import median
from unittest import mock

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
from capsched.workload import (INT64_MAX, INT64_MIN, _generate_rows, _half_draws,
                               _write_json_object)
from json_reference import (INT64, _reference_read_json_object, assert_reads_alike, edited,
                            json_lists)
from workload_reference import _reference_generate_workload


def assert_parses_alike(text):
    """_read_json_object and parse_workload read text as the references do,
    returning equal values or raising the same message."""
    assert_reads_alike(text, "workload", WorkloadFormatError,
                       ("n", "delta", "theta"), ("arrivals", "departures"))
    try:
        config, expected = _reference_parse_workload(text)
    except WorkloadFormatError as exc:
        with pytest.raises(WorkloadFormatError) as info:
            parse_workload(text)
        assert str(info.value) == str(exc)
        return
    got_config, got = parse_workload(text)
    assert got_config == config
    assert np.array_equal(got.arrivals, expected.arrivals)
    assert np.array_equal(got.departures, expected.departures)


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


@st.composite
def drawn_workloads(draw):
    """A generated workload at 3 to 40 slots whose counts have up to 18
    digits, so that its text is in the writer's layout with every entry
    canonical and exact at 18 digits."""
    config = Config(n=draw(st.integers(3, 40)), delta=2, theta=3)
    amplitude = draw(st.sampled_from([0, 9, 1500, 10 ** 17]))
    return config, generate_workload(
        ScenarioParams(name="t", amplitude=amplitude, seed=draw(st.integers(0, 2 ** 32))), config)


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


# numpy bounds a draw with 32-bit words below a range of 2**32 and 64-bit words from it;
# at 2**31 about half of all 32-bit words are rejected, at 3 * 2**30 about a quarter
AMPLITUDES = st.one_of(st.integers(0, 2000), st.sampled_from(
    [2 ** 31, 3 * 2 ** 30, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 62, INT64_MAX]))


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
    # seed 7's first half times 3 * 2**30 leaves low bits equal to the threshold: it is kept
    @example(case=(ScenarioParams(name="t", amplitude=3 * 2 ** 30 - 1, seed=7),
                   Config(n=20, delta=2, theta=3)))
    # a wide decay in chunks of 74, 35, 17, 7, 3 and 2 draws, then 12 scalar draws
    @example(case=(ScenarioParams(name="t", amplitude=2 ** 32, plateau_fraction=0.0, seed=3),
                   Config(n=300, delta=2, theta=3)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_slot_reference(self, case):
        assert _generated(generate_workload, *case) == _generated(
            _reference_generate_workload, *case)

    @given(case=scenarios(), seeds=st.lists(st.integers(-2, 2 ** 32), min_size=1, max_size=8))
    # the first refused seed is the one named
    @example(case=(ScenarioParams("t", 3), Config(10, 2, 3)), seeds=[4, -2, 0, -1])
    @example(case=(ScenarioParams("t", 3), Config(10, 2, 3)), seeds=[1, True])
    @example(case=(ScenarioParams("t", 3), Config(10, 2, 3)), seeds=[False, 0])
    # every arrival is a plateau draw, so only their exact sum shows the overflow
    @example(case=(ScenarioParams("t", INT64_MAX, 1.0), Config(6, 2, 3)), seeds=[0, 1, 2])
    @example(case=(ScenarioParams("t", INT64_MAX, 1.0), Config(6, 2, 3)), seeds=[0, -1])
    @example(case=(ScenarioParams("t", INT64_MAX, 1.0), Config(6, 2, 3)), seeds=[-1, 0])
    @settings(max_examples=150, deadline=None)
    def test_block_rows_match_the_per_seed_generator(self, case, seeds):
        params, config = case
        try:
            arrivals, departures = _generate_rows(params, seeds, config)
            got = arrivals.tolist(), departures.tolist()
        except Exception as exc:
            got = type(exc), str(exc)
        try:
            workloads = [generate_workload(replace(params, seed=s), config) for s in seeds]
            want = ([wl.arrivals.tolist() for wl in workloads],
                    [wl.departures.tolist() for wl in workloads])
        except Exception as exc:
            want = type(exc), str(exc)
        assert got == want

    @given(seed=st.integers(0, 2 ** 32), start=st.integers(0, 8), calls=st.lists(st.tuples(
        st.one_of(st.integers(0, 2000), st.integers(0, 2 ** 32 - 1),
                  st.sampled_from([0, 1, 2 ** 31, 3 * 2 ** 30, 2 ** 32 - 2, 2 ** 32 - 1])),
        st.integers(0, 4)), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_scalar_draw_matches_the_generator(self, seed, start, calls):
        bitgen = np.random.PCG64(seed)
        halves = [half for word in bitgen.random_raw(4).tolist()
                  for half in (word & 0xFFFFFFFF, word >> 32)]
        rng = np.random.Generator(np.random.PCG64(seed))
        # full-width 32-bit draws are the halves themselves, low half first
        assert [int(rng.integers(0, 2 ** 32)) for _ in range(start)] == halves[:start]
        # the halves left run out within a few draws, so more words are taken
        draw = _half_draws(halves[start:], bitgen)
        assert [draw(b, k) for b, k in calls] == [
            [int(rng.integers(0, b + 1)) for _ in range(k)] for b, k in calls]

    @pytest.mark.parametrize("bound", [1500, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 62])
    @pytest.mark.parametrize("count", [1, 2, 7, 8])
    def test_sized_draws_equal_scalar_draws(self, bound, count):
        # the wide path draws a chunk in one call, then scalars below it; an
        # odd count of 32-bit draws leaves a pending half for the next call
        after = [bound, 1500, 2 ** 40, 2 ** 32 - 1, 7]
        for seed in range(100):
            sized = np.random.Generator(np.random.PCG64(seed))
            scalar = np.random.Generator(np.random.PCG64(seed))
            got = sized.integers(0, bound, size=count, endpoint=True).tolist()
            got += [int(sized.integers(0, b + 1)) for b in after]
            assert got == [int(scalar.integers(0, b + 1)) for b in [bound] * count + after]

    def test_wide_row_draws_in_chunks(self):
        # one slot at a time this row took 9.7 ms; chunks of occ // amp need a dozen calls
        calls = []

        class Counting(np.random.Generator):
            def integers(self, *args, **kwargs):
                calls.append(args)
                return super().integers(*args, **kwargs)
        params = ScenarioParams(name="t", amplitude=2 ** 40, seed=0)
        config = Config(n=10_000, delta=3, theta=4)
        with mock.patch.object(np.random, "Generator", Counting):
            got = generate_workload(params, config)
        assert 1 <= len(calls) < 100
        want = _reference_generate_workload(params, config)
        assert got.arrivals.tolist() == want.arrivals.tolist()
        assert got.departures.tolist() == want.departures.tolist()

    def test_block_draws_use_no_generator(self):
        preset = SCENARIO_PRESETS["mmog"]
        config = Config(n=preset["n"], delta=preset["delta"], theta=preset["theta"])
        params = ScenarioParams(name="mmog", amplitude=preset["amplitude"],
                                plateau_fraction=preset["plateau_fraction"])
        want = [_reference_generate_workload(replace(params, seed=s), config) for s in range(10)]
        with mock.patch.object(np.random, "Generator",
                               side_effect=AssertionError("numpy.random.Generator used")):
            arrivals, departures = _generate_rows(params, range(10), config)
        assert arrivals.tolist() == [wl.arrivals.tolist() for wl in want]
        assert departures.tolist() == [wl.departures.tolist() for wl in want]

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

    @pytest.mark.parametrize("text, message", [
        ('{"n": 4, "n": 5, "delta": 2, "theta": 3, "arrivals": [1, 0, 0, 0, 0], '
         '"departures": [0, 0, 0, 0, 1]}', "duplicate workload field: n"),
        ('{"n": 5, "delta": 2, "theta": 3, "arrivals": [1, 0, 0, 0, 0], '
         '"departures": [0, 0, 0, 0, 1], "arrivals": [2, 0, 0, 0, 0]}',
         "duplicate workload field: arrivals"),
        ('{"a\\nb": 1, "n": 3, "delta": 2, "theta": 3, "arrivals": [0, 0, 0], '
         '"departures": [0, 0, 0], "a\\nb": 1}', "duplicate workload field: 'a\\nb'"),
        # a name repeated inside a list entry is not a field
        ('{"n": 3, "delta": 2, "theta": 3, "arrivals": [{"a": 1, "a": 2}, 0, 0], '
         '"departures": [0, 0, 0]}', "arrivals has a non-integer entry at slot 1"),
    ])
    def test_parse_rejects_repeated_field(self, text, message):
        with pytest.raises(WorkloadFormatError) as info:
            parse_workload(text)
        assert str(info.value) == message
        assert_reads_alike(text, "workload", WorkloadFormatError,
                           ("n", "delta", "theta"), ("arrivals", "departures"))

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
        # compact text goes to the decoder, the writer's indented layout to the array pass
        for text in (json.dumps(doc), json.dumps(doc, indent=2) + "\n"):
            assert_parses_alike(text)

    @given(st.one_of(valid_workloads(), drawn_workloads()).flatmap(
        lambda instance: edited(format_workload(*instance))))
    @example('{\n  "n": 3,\n  "delta": 2,\n  "theta": 3,\n  "arrivals": [\n    1,\n    0,\n'
             '    9223372036854775807\n  ],\n  "departures": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "theta": 3,\n  "arrivals": [\n    1,\n    01,\n'
             '    0\n  ],\n  "departures": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "theta": 3,\n  "arrivals": [\n    1,\n    0,\n'
             '    9999999999999999999\n  ],\n  "departures": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @example('{\n  "n": \u0663,\n  "delta": 2,\n  "theta": 3,\n  "arrivals": [\n    1,\n    0,\n'
             '    0\n  ],\n  "departures": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @example('{\n  "n": 3,\n  "delta": 2,\n  "theta": 1\u0663,\n  "arrivals": [\n    1,\n    0,\n'
             '    0\n  ],\n  "departures": [\n    0,\n    0,\n    0\n  ]\n}\n')
    @settings(max_examples=500, deadline=None)
    def test_edited_layout_reads_as_the_decoder_reads_it(self, text):
        assert_parses_alike(text)

    def test_canonical_text_skips_the_decoder(self):
        preset = SCENARIO_PRESETS["mmog"]
        config = Config(n=2000, delta=preset["delta"], theta=preset["theta"])
        workload = generate_workload(ScenarioParams(name="mmog", amplitude=preset["amplitude"]),
                                     config)
        text = format_workload(config, workload)
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads used")):
            got_config, got = parse_workload(text)
        assert got_config == config
        assert np.array_equal(got.arrivals, workload.arrivals)
        assert np.array_equal(got.departures, workload.departures)

    def test_guard_parse_at_n100000(self):
        config = Config(n=100_000, delta=3, theta=4)
        text = format_workload(config, generate_workload(
            ScenarioParams(name="mmog", amplitude=1500), config))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_workload(text)
            times.append(time.perf_counter() - start)
        assert median(times) < 0.5

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

import argparse
import contextlib
import io
import json
import statistics
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capsched.cli
import capsched.schedule
import capsched.solvers
import capsched.workload
from capsched import (
    CSV_HEADER,
    SCENARIO_PRESETS,
    CompareSpec,
    Config,
    ConfigurationError,
    ScenarioParams,
    ScheduleFormatError,
    SolutionFormatError,
    Workload,
    WorkloadFormatError,
    evaluate,
    exact_schedule,
    format_schedule,
    format_workload,
    generate_workload,
    parse_schedule,
    parse_solution,
    parse_workload,
    run_compare,
)
from capsched.cli import ALGORITHMS, _compare_block, _report_cells, build_parser, main
from capsched.workload import INT64_MAX
from compare_reference import _reference_evaluate, _reference_plan, _reference_run_compare


def _subparser(command):
    """build_parser's parser for one subcommand."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices[command]


def _write_reference(tmp_path, ref_config, ref_workload):
    path = tmp_path / "ref.json"
    path.write_text(format_workload(ref_config, ref_workload), encoding="utf-8")
    return str(path)


class TestRoundTrip:
    def test_generate_solve_evaluate_validate(self, tmp_path):
        wl = tmp_path / "wl.json"
        sched = tmp_path / "sched.json"
        report = tmp_path / "report.txt"
        base = ["--n", "8", "--delta", "2", "--theta", "3", "--amplitude", "2"]
        assert main(["generate", *base, "--seed", "1", "--out", str(wl)]) == 0
        assert main(["solve", str(wl), "--algorithm", "ads",
                     "--out", str(sched)]) == 0
        n, delta, schedule = parse_schedule(sched.read_text(encoding="utf-8"))
        assert (n, delta) == (8, 2)
        assert main(["evaluate", str(wl), str(sched), "--out", str(report)]) == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("resource_cost=")
        assert lines[-1] == "feasible=true"
        assert main(["validate", str(wl), "--schedule", str(sched)]) == 0

    def test_solve_reports_costs_on_stderr(self, tmp_path, capsys,
                                           ref_config, ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        out = tmp_path / "sched.json"
        assert main(["solve", wl, "--algorithm", "ads", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "resource_cost=10" in err
        assert "qos_cost=7" in err

    def test_solve_oracle_matches_reference_cost(self, tmp_path, capsys,
                                                 ref_config, ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        out = tmp_path / "sched.json"
        assert main(["solve", wl, "--algorithm", "oracle",
                     "--out", str(out)]) == 0
        assert "resource_cost=6" in capsys.readouterr().err

    def test_solve_empty_workload_costs_nothing(self, tmp_path, capsys):
        cfg = Config(n=8, delta=2, theta=3)
        empty = Workload(arrivals=np.zeros(8, dtype=int),
                         departures=np.zeros(8, dtype=int))
        wl = tmp_path / "wl.json"
        wl.write_text(format_workload(cfg, empty), encoding="utf-8")
        out = tmp_path / "sched.json"
        assert main(["solve", str(wl), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "resource_cost=0" in err and "qos_cost=0" in err

    def test_resource_cost_beyond_int64_is_exact(self, tmp_path):
        # greedy requests 2^61 at slot 1, held for n - 1 - delta = 7 slots
        wl = json.dumps({"n": 10, "delta": 2, "theta": 3,
                         "arrivals": [2 ** 61] + [0] * 9, "departures": [0] * 10})
        code, _, err = _run(tmp_path, ["solve", "WL", "--algorithm", "greedy"], {"WL": wl})
        assert code == 0
        assert "resource_cost=16140901064495857664\n" in err    # 7 * 2^61

    def test_export_lp_counts_declarations(self, tmp_path, ref_config,
                                           ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        out = tmp_path / "model.lp"
        assert main(["export-lp", wl, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        general = text.split("General\n", 1)[1].split("Binary\n", 1)[0]
        binary = text.split("Binary\n", 1)[1].split("End", 1)[0]
        assert len(general.split()) == 128
        assert len(binary.split()) == 8

    def test_export_lp_is_byte_stable(self, tmp_path, ref_config, ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        first = tmp_path / "a.lp"
        second = tmp_path / "b.lp"
        assert main(["export-lp", wl, "--out", str(first)]) == 0
        assert main(["export-lp", wl, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    # a slice of 2 or 3 characters ends at or starts with each multi-byte character
    @pytest.mark.parametrize("text", ["", "x", "ab€d x𝄞é"])
    @pytest.mark.parametrize("chars", [1, 2, 3])
    def test_sliced_writes_equal_the_whole_text(self, tmp_path, capsysbinary, monkeypatch,
                                                text, chars):
        monkeypatch.setattr(capsched.cli, "_WRITE_SLICE", chars)
        out = tmp_path / "out.txt"
        capsched.cli._write_text(str(out), text)
        capsched.cli._write_text("-", text)
        assert out.read_bytes() == text.encode("utf-8")
        assert capsysbinary.readouterr().out == text.encode("utf-8")

    def test_generate_is_deterministic_per_seed(self, tmp_path):
        base = ["--n", "8", "--delta", "2", "--theta", "3", "--amplitude", "3"]
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        assert main(["generate", *base, "--seed", "7", "--out", str(paths[0])]) == 0
        assert main(["generate", *base, "--seed", "7", "--out", str(paths[1])]) == 0
        assert main(["generate", *base, "--seed", "8", "--out", str(paths[2])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_preset_with_override(self, capsys):
        assert main(["generate", "--scenario", "mmog", "--n", "10",
                     "--seed", "0"]) == 0
        config, workload = parse_workload(capsys.readouterr().out)
        assert config.n == 10 and config.delta == 3 and config.theta == 4
        assert workload.arrivals.max() <= 1500


# a valid file for every input role, on the reference instance
_VALID_INPUTS = {
    "WL": json.dumps({"n": 8, "delta": 2, "theta": 3, "arrivals": [2, 0, 1, 0, 0, 0, 0, 0],
                      "departures": [0, 0, 0, 0, 2, 0, 0, 0]}),
    "SCHED": json.dumps({"n": 8, "delta": 2, "changes": [0, 3, 0, 0, -2, 0, 0, 0]}),
    "SOL": "x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 1\n",
}

# every subcommand that reads files, with its input roles as placeholders
_READERS = [
    ["solve", "WL"],
    ["export-lp", "WL"],
    ["evaluate", "WL", "SCHED"],
    ["validate", "WL", "--schedule", "SCHED"],
    ["validate", "WL", "--solution", "SOL"],
]

_LONG = "9" * 5000     # past the interpreter's 4300-digit int conversion limit
_MALFORMED = {
    "deep": b"[" * 100_000,
    "long-field": f'{{"n": {_LONG}, "delta": 2, "theta": 3, "arrivals": [], '
                  f'"departures": []}}'.encode(),
    "long-entry": f'{{"n": 8, "delta": 2, "changes": [{_LONG}, 0, 0, 0, 0, 0, 0, 0]}}'.encode(),
    "not-utf8": b"\xff\xfe{}",
}


def _run(directory: Path, command, files):
    """Write each input role's text (or bytes) and run main; (code, out, err)."""
    argv = []
    for arg in command:
        if arg in _VALID_INPUTS:
            data = files.get(arg, _VALID_INPUTS[arg])
            path = directory / arg
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _malformed_cases():
    for command in _READERS:
        label = " ".join(command)
        for kind in ("deep", "long-field", "not-utf8"):
            yield pytest.param(command, "WL", kind, id=f"{label}-WL-{kind}")
        if "SCHED" in command:
            for kind in ("deep", "long-entry", "not-utf8"):
                yield pytest.param(command, "SCHED", kind, id=f"{label}-SCHED-{kind}")
        if "SOL" in command:
            yield pytest.param(command, "SOL", "not-utf8", id=f"{label}-SOL-not-utf8")


class TestMalformedFiles:
    @pytest.mark.parametrize("command, role, kind", _malformed_cases())
    def test_malformed_file_is_a_one_line_usage_error(self, tmp_path, command, role, kind):
        code, out, err = _run(tmp_path, command, {role: _MALFORMED[kind]})
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        if kind == "not-utf8":
            assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position 0")
        else:
            noun = "workload" if role == "WL" else "schedule"
            assert err.startswith(f"error: {noun} text is not valid JSON: ")

    @pytest.mark.parametrize("command", [["evaluate"], ["validate", "--schedule"]])
    @pytest.mark.parametrize("changes, slot", [([2 ** 62, 0, 2 ** 62, 0, 0, 0], 3),
                                               ([-2 ** 62, 0, -2 ** 62, 0, -1, 0], 5)])
    def test_schedule_sums_beyond_int64_are_usage_errors(self, tmp_path, command,
                                                         changes, slot):
        # each entry fits int64, but the capacity built from their sum would not
        files = {"WL": json.dumps({"n": 6, "delta": 2, "theta": 3,
                                   "arrivals": [1, 0, 0, 0, 0, 0], "departures": [0] * 6}),
                 "SCHED": json.dumps({"n": 6, "delta": 2, "changes": changes})}
        code, out, err = _run(tmp_path, [command[0], "WL", *command[1:], "SCHED"], files)
        assert (code, out) == (2, "")
        assert err == f"error: changes summed through slot {slot} exceed the int64 range\n"

    @pytest.mark.parametrize("command, files, message", [
        (["solve", "WL"], {"WL": '{"n": 4, "n": 5, "delta": 2, "theta": 3, '
                                 '"arrivals": [1, 0, 0, 0, 0], "departures": [0, 0, 0, 0, 1]}'},
         "duplicate workload field: n"),
        (["evaluate", "WL", "SCHED"],
         {"WL": _VALID_INPUTS["WL"][:-1] + ', "arrivals": [2, 0, 0, 0, 0, 0, 0, 0]}'},
         "duplicate workload field: arrivals"),
        (["evaluate", "WL", "SCHED"],
         {"SCHED": _VALID_INPUTS["SCHED"][:-1] + ', "changes": [0, 0, 0, 0, 0, 0, 0, 0]}'},
         "duplicate schedule field: changes"),
    ])
    def test_repeated_field_is_a_usage_error(self, tmp_path, command, files, message):
        # json.loads alone would keep the last value and plan or price it
        assert _run(tmp_path, command, files) == (2, "", f"error: {message}\n")

    def test_unknown_field_with_a_line_break_stays_on_one_line(self, tmp_path):
        doc = json.loads(_VALID_INPUTS["WL"])
        doc["a\nb"] = 1
        code, _, err = _run(tmp_path, ["solve", "WL"], {"WL": json.dumps(doc)})
        assert (code, err) == (2, "error: unknown workload field: 'a\\nb'\n")


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=10)
_COUNTS = st.integers(-2, 4) | st.integers()
_SLOTS = st.integers(0, 6)


@st.composite
def _near_workload(draw):
    n = draw(_SLOTS)
    doc = {"n": n, "delta": draw(st.integers(1, 4)), "theta": draw(st.integers(2, 6)),
           "arrivals": draw(st.lists(_COUNTS, min_size=n, max_size=n)),
           "departures": draw(st.lists(_COUNTS, min_size=n, max_size=n))}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON)
    return json.dumps(doc)


@st.composite
def _near_schedule(draw):
    n = draw(st.sampled_from([8, draw(_SLOTS)]))
    doc = {"n": n, "delta": draw(st.sampled_from([2, 3])),
           "changes": draw(st.lists(_COUNTS, min_size=n, max_size=n))}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON)
    return json.dumps(doc)


_SOLUTION_LINE = st.tuples(
    st.sampled_from(["x", "y", "r", "z"]), st.integers(0, 9), st.integers(0, 9),
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e30", "inf", "nan", "", "a b"]),
).map(lambda p: f"{p[0]}_{p[1]}{'' if p[0] == 'r' else f'_{p[2]}'} {p[3]}")


def _file(near):
    return (st.just(None) | near | _JSON.map(json.dumps) | _TEXT
            | st.binary(max_size=20))


class TestFuzzedFiles:
    # None keeps the role's valid reference file
    @given(files=st.fixed_dictionaries({
        "WL": _file(_near_workload()),
        "SCHED": _file(_near_schedule()),
        "SOL": _file(st.lists(_SOLUTION_LINE, max_size=4).map("\n".join)),
    }))
    @example(files={"WL": '{"a\\nb": 0}', "SCHED": None, "SOL": None})
    @settings(max_examples=200, deadline=None)
    def test_every_reader_exits_cleanly(self, files):
        files = {role: data for role, data in files.items() if data is not None}
        with tempfile.TemporaryDirectory() as directory:
            for command in _READERS:
                code, out, err = _run(Path(directory), command, files)
                assert code in (0, 1, 2)
                if code == 2:
                    assert out == ""
                    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _texts(near):
    return near | _JSON.map(json.dumps) | _TEXT


def _solution_text(matrices):
    """Solver-style `<variable> <value>` lines for the nonzero entries."""
    lines = [f"{name}_{i + 1}_{j + 1} {matrix[i, j]}"
             for name, matrix in (("x", matrices.allocations), ("y", matrices.deallocations))
             for i, j in zip(*matrix.nonzero())]
    return "".join(line + "\n" for line in
                   lines + [f"r_{j + 1} 1" for j in matrices.requests.nonzero()[0]])


class TestFuzzedParsers:
    # each parser returns what its formatter writes back and reads again
    # unchanged, or raises its own format error
    @given(text=_texts(_near_workload()))
    @settings(max_examples=300, deadline=None)
    def test_parse_workload(self, text):
        try:
            config, workload = parse_workload(text)
        except WorkloadFormatError:
            return
        again = format_workload(config, workload)
        config2, workload2 = parse_workload(again)
        assert config2 == config
        assert format_workload(config2, workload2) == again

    @given(text=_texts(_near_schedule()))
    @settings(max_examples=300, deadline=None)
    def test_parse_schedule(self, text):
        try:
            n, delta, schedule = parse_schedule(text)
        except ScheduleFormatError:
            return
        again = format_schedule(Config(n, delta, n), schedule)
        n2, delta2, schedule2 = parse_schedule(again)
        assert (n2, delta2) == (n, delta)
        assert schedule2.changes.tolist() == schedule.changes.tolist()

    @given(n=st.integers(3, 12), text=_texts(
        st.lists(_SOLUTION_LINE | _TEXT, max_size=6).map("\n".join)))
    @settings(max_examples=300, deadline=None)
    def test_parse_solution(self, n, text):
        config = Config(n=n, delta=2, theta=3)
        try:
            matrices = parse_solution(text, config)
        except SolutionFormatError:
            return
        again = parse_solution(_solution_text(matrices), config)
        for name in ("allocations", "deallocations", "requests"):
            assert np.array_equal(getattr(again, name), getattr(matrices, name))


_WORDS = st.sampled_from(["", "x", "1.5", "1e3", "0x10", " 7", "--"]) | st.text(max_size=5)
_INTEGER = st.integers().map(str) | _WORDS
_REAL = (st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"]) | st.floats().map(repr)
         | _WORDS)
# each option as (plausible values, any values); the horizon stays at most 300
# or beyond int64, since a valid larger n would allocate before any check
_OPTIONS = {
    "--n": (st.integers(4, 40), (st.integers(-3, 300) | st.integers(2 ** 63, 2 ** 70)
                                 | st.integers(max_value=-2 ** 63 - 1)).map(str) | _WORDS),
    "--delta": (st.integers(2, 4), _INTEGER),
    "--theta": (st.integers(5, 8), _INTEGER),
    "--amplitude": (st.integers(0, 20), _INTEGER),
    "--plateau-fraction": (st.floats(0, 1), _REAL),
    "--seed": (st.integers(0, 5), _INTEGER),
    "--seeds": (st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda p: f"{p[0]}..{sum(p)}"),
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: f"{p[0]}..{p[1]}")
                | st.sampled_from(["1..", "..2", "0..1..2", str(2 ** 64), "2**70",
                                   "0..99999999999999999999"]) | _WORDS),
    "--algorithms": (st.lists(st.sampled_from(["ads", "greedy", "oracle"]), min_size=1,
                              max_size=4).map(",".join),
                     st.lists(st.sampled_from(["ads", "magic", "", " ads"]),
                              max_size=4).map(",".join) | _WORDS),
}


@st.composite
def _option_argv(draw):
    """A generate or compare command line with each option plausible, wild or
    left out."""
    command = draw(st.sampled_from(["generate", "compare"]))
    flags = ["--n", "--delta", "--theta", "--amplitude", "--plateau-fraction"]
    flags += ["--seed"] if command == "generate" else ["--seeds", "--algorithms"]
    argv = [command]
    if draw(st.booleans()):
        argv += ["--scenario", draw(st.sampled_from(sorted(SCENARIO_PRESETS)))]
    for flag in flags:
        plausible, anything = _OPTIONS[flag]
        kind = draw(st.sampled_from(["plausible"] * 4 + ["omit", "any"]))
        if kind != "omit":
            argv += [flag, str(draw(anything if kind == "any" else plausible))]
    return argv


class TestFuzzedOptions:
    @given(argv=_option_argv())
    @settings(max_examples=300, deadline=None)
    def test_every_option_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1


class TestExitCodes:
    def test_infeasible_schedule_evaluates_to_one(self, tmp_path, ref_config,
                                                  ref_workload, capsys):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sched = tmp_path / "zero.json"
        sched.write_text(
            '{"n": 8, "delta": 2, "changes": [0, 0, 0, 0, 0, 0, 0, 0]}',
            encoding="utf-8")
        assert main(["evaluate", wl, str(sched)]) == 1
        assert "feasible=false" in capsys.readouterr().out

    # the oracle's schedule for this workload overcommits under FIFO
    # admission (see TestOracle.test_ilp_admits_what_the_simulator_overcommits)
    _OVERCOMMIT = Workload(arrivals=np.array([2, 0, 0, 0, 2, 0, 0, 0]),
                           departures=np.array([0, 0, 0, 0, 2, 0, 0, 0]))
    _OVERCOMMIT_ERR = [
        "resource_cost=4", "qos_cost=6", "max_capacity=2", "num_requests=3",
        "feasible=false",
        "VIOLATION capacity_below_occupancy slot=6 detail=2 admitted but capacity 0",
        "VIOLATION capacity_below_occupancy slot=7 detail=2 admitted but capacity 0"]

    def test_infeasible_solve_prints_each_violation(self, tmp_path, capsys, ref_config):
        wl = _write_reference(tmp_path, ref_config, self._OVERCOMMIT)
        assert main(["solve", wl, "--algorithm", "oracle"]) == 1
        captured = capsys.readouterr()
        assert parse_schedule(captured.out)[2].changes.tolist() == [0, 2, 0, -2, 0, 2, 0, 0]
        assert captured.err.splitlines() == self._OVERCOMMIT_ERR

    def test_solve_simulates_once(self, tmp_path, capsys, monkeypatch, ref_config):
        # the violations solve prints come from evaluate's report, not a second
        # run; simulate and evaluate both replay through schedule._replay
        wl = _write_reference(tmp_path, ref_config, self._OVERCOMMIT)
        calls = []
        original = capsched.schedule._replay

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(capsched.schedule, "_replay", counted)
        assert main(["solve", wl, "--algorithm", "oracle"]) == 1
        assert capsys.readouterr().err.splitlines() == self._OVERCOMMIT_ERR
        assert len(calls) == 1

    def test_solve_reads_the_workload_from_stdin(self, tmp_path, capsys, monkeypatch,
                                                 ref_config, ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        from_file = main(["solve", wl, "--algorithm", "ads"]), capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(wl).read_text(encoding="utf-8")))
        from_stdin = main(["solve", "-", "--algorithm", "ads"]), capsys.readouterr()
        assert from_stdin == from_file
        assert from_file[0] == 0 and "resource_cost=10" in from_file[1].err

    def test_validate_lists_solution_violations(self, tmp_path, ref_config,
                                                ref_workload, capsys):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sol = tmp_path / "sol.txt"
        sol.write_text("x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 0\n",
                       encoding="utf-8")
        assert main(["validate", wl, "--solution", str(sol)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION EQ10" in out and "VIOLATION EQ11" in out

    def test_validate_accepts_the_reference_solution(self, tmp_path, ref_config,
                                                     ref_workload, capsys):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sol = tmp_path / "sol.txt"
        sol.write_text("x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 1\n",
                       encoding="utf-8")
        assert main(["validate", wl, "--solution", str(sol)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_validate_solution_builds_no_model(self, tmp_path, ref_config,
                                               ref_workload, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate --solution built the model")

        monkeypatch.setattr("capsched.cli.build_model", refuse)
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sol = tmp_path / "sol.txt"
        sol.write_text("x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 1\n",
                       encoding="utf-8")
        assert main(["validate", wl, "--solution", str(sol)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    @pytest.mark.parametrize("name", ["x_0_1", "x_41_1", "x_01_2", "r_1_1", "z_1", "y_1",
                                      "r_1\u0661"])
    def test_malformed_variable_names_are_usage_errors(self, tmp_path, capsys, name):
        config = Config(n=40, delta=3, theta=4)
        with pytest.raises(SolutionFormatError, match="unknown variable name"):
            parse_solution(f"{name} 1\n", config)
        wl = tmp_path / "wl.json"
        wl.write_text(format_workload(config, generate_workload(
            ScenarioParams(name="oppd", amplitude=300, seed=0), config)), encoding="utf-8")
        sol = tmp_path / "sol.txt"
        sol.write_text(f"{name} 1\n", encoding="utf-8")
        assert main(["validate", str(wl), "--solution", str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: line 1: unknown variable name")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "1e30"])
    def test_unrepresentable_solution_values_are_usage_errors(self, tmp_path, ref_config,
                                                              ref_workload, capsys, value):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sol = tmp_path / "sol.txt"
        sol.write_text(f"x_1_2 2\nx_1_1 {value}\n", encoding="utf-8")
        assert main(["validate", wl, "--solution", str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: line 2: value ")

    @pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 63 - 1])
    def test_integer_solution_values_are_exact(self, tmp_path, ref_config, ref_workload,
                                               capsys, value):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sol = tmp_path / "sol.txt"
        sol.write_text(f"x_1_2 2\nx_3_4 1\ny_5_4 2\nr_2 1\nr_4 1\nx_1_1 {value}\n",
                       encoding="utf-8")
        assert main(["validate", wl, "--solution", str(sol)]) == 1
        assert capsys.readouterr().out == (
            f"VIOLATION EQ10 i=1 j=1 detail=left side -{value} is not >= 0\n")

    @pytest.mark.parametrize("field", ["arrivals", "departures"])
    @pytest.mark.parametrize("value", [10 ** 29, -(10 ** 29), 2 ** 63])
    def test_oversized_workload_entries_are_usage_errors(self, tmp_path, capsys,
                                                         field, value):
        doc = {"n": 8, "delta": 2, "theta": 3,
               "arrivals": [2, 0, 1, 0, 0, 0, 0, 0],
               "departures": [0, 0, 0, 0, 2, 0, 0, 0]}
        doc[field][2] = value
        text = json.dumps(doc)
        with pytest.raises(WorkloadFormatError, match=f"{field} .* at slot 3"):
            parse_workload(text)
        wl = tmp_path / "wl.json"
        wl.write_text(text, encoding="utf-8")
        assert main(["solve", str(wl)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {field} has an entry outside the int64 "
                                f"range at slot 3\n")

    def test_arrival_sums_beyond_int64_are_usage_errors(self, tmp_path, capsys):
        # each entry fits int64 but their sum wraps; this was reported as
        # departures exceeding arrivals at slot 2
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"n": 3, "delta": 2, "theta": 3,
                                  "arrivals": [2 ** 62, 2 ** 62, 0],
                                  "departures": [0, 0, 0]}), encoding="utf-8")
        assert main(["solve", str(wl)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: arrivals summed through slot 2 exceed the int64 range\n"

    @pytest.mark.parametrize("command", [["evaluate"], ["validate", "--schedule"]])
    def test_oversized_schedule_entries_are_usage_errors(self, tmp_path, capsys,
                                                         ref_config, ref_workload,
                                                         command):
        text = json.dumps({"n": 8, "delta": 2, "changes": [0, 10 ** 29] + [0] * 6})
        with pytest.raises(ScheduleFormatError, match="changes .* at slot 2"):
            parse_schedule(text)
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sched = tmp_path / "big.json"
        sched.write_text(text, encoding="utf-8")
        assert main([command[0], wl, *command[1:], str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: changes has an entry outside the int64 range at slot 2\n"

    @pytest.mark.parametrize("args", [
        ["--n", str(10 ** 20), "--delta", "3", "--theta", "4", "--amplitude", "1"],
        ["--n", "30", "--delta", "3", "--theta", "4", "--amplitude", str(10 ** 20)],
    ])
    def test_oversized_generator_parameters_are_usage_errors(self, capsys, args):
        assert main(["generate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("n, text", [
        # 8 PB per array lies beyond a 47-bit address space: refused before any page is touched
        (10 ** 15, "Unable to allocate"),
        # 16 n bytes pass the largest array numpy can describe, which numpy
        # refuses with a ValueError of its own rather than a MemoryError
        (2 ** 62, "array is too big"),
        (INT64_MAX, "array is too big"),
    ], ids=["1e15", "2^62", "int64_max"])
    @pytest.mark.parametrize("command", [["generate"], ["compare", "--seeds", "0"]])
    def test_unallocatable_horizon_is_a_usage_error(self, capsys, command, n, text):
        args = ["--n", str(n), "--delta", "2", "--theta", "3", "--amplitude", "1"]
        assert main([*command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {text}")

    def test_oversized_workload_dimension_is_a_usage_error(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"n": 10 ** 20, "delta": 2, "theta": 3,
                                  "arrivals": [0], "departures": [0]}), encoding="utf-8")
        assert main(["solve", str(wl)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: n is outside the int64 range, got {10 ** 20}\n"

    @pytest.mark.parametrize("command", [
        ["solve", "WL", "--algorithm", "oracle"],
        ["compare", "--n", "8", "--delta", "2", "--theta", "3", "--amplitude", "1",
         "--seeds", "0", "--algorithms", "oracle"],
    ])
    def test_time_budget_is_not_an_option(self, tmp_path, capsys, ref_config,
                                          ref_workload, command):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        argv = [wl if arg == "WL" else arg for arg in command]
        assert main([*argv, "--time-budget", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --time-budget 60" in captured.err

    # past compare's caps: n=12, and n=10 with 11 participants
    @pytest.mark.parametrize("n, arrivals", [(12, [1] + [0] * 11), (10, [11] + [0] * 9)])
    def test_solve_plans_the_oracle_beyond_compare_caps(self, tmp_path, capsys, n, arrivals):
        cfg = Config(n=n, delta=2, theta=3)
        wl_obj = Workload(arrivals=np.array(arrivals), departures=np.zeros(n, dtype=int))
        wl = tmp_path / "wl.json"
        wl.write_text(format_workload(cfg, wl_obj), encoding="utf-8")
        code = main(["solve", str(wl), "--algorithm", "oracle"])
        schedule = exact_schedule(wl_obj, cfg)
        assert code == (0 if evaluate(wl_obj, schedule, cfg).feasible else 1)
        assert capsys.readouterr().out == format_schedule(cfg, schedule)

    # the n=100 program optima HiGHS proved; the simulator rejects both
    # through overcommit at four slots
    @pytest.mark.parametrize("scenario, cost", [("mmog", 1554643), ("oppd", 310657)])
    def test_solve_plans_the_oracle_at_paper_scale(self, tmp_path, capsys, scenario, cost):
        wl = tmp_path / "wl.json"
        assert main(["generate", "--scenario", scenario, "--seed", "0",
                     "--out", str(wl)]) == 0
        assert main(["solve", str(wl), "--algorithm", "oracle"]) == 1
        captured = capsys.readouterr()
        config, workload = parse_workload(wl.read_text(encoding="utf-8"))
        assert captured.out == format_schedule(config, exact_schedule(workload, config))
        err = captured.err.splitlines()
        assert err[0] == f"resource_cost={cost}"
        assert sum(line.startswith("VIOLATION capacity_below_occupancy ")
                   for line in err) == 4

    def test_missing_scenario_parameters(self):
        assert main(["generate", "--n", "8", "--delta", "2"]) == 2

    def test_unknown_algorithm_flag(self, tmp_path, ref_config, ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        assert main(["solve", wl, "--algorithm", "magic"]) == 2

    def test_missing_workload_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_validate_needs_exactly_one_target(self, tmp_path, ref_config,
                                               ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        assert main(["validate", wl]) == 2
        assert main(["validate", wl, "--schedule", wl, "--solution", wl]) == 2

    def test_mismatched_schedule_dimensions(self, tmp_path, ref_config,
                                            ref_workload):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sched = tmp_path / "other.json"
        sched.write_text('{"n": 6, "delta": 2, "changes": [0, 0, 0, 0, 0, 0]}',
                         encoding="utf-8")
        assert main(["evaluate", wl, str(sched)]) == 2

    @pytest.mark.parametrize("command", [["evaluate"], ["validate", "--schedule"]])
    @pytest.mark.parametrize("n, delta", [(6, 2), (8, 3)])
    def test_schedule_for_other_dimensions_is_a_usage_error(
            self, tmp_path, capsys, ref_config, ref_workload, command, n, delta):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sched = tmp_path / "other.json"
        sched.write_text(f'{{"n": {n}, "delta": {delta}, "changes": {[0] * n}}}',
                         encoding="utf-8")
        assert main([command[0], wl, *command[1:], str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: schedule was built for n={n}, delta={delta}, "
                                f"not n=8, delta=2\n")

    @pytest.mark.parametrize("command", [["evaluate"], ["validate", "--schedule"]])
    def test_schedule_with_an_impossible_delta_is_a_usage_error(
            self, tmp_path, capsys, ref_config, ref_workload, command):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        sched = tmp_path / "other.json"
        sched.write_text('{"n": 3, "delta": -7, "changes": [0, 0, 0]}', encoding="utf-8")
        assert main([command[0], wl, *command[1:], str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delta must lie in 2..n-1, got delta=-7 with n=3\n"

    def test_bad_seed_ranges(self):
        base = ["compare", "--n", "8", "--delta", "2", "--theta", "3",
                "--amplitude", "1"]
        assert main([*base, "--seeds", "5..2"]) == 2
        assert main([*base, "--seeds", "abc"]) == 2

    def test_textless_memory_error_is_named(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError()

        monkeypatch.setattr(capsched.cli, "run_compare", exhausted)
        assert main(["compare", "--scenario", "oppd", "--n", "10", "--seeds", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: out of memory\n")

    @pytest.mark.parametrize("option, message", [
        (["--plateau-fraction", "1.5", "--seeds", "0"],
         "plateau_fraction must lie in [0, 1], got 1.5"),
        (["--seeds=-1..2"], "seed must be a non-negative integer, got -1"),
        (["--n", "10", "--seeds", "0..99999999999999999999"],
         "bad seed range '0..99999999999999999999': more seeds than a list can hold"),
        # int reads digit-group underscores and any script's digits, a seed range neither
        (["--seeds", "\u0661..\u0662"], "bad seed range '\u0661..\u0662': expected K or A..B"),
        (["--seeds", "1_0"], "bad seed range '1_0': expected K or A..B"),
        (["--seeds", "0..1_0"], "bad seed range '0..1_0': expected K or A..B"),
        (["--seeds", "\uff15"], "bad seed range '\uff15': expected K or A..B"),
        (["--seeds=-2..0"], "seed must be a non-negative integer, got -2"),
        (["--n", "-3"], "n must be at least 1, got -3"),
        (["--plateau-fraction", "nan"], "plateau_fraction must lie in [0, 1], got nan"),
        # and neither do the scenario options, which argparse refuses with its usage
        (["--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["--delta", "\u0661"], "argument --delta: invalid int value: '\u0661'"),
        (["--amplitude", "\uff13"], "argument --amplitude: invalid int value: '\uff13'"),
        (["--plateau-fraction", "0_5"], "argument --plateau-fraction: invalid float value: '0_5'"),
    ])
    def test_out_of_range_scenario_values_are_usage_errors(self, capsys, option, message):
        assert main(["compare", "--scenario", "oppd", *option]) == 2
        captured = capsys.readouterr()
        usage = ""
        if message.startswith("argument "):
            usage = _subparser("compare").format_usage() + "capsched compare: "
        assert (captured.out, captured.err) == ("", f"{usage}error: {message}\n")

    @pytest.mark.parametrize("seed", ["1_0", "\u0661", "\uff13"])
    def test_generate_seed_is_ascii(self, capsys, seed):
        assert main(["generate", "--scenario", "oppd", "--n", "10", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", _subparser("generate").format_usage()
            + f"capsched generate: error: argument --seed: invalid int value: {seed!r}\n")

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once(self, monkeypatch, ref_config, ref_workload, tmp_path):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the parser was built again")

        build_parser()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        assert main(["solve", wl, "--out", str(tmp_path / "s.json")]) == 0
        assert main(["validate", wl, "--schedule", str(tmp_path / "s.json")]) == 0


class TestCompare:
    def test_reference_rows_for_all_planners(self, ref_config, ref_workload):
        rows, notes = _compare_block(ref_workload.arrivals[None], ref_workload.departures[None],
                                     [0], ref_config, ("ads", "greedy", "oracle"))
        assert notes == []
        by_name = {algorithm: report for _, algorithm, report in rows}
        assert (by_name["ads"].resource_cost, by_name["ads"].qos_cost) == (10, 7)
        assert (by_name["greedy"].resource_cost, by_name["greedy"].qos_cost) == (9, 4)
        assert (by_name["oracle"].resource_cost, by_name["oracle"].qos_cost) == (6, 8)
        assert all(report.feasible and report.violations == () for _, _, report in rows)

    def test_rows_sorted_by_seed_then_name(self):
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=2),
            seeds=(1, 0), algorithms=("greedy", "ads"))
        lines = run_compare(spec).splitlines()
        assert lines[0] == CSV_HEADER
        data = [line.split(",")[:2] for line in lines[1:5]]
        assert data == [["0", "ads"], ["0", "greedy"],
                        ["1", "ads"], ["1", "greedy"]]

    def test_output_is_deterministic(self):
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=3),
            seeds=tuple(range(5)), algorithms=("ads", "greedy"))
        assert run_compare(spec) == run_compare(spec)

    def test_medians_follow_the_rows(self):
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=2),
            seeds=(0, 1, 2), algorithms=("ads",))
        lines = run_compare(spec).splitlines()
        assert len(lines) == 5
        assert lines[4].startswith("# median algorithm=ads resource_cost=")

    def test_even_count_medians_print_as_floats_do(self):
        # both .0 and .5 halves, each byte for byte as statistics.median prints them
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=3),
            seeds=(0, 1), algorithms=("ads", "greedy"))
        lines = run_compare(spec).splitlines()
        for algorithm in ("ads", "greedy"):
            rows = [line.split(",") for line in lines[1:5] if line.split(",")[1] == algorithm]
            costs, qos = ([int(row[k]) for row in rows] for k in (2, 3))
            assert (f"# median algorithm={algorithm} resource_cost={statistics.median(costs)} "
                    f"qos_cost={statistics.median(qos)}") in lines
        assert "# median algorithm=ads resource_cost=25.5 qos_cost=12.5" in lines
        assert "# median algorithm=greedy resource_cost=32.0 qos_cost=6.0" in lines

    def test_even_count_median_beyond_2_53_is_exact(self, capsys):
        assert main(["compare", "--n", "20", "--delta", "2", "--theta", "3",
                     "--amplitude", "100000000000000000", "--seeds", "0..1",
                     "--algorithms", "ads"]) == 0
        lines = capsys.readouterr().out.splitlines()
        costs = [int(line.split(",")[2]) for line in lines[1:3]]
        assert costs == [3921463070191793418, 5173913602292202679]
        assert lines[3] == ("# median algorithm=ads resource_cost=4547688336241998048.5 "
                            "qos_cost=429474826944360882.5")

    def test_zero_amplitude_costs_nothing(self):
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=0),
            seeds=(0,), algorithms=("ads", "greedy", "oracle"))
        lines = run_compare(spec).splitlines()
        for line in lines[1:4]:
            seed, name, rc, qos = line.split(",")[:4]
            assert (rc, qos) == ("0", "0")

    def test_oracle_planned_beyond_n_10(self, capsys):
        assert main(["compare", "--n", "12", "--delta", "2", "--theta", "3", "--amplitude", "1",
                     "--seeds", "0..9", "--algorithms", "ads,greedy,oracle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        oracle_rows = [line for line in lines if line.split(",")[1:2] == ["oracle"]]
        config = Config(n=12, delta=2, theta=3)
        want = []
        for seed in range(10):
            workload = generate_workload(ScenarioParams("custom", 1, seed=seed), config)
            report = evaluate(workload, exact_schedule(workload, config), config)
            want.append(",".join([str(seed), "oracle", *_report_cells(report)]))
        assert oracle_rows == want
        assert "# median algorithm=oracle resource_cost=14.0 qos_cost=8.5" in lines
        assert "# infeasible algorithm=oracle rows=2" in lines

    def test_oracle_skips_heavy_preset_seeds(self, capsys):
        assert main(["compare", "--scenario", "oppd", "--seeds", "0..2",
                     "--algorithms", "ads,greedy,oracle"]) == 0
        text = capsys.readouterr().out
        assert [line for line in text.splitlines() if "oracle" in line] == [
            f"# oracle skipped seed={seed}: {participants} participants exceed the search "
            f"limit max_total_participants=8"
            for seed, participants in ((0, 6880), (1, 7393), (2, 7904))]
        assert "excluded" not in text

    def test_cli_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["compare", "--n", "8", "--delta", "2", "--theta", "3",
                     "--amplitude", "2", "--seeds", "0..3", "--out",
                     str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 4 * 2

    def test_spec_rejects_empty_inputs(self):
        cfg = Config(n=8, delta=2, theta=3)
        scenario = ScenarioParams(name="t", amplitude=1)
        with pytest.raises(ConfigurationError, match="empty seed range"):
            CompareSpec(config=cfg, scenario=scenario, seeds=(),
                        algorithms=("ads",))
        with pytest.raises(ConfigurationError, match="no algorithms"):
            CompareSpec(config=cfg, scenario=scenario, seeds=(0,),
                        algorithms=())
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            CompareSpec(config=cfg, scenario=scenario, seeds=(0,),
                        algorithms=("ads", "magic"))

    def test_repeated_planner_is_a_usage_error(self, capsys):
        with pytest.raises(ConfigurationError, match="algorithm 'ads' is listed twice"):
            CompareSpec(config=Config(n=8, delta=2, theta=3),
                        scenario=ScenarioParams(name="t", amplitude=1), seeds=(0,),
                        algorithms=("ads", "ads", "greedy"))
        assert main(["compare", "--n", "8", "--delta", "2", "--theta", "3", "--amplitude", "1",
                     "--seeds", "0", "--algorithms", "ads,greedy,ads"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: algorithm 'ads' is listed twice\n")

    def test_refused_oracle_seeds_become_notes(self):
        # amplitude high enough that some seeds exceed the participant cap
        # while others stay inside it
        spec = CompareSpec(
            config=Config(n=10, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=2),
            seeds=tuple(range(10)), algorithms=("oracle",))
        text = run_compare(spec)
        skipped = [line for line in text.splitlines()
                   if line.startswith("# oracle skipped seed=")]
        kept = [line for line in text.splitlines()
                if line.split(",")[1:2] == ["oracle"]]
        assert skipped == [
            "# oracle skipped seed=4: 11 participants exceed the search limit "
            "max_total_participants=8",
            "# oracle skipped seed=7: 10 participants exceed the search limit "
            "max_total_participants=8"]
        assert len(kept) == 8


def _outcome(run, spec):
    """run(spec)'s text, or the type and message of what it raised."""
    try:
        return run(spec)
    except (ConfigurationError, WorkloadFormatError) as exc:
        return type(exc), str(exc)


@st.composite
def _compare_specs(draw):
    """A compare run small enough for the per-seed reference: n up to 12, so
    the oracle plans light seeds and refuses heavy ones; amplitudes up to
    2^61, whose costs pass int64 (or whose arrivals do, which both refuse);
    seeds in any order; and a block budget of one seed, a few, or all."""
    n = draw(st.integers(3, 12))
    delta = draw(st.integers(2, n - 1))
    config = Config(n=n, delta=delta, theta=draw(st.integers(delta + 1, n)))
    amplitude = draw(st.integers(0, 3) | st.integers(0, 60)
                     | st.integers(2 ** 61 - 2 ** 10, 2 ** 61))
    plateau = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    seeds = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6, unique=True))
    names = draw(st.permutations(ALGORITHMS))
    algorithms = names[:draw(st.integers(1, len(names)))]
    spec = CompareSpec(config=config, scenario=ScenarioParams("t", amplitude, plateau),
                       seeds=tuple(seeds), algorithms=tuple(algorithms))
    return spec, draw(st.sampled_from([1, 2, 1 << 14])) * n


class TestComparePass:
    @given(case=_compare_specs())
    # unsorted seeds
    @example(case=(CompareSpec(Config(8, 2, 3), ScenarioParams("t", 2), (1, 0),
                               ("greedy", "ads")), 1 << 14))
    # oracle rows the simulator rejects (seeds 8 and 18), refusals and an
    # accepted seed, a block a seed
    @example(case=(CompareSpec(Config(8, 2, 3), ScenarioParams("t", 1, 0.5), (18, 0, 8, 9),
                               ("oracle", "ads", "greedy")), 8))
    @example(case=(CompareSpec(Config(10, 2, 3), ScenarioParams("t", 2), tuple(range(10)),
                               ALGORITHMS), 1 << 14))
    # oracle rows past n=10: seeds 25 and 34 planned, seed 2 skipped
    @example(case=(CompareSpec(Config(12, 3, 4), ScenarioParams("t", 3), (25, 2, 34),
                               ("oracle", "ads")), 1 << 14))
    # n=30, where the oracle plans about half the seeds (1 and 3 here) and
    # skips the rest, two seeds a block
    @example(case=(CompareSpec(Config(30, 3, 4), ScenarioParams("t", 1), (4, 1, 0, 3),
                               ALGORITHMS), 60))
    # qos_cost and resource_cost past int64
    @example(case=(CompareSpec(Config(6, 2, 3), ScenarioParams("t", 2 ** 61, 0.0), (4, 3, 0),
                               ("ads", "greedy")), 1 << 14))
    # every arrival a plateau draw: the overflow shows only in their exact sum
    @example(case=(CompareSpec(Config(6, 2, 3), ScenarioParams("t", INT64_MAX, 1.0), (0, 1, 2),
                               ("ads", "greedy")), 1 << 14))
    @settings(max_examples=150, deadline=None)
    def test_block_pass_writes_the_per_seed_csv(self, case):
        spec, budget = case
        with mock.patch.object(capsched.cli, "_BLOCK_ENTRIES", budget):
            assert _outcome(run_compare, spec) == _outcome(_reference_run_compare, spec)

    def test_plateau_arrivals_past_int64_are_a_usage_error(self, capsys):
        assert main(["compare", "--n", "6", "--delta", "2", "--theta", "3",
                     "--amplitude", str(INT64_MAX), "--plateau-fraction", "1.0",
                     "--seeds", "0..2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: arrivals summed through slot 3 exceed the int64 range\n")

    def test_block_pass_builds_no_per_seed_objects(self):
        preset = SCENARIO_PRESETS["mmog"]
        spec = CompareSpec(Config(preset["n"], preset["delta"], preset["theta"]),
                           ScenarioParams("mmog", preset["amplitude"], preset["plateau_fraction"]),
                           tuple(range(10)), ("ads", "greedy"))
        calls = {"generate_workload": 0, "Workload": 0, "ads": 0, "greedy": 0}
        generate = capsched.workload.generate_workload
        post_init = Workload.__post_init__

        def generated(*args):
            calls["generate_workload"] += 1
            return generate(*args)

        def constructed(workload):
            calls["Workload"] += 1
            post_init(workload)

        def counted(name, plan):
            def planned(arrivals, departures, config):
                calls[name] += 1
                return plan(arrivals, departures, config)
            return planned

        planners = {name: counted(name, plan) for name, plan in capsched.solvers._PLANNERS.items()}
        with mock.patch.object(capsched.workload, "generate_workload", generated), \
                mock.patch.object(capsched.cli, "generate_workload", generated), \
                mock.patch.object(Workload, "__post_init__", constructed), \
                mock.patch.dict(capsched.solvers._PLANNERS, planners):
            text = run_compare(spec)
        assert len(text.splitlines()) == 1 + 20 + 2
        # one block of ten seeds, each row function called once on all of it
        assert calls == {"generate_workload": 0, "Workload": 0, "ads": 1, "greedy": 1}

    def test_oracle_rows_build_no_matrices(self):
        # the exact-tiny benchmark shape: eight oracle rows and two refusals
        spec = CompareSpec(Config(10, 2, 3), ScenarioParams("t", 2), tuple(range(10)), ALGORITHMS)
        with mock.patch.object(capsched.solvers, "_assign",
                               side_effect=AssertionError("_assign called")):
            text = run_compare(spec)
        assert text == _reference_run_compare(spec)
        assert sum(line.split(",")[1:2] == ["oracle"] for line in text.splitlines()) == 8

    def test_every_seed_refused_leaves_the_oracle_no_rows(self):
        # each seed draws more than the oracle's eight participants
        spec = CompareSpec(Config(8, 2, 3), ScenarioParams("t", 40, 1.0), (3, 1, 2),
                           ("ads", "oracle"))
        workloads = [generate_workload(replace(spec.scenario, seed=seed), spec.config)
                     for seed in spec.seeds]
        assert min(int(workload.arrivals.sum()) for workload in workloads) > 8
        rows, notes = _compare_block(np.stack([w.arrivals for w in workloads]),
                                     np.stack([w.departures for w in workloads]),
                                     spec.seeds, spec.config, spec.algorithms)
        assert [(seed, algorithm) for seed, algorithm, _ in rows] == [
            (3, "ads"), (1, "ads"), (2, "ads")]
        assert [note.split(":")[0] for note in notes] == [
            "oracle skipped seed=3", "oracle skipped seed=1", "oracle skipped seed=2"]
        assert run_compare(spec) == _reference_run_compare(spec)

    def test_costs_past_int64_are_exact(self):
        spec = CompareSpec(Config(6, 2, 3), ScenarioParams("t", 2 ** 61, 0.0), (4,), ("ads",))
        assert run_compare(spec).splitlines()[1] == (
            "4,ads,10836499869816704232,11132764835236670213,5418249934908352116,2,true")

    def test_overcommitting_oracle_rows_match_the_reference(self):
        # the oracle's schedule overcommits slots 6 and 7 of this workload
        config = Config(n=8, delta=2, theta=3)
        workload = Workload(np.array([2, 0, 0, 0, 2, 0, 0, 0]),
                            np.array([0, 0, 0, 0, 2, 0, 0, 0]))
        rows, notes = _compare_block(workload.arrivals[None], workload.departures[None], [5],
                                     config, ALGORITHMS)
        assert notes == []
        assert [algorithm for _, algorithm, _ in rows] == list(ALGORITHMS)
        for seed, algorithm, report in rows:
            want = _reference_evaluate(workload, _reference_plan(algorithm, workload, config),
                                       config)
            assert (seed, report) == (5, want)
        assert [v.kind for v in rows[2][2].violations] == ["capacity_below_occupancy"] * 2

    def test_memory_stays_within_the_block_budget(self):
        # 40 seeds at n=10 000 in one block peak near 100 MB here; a block of
        # _BLOCK_ENTRIES entries holds one seed and peaks near 3 MB
        spec = CompareSpec(Config(n=10_000, delta=3, theta=4),
                           ScenarioParams("mmog", 1500), tuple(range(40)), ("ads", "greedy"))
        tracemalloc.start()
        try:
            run_compare(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

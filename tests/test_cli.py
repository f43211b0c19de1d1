import json

import numpy as np
import pytest

from capsched import (
    CSV_HEADER,
    CompareSpec,
    Config,
    ConfigurationError,
    OracleLimits,
    ScenarioParams,
    ScheduleFormatError,
    SolutionFormatError,
    Workload,
    WorkloadFormatError,
    compare_instance,
    format_workload,
    generate_workload,
    parse_schedule,
    parse_solution,
    parse_workload,
    run_compare,
)
from capsched.cli import main


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

    def test_small_big_m_is_reported_before_the_solution_is_read(
            self, tmp_path, ref_config, ref_workload, capsys):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        missing = str(tmp_path / "no-such-solution.txt")
        assert main(["validate", wl, "--solution", missing, "--big-m", "1"]) == 2
        assert "big_m=1 is below the total arrival count 3" in capsys.readouterr().err

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
    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_unusable_time_budget_is_a_usage_error(self, tmp_path, capsys, ref_config,
                                                   ref_workload, command, budget):
        wl = _write_reference(tmp_path, ref_config, ref_workload)
        argv = [wl if arg == "WL" else arg for arg in command]
        assert main([*argv, "--time-budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: time_budget must be >= 0, got {float(budget)!r}\n"

    def test_oracle_refusal_is_a_usage_error(self, tmp_path):
        cfg = Config(n=12, delta=2, theta=3)
        wl_obj = Workload(arrivals=np.array([1] + [0] * 11),
                          departures=np.zeros(12, dtype=int))
        wl = tmp_path / "wl.json"
        wl.write_text(format_workload(cfg, wl_obj), encoding="utf-8")
        assert main(["solve", str(wl), "--algorithm", "oracle"]) == 2

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

    def test_bad_seed_ranges(self):
        base = ["compare", "--n", "8", "--delta", "2", "--theta", "3",
                "--amplitude", "1"]
        assert main([*base, "--seeds", "5..2"]) == 2
        assert main([*base, "--seeds", "abc"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestCompare:
    def test_reference_rows_for_all_planners(self, ref_config, ref_workload):
        rows, notes = compare_instance(ref_workload, ref_config,
                                       ("ads", "greedy", "oracle"), seed=0)
        assert notes == []
        by_name = {row.algorithm: row for row in rows}
        assert (by_name["ads"].resource_cost, by_name["ads"].qos_cost) == (10, 7)
        assert (by_name["greedy"].resource_cost, by_name["greedy"].qos_cost) == (9, 4)
        assert (by_name["oracle"].resource_cost, by_name["oracle"].qos_cost) == (6, 8)
        assert all(row.feasible for row in rows)

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

    def test_zero_amplitude_costs_nothing(self):
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=0),
            seeds=(0,), algorithms=("ads", "greedy", "oracle"))
        lines = run_compare(spec).splitlines()
        for line in lines[1:4]:
            seed, name, rc, qos = line.split(",")[:4]
            assert (rc, qos) == ("0", "0")

    def test_oracle_dropped_from_large_instances(self):
        spec = CompareSpec(
            config=Config(n=100, delta=3, theta=4),
            scenario=ScenarioParams(name="t", amplitude=1),
            seeds=(0,), algorithms=("ads", "greedy", "oracle"))
        text = run_compare(spec)
        assert "# oracle excluded: n=100 exceeds the oracle limit max_n=10" in text
        assert ",oracle," not in text

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

    def test_refused_oracle_seeds_become_notes(self):
        # amplitude high enough that some seeds exceed the participant cap
        # while others stay inside it
        spec = CompareSpec(
            config=Config(n=8, delta=2, theta=3),
            scenario=ScenarioParams(name="t", amplitude=2),
            seeds=tuple(range(8)), algorithms=("oracle",),
            oracle_limits=OracleLimits(max_total_participants=6))
        text = run_compare(spec)
        skipped = [line for line in text.splitlines()
                   if line.startswith("# oracle skipped seed=")]
        kept = [line for line in text.splitlines()
                if line.split(",")[1:2] == ["oracle"]]
        assert skipped and kept

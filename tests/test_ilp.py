import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from capsched import (
    SCENARIO_PRESETS,
    Config,
    ConfigurationError,
    ConstraintViolation,
    LiftError,
    ScenarioParams,
    ScheduleFormatError,
    SolutionFormatError,
    SolutionMatrices,
    Workload,
    adaptive_schedule,
    build_model,
    export_lp,
    generate_workload,
    lift_schedule,
    mandatory_load,
    matrices_to_schedule,
    objective_value,
    parse_solution,
    resource_cost,
    validate_solution,
)
from capsched.ilp import LinearConstraint, _ranges, _render_rows, variable_names

WITNESS = "\n".join([
    "# optimal assignment for the reference instance",
    "x_1_2 2",
    "x_3_4 1",
    "y_5_4 2",
    "r_2 1",
    "r_4 1",
    "",
])


def _objective(model):
    """The model's objective spelled out as (coefficient, name) terms."""
    names = variable_names(model.config.n)
    columns = _ranges(model.objective_starts, model.objective_lengths).tolist()
    return tuple(zip(np.repeat(model.objective_coefs, model.objective_lengths).tolist(),
                     [names[v] for v in columns]))


def _reference_model(workload, config):
    """Reference builder: the original one, which spells out every term as a
    (coefficient, name) tuple, row by row."""
    n, delta, theta = config.n, config.delta, config.theta
    m_eff = max(int(workload.arrivals.sum()), 1)
    a = workload.arrivals
    d = workload.departures
    load = mandatory_load(workload, config)

    def vx(i, j):
        return f"x_{i}_{j}"

    def vy(i, j):
        return f"y_{i}_{j}"

    def vr(j):
        return f"r_{j}"

    x_names = tuple(vx(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    y_names = tuple(vy(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    r_names = tuple(vr(j) for j in range(1, n + 1))

    objective = []
    for i in range(1, n + 1):
        for j in range(1, n - delta + 1):
            w = n - j - delta
            if w:
                objective.append((w, vx(i, j)))
    for i in range(1, n + 1):
        for j in range(1, n - delta + 1):
            w = n - j - delta
            if w:
                objective.append((-w, vy(i, j)))

    cons = []
    for i in range(1, n - theta + 1):
        terms = tuple((1, vx(i, j)) for j in range(1, i + theta - delta + 1))
        cons.append(LinearConstraint(f"EQ2_i{i}", "EQ2", terms, ">=", int(a[i - 1])))
    for i in range(n - theta + 1, n + 1):
        terms = tuple((1, vx(i, j)) for j in range(1, n - delta + 1))
        cons.append(LinearConstraint(f"EQ3_i{i}", "EQ3", terms, ">=", int(a[i - 1])))
    for i in range(1, delta + 1):
        terms = tuple((1, vy(i, j)) for j in range(1, n - delta + 1))
        cons.append(LinearConstraint(f"EQ4_i{i}", "EQ4", terms, "<=", int(d[i - 1])))
    for i in range(delta + 1, n + 1):
        terms = tuple((1, vy(i, j)) for j in range(i - delta, n - delta + 1))
        cons.append(LinearConstraint(f"EQ5_i{i}", "EQ5", terms, "<=", int(d[i - 1])))
    for i in range(delta + 2, n + 1):
        terms = tuple((1, vy(i, j)) for j in range(1, i - delta))
        cons.append(LinearConstraint(f"EQ6_i{i}", "EQ6", terms, "=", 0))
    for j in range(1, n + 1):
        terms = tuple((1, vx(i, t)) for i in range(1, n + 1) for t in range(1, j + 1)) \
            + tuple((-1, vy(i, t)) for i in range(1, n + 1) for t in range(1, j + 1))
        cons.append(LinearConstraint(f"EQ7_j{j}", "EQ7", terms, ">=", 0))
    for j in range(delta + 1, n + 1):
        terms = tuple((1, vx(i, t)) for i in range(1, n + 1) for t in range(1, j - delta + 1)) \
            + tuple((-1, vy(i, t)) for i in range(1, n + 1) for t in range(1, j - delta + 1))
        cons.append(LinearConstraint(f"EQ8_j{j}", "EQ8", terms, ">=", int(load[j - 1])))
    for i in range(1, n - delta + 1):
        terms = tuple((1, vr(j)) for j in range(i, i + delta))
        cons.append(LinearConstraint(f"EQ9_i{i}", "EQ9", terms, "<=", 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cons.append(LinearConstraint(
                f"EQ10_i{i}_j{j}", "EQ10", ((m_eff, vr(j)), (-1, vx(i, j))), ">=", 0))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cons.append(LinearConstraint(
                f"EQ11_i{i}_j{j}", "EQ11", ((m_eff, vr(j)), (-1, vy(i, j))), ">=", 0))
    for j in range(n - delta + 1, n + 1):
        cons.append(LinearConstraint(f"EQ12_j{j}", "EQ12", ((1, vr(j)),), "=", 0))

    return SimpleNamespace(variables=x_names + y_names + r_names,
                           integer_variables=x_names + y_names,
                           binary_variables=r_names,
                           constraints=cons, objective=tuple(objective))


def _reference_expr_lines(prefix, terms, suffix=""):
    """Reference wrap: one Python step per term."""
    pieces = []
    for k, (coef, var) in enumerate(terms):
        if k == 0:
            pieces.append(f"{coef} {var}" if coef >= 0 else f"- {-coef} {var}")
        else:
            pieces.append(f"+ {coef} {var}" if coef >= 0 else f"- {-coef} {var}")
    if suffix:
        pieces = pieces + [suffix.strip()]
    lines = []
    line = prefix
    for piece in pieces:
        if len(line) + 1 + len(piece) > 72 and line.strip():
            lines.append(line)
            line = "   " + piece
        else:
            line = line + " " + piece
    lines.append(line)
    return lines


def _reference_export(model):
    out = ["Minimize"]
    obj_terms = model.objective if model.objective else ((0, model.variables[0]),)
    out.extend(_reference_expr_lines(" obj:", obj_terms))
    out.append("Subject To")
    for c in model.constraints:
        out.extend(_reference_expr_lines(f" {c.name}:", c.terms, f" {c.sense} {c.rhs}"))
    out.append("Bounds")
    for v in model.integer_variables:
        out.append(f" 0 <= {v}")
    out.append("General")
    for v in model.integer_variables:
        out.append(f" {v}")
    out.append("Binary")
    for v in model.binary_variables:
        out.append(f" {v}")
    out.append("End")
    return "\n".join(out) + "\n"


def _reference_validate(matrices, workload, config):
    """Reference validator: the original one, which spells out every family
    as hand-indexed slices of the assignment."""
    n, delta, theta = config.n, config.delta, config.theta
    m_eff = max(int(workload.arrivals.sum()), 1)
    x = matrices.allocations
    y = matrices.deallocations
    r = matrices.requests
    a = workload.arrivals
    d = workload.departures
    out = []

    neg = np.argwhere(x < 0)
    for i0, j0 in neg:
        out.append(ConstraintViolation("BOUND", int(i0) + 1, int(j0) + 1,
                                       f"allocation {int(x[i0, j0])} is negative"))
    neg = np.argwhere(y < 0)
    for i0, j0 in neg:
        out.append(ConstraintViolation("BOUND", int(i0) + 1, int(j0) + 1,
                                       f"de-allocation {int(y[i0, j0])} is negative"))

    for i in range(1, n - theta + 1):
        got = int(x[i - 1, : i + theta - delta].sum())
        if got < a[i - 1]:
            out.append(ConstraintViolation(
                "EQ2", i=i, detail=f"covered {got} of {int(a[i - 1])} arrivals"))
    for i in range(n - theta + 1, n + 1):
        got = int(x[i - 1, : n - delta].sum())
        if got < a[i - 1]:
            out.append(ConstraintViolation(
                "EQ3", i=i, detail=f"covered {got} of {int(a[i - 1])} arrivals"))
    for i in range(1, delta + 1):
        got = int(y[i - 1, : n - delta].sum())
        if got > d[i - 1]:
            out.append(ConstraintViolation(
                "EQ4", i=i, detail=f"released {got} for {int(d[i - 1])} departures"))
    for i in range(delta + 1, n + 1):
        got = int(y[i - 1, i - delta - 1: n - delta].sum())
        if got > d[i - 1]:
            out.append(ConstraintViolation(
                "EQ5", i=i, detail=f"released {got} for {int(d[i - 1])} departures"))
    for i in range(delta + 2, n + 1):
        got = int(y[i - 1, : i - delta - 1].sum())
        if got != 0:
            out.append(ConstraintViolation(
                "EQ6", i=i, detail=f"{got} released before departure could free it"))
    cx = np.cumsum(x.sum(axis=0))
    cy = np.cumsum(y.sum(axis=0))
    for j in range(1, n + 1):
        if cx[j - 1] < cy[j - 1]:
            out.append(ConstraintViolation(
                "EQ7", j=j,
                detail=f"cumulative allocation {int(cx[j - 1])} below release {int(cy[j - 1])}"))
    load = mandatory_load(workload, config)
    for j in range(delta + 1, n + 1):
        net = int(cx[j - delta - 1] - cy[j - delta - 1])
        if net < load[j - 1]:
            out.append(ConstraintViolation(
                "EQ8", j=j, detail=f"active capacity {net} below floor {int(load[j - 1])}"))
    for i in range(1, n - delta + 1):
        got = int(r[i - 1: i + delta - 1].sum())
        if got > 1:
            out.append(ConstraintViolation(
                "EQ9", i=i, detail=f"{got} requests within {delta} slots"))
    for i0, j0 in np.argwhere(x > m_eff * r[None, :]):
        out.append(ConstraintViolation(
            "EQ10", int(i0) + 1, int(j0) + 1,
            f"allocation {int(x[i0, j0])} at unflagged slot"))
    for i0, j0 in np.argwhere(y > m_eff * r[None, :]):
        out.append(ConstraintViolation(
            "EQ11", int(i0) + 1, int(j0) + 1,
            f"de-allocation {int(y[i0, j0])} at unflagged slot"))
    for j in range(n - delta + 1, n + 1):
        if r[j - 1] != 0:
            out.append(ConstraintViolation(
                "EQ12", j=j, detail="request cannot take effect within the horizon"))
    return out


@st.composite
def _instances(draw):
    n = draw(st.integers(3, 14))
    delta = draw(st.integers(2, n - 1))
    theta = draw(st.integers(delta + 1, n))
    config = Config(n=n, delta=delta, theta=theta)
    workload = generate_workload(
        ScenarioParams(name="prop", amplitude=draw(st.integers(0, 60)),
                       seed=draw(st.integers(0, 2 ** 16))), config)
    return workload, config


@st.composite
def _perturbed_solutions(draw):
    """A lifted ads solution with a few entries shifted, some of them below
    zero, and a few request flags flipped."""
    n = draw(st.integers(3, 20))
    delta = draw(st.integers(2, n - 1))
    theta = draw(st.integers(delta + 1, n))
    config = Config(n=n, delta=delta, theta=theta)
    workload = generate_workload(
        ScenarioParams(name="prop", amplitude=draw(st.integers(0, 60)),
                       seed=draw(st.integers(0, 2 ** 16))), config)
    try:
        lifted = lift_schedule(workload, adaptive_schedule(workload, config), config)
    except LiftError:
        reject()
    x, y, r = lifted.allocations.copy(), lifted.deallocations.copy(), lifted.requests.copy()
    shifts = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for matrix in (x, y):
        for i, j, shift in draw(st.lists(shifts, max_size=6)):
            matrix[i, j] += shift
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        r[j] = 1 - r[j]
    return SolutionMatrices(x, y, r), workload, config


@st.composite
def _run_tables(draw):
    """Rows no model builds, for _render_rows: heads up to 65 columns, tails
    with or without a sense, and runs of one or many terms whose coefficients
    may be negative, zero or up to 2^62 in size, leading ones included."""
    names = draw(st.lists(st.text("xyr_0123456789", min_size=1, max_size=10),
                          min_size=1, max_size=30))
    coef = st.one_of(st.integers(-3, 3), st.integers(-2 ** 62, 2 ** 62),
                     st.sampled_from([-2 ** 62, 2 ** 62]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.integers(1, 63))
        head = " " + draw(st.text("EQ_ij0123456789", min_size=width, max_size=width)) + ":"
        tail = draw(st.one_of(
            st.just("\n"),
            st.builds(" {} {}\n".format, st.sampled_from([">=", "<=", "="]),
                      st.integers(-2 ** 63, 2 ** 63 - 1))))
        runs = []
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, len(names) - 1))
            length = draw(st.one_of(st.just(1), st.integers(1, len(names) - start)))
            runs.append((start, length, draw(coef)))
        rows.append((head, tail, runs))
    return _run_table(names, rows)


def _run_table(names, rows):
    """The _render_rows arguments for rows of (head, tail, [(start, length, coef), ...])."""
    heads, tails, run_ptr, runs = [], [], [0], []
    for head, tail, row_runs in rows:
        heads.append(head)
        tails.append(tail)
        runs += row_runs
        run_ptr.append(len(runs))
    return names, np.array(run_ptr), *np.array(runs, dtype=np.int64).T, heads, tails


# Wrapped rows at the edges of the line width.  After a 20-column head, a
# first term of 2^62 x_10_10 (27 columns) leaves no room for a second, and
# the next three terms fill a continuation line to exactly 72 columns.
# Every example fails a wrap whose continuation lines hold at most 68
# columns after the indent, and one whose body does not end with a separator
_EDGE_NAMES = ["x_1_1", "x_10_10", "y_10_10"]
_HEAD_20 = " EQ8_j" + "1" * 13 + ":"
_FULL_LINE = [(1, 1, 2 ** 62), (1, 2, 2 ** 62), (0, 1, 1)]


def _oppd(n):
    values = SCENARIO_PRESETS["oppd"]
    config = Config(n=n, delta=values["delta"], theta=values["theta"])
    workload = generate_workload(
        ScenarioParams(name="oppd", amplitude=values["amplitude"],
                       plateau_fraction=values["plateau_fraction"], seed=0), config)
    return workload, config


# prints the rise of the peak RSS over building the oppd n=100 seed-0 model,
# per character of its LP text; ru_maxrss counts KiB on Linux
_EXPORT_RSS_RISE = """
import resource
from capsched import SCENARIO_PRESETS, Config, ScenarioParams, build_model, export_lp, generate_workload

values = SCENARIO_PRESETS["oppd"]
config = Config(n=100, delta=values["delta"], theta=values["theta"])
workload = generate_workload(ScenarioParams(name="oppd", amplitude=values["amplitude"],
                                            plateau_fraction=values["plateau_fraction"],
                                            seed=0), config)
model = build_model(workload, config)
built = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
text = export_lp(model)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - built) / len(text))
"""


def _oppd_lifted(n):
    workload, config = _oppd(n)
    return lift_schedule(workload, adaptive_schedule(workload, config), config), workload, config


@pytest.fixture
def ref_model(ref_config, ref_workload):
    return build_model(ref_workload, ref_config)


def _link_coefficients(model):
    """The coefficient of r_j in each EQ10/EQ11 row, whose first run it is."""
    rows = np.flatnonzero(np.isin(model.row_tags, ["EQ10", "EQ11"]))
    assert len(rows) == 2 * model.config.n ** 2
    return set(model.run_coefs[model.run_ptr[rows]].tolist())


class TestBigM:
    def test_shrinks_to_participant_total(self, ref_config, ref_workload):
        assert _link_coefficients(build_model(ref_workload, ref_config)) == {3}

    def test_empty_workload_keeps_a_positive_link(self):
        wl = Workload(arrivals=np.zeros(4, dtype=int),
                      departures=np.zeros(4, dtype=int))
        assert _link_coefficients(build_model(wl, Config(n=4, delta=2, theta=3))) == {1}


class TestBuildModel:
    def test_small_model_shape(self):
        cfg = Config(n=4, delta=2, theta=3)
        wl = Workload(arrivals=np.array([1, 0, 0, 0]),
                      departures=np.array([0, 0, 0, 1]))
        model = build_model(wl, cfg)
        assert len(variable_names(cfg.n)) == 2 * cfg.n * cfg.n + cfg.n == 36
        assert len(model.rhs) == 51
        families = Counter(model.row_tags.tolist())
        assert families == {"EQ2": 1, "EQ3": 3, "EQ4": 2, "EQ5": 2, "EQ6": 1,
                            "EQ7": 4, "EQ8": 2, "EQ9": 2, "EQ10": 16,
                            "EQ11": 16, "EQ12": 2}

    def test_reference_model_shape(self, ref_model):
        n = ref_model.config.n
        assert len(variable_names(n)) == 2 * n * n + n == 136
        families = Counter(ref_model.row_tags.tolist())
        assert families == {"EQ2": 5, "EQ3": 3, "EQ4": 2, "EQ5": 6, "EQ6": 5,
                            "EQ7": 8, "EQ8": 6, "EQ9": 6, "EQ10": 64,
                            "EQ11": 64, "EQ12": 2}

    def test_rows_are_named_by_family_and_index(self, ref_model):
        names = [c.name for c in ref_model.constraints]
        assert "EQ2_i1" in names
        assert "EQ7_j8" in names
        assert "EQ10_i3_j4" in names
        assert len(names) == len(set(names))

    def test_families_appear_in_tag_order(self, ref_model):
        tags = [c.tag for c in ref_model.constraints]
        order = [int(t[2:]) for t in tags]
        assert order == sorted(order)


class TestExportLp:
    def test_sections_and_declarations(self, ref_model):
        text = export_lp(ref_model)
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[1].startswith(" obj: 5 x_1_1 + 4 x_1_2")
        for section in ("Subject To", "Bounds", "General", "Binary", "End"):
            assert section in lines
        body = text.split("General", 1)[1].split("Binary", 1)
        assert len(body[0].split()) == 128      # every x and y is integer
        assert len(body[1].split()) == 8 + 1    # request flags, then End

    def test_deterministic_bytes(self, ref_config, ref_workload):
        a = export_lp(build_model(ref_workload, ref_config))
        b = export_lp(build_model(ref_workload, ref_config))
        assert a == b

    def test_lines_stay_narrow(self, ref_model):
        assert max(len(line) for line in export_lp(ref_model).splitlines()) <= 72

    def test_guard_build_and_export_at_n100(self):
        values = SCENARIO_PRESETS["oppd"]
        config = Config(n=100, delta=values["delta"], theta=values["theta"])
        workload = generate_workload(
            ScenarioParams(name="oppd", amplitude=values["amplitude"],
                           plateau_fraction=values["plateau_fraction"], seed=0), config)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            export_lp(build_model(workload, config))
            times.append(time.perf_counter() - start)
        assert median(times) < 1.5

    def test_guard_export_memory_at_n100(self):
        # beside the text itself, the export holds the long row bodies it
        # wraps once each and the fragments it joins
        model = build_model(*_oppd(100))
        tracemalloc.start()
        try:
            text = export_lp(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * len(text)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
    def test_guard_export_peak_rss_at_n100(self):
        # the peak RSS also counts freed heap that the allocator keeps, which
        # tracemalloc does not, so it runs in a fresh process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _EXPORT_RSS_RISE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 2.2

    @given(table=_run_tables())
    # the last continuation line is exactly 72 columns wide
    @example(table=_run_table(_EDGE_NAMES, [(_HEAD_20, "\n", _FULL_LINE)]))
    # a 69-column first term cannot sit beside a 65-column head, and fills a line alone
    @example(table=_run_table(_EDGE_NAMES + ["x_" + "1" * 47],
                              [(" EQ10_i" + "1" * 57 + ":", "\n", [(3, 1, 2 ** 62)])]))
    # a tail that ends exactly at column 72 after a 62-column last line, then
    # one a column wider, which goes on a line of its own
    @example(table=_run_table(_EDGE_NAMES, [(_HEAD_20, " >= 123456\n",
                                             _FULL_LINE + [(1, 2, 2 ** 62)])]))
    @example(table=_run_table(_EDGE_NAMES, [(_HEAD_20, " >= 1234567\n",
                                             _FULL_LINE + [(1, 2, 2 ** 62)])]))
    @settings(max_examples=300, deadline=None)
    def test_rendered_rows_equal_the_reference_wrap(self, table):
        names, run_ptr, starts, lengths, coefs, heads, tails = table
        expected = []
        for row, (head, tail) in enumerate(zip(heads, tails)):
            terms = [(coef, names[v]) for start, length, coef in
                     zip(*(part[run_ptr[row]:run_ptr[row + 1]].tolist()
                           for part in (starts, lengths, coefs)))
                     for v in range(start, start + length)]
            expected += [line + "\n" for line in _reference_expr_lines(head, terms, tail[:-1])]
        name_chars = np.cumsum([0, *map(len, names)])
        text = "".join(_render_rows(names, name_chars, run_ptr, starts, lengths, coefs,
                                    heads, tails))
        assert text.splitlines(keepends=True) == expected

    def test_zero_weight_columns_are_skipped_in_objective(self, ref_model):
        objective_vars = {name for _, name in _objective(ref_model)}
        assert "x_1_6" not in objective_vars    # weight n - j - delta is zero
        assert "x_1_5" in objective_vars


class TestReferenceBuilder:
    @given(instance=_instances())
    @settings(max_examples=60, deadline=None)
    def test_rows_and_text_equal_the_reference(self, instance):
        workload, config = instance
        model = build_model(workload, config)
        reference = _reference_model(workload, config)
        names = variable_names(config.n)
        assert names == reference.variables
        assert names[: 2 * config.n ** 2] == reference.integer_variables
        assert names[2 * config.n ** 2:] == reference.binary_variables
        assert _objective(model) == reference.objective
        # the only test of the view the traced benchmark counts rows and terms through
        rows = model.constraints
        assert len(rows) == len(reference.constraints)
        for row, expected in zip(rows, reference.constraints):
            assert row == expected
        # compared as lines: a failing string comparison diffs the whole text
        assert export_lp(model).splitlines() == _reference_export(reference).splitlines()


class TestParseSolution:
    def test_witness_round_trip(self, ref_config, ref_workload):
        matrices = parse_solution(WITNESS, ref_config)
        assert objective_value(matrices, ref_config) == 6
        assert validate_solution(matrices, ref_workload, ref_config) == []
        assert matrices.allocations[0, 1] == 2
        assert matrices.allocations[2, 3] == 1
        assert matrices.deallocations[4, 3] == 2
        assert matrices.requests.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]

    def test_unlisted_variables_default_to_zero(self, ref_config):
        matrices = parse_solution("r_2 1\n", ref_config)
        assert matrices.allocations.sum() == 0
        assert matrices.requests.sum() == 1

    @pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 63 - 1])
    def test_integer_values_are_read_exactly(self, ref_config, value):
        # float holds neither: it rounds 2^53 + 1 to 2^53 and 2^63 - 1 to 2^63
        matrices = parse_solution(f"x_1_1 {value}\n", ref_config)
        assert int(matrices.allocations[0, 0]) == value

    def test_tolerates_near_integral_values(self, ref_config):
        matrices = parse_solution("x_1_2 1.9999997\n", ref_config)
        assert matrices.allocations[0, 1] == 2

    @pytest.mark.parametrize("line,fragment", [
        ("x_9_1 1", "unknown variable"),
        ("x_1_1 1 2", "expected"),
        ("x_1_1 abc", "not a number"),
        # int and float read these too, but they are not ASCII numbers
        ("x_1_1 1_000", "value '1_000' is not a number"),
        ("x_1_1 1_0.5", "value '1_0.5' is not a number"),
        ("r_1 \uff10", "value '\uff10' is not a number"),
        ("x_1_1 \u0661.0", "value '\u0661.0' is not a number"),
        ("x_1_1 0.5", "not integral"),
        ("r_2 2", "must be 0 or 1"),
        ("x_1_1 -1", "non-negative"),
        ("x_1_1 inf", "not finite"),
        ("x_1_1 -inf", "not finite"),
        ("x_1_1 nan", "not finite"),
        ("x_1_1 1e400", "not finite"),
        ("x_1_1 1e30", "outside the int64 range"),
        ("y_1_1 -1e30", "outside the int64 range"),
        ("x_1_1 9223372036854775808", "outside the int64 range"),
        # an integer past float's range is finite, not inf
        pytest.param("x_1_1 1" + "0" * 400, "outside the int64 range", id="x_1_1 10^400"),
    ])
    def test_rejections_name_the_line(self, ref_config, line, fragment):
        with pytest.raises(SolutionFormatError, match="line 2") as err:
            parse_solution("# header\n" + line + "\n", ref_config)
        assert fragment in str(err.value)

    @given(name=st.from_regex(r"[xyrz]_[0-2\u0661]{1,2}(_[0-2\u0661]{1,2})?", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_names_are_exactly_the_model_variables(self, name):
        config = Config(n=12, delta=2, theta=3)
        known = name in _reference_model(
            Workload(arrivals=np.zeros(12, dtype=int), departures=np.zeros(12, dtype=int)),
            config).variables
        try:
            parse_solution(f"{name} 0\n", config)
        except SolutionFormatError as err:
            assert not known and "unknown variable" in str(err)
        else:
            assert known

    def test_duplicate_assignment_rejected(self, ref_config):
        with pytest.raises(SolutionFormatError, match="duplicate"):
            parse_solution("x_1_1 1\nx_1_1 1\n", ref_config)


class TestValidateSolution:
    def test_uncovered_arrival_is_reported(self, ref_config, ref_workload):
        empty = SolutionMatrices(np.zeros((8, 8), dtype=int),
                                 np.zeros((8, 8), dtype=int),
                                 np.zeros(8, dtype=int))
        tags = [v.tag for v in validate_solution(empty, ref_workload, ref_config)]
        assert "EQ2" in tags and "EQ8" in tags

    def test_mass_at_unflagged_slot_trips_linking(self, ref_config, ref_workload):
        matrices = parse_solution(WITNESS.replace("r_4 1", "r_4 0"), ref_config)
        out = validate_solution(matrices, ref_workload, ref_config)
        assert any(v.tag == "EQ10" and (v.i, v.j) == (3, 4) for v in out)
        assert any(v.tag == "EQ11" and (v.i, v.j) == (5, 4) for v in out)

    def test_spacing_violation_detected(self, ref_config, ref_workload):
        x = np.zeros((8, 8), dtype=int)
        x[0, 0] = 2
        x[2, 1] = 1
        r = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        out = validate_solution(SolutionMatrices(x, np.zeros_like(x), r),
                                ref_workload, ref_config)
        assert any(v.tag == "EQ9" for v in out)

    def test_flag_in_tail_detected(self, ref_config, ref_workload):
        r = np.zeros(8, dtype=int)
        r[7] = 1
        out = validate_solution(
            SolutionMatrices(np.zeros((8, 8), dtype=int),
                             np.zeros((8, 8), dtype=int), r),
            ref_workload, ref_config)
        assert any(v.tag == "EQ12" and v.j == 8 for v in out)

    def test_negative_entries_are_bound_violations(self, ref_config, ref_workload):
        x = np.zeros((8, 8), dtype=int)
        x[3, 2] = -2
        out = validate_solution(SolutionMatrices(x, np.zeros_like(x),
                                                 np.zeros(8, dtype=int)),
                                ref_workload, ref_config)
        assert any(v.tag == "BOUND" and (v.i, v.j) == (4, 3) for v in out)

    def test_excess_release_detected(self, ref_config, ref_workload):
        y = np.zeros((8, 8), dtype=int)
        y[4, 3] = 3                            # only 2 participants leave
        r = np.zeros(8, dtype=int)
        r[3] = 1
        out = validate_solution(
            SolutionMatrices(np.zeros((8, 8), dtype=int), y, r),
            ref_workload, ref_config)
        assert any(v.tag == "EQ5" and v.i == 5 for v in out)

    def test_early_release_detected(self, ref_config, ref_workload):
        y = np.zeros((8, 8), dtype=int)
        y[4, 0] = 1                            # departure at 5 cannot act at 1
        r = np.zeros(8, dtype=int)
        r[0] = 1
        out = validate_solution(
            SolutionMatrices(np.zeros((8, 8), dtype=int), y, r),
            ref_workload, ref_config)
        assert any(v.tag == "EQ6" and v.i == 5 for v in out)

    def test_rows_beyond_int64_are_exact(self):
        # EQ7/EQ8 rows sum x_1_1 + x_6_3 = 2^63, which wraps to -2^63 in int64
        config = Config(n=6, delta=2, theta=3)
        workload = Workload(np.array([2 ** 62, 0, 0, 0, 0, 0]), np.zeros(6, dtype=int))
        x = np.zeros((6, 6), dtype=np.int64)
        x[0, 0] = x[5, 2] = 2 ** 62
        r = np.array([1, 0, 1, 0, 0, 0])
        matrices = SolutionMatrices(x, np.zeros_like(x), r)
        assert validate_solution(matrices, workload, config) == []
        x[0, 0] = 2 ** 63 - 1
        r[0] = 0
        assert [v.render() for v in validate_solution(
            SolutionMatrices(x, np.zeros_like(x), r), workload, config)] == [
            f"VIOLATION EQ10 i=1 j=1 detail=left side {1 - 2 ** 63} is not >= 0"]

    def test_violation_rendering(self, ref_config, ref_workload):
        empty = SolutionMatrices(np.zeros((8, 8), dtype=int),
                                 np.zeros((8, 8), dtype=int),
                                 np.zeros(8, dtype=int))
        first = validate_solution(empty, ref_workload, ref_config)[0]
        text = first.render()
        assert text.startswith("VIOLATION EQ2 i=1 ")
        assert "detail=" in text

    @given(case=_perturbed_solutions())
    @settings(max_examples=150, deadline=None)
    def test_rows_failed_equal_the_reference(self, case):
        matrices, workload, config = case
        got = validate_solution(matrices, workload, config)
        expected = _reference_validate(matrices, workload, config)
        assert [(v.tag, v.i, v.j) for v in got] == [(v.tag, v.i, v.j) for v in expected]

    def test_guard_validate_at_n300(self):
        matrices, workload, config = _oppd_lifted(300)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert validate_solution(matrices, workload, config) == []
            times.append(time.perf_counter() - start)
        assert median(times) < 0.5


class TestCostForms:
    def test_witness_matches_schedule_cost(self, ref_config):
        matrices = parse_solution(WITNESS, ref_config)
        schedule = matrices_to_schedule(matrices, ref_config)
        assert schedule.changes.tolist() == [0, 2, 0, -1, 0, 0, 0, 0]
        assert resource_cost(schedule, ref_config) == 6

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_objective_equals_collapsed_schedule_cost(self, data):
        n = data.draw(st.integers(3, 12))
        delta = data.draw(st.integers(2, max(2, n - 1)))
        theta = data.draw(st.integers(delta + 1, n))
        cfg = Config(n=n, delta=delta, theta=theta)
        shape = st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=n, max_size=n)
        x = np.array(data.draw(shape))
        y = np.array(data.draw(shape))
        r = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        matrices = SolutionMatrices(x, y, r)
        schedule = matrices_to_schedule(matrices, cfg)
        assert objective_value(matrices, cfg) == resource_cost(schedule, cfg)

    def test_column_sums_beyond_int64_are_rejected(self):
        # summed in int64, 2^62 + 2^62 wrapped to an objective of -2^63
        cfg = Config(n=4, delta=2, theta=3)
        x = np.zeros((4, 4), dtype=np.int64)
        x[0, 0] = x[1, 0] = 2 ** 62
        matrices = SolutionMatrices(x, np.zeros((4, 4), dtype=np.int64), np.array([1, 0, 0, 0]))
        with pytest.raises(ScheduleFormatError, match="net change at slot 1 is outside the int64"):
            objective_value(matrices, cfg)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_column_sums_are_exact(self, data):
        n = data.draw(st.integers(3, 4))
        entry = st.sampled_from([0, 1, -1, 2 ** 62, -2 ** 62, 2 ** 63 - 1, -2 ** 63])
        shape = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        x, y = data.draw(shape), data.draw(shape)
        net = [sum(row[j] for row in x) - sum(row[j] for row in y) for j in range(n)]
        matrices = SolutionMatrices(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64),
                                    np.zeros(n, dtype=np.int64))
        cfg = Config(n=n, delta=2, theta=3)
        outside = [j for j, change in enumerate(net, 1) if not -2 ** 63 <= change < 2 ** 63]
        over = [j for j, total in enumerate(accumulate(net), 1) if not -2 ** 63 <= total < 2 ** 63]
        if outside or over:
            message = (f"net change at slot {outside[0]} " if outside
                       else f"changes summed through slot {over[0]} ")
            with pytest.raises(ScheduleFormatError, match=message):
                matrices_to_schedule(matrices, cfg)
        else:
            assert matrices_to_schedule(matrices, cfg).changes.tolist() == net

    @pytest.mark.parametrize("field", ["allocations", "deallocations", "requests"])
    def test_unsigned_entries_beyond_int64_are_rejected(self, field):
        arrays = dict(allocations=np.zeros((2, 2), dtype=np.uint64),
                      deallocations=np.zeros((2, 2), dtype=np.uint64),
                      requests=np.zeros(2, dtype=np.uint64))
        arrays[field][-1] = 2 ** 63
        with pytest.raises(ValueError, match=f"{field} has an entry outside the int64 range at "):
            SolutionMatrices(**arrays)


class TestGuards:
    @pytest.mark.parametrize("make, error, message", [
        (lambda: SolutionMatrices(np.zeros((2, 3), int), np.zeros((2, 3), int), np.zeros(2, int)),
         ValueError, "allocations must be a square matrix"),
        (lambda: SolutionMatrices(np.zeros((2, 2), int), np.zeros((3, 3), int), np.zeros(2, int)),
         ValueError, "deallocations must match allocations in shape"),
        (lambda: SolutionMatrices(np.zeros((2, 2), int), np.zeros((2, 2), int), np.zeros(3, int)),
         ValueError, "requests must be a vector of length n"),
        (lambda: SolutionMatrices(np.zeros((2, 2)), np.zeros((2, 2), int), np.zeros(2, int)),
         ValueError, "allocations must contain integers"),
        (lambda: SolutionMatrices(np.zeros((2, 2), int), np.zeros((2, 2), int), np.array([0, 2])),
         ValueError, "requests entries must be 0 or 1"),
        (lambda: matrices_to_schedule(SolutionMatrices(np.zeros((3, 3), int), np.zeros((3, 3), int),
                                                       np.zeros(3, int)), Config(8, 2, 3)),
         ConfigurationError, "matrices are 3x3 but config.n is 8"),
    ])
    def test_rejections_name_the_fault(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message

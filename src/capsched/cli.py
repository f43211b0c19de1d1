"""Command line front end.

Subcommands cover the full workflow: generate a workload, plan a schedule,
evaluate or validate it, export the integer program, and compare planners
over a seed range.  Exit codes: 0 on success, 1 when a schedule or
assignment is infeasible, 2 for usage errors, malformed inputs, refused
oracle runs, and horizons too large to allocate.
"""

import argparse
import contextlib
import functools
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ilp import (
    SolutionFormatError,
    build_model,
    export_lp,
    parse_solution,
    validate_solution,
)
from .schedule import (
    CostReport,
    Schedule,
    ScheduleFormatError,
    _evaluate_rows,
    check_feasibility,
    evaluate,
    format_schedule,
    parse_schedule,
)
from .solvers import _PLANNERS, _one_row
from .workload import (
    Config,
    ConfigurationError,
    ScenarioParams,
    WorkloadFormatError,
    _ascii_number,
    _generate_rows,
    format_workload,
    generate_workload,
    parse_workload,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


# the oracle's caps: solve refuses beyond them and compare notes each refusal;
# exact_schedule itself plans at any n
ORACLE_MAX_N = 10
ORACLE_MAX_PARTICIPANTS = 8


def _refusal(algorithm: str, n: int, participants: int) -> Optional[str]:
    """Why the caps refuse algorithm a row of n slots and that many arrivals,
    or None: only the oracle has caps."""
    if algorithm != "oracle":
        return None
    if n > ORACLE_MAX_N:
        return f"n={n} exceeds the search limit max_n={ORACLE_MAX_N}"
    if participants > ORACLE_MAX_PARTICIPANTS:
        return (f"{participants} participants exceed the search limit "
                f"max_total_participants={ORACLE_MAX_PARTICIPANTS}")
    return None


ALGORITHMS = tuple(_PLANNERS)

SCENARIO_PRESETS: Dict[str, Dict[str, object]] = {
    "mmog": {"n": 100, "delta": 3, "theta": 4, "amplitude": 1500,
             "plateau_fraction": 0.3},
    "oppd": {"n": 100, "delta": 3, "theta": 4, "amplitude": 300,
             "plateau_fraction": 0.3},
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# characters per write: a write holds its slice and the slice's encoded bytes,
# not an encoded copy of the whole text, so export-lp's long text costs at
# most 2^23 bytes more to write; a text of at most 2^22 characters is written
# in one call
_WRITE_SLICE = 1 << 22


def _write_text(path: Optional[str], text: str) -> None:
    with (contextlib.nullcontext(sys.stdout) if path is None or path == "-"
          else open(path, "w", encoding="utf-8")) as handle:
        for at in range(0, len(text), _WRITE_SLICE):
            handle.write(text[at:at + _WRITE_SLICE])


def _ascii(parse):
    """parse of ASCII text only, as an argparse type named as parse in its errors."""
    return functools.wraps(parse, updated=())(lambda text: parse(_ascii_number(text)))


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS),
                        help="parameter preset; explicit flags override it")
    parser.add_argument("--n", type=_ascii(int), help="number of slots")
    parser.add_argument("--delta", type=_ascii(int), help="provisioning lag in slots")
    parser.add_argument("--theta", type=_ascii(int), help="acceptable join delay in slots")
    parser.add_argument("--amplitude", type=_ascii(int), help="peak per-slot draw")
    parser.add_argument("--plateau-fraction", type=_ascii(float), dest="plateau_fraction",
                        help="fraction of the horizon spent at the plateau")


def _resolve_scenario(args: argparse.Namespace, seed: int) -> Tuple[Config, ScenarioParams]:
    merged: Dict[str, object] = {}
    if args.scenario:
        merged.update(SCENARIO_PRESETS[args.scenario])
    for field in ("n", "delta", "theta", "amplitude", "plateau_fraction"):
        value = getattr(args, field)
        if value is not None:
            merged[field] = value
    missing = [f for f in ("n", "delta", "theta", "amplitude") if f not in merged]
    if missing:
        raise ConfigurationError(
            "missing scenario parameters: " + ", ".join(missing)
            + " (pass --scenario or the explicit flags)")
    merged.setdefault("plateau_fraction", 0.3)
    config = Config(n=int(merged["n"]), delta=int(merged["delta"]),
                    theta=int(merged["theta"]))
    params = ScenarioParams(name=args.scenario or "custom",
                            amplitude=int(merged["amplitude"]),
                            plateau_fraction=float(merged["plateau_fraction"]),
                            seed=seed)
    return config, params


def _cmd_generate(args: argparse.Namespace) -> int:
    config, params = _resolve_scenario(args, args.seed)
    workload = generate_workload(params, config)
    _write_text(args.out, format_workload(config, workload))
    return EXIT_OK


# the report fields, in the order the CLI prints them and the CSV holds them
_REPORT_FIELDS = ("resource_cost", "qos_cost", "max_capacity", "num_requests", "feasible")


def _report_cells(report: CostReport) -> List[str]:
    values = [getattr(report, field) for field in _REPORT_FIELDS]
    return [str(value).lower() if isinstance(value, bool) else str(value) for value in values]


def _report_lines(report: CostReport) -> List[str]:
    return [f"{field}={cell}" for field, cell in zip(_REPORT_FIELDS, _report_cells(report))]


def _cmd_solve(args: argparse.Namespace) -> int:
    config, workload = parse_workload(_read_text(args.workload))
    refusal = _refusal(args.algorithm, config.n, int(workload.arrivals.sum()))
    if refusal:
        raise ConfigurationError(refusal)
    schedule = _one_row(_PLANNERS[args.algorithm], workload, config)
    _write_text(args.out, format_schedule(config, schedule))
    report = evaluate(workload, schedule, config)
    for line in _report_lines(report):
        print(line, file=sys.stderr)
    for violation in report.violations:
        print(violation.render(), file=sys.stderr)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _read_schedule(path: str, config: Config) -> Schedule:
    n, delta, schedule = parse_schedule(_read_text(path))
    if (n, delta) != (config.n, config.delta):
        raise ScheduleFormatError(
            f"schedule was built for n={n}, delta={delta}, "
            f"not n={config.n}, delta={config.delta}")
    return schedule


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config, workload = parse_workload(_read_text(args.workload))
    schedule = _read_schedule(args.schedule, config)
    report = evaluate(workload, schedule, config)
    _write_text(args.out, "".join(line + "\n" for line in _report_lines(report)))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_validate(args: argparse.Namespace) -> int:
    config, workload = parse_workload(_read_text(args.workload))
    if (args.schedule is None) == (args.solution is None):
        raise ConfigurationError("pass exactly one of --schedule or --solution")
    if args.schedule is not None:
        schedule = _read_schedule(args.schedule, config)
        violations = check_feasibility(workload, schedule, config)
    else:
        matrices = parse_solution(_read_text(args.solution), config)
        violations = validate_solution(matrices, workload, config)
    if not violations:
        print("OK")
        return EXIT_OK
    for violation in violations:
        print(violation.render())
    return EXIT_INFEASIBLE


def _cmd_export_lp(args: argparse.Namespace) -> int:
    config, workload = parse_workload(_read_text(args.workload))
    model = build_model(workload, config)
    _write_text(args.out, export_lp(model))
    return EXIT_OK


CSV_HEADER = ",".join(("seed", "algorithm", *_REPORT_FIELDS))


def _compare_block(arrivals: np.ndarray, departures: np.ndarray, seeds: Sequence[int],
                   config: Config, algorithms: Sequence[str]
                   ) -> Tuple[List[Tuple[int, str, CostReport]], List[str]]:
    """Plan and evaluate every seed of a block in one array pass over its
    (seeds x n) arrivals and departures, with no per-seed Workload: each
    algorithm's row function in the planner table plans, in one call, every
    row that _refusal admits, then every plan is evaluated in one pass.
    Rows are (seed, algorithm, report), per algorithm in the order given,
    then per seed; run_compare sorts them.  Notes name the refused seeds."""
    participants = arrivals.sum(axis=1).tolist()
    plans, index, owners, notes = [], [], [], []
    for algorithm in algorithms:
        kept = []
        for k, seed in enumerate(seeds):
            refusal = _refusal(algorithm, config.n, participants[k])
            if refusal:
                notes.append(f"{algorithm} skipped seed={seed}: {refusal}")
            else:
                kept.append(k)
        # fancy indexing copies the block, so only a refusal takes it
        rows = slice(None) if len(kept) == len(seeds) else kept
        plans.append(_PLANNERS[algorithm](arrivals[rows], departures[rows], config))
        index.extend(kept)
        owners.extend((seeds[k], algorithm) for k in kept)
    if not owners:
        return [], notes
    reports = _evaluate_rows(arrivals[index], departures[index], np.concatenate(plans), config)
    return [(seed, algorithm, report) for (seed, algorithm), report in zip(owners, reports)], notes


@dataclass(frozen=True)
class CompareSpec:
    """Everything one comparison run needs: dimensions, scenario template,
    seed range and planner set."""

    config: Config
    scenario: ScenarioParams
    seeds: Tuple[int, ...]
    algorithms: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.seeds:
            raise ConfigurationError("empty seed range")
        if not self.algorithms:
            raise ConfigurationError("no algorithms requested")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {algorithm!r}")
            if self.algorithms.count(algorithm) > 1:
                raise ConfigurationError(f"algorithm {algorithm!r} is listed twice")


def _median_text(values: Sequence[int]) -> str:
    """The exact median of integers: the middle one for an odd count, else the
    half-sum as <int>.0 or <int>.5, which is a float's text below 2^53."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return str(ordered[mid])
    total = ordered[mid - 1] + ordered[mid]
    return f"{'-' if total < 0 else ''}{abs(total) // 2}.{5 * (total % 2)}"


# the seeds x n entries one compare block holds; it bounds the memory of the
# block's arrays, a few dozen (plans x n) int64 ones at once
_BLOCK_ENTRIES = 1 << 14


def run_compare(spec: CompareSpec) -> str:
    """Run every planner over every seed and render the CSV report.

    Rows come first, sorted by seed then algorithm name; planner medians
    and any skip or infeasibility notes follow as comment lines so the
    file stays loadable by any CSV reader that skips '#'.  The oracle is
    dropped up front, with a note, when the dimensions exceed its limits.
    The seeds are taken in blocks of at most _BLOCK_ENTRIES // n, each drawn
    by _generate_rows, then planned and evaluated by one _compare_block pass.
    """
    config, params = spec.config, spec.scenario
    notes: List[str] = []
    algorithms = list(spec.algorithms)
    if "oracle" in algorithms and config.n > ORACLE_MAX_N:
        algorithms.remove("oracle")
        notes.append(f"oracle excluded: n={config.n} exceeds the oracle "
                     f"limit max_n={ORACLE_MAX_N}")
    rows: List[Tuple[int, str, CostReport]] = []
    per_block = max(1, _BLOCK_ENTRIES // config.n)
    for first in range(0, len(spec.seeds), per_block):
        seeds = spec.seeds[first:first + per_block]
        arrivals, departures = _generate_rows(params, seeds, config)
        block_rows, block_notes = _compare_block(arrivals, departures, seeds, config, algorithms)
        rows.extend(block_rows)
        notes.extend(block_notes)
    rows.sort(key=lambda row: row[:2])
    lines = [CSV_HEADER]
    lines.extend(",".join([str(seed), algorithm, *_report_cells(report)])
                 for seed, algorithm, report in rows)
    for algorithm in sorted(set(algorithms)):
        reports = [report for _, name, report in rows if name == algorithm]
        if reports:
            # the medians of the two costs, the report's first two fields
            medians = " ".join(f"{field}={_median_text([getattr(r, field) for r in reports])}"
                               for field in _REPORT_FIELDS[:2])
            lines.append(f"# median algorithm={algorithm} {medians}")
        bad = sum(1 for report in reports if not report.feasible)
        if bad:
            lines.append(f"# infeasible algorithm={algorithm} rows={bad}")
    lines.extend(f"# {note}" for note in notes)
    return "".join(line + "\n" for line in lines)


def _parse_seed_range(text: str) -> List[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(_ascii_number(lo_text)), int(_ascii_number(hi_text))
        else:
            lo = hi = int(_ascii_number(text))
    except ValueError as exc:
        raise ConfigurationError(f"bad seed range {text!r}: expected K or A..B") from exc
    if hi < lo:
        raise ConfigurationError(f"bad seed range {text!r}: end before start")
    if hi - lo >= sys.maxsize:
        raise ConfigurationError(f"bad seed range {text!r}: more seeds than a list can hold")
    return list(range(lo, hi + 1))


def _cmd_compare(args: argparse.Namespace) -> int:
    config, params = _resolve_scenario(args, 0)
    spec = CompareSpec(
        config=config, scenario=params,
        seeds=tuple(_parse_seed_range(args.seeds)),
        algorithms=tuple(name.strip() for name in args.algorithms.split(",")
                         if name.strip()))
    _write_text(args.out, run_compare(spec))
    return EXIT_OK


# built once per process: main parses with it on every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsched",
        description="Plan and evaluate elastic capacity schedules for "
                    "slotted conference workloads.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic workload")
    _add_scenario_options(p)
    p.add_argument("--seed", type=_ascii(int), default=0, help="generator seed")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="plan a capacity schedule for a workload")
    p.add_argument("workload", help="workload JSON path, '-' for stdin")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="ads")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="cost and admission report for a schedule")
    p.add_argument("workload", help="workload JSON path, '-' for stdin")
    p.add_argument("schedule", help="schedule JSON path")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("validate", help="list every constraint violation")
    p.add_argument("workload", help="workload JSON path, '-' for stdin")
    p.add_argument("--schedule", help="schedule JSON path")
    p.add_argument("--solution", help="solver solution path (variable value lines)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("export-lp", help="write the integer program in LP format")
    p.add_argument("workload", help="workload JSON path, '-' for stdin")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("compare", help="run planners over seeded workloads")
    _add_scenario_options(p)
    p.add_argument("--seeds", default="0..9", help="seed or inclusive range A..B")
    p.add_argument("--algorithms", default="ads,greedy",
                   help="comma separated planner names")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigurationError, WorkloadFormatError, ScheduleFormatError,
            SolutionFormatError, OSError, UnicodeDecodeError,
            MemoryError) as exc:
        # a failed allocation may carry no text of its own
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"error: {text}", file=sys.stderr)
        return EXIT_USAGE

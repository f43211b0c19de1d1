"""Span recorder for the traced run, and the per-layer figures derived from it.

The recorder wraps the public functions listed in ``TRACED`` at every
module attribute through which a caller can look them up (for example
``capsched.cli.adaptive_schedule`` and ``capsched.schedule.simulate``), so
nested calls nest as spans.  Spans stay in memory as
``[name, start_ns, end_ns, parent_index, job]`` and are written out once
the run ends.  It also adds up the rows and terms of every model that
``build_model`` returns.  An untraced workload process never imports this module.
"""

import functools
import importlib
import json
import statistics
import sys
import time

TRACED = {
    "workload": ("generate_workload", "parse_workload", "format_workload"),
    "solvers": ("adaptive_schedule", "greedy_schedule", "exact_oracle"),
    "schedule": ("evaluate", "simulate", "check_feasibility", "parse_schedule",
                 "format_schedule"),
    "ilp": ("build_model", "export_lp", "parse_solution", "validate_solution"),
    "cli": ("main", "run_compare"),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
ROOT = "cli.main"


class SpanRecorder:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []
        self._patches = None

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._find()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches or ():
            setattr(mod, attr, original)

    def _find(self):
        """(module, attribute, original, wrapper) for every place a traced
        function is looked up."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "capsched" or name.startswith("capsched."))]
        patches = []
        for span_name in SPAN_NAMES:
            module_name, fn_name = span_name.split(".")
            module = importlib.import_module(f"capsched.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                print(f"warning: capsched.{span_name} not found; not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                patches.extend((mod, attr, original, wrapper)
                               for attr, value in vars(mod).items() if value is original)
        return patches

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_model = name == "ilp.build_model"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count_model:
                rows = result.constraints
                counts["rows"] = counts.get("rows", 0) + len(rows)
                counts["terms"] = counts.get("terms", 0) + sum(len(row.terms) for row in rows)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _covered(interval, children):
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    covered, reach = 0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Returns (self times, problems).  The problems list is empty when every
    span lies inside its parent, belongs to its parent's job, and every
    root is a ``cli.main`` call.
    """
    problems = []
    children = [[] for _ in spans]
    for index, (name, start, end, parent, job) in enumerate(spans):
        if parent < 0:
            if name != ROOT:
                problems.append(f"span {index} ({name}) has no {ROOT} ancestor")
            continue
        p_name, p_start, p_end, _, p_job = spans[parent]
        if not (p_start <= start <= end <= p_end) or p_job != job:
            problems.append(f"span {index} ({name}) is not inside its parent {p_name}")
        children[parent].append((start, end))
    selfs = [end - start - _covered((start, end), children[i])
             for i, (_, start, end, _, _) in enumerate(spans)]
    return selfs, problems


def check_jobs(spans, selfs, job_walls):
    """Per job, the self times of all spans must add up to the job's
    ``cli.main`` time, and that time must fit in the job's wall time."""
    problems = []
    self_sum, main_sum = {}, {}
    for (name, start, end, parent, job), own in zip(spans, selfs):
        self_sum[job] = self_sum.get(job, 0) + own
        if parent < 0 and name == ROOT:
            main_sum[job] = main_sum.get(job, 0) + end - start
    for job, wall in job_walls.items():
        if job not in main_sum:
            problems.append(f"job {job} never entered {ROOT}")
        elif self_sum[job] != main_sum[job]:
            problems.append(f"job {job}: self times add up to {self_sum[job]} ns, "
                            f"{ROOT} took {main_sum[job]} ns")
        elif main_sum[job] > wall:
            problems.append(f"job {job}: {ROOT} took longer than the job")
    return problems


def layer_metrics(spans, selfs, traced_wall_ns):
    """calls, p50_ms and self_share for every traced function."""
    durations = {name: [] for name in SPAN_NAMES}
    own = {name: 0 for name in SPAN_NAMES}
    for (name, start, end, _, _), self_ns in zip(spans, selfs):
        durations[name].append(end - start)
        own[name] += self_ns
    metrics = {}
    for name in SPAN_NAMES:
        calls = durations[name]
        metrics[f"{name}.calls"] = (len(calls), "count")
        metrics[f"{name}.p50_ms"] = (statistics.median(calls) / 1e6 if calls else 0.0, "ms")
        metrics[f"{name}.self_share"] = (own[name] / traced_wall_ns, "fraction")
    return metrics

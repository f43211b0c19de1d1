"""Schedules of capacity changes: cost accounting, admission simulation, feasibility.

A schedule assigns each slot j a signed capacity change s_j.  A nonzero
s_j is a scaling request; it takes effect delta slots later, so the
capacity available during slot t is the sum of all changes requested at
slots <= t - delta.
"""

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .workload import INT64_MAX, INT64_MIN, Config, Workload, mandatory_load, _require_matching


class ScheduleFormatError(ValueError):
    """Raised when schedule text fails to parse or validate."""


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule drives capacity negative."""


class ModelInconsistencyError(RuntimeError):
    """Raised when the simulator sees departures with nobody left to depart."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """Signed capacity change per slot.

    The container itself accepts any integers; feasibility of a schedule
    against a workload is established by check_feasibility, not here.
    """

    changes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.changes)
        if arr.ndim != 1 or arr.size == 0:
            raise ScheduleFormatError("changes must be a non-empty 1-d array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ScheduleFormatError("changes must contain integers")
        object.__setattr__(self, "changes", arr.astype(np.int64))

    @property
    def n(self) -> int:
        return len(self.changes)


@dataclass(frozen=True)
class Violation:
    """One feasibility defect, renderable as a single report line."""

    kind: str
    slot: int
    slot2: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        parts = [f"VIOLATION {self.kind} slot={self.slot}"]
        if self.slot2 is not None:
            parts.append(f"slot2={self.slot2}")
        parts.append(f"detail={self.detail}")
        return " ".join(parts)


@dataclass(eq=False)
class SimulationReport:
    """Outcome of first-in-first-out admission under a capacity trajectory.

    waits maps a waiting time in slots to the number of participants who
    experienced it; admissions maps an arrival slot to (count, admit slot)
    batches.  Participants who left before ever being admitted appear in
    departed_waiting, and those still waiting when the horizon ends in
    unadmitted.  overcommit lists slots where already admitted participants
    exceeded capacity.
    """

    qos_cost: int
    waits: Dict[int, int]
    theta_violations: List[int]
    capacity: np.ndarray
    admissions: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    departed_waiting: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    unadmitted: Dict[int, int] = field(default_factory=dict)
    overcommit: List[Tuple[int, int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class CostReport:
    """Headline numbers for one (workload, schedule) pairing."""

    resource_cost: int
    qos_cost: int
    max_capacity: int
    num_requests: int
    feasible: bool


def _raw_trajectory(schedule: Schedule, config: Config) -> np.ndarray:
    # capacity during slot t is the net of changes requested at slots <= t - delta
    n = config.n
    cum = np.concatenate([[0], np.cumsum(schedule.changes)])
    idx = np.clip(np.arange(1, n + 1) - config.delta, 0, n)
    return cum[idx]


def capacity_trajectory(schedule: Schedule, config: Config) -> np.ndarray:
    """Capacity available during each slot.

    Raises InfeasibleScheduleError naming the first slot where the
    trajectory goes negative.
    """
    _require_schedule_span(schedule, config)
    cap = _raw_trajectory(schedule, config)
    bad = np.nonzero(cap < 0)[0]
    if bad.size:
        raise InfeasibleScheduleError(
            f"capacity is {int(cap[bad[0]])} at slot {int(bad[0]) + 1}")
    return cap


def resource_cost(schedule: Schedule, config: Config) -> int:
    """Provisioning cost: each change is weighted by the slots it stays active.

    A change at slot j is charged s_j * (n - j - delta); changes after slot
    n - delta carry no charge (they are rejected by feasibility checking
    instead).  The result may be any integer for intermediate schedules.
    """
    _require_schedule_span(schedule, config)
    n, delta = config.n, config.delta
    j = np.arange(1, n - delta + 1)
    s = schedule.changes[: n - delta]
    return int(np.dot(s, n - j - delta))


def _require_schedule_span(schedule: Schedule, config: Config) -> None:
    if schedule.n != config.n:
        raise ScheduleFormatError(
            f"schedule has {schedule.n} slots but config.n is {config.n}")


def simulate(workload: Workload, schedule: Schedule, config: Config) -> SimulationReport:
    """Replay admissions slot by slot under the schedule's capacity.

    Within a slot, joining participants enter the waiting queue first, then
    departures are processed, then waiting participants are admitted in
    arrival order up to free capacity.  Departures remove the earliest
    admitted participants; any excess falls on the earliest still-waiting
    participants, whose waiting time then ends at the departure slot.
    Departures beyond everyone present indicate a corrupted workload and
    raise ModelInconsistencyError.

    Waiting time above theta is flagged whether or not the participant was
    admitted later; participants still waiting when the horizon ends are
    flagged as unadmitted.
    """
    _require_matching(workload, config)
    _require_schedule_span(schedule, config)
    cap = _raw_trajectory(schedule, config)
    theta = config.theta

    arrivals = workload.arrivals.tolist()
    departures = workload.departures.tolist()
    cap_at = cap.tolist()

    waiting: Deque[List[int]] = deque()    # [arrival slot, count], arrival order
    admitted: Deque[List[int]] = deque()   # same shape, admission order
    admitted_total = 0
    qos = 0
    waits: Dict[int, int] = {}
    violators = set()
    admissions: Dict[int, List[Tuple[int, int]]] = {}
    departed_waiting: Dict[int, List[Tuple[int, int]]] = {}
    overcommit: List[Tuple[int, int, int]] = []

    def record_wait(arr_slot: int, count: int, wait: int) -> None:
        nonlocal qos
        qos += wait * count
        waits[wait] = waits.get(wait, 0) + count
        if wait > theta:
            violators.add(arr_slot)

    for t in range(1, config.n + 1):
        a = arrivals[t - 1]
        if a:
            waiting.append([t, a])
        d = departures[t - 1]
        while d > 0:
            if admitted:
                batch = admitted[0]
                take = min(d, batch[1])
                batch[1] -= take
                admitted_total -= take
                if batch[1] == 0:
                    admitted.popleft()
            elif waiting:
                batch = waiting[0]
                take = min(d, batch[1])
                batch[1] -= take
                record_wait(batch[0], take, t - batch[0])
                departed_waiting.setdefault(batch[0], []).append((take, t))
                if batch[1] == 0:
                    waiting.popleft()
            else:
                raise ModelInconsistencyError(
                    f"departures at slot {t} exceed participants present")
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
            admissions.setdefault(batch[0], []).append((take, t))
            admitted.append([batch[0], take])
            admitted_total += take
            free -= take

    unadmitted = {arr: count for arr, count in waiting if count > 0}
    violators.update(unadmitted)
    return SimulationReport(
        qos_cost=qos,
        waits=waits,
        theta_violations=sorted(violators),
        capacity=cap,
        admissions=admissions,
        departed_waiting=departed_waiting,
        unadmitted=unadmitted,
        overcommit=overcommit,
    )


def check_feasibility(workload: Workload, schedule: Schedule, config: Config,
                      _sim: Optional[SimulationReport] = None) -> List[Violation]:
    """Collect every way the schedule fails the workload.  Empty means feasible.

    Checked, in order: minimum spacing between scaling requests, requests too
    close to the horizon end to take effect, negative capacity, capacity
    below the mandatory load floor, waiting times beyond theta or participants
    never admitted, and capacity dropping below the already admitted count.
    """
    _require_matching(workload, config)
    _require_schedule_span(schedule, config)
    n, delta = config.n, config.delta
    out: List[Violation] = []

    hot = (np.flatnonzero(schedule.changes) + 1).tolist()
    for j, j2 in zip(hot, hot[1:]):
        if j2 - j < delta:
            out.append(Violation("separation", j, j2,
                                 f"requests {j2 - j} slots apart, need {delta}"))
    for j in hot:
        if j > n - delta:
            out.append(Violation("tail_request", j,
                                 detail=f"cannot take effect by slot {n}"))

    cap = _raw_trajectory(schedule, config)
    for t in np.nonzero(cap < 0)[0]:
        out.append(Violation("negative_capacity", int(t) + 1,
                             detail=f"capacity {int(cap[t])}"))
    load = mandatory_load(workload, config).values
    for t in np.nonzero(cap < load)[0]:
        if cap[t] >= 0:
            out.append(Violation("mandatory_load", int(t) + 1,
                                 detail=f"capacity {int(cap[t])} below floor {int(load[t])}"))

    sim = _sim if _sim is not None else simulate(workload, schedule, config)
    for arr in sim.theta_violations:
        if arr in sim.unadmitted:
            out.append(Violation("never_admitted", arr,
                                 detail=f"{sim.unadmitted[arr]} participants still waiting at horizon end"))
        else:
            out.append(Violation("theta_delay", arr,
                                 detail=f"waited beyond theta={config.theta}"))
    for t, occ, c in sim.overcommit:
        out.append(Violation("capacity_below_occupancy", t,
                             detail=f"{occ} admitted but capacity {c}"))
    return out


def evaluate(workload: Workload, schedule: Schedule, config: Config) -> CostReport:
    """Summarize one schedule: costs, capacity peak, request count, feasibility."""
    sim = simulate(workload, schedule, config)
    violations = check_feasibility(workload, schedule, config, _sim=sim)
    cap = sim.capacity
    return CostReport(
        resource_cost=resource_cost(schedule, config),
        qos_cost=sim.qos_cost,
        max_capacity=int(cap.max()),
        num_requests=int(np.count_nonzero(schedule.changes)),
        feasible=not violations,
    )


_SCHEDULE_FIELDS = ("n", "delta", "changes")


def parse_schedule(text: str) -> Tuple[int, int, Schedule]:
    """Parse schedule text: a JSON object with fields n, delta, changes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleFormatError(f"schedule text is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScheduleFormatError("schedule text must be a JSON object")
    missing = [f for f in _SCHEDULE_FIELDS if f not in doc]
    if missing:
        raise ScheduleFormatError(f"missing schedule field: {missing[0]}")
    unknown = [f for f in doc if f not in _SCHEDULE_FIELDS]
    if unknown:
        raise ScheduleFormatError(f"unknown schedule field: {unknown[0]}")
    for f in ("n", "delta"):
        if not isinstance(doc[f], int) or isinstance(doc[f], bool):
            raise ScheduleFormatError(f"field {f} must be an integer")
    if not isinstance(doc["changes"], list):
        raise ScheduleFormatError("field changes must be a list")
    for k, v in enumerate(doc["changes"]):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ScheduleFormatError(f"changes has a non-integer entry at slot {k + 1}")
        if not INT64_MIN <= v <= INT64_MAX:
            raise ScheduleFormatError(
                f"changes has an entry outside the int64 range at slot {k + 1}")
    if len(doc["changes"]) != doc["n"]:
        raise ScheduleFormatError(
            f"changes has {len(doc['changes'])} entries but n is {doc['n']}")
    return doc["n"], doc["delta"], Schedule(np.array(doc["changes"], dtype=np.int64))


def format_schedule(config: Config, schedule: Schedule) -> str:
    """Serialize a schedule to the canonical JSON text accepted by parse_schedule."""
    _require_schedule_span(schedule, config)
    doc = {
        "n": config.n,
        "delta": config.delta,
        "changes": [int(v) for v in schedule.changes],
    }
    return json.dumps(doc, indent=2) + "\n"

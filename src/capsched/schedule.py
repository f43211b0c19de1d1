"""Schedules of capacity changes: cost accounting, admission simulation, feasibility.

A schedule assigns each slot j a signed capacity change s_j.  A nonzero
s_j is a scaling request; it takes effect delta slots later, so the
capacity available during slot t is the sum of all changes requested at
slots <= t - delta.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .workload import (Config, Workload, _as_int64, _floor, _read_json_object,
                       _require_matching, _write_json_object)


class ScheduleFormatError(ValueError):
    """Raised when schedule text fails to parse or validate."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """Signed capacity change per slot.

    The container accepts any int64 integers whose running sum stays in int64,
    since the capacity trajectory is built from it; feasibility of a schedule
    against a workload is established by check_feasibility, not here.
    """

    changes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.changes)
        if arr.ndim != 1 or arr.size == 0:
            raise ScheduleFormatError("changes must be a non-empty 1-d array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ScheduleFormatError("changes must contain integers")
        arr = _as_int64(arr, "changes", ScheduleFormatError)
        total = np.cumsum(arr)
        # a sum leaves int64 where its sign differs from those of both addends;
        # total - arr is the previous sum, exact up to the first such slot
        over = np.flatnonzero((total ^ arr) & (total ^ (total - arr)) < 0)
        if over.size:
            raise ScheduleFormatError(
                f"changes summed through slot {int(over[0]) + 1} exceed the int64 range")
        object.__setattr__(self, "changes", arr)

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
        return _line(self.kind, slot=self.slot, slot2=self.slot2, detail=self.detail)


def _line(kind: str, detail: str, **fields: Optional[int]) -> str:
    """A violation's report line: its kind, name=value for each field that
    is not None, then its detail."""
    shown = [f"{name}={value}" for name, value in fields.items() if value is not None]
    return " ".join([f"VIOLATION {kind}", *shown, f"detail={detail}"])


@dataclass(eq=False)
class SimulationReport:
    """Outcome of first-in-first-out admission under a capacity trajectory.

    theta_violations lists the arrival slots of cohorts with a participant
    who waited beyond theta or was never admitted; those still waiting when
    the horizon ends are counted per arrival slot in unadmitted.  overcommit
    lists (slot, admitted, capacity) for each slot where the participants
    already admitted exceeded capacity.

    arrived, departed and exited are cumulative counts indexed by slot, entry
    0 standing for before slot 1: participants who joined, who left, and who
    left the waiting queue, by admission or by departing while waiting.  So
    exited - departed participants are admitted after each slot and
    arrived - exited are waiting.  Within slot t departures leave the queue
    before admissions: max(exited[t-1], departed[t]) - exited[t-1] depart
    while waiting, and exited[t] - max(exited[t-1], departed[t]) are admitted.
    Those never admitted are the latest arrivals, so qos_cost, the waiting
    charged, is min(arrived, exited[n]) - exited summed over entries 0..n.
    """

    qos_cost: int
    theta_violations: List[int]
    capacity: np.ndarray
    unadmitted: Dict[int, int]
    overcommit: List[Tuple[int, int, int]]
    arrived: np.ndarray
    departed: np.ndarray
    exited: np.ndarray


@dataclass(frozen=True)
class CostReport:
    """Headline numbers for one (workload, schedule) pairing.

    violations is what check_feasibility returns for the pairing, in its
    order; the pairing is feasible when there are none.
    """

    resource_cost: int
    qos_cost: int
    max_capacity: int
    num_requests: int
    violations: Tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def _trajectories(changes: np.ndarray, delta: int) -> np.ndarray:
    # capacity during slot t is the net of changes requested at slots <= t - delta
    rows, n = changes.shape
    cap = np.zeros((rows, n), dtype=np.int64)
    np.add.accumulate(changes[:, :n - delta], axis=1, out=cap[:, delta:])
    return cap


def _exact_sums(matrix: np.ndarray, axis: int) -> List[int]:
    """Exact sums of an int64 matrix along axis, as Python integers: the low
    and high 32 bits of the entries are summed apart, which cannot wrap for
    fewer than 2^31 terms a sum."""
    low = (matrix & 0xFFFFFFFF).sum(axis=axis).tolist()
    high = (matrix >> 32).sum(axis=axis).tolist()
    return [h * 2 ** 32 + lo for h, lo in zip(high, low)]


def resource_cost(schedule: Schedule, config: Config) -> int:
    """Provisioning cost: each change is weighted by the slots it stays active.

    A change at slot j is charged s_j * (n - j - delta); changes after slot
    n - delta carry no charge (they are rejected by feasibility checking
    instead).  Summed over the changes that is the capacity summed over slots
    1..n-1, since slot t's capacity holds every change requested at slots
    <= t - delta; that sum is taken here.  The result may be any integer for
    intermediate schedules, exact even beyond int64.
    """
    _require_schedule_span(schedule, config)
    cap = _trajectories(schedule.changes[None], config.delta)
    return _exact_sums(cap[:, :config.n - 1], 1)[0]


def _require_schedule_span(schedule: Schedule, config: Config) -> None:
    if schedule.n != config.n:
        raise ScheduleFormatError(
            f"schedule has {schedule.n} slots but config.n is {config.n}")


def _one_row(workload: Workload, schedule: Schedule, config: Config):
    """The pairing as a block of one row: arrivals, departures, changes."""
    _require_matching(workload, config)
    _require_schedule_span(schedule, config)
    return workload.arrivals[None], workload.departures[None], schedule.changes[None]


@dataclass(eq=False)
class _Replay:
    """simulate's closed form over a block, one (workload, schedule) pairing a
    row: the capacity, the cumulative counts arrived, departed and exited
    (entry 0 before slot 1), kept, the participants already admitted that each
    slot's capacity must hold, the masks of late arrival slots and of
    overcommitted slots, and each row's qos_cost."""

    capacity: np.ndarray
    arrived: np.ndarray
    departed: np.ndarray
    exited: np.ndarray
    kept: np.ndarray
    late: np.ndarray
    over: np.ndarray
    qos: List[int]


def _replay(arrivals: np.ndarray, departures: np.ndarray, changes: np.ndarray,
            config: Config) -> _Replay:
    """Replay every row of (rows x n) int64 blocks in one pass; simulate's
    docstring gives the closed form."""
    rows, n = changes.shape
    cap = _trajectories(changes, config.delta)
    arrived, departed, exited = (np.zeros((rows, n + 1), dtype=np.int64) for _ in range(3))
    ca, cd, ex = arrived[:, 1:], departed[:, 1:], exited[:, 1:]
    np.add.accumulate(arrivals, axis=1, out=ca)
    np.add.accumulate(departures, axis=1, out=cd)
    np.maximum(np.minimum(cap, ca - cd), 0, out=ex)
    ex += cd
    np.maximum.accumulate(exited, axis=1, out=exited)

    kept = np.maximum(exited[:, :-1], cd) - cd
    # a cohort is late when its last participant has not left the queue
    # theta slots after arriving, or by the horizon end
    theta = config.theta
    due = np.empty((rows, n), dtype=np.int64)
    due[:, :n - theta] = exited[:, 1 + theta:]
    due[:, n - theta:] = exited[:, n:]
    qos = _exact_sums(np.minimum(arrived, exited[:, n:]) - exited, 1)
    return _Replay(cap, arrived, departed, exited, kept,
                   (due < ca) & (arrivals > 0), cap < kept, qos)


def _report(replay: _Replay, r: int, config: Config) -> SimulationReport:
    """Row r of a replay as simulate reports it."""
    n = config.n
    cap, arrived, exited, kept = (replay.capacity[r], replay.arrived[r], replay.exited[r],
                                  replay.kept[r])
    late = replay.late[r].nonzero()[0]
    over = replay.over[r].nonzero()[0]
    short = arrived[late + 1] - exited[n]
    stuck = short > 0
    counts = np.minimum(arrived[late + 1] - arrived[late], short)
    return SimulationReport(
        qos_cost=replay.qos[r],
        theta_violations=(late + 1).tolist(),
        capacity=cap,
        unadmitted=dict(zip((late[stuck] + 1).tolist(), counts[stuck].tolist())),
        overcommit=list(zip((over + 1).tolist(), kept[over].tolist(), cap[over].tolist())),
        arrived=arrived,
        departed=replay.departed[r],
        exited=exited,
    )


def simulate(workload: Workload, schedule: Schedule, config: Config) -> SimulationReport:
    """Replay admissions under the schedule's capacity, in closed form.

    Within a slot, joining participants enter the waiting queue first, then
    departures are processed, then waiting participants are admitted in
    arrival order up to free capacity.  Departures fall on admitted
    participants first; any excess falls on the earliest still-waiting
    participants, whose waiting time then ends at the departure slot.
    Waiting time above theta is flagged whether or not the participant was
    admitted later; participants still waiting when the horizon ends are
    flagged as unadmitted and add nothing to qos_cost.

    With occ_t present and cap_t available during slot t, d_t departing and
    M_t admitted after it, these rules read

        M_t = max(M_{t-1} - d_t, min(cap_t, occ_t), 0),

    and slot t overcommits when cap_t < max(M_{t-1} - d_t, 0).  Adding the
    departures D_t through slot t turns the recurrence into a running
    maximum, M_t + D_t = max over u <= t of max(min(cap_u, occ_u), 0) + D_u,
    which is the number of participants who have left the queue.  Every
    field follows from that curve and the cumulative arrivals, with no loop
    over slots; this is the one-row case of the block replay compare runs.
    """
    return _report(_replay(*_one_row(workload, schedule, config), config), 0, config)


def check_feasibility(workload: Workload, schedule: Schedule, config: Config) -> List[Violation]:
    """Collect every way the schedule fails the workload.  Empty means feasible.

    Checked, in order: minimum spacing between scaling requests, requests too
    close to the horizon end to take effect, negative capacity, capacity
    below the mandatory load floor, waiting times beyond theta or participants
    never admitted, and capacity dropping below the already admitted count.
    The last two come from simulate, whose closed form gives the overcommit
    condition cap_t < max(M_{t-1} - d_t, 0) directly.
    """
    return list(_evaluate_rows(*_one_row(workload, schedule, config), config)[0].violations)


def _violations(changes: np.ndarray, config: Config, sim: SimulationReport) -> List[Violation]:
    out = _screen(changes, config, sim)
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


def _screen(changes: np.ndarray, config: Config, sim: SimulationReport) -> List[Violation]:
    """The structural violations of a schedule's changes, the ones the integer
    program shares: request spacing, tail requests, negative capacity and the
    mandatory load floor."""
    n, delta = config.n, config.delta
    out: List[Violation] = []

    hot = changes.nonzero()[0] + 1
    close = (np.diff(hot) < delta).nonzero()[0]
    for j, j2 in zip(hot[close].tolist(), hot[close + 1].tolist()):
        out.append(Violation("separation", j, j2,
                             f"requests {j2 - j} slots apart, need {delta}"))
    for j in hot[hot > n - delta].tolist():
        out.append(Violation("tail_request", j,
                             detail=f"cannot take effect by slot {n}"))

    cap = sim.capacity
    for t in (cap < 0).nonzero()[0].tolist():
        out.append(Violation("negative_capacity", t + 1, detail=f"capacity {cap[t]}"))
    floor = _floor(sim.arrived, sim.departed, config.theta)
    for t in ((cap >= 0) & (cap < floor)).nonzero()[0].tolist():
        out.append(Violation("mandatory_load", t + 1,
                             detail=f"capacity {cap[t]} below floor {floor[t]}"))
    return out


def evaluate(workload: Workload, schedule: Schedule, config: Config) -> CostReport:
    """Summarize one schedule: costs, capacity peak, request count, and the
    violations check_feasibility would list, from one simulation."""
    return _evaluate_rows(*_one_row(workload, schedule, config), config)[0]


def _evaluate_rows(arrivals: np.ndarray, departures: np.ndarray, changes: np.ndarray,
                   config: Config) -> List[CostReport]:
    """evaluate for every row of (rows x n) int64 blocks, row k pairing the
    workload arrivals[k], departures[k] with the schedule changes[k].

    One replay gives every row's costs: resource_cost is the capacity summed
    over slots 1..n-1, and qos_cost the replay's.  The flags decide only
    which rows get a violation list: each flagged row alone is reported and
    listed by _violations.  Four masks flag every kind:
    late cohorts, overcommitted slots, and two requests in some delta
    consecutive slots or one past n - delta.  Negative capacity falls below
    kept, which is never negative; and a slot whose capacity c >= 0 is below
    the mandatory load leaves an earlier cohort late, or else more than c
    admitted after it, all held over from the slot before, so it overcommits.
    """
    n, delta = config.n, config.delta
    replay = _replay(arrivals, departures, changes, config)
    cap = replay.capacity
    # hot[:, k] counts the requests before slot k + 1
    hot = np.zeros((len(changes), n + 1), dtype=np.int64)
    np.add.accumulate(changes != 0, axis=1, dtype=np.int64, out=hot[:, 1:])
    flagged = ((replay.late | replay.over).any(axis=1)
               | (hot[:, delta:] - hot[:, :-delta] > 1).any(axis=1)
               | (hot[:, n] > hot[:, n - delta]))
    resource = _exact_sums(cap[:, :n - 1], 1)
    peaks = cap.max(axis=1).tolist()
    requests = hot[:, n].tolist()
    violations = [()] * len(changes)
    for r in flagged.nonzero()[0].tolist():
        violations[r] = tuple(_violations(changes[r], config, _report(replay, r, config)))
    return [CostReport(*row) for row in zip(resource, replay.qos, peaks, requests, violations)]


def parse_schedule(text: str) -> Tuple[int, int, Schedule]:
    """Parse schedule text: a JSON object with fields n, delta, changes, whose
    2 <= delta <= n - 1 is a pair some Config holds."""
    doc = _read_json_object(text, "schedule", ScheduleFormatError, ("n", "delta"), ("changes",))
    n, delta, changes = doc["n"], doc["delta"], doc["changes"]
    if len(changes) != n:
        raise ScheduleFormatError(f"changes has {len(changes)} entries but n is {n}")
    if not 2 <= delta <= n - 1:
        raise ScheduleFormatError(f"delta must lie in 2..n-1, got delta={delta} with n={n}")
    return n, delta, Schedule(changes)


def format_schedule(config: Config, schedule: Schedule) -> str:
    """Serialize a schedule to the canonical JSON text accepted by parse_schedule."""
    _require_schedule_span(schedule, config)
    return _write_json_object({"n": config.n, "delta": config.delta},
                              {"changes": schedule.changes})

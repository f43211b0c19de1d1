"""Workload synthesis and validation for elastic conference scaling.

A workload is a pair of per-slot counts over a discrete horizon: how many
participants join at each slot and how many leave.  Slots are numbered 1..n
in every user-facing message and file format; the arrays themselves are
0-indexed.
"""

import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid horizon or scenario parameters."""


class WorkloadFormatError(ValueError):
    """Raised when workload text fails to parse or validate."""


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _is_number(value, kinds=(int, np.integer)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)     # a bool is an int


@dataclass(frozen=True)
class Config:
    """Horizon parameters.

    n is the number of slots, delta the provisioning lag (a capacity change
    requested at slot j takes effect at slot j + delta), theta the largest
    acceptable join delay in slots.
    """

    n: int
    delta: int
    theta: int

    def __post_init__(self):
        for name in ("n", "delta", "theta"):
            v = getattr(self, name)
            if not _is_number(v):
                raise ConfigurationError(f"{name} must be an integer, got {v!r}")
            if not INT64_MIN <= v <= INT64_MAX:
                raise ConfigurationError(f"{name} is outside the int64 range, got {v}")
        if self.n < 1:
            raise ConfigurationError(f"n must be at least 1, got {self.n}")
        if self.delta <= 1:
            raise ConfigurationError(
                f"delta must exceed 1, got {self.delta}")
        if not self.delta < self.theta:
            raise ConfigurationError(
                f"theta must exceed delta, got delta={self.delta} theta={self.theta}")
        if self.theta > self.n:
            raise ConfigurationError(
                f"theta must not exceed n, got theta={self.theta} n={self.n}")


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs for the synthetic workload generator.

    amplitude is the largest per-slot join or leave count the generator may
    draw (0 is allowed and yields an empty workload).  plateau_fraction is
    the fraction of the horizon spent in the steady middle phase.
    """

    name: str
    amplitude: int
    plateau_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not _is_number(self.amplitude) or not 0 <= self.amplitude <= INT64_MAX:
            raise ConfigurationError(
                f"amplitude must be a non-negative int64 integer, got {self.amplitude!r}")
        if (not _is_number(self.plateau_fraction, (int, float, np.integer, np.floating))
                or not 0.0 <= self.plateau_fraction <= 1.0):
            raise ConfigurationError(
                f"plateau_fraction must lie in [0, 1], got {self.plateau_fraction!r}")
        if not _is_number(self.seed) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Workload:
    """Per-slot join and leave counts.

    Construction validates that both arrays are equal-length non-negative
    integers, that cumulative arrivals stay within int64, and that leaves
    never outrun joins: every prefix of cumulative departures stays at or
    below cumulative arrivals, which bounds the departure and net sums by
    the arrival sums.
    """

    arrivals: np.ndarray
    departures: np.ndarray

    def __post_init__(self):
        a = _as_count_array(self.arrivals, "arrivals")
        d = _as_count_array(self.departures, "departures")
        if len(a) != len(d):
            raise WorkloadFormatError(
                f"arrivals has {len(a)} slots but departures has {len(d)}")
        # entries are at most INT64_MAX, so the first prefix to pass it wraps negative
        over = np.flatnonzero(np.cumsum(a) < 0)
        if over.size:
            raise WorkloadFormatError(
                f"arrivals summed through slot {int(over[0]) + 1} exceed the int64 range")
        net = np.cumsum(a - d)
        bad = np.nonzero(net < 0)[0]
        if bad.size:
            slot = int(bad[0]) + 1
            raise WorkloadFormatError(
                f"departures exceed arrivals at slot {slot}: "
                f"occupancy would become {int(net[bad[0]])}")
        object.__setattr__(self, "arrivals", a)
        object.__setattr__(self, "departures", d)

    @property
    def n(self) -> int:
        return len(self.arrivals)


def _as_count_array(values, field: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise WorkloadFormatError(f"{field} must be a non-empty 1-d array")
    if not (np.issubdtype(arr.dtype, np.integer)
            or np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr))):
        raise WorkloadFormatError(f"{field} must contain integers")
    bad = np.nonzero(arr < 0)[0]
    if bad.size:
        raise WorkloadFormatError(
            f"{field} is negative at slot {int(bad[0]) + 1}")
    return _as_int64(arr, field, WorkloadFormatError)


def _as_int64(arr: np.ndarray, field: str, error: type) -> np.ndarray:
    """arr cast to int64, or error naming field and the first entry beyond int64.

    Only unsigned and float entries can lie beyond it; a 1-d entry is named
    by its slot, a matrix entry by its (row, column), both from 1.
    """
    if arr.dtype.kind == "u":
        outside = np.argwhere(arr > INT64_MAX)
    elif arr.dtype.kind == "f":
        wide = arr.astype(np.float64)
        outside = np.argwhere((wide < -2.0 ** 63) | (wide >= 2.0 ** 63))
    else:
        return arr.astype(np.int64)
    if outside.size:
        at = [k + 1 for k in outside[0].tolist()]
        raise error(f"{field} has an entry outside the int64 range at "
                    + (f"slot {at[0]}" if len(at) == 1 else str(tuple(at))))
    return arr.astype(np.int64)


def segment_lengths(n: int, plateau_fraction: float) -> Tuple[int, int, int]:
    """Split the horizon into growth, plateau, and decay phases.

    The plateau takes floor(plateau_fraction * n) contiguous slots in the
    middle; the growth phase gets the larger half of the remainder.
    """
    plateau = int(math.floor(float(plateau_fraction) * n))
    lead = n - plateau
    growth = (lead + 1) // 2
    decay = lead - growth
    return growth, plateau, decay


def generate_workload(params: ScenarioParams, config: Config) -> Workload:
    """Draw a seeded rise-hold-fall workload.

    The horizon is split by segment_lengths.  Growth slots draw an arrival
    count uniformly from [0, amplitude] with no departures.  Plateau slots
    alternate, starting with the first, between a slot whose arrival and
    departure counts are one shared uniform draw and a slot with neither.
    Decay slots draw a departure count uniformly from [0, min(amplitude,
    occupancy so far)] with no arrivals, so occupancy never goes negative.

    Randomness comes from a PCG64 generator (numpy.random.Generator) seeded
    directly with params.seed; one integer is drawn per growth slot, per
    drawing plateau slot, and per decay slot, in slot order.  Identical
    (params, config) pairs therefore reproduce bit-identical workloads on
    any platform.

    The draws are made in blocks of equal bound: one block for the growth
    and drawing plateau slots, whose bound is amplitude, and in the decay
    one block for every run of k slots that occupancy of at least k *
    amplitude keeps at bound amplitude; the rest of the decay is drawn one
    slot at a time.  Generator.integers maps each value of a block through
    the same bounded method, on the same PCG64 words, as a scalar call with
    that bound, so the blocks yield the stream the per-slot draws would.
    Once occupancy reaches zero every later draw is zero and none is made.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    n = config.n
    growth, plateau, _ = segment_lengths(n, params.plateau_fraction)
    amp = int(params.amplitude)

    arrivals = np.zeros(n, dtype=np.int64)
    departures = np.zeros(n, dtype=np.int64)
    rise = rng.integers(0, amp + 1, size=growth + (plateau + 1) // 2)
    arrivals[:growth] = rise[:growth]
    arrivals[growth:growth + plateau:2] = rise[growth:]
    departures[growth:growth + plateau:2] = rise[growth:]
    # an exact int: growth arrivals may sum past int64, which Workload reports
    occ = sum(rise[:growth].tolist())
    t = growth + plateau
    while t < n and occ:
        k = min(occ // amp, n - t)
        if k >= 2:
            fall = rng.integers(0, amp + 1, size=k)
            departures[t:t + k] = fall
            occ -= sum(fall.tolist())
            t += k
        else:
            departures[t] = d = int(rng.integers(0, min(amp, occ) + 1))
            occ -= d
            t += 1
    return Workload(arrivals, departures)


def occupancy(workload: Workload) -> np.ndarray:
    """Participants present at the end of each slot (cumulative joins minus leaves)."""
    return np.cumsum(workload.arrivals - workload.departures)


def mandatory_load(workload: Workload, config: Config) -> np.ndarray:
    """Capacity floor implied by the join-delay bound.

    At slot i every participant who arrived at or before slot i - theta has
    exhausted the acceptable waiting time, so capacity must cover them net
    of everyone who has departed by i, under first-in-first-out departure
    attribution:

        load_i = max(0, arrivals summed through i - theta
                        - departures summed through i)

    The first theta slots always get a floor of zero.
    """
    _require_matching(workload, config)
    n = config.n
    ca = np.concatenate([[0], np.cumsum(workload.arrivals)])
    cd = np.concatenate([[0], np.cumsum(workload.departures)])
    lead = np.maximum(np.arange(1, n + 1) - config.theta, 0)
    return np.maximum(ca[lead] - cd[1:], 0).astype(np.int64)


def _require_matching(workload: Workload, config: Config) -> None:
    if workload.n != config.n:
        raise ConfigurationError(
            f"workload has {workload.n} slots but config.n is {config.n}")


def _read_json_object(text: str, noun: str, error: type, scalars: Tuple[str, ...],
                      lists: Tuple[str, ...]) -> dict:
    """Decode a JSON object whose fields are exactly scalars + lists.

    Scalars must be integers and lists must hold int64 integers; each list
    comes back as an int64 array.  Every defect, text nested too deeply or
    integers too long to decode included, raises error with a one-line
    message naming the noun, the field and the 1-based slot.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{noun} text is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{noun} text must be a JSON object")
    fields = scalars + lists
    missing = [f for f in fields if f not in doc]
    if missing:
        raise error(f"missing {noun} field: {missing[0]}")
    unknown = [f for f in doc if f not in fields]
    if unknown:
        name = unknown[0]
        raise error(f"unknown {noun} field: {name if name.isprintable() else repr(name)}")
    for f in scalars:
        if type(doc[f]) is not int:
            raise error(f"field {f} must be an integer")
    for f in lists:
        if type(doc[f]) is not list:
            raise error(f"field {f} must be a list")
        doc[f] = _int64_array(doc[f], f, error)
    return doc


def _int64_array(values: list, field: str, error: type) -> np.ndarray:
    """values as an int64 array, converted in one pass when every entry is an
    int; otherwise error naming the first entry that is not an int64 integer."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    k, v = next((k, v) for k, v in enumerate(values)
                if type(v) is not int or not INT64_MIN <= v <= INT64_MAX)
    if type(v) is not int:
        raise error(f"{field} has a non-integer entry at slot {k + 1}")
    raise error(f"{field} has an entry outside the int64 range at slot {k + 1}")


def _write_json_object(scalars: dict, lists: dict) -> str:
    """The text json.dumps({**scalars, **lists}, indent=2) + "\n" gives for
    integer scalars and non-empty int64 arrays, with each array written by one
    str.join rather than json's pure-Python encoder."""
    fields = [f'  "{f}": {v}' for f, v in scalars.items()]
    fields += [f'  "{f}": [\n    ' + ",\n    ".join(map(str, v.tolist())) + "\n  ]"
               for f, v in lists.items()]
    return "{\n" + ",\n".join(fields) + "\n}\n"


def parse_workload(text: str) -> Tuple[Config, Workload]:
    """Parse workload text into a validated (Config, Workload) pair.

    The format is a JSON object with exactly the fields n, delta, theta,
    arrivals, and departures.  Every defect, dimensions that no Config holds
    included, raises WorkloadFormatError naming the offending field or
    1-based slot index.
    """
    doc = _read_json_object(text, "workload", WorkloadFormatError,
                            ("n", "delta", "theta"), ("arrivals", "departures"))
    try:
        config = Config(doc["n"], doc["delta"], doc["theta"])
    except ConfigurationError as exc:
        raise WorkloadFormatError(str(exc)) from exc
    for f in ("arrivals", "departures"):
        if len(doc[f]) != config.n:
            raise WorkloadFormatError(
                f"{f} has {len(doc[f])} entries but n is {config.n}")
    return config, Workload(doc["arrivals"], doc["departures"])


def format_workload(config: Config, workload: Workload) -> str:
    """Serialize a workload to the canonical JSON text accepted by parse_workload."""
    _require_matching(workload, config)
    return _write_json_object(
        {"n": config.n, "delta": config.delta, "theta": config.theta},
        {"arrivals": workload.arrivals, "departures": workload.departures})

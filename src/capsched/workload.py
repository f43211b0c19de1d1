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
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
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
        if (not isinstance(self.amplitude, (int, np.integer))
                or not 0 <= self.amplitude <= INT64_MAX):
            raise ConfigurationError(
                f"amplitude must be a non-negative int64 integer, got {self.amplitude!r}")
        if not 0.0 <= float(self.plateau_fraction) <= 1.0:
            raise ConfigurationError(
                f"plateau_fraction must lie in [0, 1], got {self.plateau_fraction!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Workload:
    """Per-slot join and leave counts.

    Construction validates that both arrays are equal-length non-negative
    integers and that leaves never outrun joins: every prefix of
    cumulative departures stays at or below cumulative arrivals.
    """

    arrivals: np.ndarray
    departures: np.ndarray

    def __post_init__(self):
        a = _as_count_array(self.arrivals, "arrivals")
        d = _as_count_array(self.departures, "departures")
        if len(a) != len(d):
            raise WorkloadFormatError(
                f"arrivals has {len(a)} slots but departures has {len(d)}")
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


@dataclass(frozen=True, eq=False)
class MandatoryLoad:
    """Per-slot lower bound on provisioned capacity."""

    values: np.ndarray


def _as_count_array(values, field: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise WorkloadFormatError(f"{field} must be a non-empty 1-d array")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise WorkloadFormatError(f"{field} must contain integers")
    bad = np.nonzero(arr < 0)[0]
    if bad.size:
        raise WorkloadFormatError(
            f"{field} is negative at slot {int(bad[0]) + 1}")
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
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    n = config.n
    growth, plateau, _ = segment_lengths(n, params.plateau_fraction)
    amp = int(params.amplitude)

    arrivals = np.zeros(n, dtype=np.int64)
    departures = np.zeros(n, dtype=np.int64)
    occ = 0
    for t in range(n):
        if t < growth:
            a = int(rng.integers(0, amp + 1))
            arrivals[t] = a
            occ += a
        elif t < growth + plateau:
            if (t - growth) % 2 == 0:
                k = int(rng.integers(0, amp + 1))
                arrivals[t] = k
                departures[t] = k
        else:
            d = int(rng.integers(0, min(amp, occ) + 1))
            departures[t] = d
            occ -= d
    return Workload(arrivals, departures)


def occupancy(workload: Workload) -> np.ndarray:
    """Participants present at the end of each slot (cumulative joins minus leaves)."""
    return np.cumsum(workload.arrivals - workload.departures)


def mandatory_load(workload: Workload, config: Config) -> MandatoryLoad:
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
    values = np.maximum(ca[lead] - cd[1:], 0)
    return MandatoryLoad(values.astype(np.int64))


def _require_matching(workload: Workload, config: Config) -> None:
    if workload.n != config.n:
        raise ConfigurationError(
            f"workload has {workload.n} slots but config.n is {config.n}")


_WORKLOAD_FIELDS = ("n", "delta", "theta", "arrivals", "departures")


def parse_workload(text: str) -> Tuple[Config, Workload]:
    """Parse workload text into a validated (Config, Workload) pair.

    The format is a JSON object with exactly the fields n, delta, theta,
    arrivals, and departures.  Violations are reported with the offending
    field or 1-based slot index.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadFormatError(f"workload text is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WorkloadFormatError("workload text must be a JSON object")
    missing = [f for f in _WORKLOAD_FIELDS if f not in doc]
    if missing:
        raise WorkloadFormatError(f"missing workload field: {missing[0]}")
    unknown = [f for f in doc if f not in _WORKLOAD_FIELDS]
    if unknown:
        raise WorkloadFormatError(f"unknown workload field: {unknown[0]}")
    for f in ("n", "delta", "theta"):
        if not isinstance(doc[f], int) or isinstance(doc[f], bool):
            raise WorkloadFormatError(f"field {f} must be an integer")
    for f in ("arrivals", "departures"):
        seq = doc[f]
        if not isinstance(seq, list):
            raise WorkloadFormatError(f"field {f} must be a list")
        for k, v in enumerate(seq):
            if not isinstance(v, int) or isinstance(v, bool):
                raise WorkloadFormatError(
                    f"{f} has a non-integer entry at slot {k + 1}")
            if not INT64_MIN <= v <= INT64_MAX:
                raise WorkloadFormatError(
                    f"{f} has an entry outside the int64 range at slot {k + 1}")
    config = Config(doc["n"], doc["delta"], doc["theta"])
    for f in ("arrivals", "departures"):
        if len(doc[f]) != config.n:
            raise WorkloadFormatError(
                f"{f} has {len(doc[f])} entries but n is {config.n}")
    workload = Workload(np.array(doc["arrivals"], dtype=np.int64),
                        np.array(doc["departures"], dtype=np.int64))
    return config, workload


def format_workload(config: Config, workload: Workload) -> str:
    """Serialize a workload to the canonical JSON text accepted by parse_workload."""
    _require_matching(workload, config)
    doc = {
        "n": config.n,
        "delta": config.delta,
        "theta": config.theta,
        "arrivals": [int(v) for v in workload.arrivals],
        "departures": [int(v) for v in workload.departures],
    }
    return json.dumps(doc, indent=2) + "\n"

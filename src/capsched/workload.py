"""Workload synthesis and validation for elastic conference scaling.

A workload is a pair of per-slot counts over a discrete horizon: how many
participants join at each slot and how many leave.  Slots are numbered 1..n
in every user-facing message and file format; the arrays themselves are
0-indexed.
"""

import functools
import json
import math
import re
from collections import Counter
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


def _ascii_number(text: str) -> str:
    """text, or ValueError if it holds an underscore or a non-ASCII character:
    int() and float() read digit-group underscores and any script's digits."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII number: {text!r}")
    return text


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
        _check_seed(self.seed)


def _check_seed(seed) -> None:     # shared with the block generator
    if not _is_number(seed) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")


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

    Each draw is the one numpy.random.Generator(numpy.random.PCG64(
    params.seed)) makes with its integers method over [0, bound], made one
    per growth slot, per drawing plateau slot and per decay slot, in slot
    order; a bound of 0 draws nothing.  Identical (params, config) pairs
    therefore reproduce bit-identical workloads on any platform.  This is
    the one-row case of _generate_rows, which makes the same draws in
    fewer calls.
    """
    arrivals, departures = _generate_rows(params, (params.seed,), config)
    return Workload(arrivals[0], departures[0])


_LOW, _HIGH = np.uint64(0xFFFFFFFF), np.uint64(32)
_SPARE_WORDS = 16       # words in a seed's first block beyond what its draws take unrejected


def _generate_rows(params: ScenarioParams, seeds, config: Config) -> Tuple[np.ndarray, np.ndarray]:
    """generate_workload's arrays for each of seeds in place of params.seed, as
    the rows of two (seeds x n) arrays, raising what it would at the first seed.

    At an amplitude of 2**32 or more, or one that lets a sum pass int64, each
    row is drawn by _draw_rest from Generator(PCG64(seed)).integers itself.
    Below it, every draw reads 32-bit halves of PCG64's raw words, low half
    first, and no Generator is built: each seed's PCG64 hands out one block
    of words, and each half u of the (seeds x halves) block is mapped for
    the bound amplitude in one array pass: its value is u * (amplitude + 1)
    >> 32, kept when u * (amplitude + 1) mod 2**32 is at least 2**32 mod
    (amplitude + 1), Lemire's threshold.  The kept values, in order, are the
    draws of the growth and drawing plateau slots and then of the decay
    slots for as long as the occupancy before each keeps its bound at
    amplitude.  The rest of the decay, and all of a row that runs out of
    kept halves, are drawn by _draw_rest from the halves after the last
    kept one, bounded the same way.  Once occupancy reaches zero every later
    draw is zero and none is made.

    The 32-bit path relies on two numpy behaviours, the same on every numpy
    the package allows (1.24 on): PCG64 hands out a word's low 32-bit half
    before its high half, and Generator.integers bounds a draw below 2**32
    by Lemire's method with the threshold above.  The wide path relies on
    one: a sized Generator.integers call makes the draws that as many
    scalar calls would.  tests/test_workload.py checks all three, matching
    these rows against the per-slot Generator loop of
    tests/workload_reference.py and each path's draws against
    Generator.integers.
    """
    n = config.n
    growth, plateau, _ = segment_lengths(n, params.plateau_fraction)
    amp = int(params.amplitude)
    try:
        arrivals, departures = np.zeros((2, len(seeds), n), dtype=np.int64)
    except ValueError as exc:   # past numpy's largest array: as unallocatable as any
        raise MemoryError(str(exc)) from None
    if amp >= 2 ** 32 or amp * n > INT64_MAX:      # 64-bit draws, or sums that may pass int64
        for a, d, seed in zip(arrivals, departures, seeds):
            _check_seed(seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            _draw_rest(a, d, lambda b, k: rng.integers(0, b, k, endpoint=True).tolist(),
                       0, 0, 0, amp, growth, plateau)
        return arrivals, departures
    for seed in seeds:      # no sum here can pass int64, so only a seed is refused
        _check_seed(seed)
    bitgens = [np.random.PCG64(seed) for seed in seeds]
    size = n // 2 + _SPARE_WORDS
    draws = n - plateau // 2        # one a slot, but none in every second plateau slot
    words = np.array([bitgen.random_raw(size) for bitgen in bitgens],
                     dtype=np.uint64).reshape(len(seeds), size)
    halves = np.empty((len(seeds), 2 * size), dtype=np.uint64)
    halves[:, 0::2] = words & _LOW
    halves[:, 1::2] = words >> _HIGH
    scaled = halves * np.uint64(amp + 1)
    kept = (scaled & _LOW) >= 2 ** 32 % (amp + 1)
    # each row's j-th kept value and where its half lies; past a row's last
    # kept half the values are 0, which move no occupancy and are drawn again
    at = np.argsort(~kept, axis=1, kind="stable")[:, :n]
    value = np.where(kept, scaled >> _HIGH, 0).astype(np.int64)
    value = value[np.arange(len(seeds))[:, None], at]
    rise, end = growth + (plateau + 1) // 2, growth + plateau
    arrivals[:, :growth] = value[:, :growth]
    arrivals[:, growth:end:2] = departures[:, growth:end:2] = value[:, growth:rise]
    # a decay draw is bounded by amplitude while the occupancy before it is
    fall = value[:, rise:draws]
    before = value[:, :growth].sum(axis=1)[:, None] - np.cumsum(fall, axis=1) + fall
    held = np.logical_and.accumulate(before >= amp, axis=1)
    departures[:, end:] = np.where(held, fall, 0)
    drawn = np.minimum(kept.sum(axis=1), rise + held.sum(axis=1))
    total = arrivals.sum(axis=1)
    left = total - departures.sum(axis=1)
    for i in np.flatnonzero((drawn < rise) | (drawn < draws) & (left > 0)):
        k = int(drawn[i])
        draw = _half_draws(halves[i, int(at[i, k - 1]) + 1 if k else 0:].tolist(), bitgens[i])
        _draw_rest(arrivals[i], departures[i], draw, k, int(left[i]), int(total[i]),
                   amp, growth, plateau)
    return arrivals, departures


def _draw_rest(a: np.ndarray, d: np.ndarray, draw, k: int, occ: int, total: int,
               amp: int, growth: int, plateau: int) -> None:
    """Make the draws of the row a, d from its k-th on, its first k draws
    being written and leaving occ present and total arrived; raise
    Workload's error if all its arrivals sum past int64.

    draw(bound, count) returns the next count draws over [0, bound].  The
    growth and drawing plateau draws left are one call.  The decay is made
    in calls of occ // amp draws, which keep every bound at amp, and below
    amp in calls of one draw."""
    rise, end = growth + (plateau + 1) // 2, growth + plateau
    if k < rise:
        values = draw(amp, rise - k)
        split = max(growth - k, 0)      # of values, the growth draws
        start = 2 * (k + split) - growth
        a[k:growth] = values[:split]
        a[start:end:2] = d[start:end:2] = values[split:]
        occ += sum(values[:split])
        total += sum(values)
        k = rise
    if total > INT64_MAX:
        Workload(a, d)      # raises, naming the slot the sum passes int64 at
    t, fall = k - rise + end, []
    while t + len(fall) < len(d) and occ:
        values = draw(min(amp, occ), min(occ // amp or 1, len(d) - t - len(fall)))
        fall += values
        occ -= sum(values)
    d[t:t + len(fall)] = fall


def _half_draws(halves: list, bitgen: "np.random.PCG64"):
    """draw(bound, count) for bound < 2**32: the next count draws that
    Generator.integers makes over [0, bound] from halves, the 32-bit halves
    bitgen has handed out but not yet read, and then from its further
    words, low half first.  Each half u gives u * (bound + 1) >> 32, kept
    when u * (bound + 1) mod 2**32 is at least 2**32 mod (bound + 1)."""
    at = 0

    def draw(bound: int, count: int) -> list:
        nonlocal at
        if not bound:       # Generator.integers reads nothing
            return [0] * count
        span, values = bound + 1, []
        threshold = 2 ** 32 % span
        while len(values) < count:
            if at == len(halves):
                for word in bitgen.random_raw(len(halves) // 2 + _SPARE_WORDS).tolist():
                    halves.extend((word & 0xFFFFFFFF, word >> 32))
            scaled = halves[at] * span
            at += 1
            if scaled & 0xFFFFFFFF >= threshold:
                values.append(scaled >> 32)
        return values
    return draw


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
    return _floor(np.concatenate([[0], np.cumsum(workload.arrivals)]),
                  np.concatenate([[0], np.cumsum(workload.departures)]), config.theta)


def _floor(arrived: np.ndarray, departed: np.ndarray, theta: int) -> np.ndarray:
    """mandatory_load from cumulative arrivals and departures whose entry 0
    stands for before slot 1; it is 0 through slot theta."""
    lead = np.maximum(np.arange(1, len(arrived)) - theta, 0)
    return np.maximum(arrived[lead] - departed[1:], 0)


def _require_matching(workload: Workload, config: Config) -> None:
    if workload.n != config.n:
        raise ConfigurationError(
            f"workload has {workload.n} slots but config.n is {config.n}")


# _write_json_object's layout: "{\n", the fields joined by ",\n", then "\n}\n"; a field
# is _NAME and an integer, or _NAME, _OPEN, the entries joined by _SEP, and _CLOSE
_NAME, _OPEN, _SEP, _CLOSE = '  "{}": ', "[\n    ", ",\n    ", "\n  ]"
# json.loads reads shorter text faster: they cross at a workload of n = 160, a schedule of 300
_ARRAY_PASS_MIN_CHARS = 2500


def _read_json_object(text: str, noun: str, error: type, scalars: Tuple[str, ...],
                      lists: Tuple[str, ...]) -> dict:
    """Read a JSON object whose fields are exactly scalars + lists, each
    given once.

    Scalars must be integers and lists must hold int64 integers; each list
    comes back as an int64 array.  _read_layout reads _write_json_object's
    text of _ARRAY_PASS_MIN_CHARS or more, any other text goes to json.loads:
    every defect, text nested too deeply or integers too long to decode
    included, raises error with a one-line message naming the noun, the
    field and the 1-based slot.
    """
    if (doc := _read_layout(text, scalars, lists)) is not None:
        return doc
    try:
        # every object decodes as a tuple of its (name, value) pairs, which
        # keeps a repeated name that a dict would drop
        pairs = json.loads(text, object_pairs_hook=tuple)
    except (ValueError, RecursionError) as exc:
        raise error(f"{noun} text is not valid JSON: {exc}") from exc
    if type(pairs) is not tuple:
        raise error(f"{noun} text must be a JSON object")
    doc = dict(pairs)
    fields = scalars + lists
    missing = [f for f in fields if f not in doc]
    if missing:
        raise error(f"missing {noun} field: {missing[0]}")
    repeated = [f for f, count in Counter(f for f, _ in pairs).items() if count > 1]
    for kind, names in (("duplicate", repeated), ("unknown", [f for f in doc if f not in fields])):
        if names:
            name = names[0]
            raise error(f"{kind} {noun} field: {name if name.isprintable() else repr(name)}")
    for f in scalars:
        if type(doc[f]) is not int:
            raise error(f"field {f} must be an integer")
    for f in lists:
        if type(doc[f]) is not list:
            raise error(f"field {f} must be a list")
        doc[f] = _int64_array(doc[f], f, error)
    return doc


def _read_layout(text: str, scalars: Tuple[str, ...], lists: Tuple[str, ...]):
    """text's fields, the decoder's, if it is _write_json_object's text for
    scalars and lists, _ARRAY_PASS_MIN_CHARS long or more, with each entry a
    canonical JSON integer of at most 18 digits; else None.  One array pass
    checks the lists, joined by _SEP with _SEP before and after: every comma
    starts a _SEP, and each entry is 1 to 18 digits, no leading zero, after a
    "-" or none, and these digits are all the lists hold besides."""
    if not isinstance(text, str) or len(text) < _ARRAY_PASS_MIN_CHARS or not text.isascii():
        return None
    # cut at each "]", a byte memchr finds, then check the rest of each _CLOSE
    *parts, tail = text.encode("ascii").split(b"]")
    heads, close = _layout_heads(scalars, lists), _CLOSE[:-1].encode()
    found = [head.match(part) for head, part in zip(heads, parts)]
    if (len(parts) != len(heads) or tail != b"\n}\n" or None in found
            or not all(part.endswith(close) for part in parts)):
        return None
    bodies = [part[m.end():-len(close)] for m, part in zip(found, parts)]
    sep = _SEP.encode()
    joined = sep + sep.join(bodies) + sep + bytes(8 - len(sep))
    raw = np.frombuffer(joined, np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    # each offset's eight bytes as one little-endian integer: a _SEP is the low six
    words = np.ndarray(len(joined) - 7, "<u8", joined, strides=(1,))
    start = commas[:-1] + len(sep)
    minus = raw[start] == ord("-")
    digits = commas[1:] - start - minus
    if (digits.min() < 1 or digits.max() > 18
            or np.any((words[commas] & 256 ** len(sep) - 1) != int.from_bytes(sep, "little"))
            or np.count_nonzero((raw >= ord("0")) & (raw <= ord("9"))) != digits.sum()
            or np.any((raw[start + minus] == ord("0")) & (digits > 1))):
        return None
    return {**{f: int(v) for f, v in zip(scalars, found[0].groups())},
            **{f: np.fromstring(body, dtype=np.int64, sep=",") for f, body in zip(lists, bodies)}}


@functools.lru_cache(maxsize=8)
def _layout_heads(scalars: Tuple[str, ...], lists: Tuple[str, ...]) -> list:
    """Bytes patterns for _write_json_object's text cut at each "]", each up to
    its list's first entry; the first takes the scalars as groups."""
    number = "(-?(?:0|[1-9][0-9]{0,17}))"     # canonical, and exact in int64
    lead = re.escape("{\n") + "".join(re.escape(_NAME.format(f)) + number + ",\n" for f in scalars)
    return [re.compile(((lead if k == 0 else ",\n") + re.escape(_NAME.format(f) + _OPEN)).encode())
            for k, f in enumerate(lists)]


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
    fields = [_NAME.format(f) + str(v) for f, v in scalars.items()]
    fields += [_NAME.format(f) + _OPEN + _SEP.join(map(str, v.tolist())) + _CLOSE
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

"""Integer-program form of the scaling problem, with LP-file interchange.

The model has one integer allocation variable x_i_j and one integer
de-allocation variable y_i_j per (arrival slot i, request slot j) pair,
plus a binary request flag r_j per slot.  Constraint families carry stable
tags EQ2 through EQ12; the same tags name the rows of the exported LP file
and the violations reported by validate_solution.

What each family enforces:
  EQ2/EQ3  every arrival is covered by allocations requested early enough
           to become active within the acceptable join delay
  EQ4/EQ5  de-allocations per departure slot never exceed the departures,
           and cannot be requested so early that capacity would shrink
           before the participants have left
  EQ6      (hard zero on de-allocation requests before that point)
  EQ7      cumulative allocations never trail cumulative de-allocations
  EQ8      net active capacity covers the mandatory load floor
  EQ9      scaling requests keep a minimum spacing of delta slots
  EQ10/11  allocation mass only at flagged request slots
  EQ12     no requests too late to take effect within the horizon

The families are written out once, in _row_table, as a table of rows whose
left-hand sides are runs of consecutive variables with one coefficient
each.  build_model stores that table, export_lp renders its runs, and
validate_solution evaluates them over prefix sums of an assignment.
"""

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .schedule import Schedule, ScheduleFormatError, _exact_sums, _line, resource_cost
from .workload import (INT64_MAX, INT64_MIN, Config, ConfigurationError, Workload, mandatory_load,
                       _as_int64, _ascii_number, _require_matching)

Term = Tuple[int, str]

# stands for the space between two pieces of an LP row until the row is
# wrapped, so that piece boundaries can be found with str.rfind
_SEP = "\x00"
_LP_WIDTH = 72
_INDENT = "   "
_BREAK = "\n" + _INDENT
# a continuation line of a wrapped body: the most pieces that fit beside the
# indent, up to the separator it breaks at.  The body to wrap ends with a
# separator, so every line ends at one, and a match that runs to a literal
# backs up by scanning for that character instead of trying an alternation
_LINE = re.compile(f"(.{{1,{_LP_WIDTH - len(_INDENT)}}}){_SEP}", re.S)


class SolutionFormatError(ValueError):
    """Raised when solver output text fails to parse."""


@dataclass(frozen=True)
class LinearConstraint:
    """One model row: terms (coefficient, variable) sense rhs."""

    name: str
    tag: str
    terms: Tuple[Term, ...]
    sense: str
    rhs: int


def variable_names(n: int) -> Tuple[str, ...]:
    """Names of the model variables in index order: x_i_j at (i-1)*n + j-1,
    y_i_j at n*n + (i-1)*n + j-1, r_j at 2*n*n + j-1."""
    slots = [str(slot) for slot in range(1, n + 1)]
    return tuple([f"{v}_{i}_{j}" for v in "xy" for i in slots for j in slots]
                 + ["r_" + j for j in slots])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + lengths[k] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


@dataclass(frozen=True, eq=False)
class IlpModel:
    """A fully instantiated model for one workload, as a table of rows.

    Row k is the family row_tags[k] at the 1-based indices row_i[k] and
    row_j[k] (0 where the family has no such index), and reads
    lhs senses[k] rhs[k].  Its left-hand side is the runs run_ptr[k] to
    run_ptr[k+1] - 1: run p adds run_coefs[p] times each of the
    run_lengths[p] consecutive variables from index run_starts[p], in the
    variable order of variable_names.  The objective is a list of runs held
    the same way.  The arrays are read-only.  Two views are derived from
    them on access: row_names from row_tags, row_i and row_j, by the same
    formatter that gives export_lp its row heads, and constraints from every
    row array and variable_names; constraints stays for the traced
    benchmark's row and term counts.
    """

    config: Config
    row_tags: np.ndarray
    row_i: np.ndarray
    row_j: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    run_ptr: np.ndarray
    run_starts: np.ndarray
    run_lengths: np.ndarray
    run_coefs: np.ndarray
    objective_starts: np.ndarray
    objective_lengths: np.ndarray
    objective_coefs: np.ndarray

    def _row_labels(self, before: str, after: str) -> List[str]:
        """Each row's name, the family tag and its indices, between before
        and after.  Every family has an i index, a j index or both."""
        return [f"{before}{tag}_i{i}_j{j}{after}" if i and j else
                f"{before}{tag}_i{i}{after}" if i else f"{before}{tag}_j{j}{after}"
                for tag, i, j in zip(self.row_tags.tolist(), self.row_i.tolist(),
                                     self.row_j.tolist())]

    @property
    def row_names(self) -> Tuple[str, ...]:
        return tuple(self._row_labels("", ""))

    # bench/spans.py counts each built model's rows and terms through this view, so a
    # traced run fails without it until the benchmark reads rhs and run_lengths instead
    @property
    def constraints(self) -> Tuple[LinearConstraint, ...]:
        names = variable_names(self.config.n)
        terms = list(zip(np.repeat(self.run_coefs, self.run_lengths).tolist(),
                         [names[v] for v in _ranges(self.run_starts, self.run_lengths).tolist()]))
        bounds = np.concatenate([[0], np.cumsum(self.run_lengths)])[self.run_ptr].tolist()
        return tuple(
            LinearConstraint(name, tag, tuple(terms[lo:hi]), sense, rhs)
            for name, tag, sense, rhs, lo, hi in zip(
                self.row_names, self.row_tags.tolist(), self.senses.tolist(),
                self.rhs.tolist(), bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class SolutionMatrices:
    """Assignment of all model variables.

    allocations and deallocations are n x n integer matrices indexed
    [arrival slot - 1, request slot - 1]; requests is the 0/1 flag vector.
    The container checks shape, int64 integrality and 0/1 flags only;
    whether the values satisfy the model is the job of validate_solution.
    """

    allocations: np.ndarray
    deallocations: np.ndarray
    requests: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.allocations)
        y = np.asarray(self.deallocations)
        r = np.asarray(self.requests)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("allocations must be a square matrix")
        if y.shape != x.shape:
            raise ValueError("deallocations must match allocations in shape")
        if r.shape != (x.shape[0],):
            raise ValueError("requests must be a vector of length n")
        for name, arr in (("allocations", x), ("deallocations", y), ("requests", r)):
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must contain integers")
            object.__setattr__(self, name, _as_int64(arr, name, ValueError))
        if np.any((r != 0) & (r != 1)):
            raise ValueError("requests entries must be 0 or 1")

    @property
    def n(self) -> int:
        return self.allocations.shape[0]


@dataclass(frozen=True)
class ConstraintViolation:
    """One failed model row, identified by family tag and indices."""

    tag: str
    i: Optional[int] = None
    j: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        return _line(self.tag, i=self.i, j=self.j, detail=self.detail)


def _row_table(workload: Workload, config: Config) -> Dict[str, np.ndarray]:
    """Every constraint row in tag order, as the IlpModel fields that hold them.

    A family is a set of rows at indices (i, j), 0 standing for no index.
    The run starts, lengths and coefficients of its rows broadcast to one
    (rows, runs per row) shape; a part that is not 2-D holds one run per row.
    The EQ10/EQ11 link coefficient M is the arrival total, at least 1: no
    request slot can carry more than every arrival.
    """
    n, delta, theta = config.n, config.delta, config.theta
    a = workload.arrivals
    d = workload.departures
    load = mandatory_load(workload, config)
    nn = n * n
    x_rows = np.arange(0, nn, n)        # index of x_i_1 for each i
    y_rows = x_rows + nn
    r_first = 2 * nn
    families = []

    def family(tag, sense, i, j, row_rhs, starts, lengths, coefs):
        i, j, row_rhs = np.broadcast_arrays(i, j, row_rhs)
        runs = (part if np.ndim(part) == 2 else np.reshape(part, (-1, 1))
                for part in (starts, lengths, coefs))
        families.append((tag, sense, i, j, row_rhs, *np.broadcast_arrays(i[:, None], *runs)[1:]))

    i = np.arange(1, n - theta + 1)
    family("EQ2", ">=", i, 0, a[i - 1], x_rows[i - 1], i + theta - delta, 1)
    i = np.arange(n - theta + 1, n + 1)
    family("EQ3", ">=", i, 0, a[i - 1], x_rows[i - 1], n - delta, 1)
    i = np.arange(1, delta + 1)
    family("EQ4", "<=", i, 0, d[i - 1], y_rows[i - 1], n - delta, 1)
    i = np.arange(delta + 1, n + 1)
    family("EQ5", "<=", i, 0, d[i - 1], y_rows[i - 1] + i - delta - 1, n - i + 1, 1)
    i = np.arange(delta + 2, n + 1)
    family("EQ6", "=", i, 0, 0, y_rows[i - 1], i - delta - 1, 1)
    # EQ7/EQ8 row j sums x_i_t and y_i_t over every i and t <= j (t <= j - delta):
    # n runs of x with coefficient 1, then n runs of y with coefficient -1
    net_starts = np.concatenate([x_rows, y_rows])[None, :]
    net_coefs = np.repeat([1, -1], n)[None, :]
    j = np.arange(1, n + 1)
    family("EQ7", ">=", 0, j, 0, net_starts, j[:, None], net_coefs)
    j = np.arange(delta + 1, n + 1)
    family("EQ8", ">=", 0, j, load[j - 1], net_starts, (j - delta)[:, None], net_coefs)
    i = np.arange(1, n - delta + 1)
    family("EQ9", "<=", i, 0, 1, r_first + i - 1, delta, 1)
    # EQ10/EQ11 row (i, j): M r_j - x_i_j >= 0, then the same for y_i_j
    i, j = np.repeat(np.arange(1, n + 1), n), np.tile(np.arange(1, n + 1), n)
    cell = (i - 1) * n + j - 1
    link_coefs = np.array([[max(int(a.sum()), 1), -1]])
    family("EQ10", ">=", i, j, 0, np.column_stack([r_first + j - 1, cell]), 1, link_coefs)
    family("EQ11", ">=", i, j, 0, np.column_stack([r_first + j - 1, nn + cell]), 1, link_coefs)
    j = np.arange(n - delta + 1, n + 1)
    family("EQ12", "=", 0, j, 0, r_first + j - 1, 1, 1)

    tags, senses, i, j, rhs, starts, lengths, coefs = zip(*families)
    counts = [len(rows) for rows in i]
    runs_per_row = np.repeat([run.shape[1] for run in starts], counts)

    def joined(blocks):
        return np.concatenate([block.ravel() for block in blocks], dtype=np.int64)

    return dict(row_tags=np.repeat(tags, counts), row_i=joined(i), row_j=joined(j),
                senses=np.repeat(senses, counts), rhs=joined(rhs),
                run_ptr=np.concatenate([[0], np.cumsum(runs_per_row)]),
                run_starts=joined(starts), run_lengths=joined(lengths), run_coefs=joined(coefs))


def build_model(workload: Workload, config: Config) -> IlpModel:
    """Instantiate every variable and constraint row for this workload."""
    _require_matching(workload, config)
    n, delta = config.n, config.delta
    fields = _row_table(workload, config)
    # objective: weight n - j - delta on x_i_j and its negative on y_i_j, one
    # run per term, leaving out the zero weights from j = n - delta on
    cols = np.arange(n - delta - 1)
    weights = np.tile(n - delta - 1 - cols, n)
    x_terms = (np.arange(0, n * n, n)[:, None] + cols).ravel()
    fields["objective_starts"] = np.concatenate([x_terms, n * n + x_terms])
    fields["objective_lengths"] = np.ones_like(fields["objective_starts"])
    fields["objective_coefs"] = np.concatenate([weights, -weights])
    for array in fields.values():
        array.setflags(write=False)
    return IlpModel(config=config, **fields)


def _wrap(body: str, head_width: int) -> Tuple[str, int]:
    """Break a row body that follows a head head_width columns wide before
    the pieces that would pass the line width; return the body's text and
    the width of its last line.  The body is its pieces, each after a
    separator, and one more separator that ends the last; it must be too
    wide to sit beside the head, as the first break is not tested for.

    Continuation lines are indented.  Every piece fits on a line: an int64
    coefficient and a variable name take well under the 69 columns left.
    """
    cut = body.rfind(_SEP, 0, _LP_WIDTH - head_width + 1)
    lines = [body[:cut], *_LINE.findall(body, cut + 1)]
    return _BREAK.join(lines).replace(_SEP, " "), len(_INDENT) + len(lines[-1])


def _render_rows(names: Sequence[str], name_chars: np.ndarray, run_ptr: np.ndarray,
                 starts: np.ndarray, lengths: np.ndarray, coefs: np.ndarray,
                 heads: Sequence[str], tails: Sequence[str]) -> List[str]:
    """The LP text of the rows as fragments to join: each row's head, body
    and tail, where a tail (" sense rhs", or nothing) ends its row's line.
    name_chars[v] is the number of characters in the names before names[v],
    and its last entry that of all names.

    The body is the terms of the row's runs.  A body that fits beside its
    head is a lead (" + 3 ", or " 3 " for a leading positive term) and a
    name per term, fragments every row shares, so the short rows are
    written at once into one array of fragments.

    A longer body is wrapped.  Every coefficient that has a run longer than
    one term is rendered once as a piece table over all variable names, and
    its runs are cut out of that table as single slices; one separator
    after the last piece joins with them, so the body ends at one.  The wrap
    breaks before the last piece that fits, so its breaks before the tail
    depend only on the head and body; the tail, one piece, then goes on the
    last line if it fits there and on a line of its own otherwise.  So a long
    body is wrapped once per head width and sequence of runs, and every row
    with both shares that text: EQ8 row j has the runs of EQ7 row j - delta,
    and their heads differ in width only where the two indices have a
    different number of digits.
    """
    # sorted and searched, not np.unique: on numpy 2.4 its first call imports
    # numpy.ma, about 10 ms and 1.3 MB in a fresh process that no other command pays
    ordered = np.sort(coefs)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[keep]
    which = np.searchsorted(distinct, coefs)
    spaced = [f" + {c} " if c >= 0 else f" - {-c} " for c in distinct.tolist()]
    firsts = [" " + lead[3:] if lead[1] == "+" else lead for lead in spaced]
    leads = [_SEP + lead[1:] for lead in spaced]
    # offset of variable v's piece in a table whose lead has width w: v * w + name chars before v
    lead_width = np.array([len(lead) for lead in leads])[which]
    ends = starts + lengths
    slice_lo = starts * lead_width + name_chars[starts]
    slice_hi = ends * lead_width + name_chars[ends]
    # each row's width up to its tail: head and pieces, less the "+ " a leading
    # positive term drops (no row is without runs)
    piece_ends = np.concatenate([[0], np.cumsum(slice_hi - slice_lo)])
    body_width = np.diff(piece_ends[run_ptr])
    positive = coefs >= 0
    head_width = np.array(list(map(len, heads)))
    row_width = head_width + body_width - 2 * positive[run_ptr[:-1]]
    short = row_width <= _LP_WIDTH

    tables = {k: leads[k] + leads[k].join(names) for k in set(which[lengths > 1].tolist())}
    runs = np.stack([starts, lengths, coefs], 1).astype(np.int64)
    bounds = run_ptr.tolist()
    wrapped = np.flatnonzero(~short)
    # each wrapped row's number among the distinct bodies, and the first row of each
    number, body_of, body_rows = {}, [], []
    for row, head_size in zip(wrapped.tolist(), head_width[wrapped].tolist()):
        key = (head_size, runs[bounds[row]:bounds[row + 1]].tobytes())
        if key not in number:
            number[key] = len(body_rows)
            body_rows.append(row)
        body_of.append(number[key])
    # widest first, so that each body's temporaries fit in heap blocks a wider
    # body freed; in row order, each would need blocks larger than any freed yet
    wraps = [None] * len(body_rows)
    widths = body_width[body_rows].tolist()
    for k in sorted(range(len(body_rows)), key=widths.__getitem__, reverse=True):
        row = body_rows[k]
        begin, end = bounds[row], bounds[row + 1]
        parts = [tables[c][lo:hi] if c in tables else leads[c] + names[v]
                 for c, v, lo, hi in zip(which[begin:end].tolist(), starts[begin:end].tolist(),
                                         slice_lo[begin:end].tolist(), slice_hi[begin:end].tolist())]
        if positive[begin]:
            parts[0] = _SEP + parts[0][3:]      # the first term has no "+ "
        parts.append(_SEP)
        wraps[k] = _wrap("".join(parts), int(head_width[row]))
    bodies = [wraps[k] for k in body_of]
    row_width[wrapped] = [width for _, width in bodies]
    broken = np.flatnonzero(row_width + list(map(len, tails)) > _LP_WIDTH + 1)

    # fragments per row: head, then a lead and a name per term or one wrapped text, then tail
    terms = np.diff(np.concatenate([[0], np.cumsum(lengths)])[run_ptr])
    count = np.where(short, 2 * terms, 1) + 2
    row_at = np.cumsum(count) - count
    out = np.empty(int(count.sum()), dtype=object)
    out[row_at] = np.array(heads, dtype=object)
    tail = np.array(tails, dtype=object)
    tail[broken] = np.array([_BREAK + tails[row][1:] for row in broken.tolist()], dtype=object)
    out[row_at + count - 1] = tail
    out[row_at[wrapped] + 1] = np.array([text for text, _ in bodies], dtype=object)
    in_short = np.repeat(short, np.diff(run_ptr))
    short_lengths = lengths[in_short]
    short_terms = terms[short]
    rank = _ranges(np.zeros_like(short_terms), short_terms)
    at = np.repeat(row_at[short], short_terms) + 1 + 2 * rank
    out[at] = np.array([firsts, spaced], dtype=object)[np.minimum(rank, 1),
                                                        np.repeat(which[in_short], short_lengths)]
    out[at + 1] = np.array(names, dtype=object)[_ranges(starts[in_short], short_lengths)]
    return out.tolist()


def export_lp(model: IlpModel) -> str:
    """Render the model as LP-format text.

    Output is a pure function of the model: same model, same bytes.
    Variables with a zero objective weight are declared but left out of the
    objective expression; an objective without terms is written as 0 x_1_1.
    The text is joined once from one list of fragments.
    """
    names = variable_names(model.config.n)
    name_chars = np.cumsum([0, *map(len, names)])
    objective = (model.objective_starts, model.objective_lengths, model.objective_coefs)
    if not len(objective[0]):
        objective = (np.array([0]), np.array([1]), np.array([0]))
    integers = names[: 2 * model.config.n ** 2]
    binaries = names[2 * model.config.n ** 2:]
    return "".join([
        "Minimize\n",
        *_render_rows(names, name_chars, np.array([0, len(objective[0])]), *objective,
                      [" obj:"], ["\n"]),
        "Subject To\n",
        *_render_rows(
            names, name_chars, model.run_ptr, model.run_starts, model.run_lengths,
            model.run_coefs, model._row_labels(" ", ":"),
            [f" {sense} {rhs}\n" for sense, rhs in zip(model.senses.tolist(), model.rhs.tolist())]),
        "Bounds\n 0 <= ", "\n 0 <= ".join(integers),
        "\nGeneral\n ", "\n ".join(integers),
        "\nBinary\n ", "\n ".join(binaries),
        "\nEnd\n",
    ])


INTEGRALITY_TOLERANCE = 1e-6

_VARIABLE_NAME = re.compile(r"([xy])_([1-9][0-9]*)_([1-9][0-9]*)|r_([1-9][0-9]*)")


def parse_solution(text: str, config: Config) -> SolutionMatrices:
    """Read solver output: one `<variable> <value>` pair per line.

    `#` starts a comment; blank lines are skipped; variables not listed
    default to 0.  Names are those of the model for config.n slots.  Values
    must be finite, fit in int64 and sit within 1e-6 of an integer, request
    flags must round to 0 or 1, and allocation values must not be negative.
    """
    n = config.n
    x = np.zeros((n, n), dtype=np.int64)
    y = np.zeros((n, n), dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionFormatError(
                f"line {lineno}: expected '<variable> <value>', got {raw!r}")
        name, val_text = parts
        match = _VARIABLE_NAME.fullmatch(name)
        slots = [g for g in match.groups()[1:] if g] if match else []
        if not slots or any(len(s) > len(str(n)) or int(s) > n for s in slots):
            raise SolutionFormatError(f"line {lineno}: unknown variable name {name!r}")
        if name in seen:
            raise SolutionFormatError(f"line {lineno}: duplicate assignment for {name}")
        # an integer token is read exactly; float would round it beyond 2^53
        try:
            value = int(_ascii_number(val_text))
        except ValueError:
            try:
                val = float(_ascii_number(val_text))
            except ValueError as exc:
                raise SolutionFormatError(
                    f"line {lineno}: value {val_text!r} is not a number") from exc
            if not math.isfinite(val):
                raise SolutionFormatError(
                    f"line {lineno}: value {val_text} of {name} is not finite")
            # a float beyond int64 is integral, so it reaches the range check
            value = round(val)
            if abs(val - value) > INTEGRALITY_TOLERANCE:
                raise SolutionFormatError(
                    f"line {lineno}: value {val_text} of {name} is not integral")
        if not INT64_MIN <= value <= INT64_MAX:
            raise SolutionFormatError(
                f"line {lineno}: value {val_text} of {name} is outside the int64 range")
        if name.startswith("r_") and value not in (0, 1):
            raise SolutionFormatError(
                f"line {lineno}: request flag {name} must be 0 or 1, got {value}")
        if not name.startswith("r_") and value < 0:
            raise SolutionFormatError(
                f"line {lineno}: {name} must be non-negative, got {value}")
        seen.add(name)
        if match.group(1) is None:
            r[int(slots[0]) - 1] = value
        else:
            (x if match.group(1) == "x" else y)[int(slots[0]) - 1, int(slots[1]) - 1] = value
    return SolutionMatrices(x, y, r)


def _require_size(matrices: SolutionMatrices, config: Config) -> None:
    if matrices.n != config.n:
        raise ConfigurationError(
            f"matrices are {matrices.n}x{matrices.n} but config.n is {config.n}")


def objective_value(matrices: SolutionMatrices, config: Config) -> int:
    """Provisioning cost of an assignment: the cost of its collapsed schedule."""
    return resource_cost(matrices_to_schedule(matrices, config), config)


def matrices_to_schedule(matrices: SolutionMatrices, config: Config) -> Schedule:
    """Collapse an assignment to per-slot net capacity changes.

    The column sums are exact; a net change beyond int64 raises
    ScheduleFormatError naming its slot.
    """
    _require_size(matrices, config)
    net = [gross - freed for gross, freed in zip(_exact_sums(matrices.allocations, 0),
                                                 _exact_sums(matrices.deallocations, 0))]
    for j, change in enumerate(net, start=1):
        if not INT64_MIN <= change <= INT64_MAX:
            raise ScheduleFormatError(f"net change at slot {j} is outside the int64 range")
    return Schedule(np.array(net, dtype=np.int64))


def _magnitude(arr: np.ndarray) -> int:
    """Largest absolute entry, as a Python integer."""
    return max(int(arr.max()), -int(arr.min()))


def validate_solution(matrices: SolutionMatrices, workload: Workload,
                      config: Config) -> List[ConstraintViolation]:
    """Check every constraint row in exact integer arithmetic.

    Returns one BOUND violation per negative allocation or de-allocation,
    then one violation per failed row in model order, tagged with the family
    name and the 1-based row indices.  The rows are those of build_model,
    read from the same table; a run's value is its coefficient times a
    difference of prefix sums of the assignment.
    """
    _require_matching(workload, config)
    _require_size(matrices, config)
    rows = _row_table(workload, config)
    out = [ConstraintViolation("BOUND", i0 + 1, j0 + 1, f"{what} {int(matrix[i0, j0])} is negative")
           for what, matrix in (("allocation", matrices.allocations),
                                ("de-allocation", matrices.deallocations))
           for i0, j0 in np.argwhere(matrix < 0).tolist()]

    values = np.concatenate([matrices.allocations.ravel(), matrices.deallocations.ravel(),
                             matrices.requests])
    coefs, lengths = rows["run_coefs"], rows["run_lengths"]
    # int64 wrap-around in the running sums cancels in their differences, so
    # a row is exact when no run, product or row value can leave int64;
    # otherwise evaluate in Python integers
    terms = int(np.add.reduceat(lengths, rows["run_ptr"][:-1]).max())
    if _magnitude(coefs) * _magnitude(values) * terms > INT64_MAX:
        values, coefs = values.astype(object), coefs.astype(object)
    prefix = np.concatenate([[0], np.cumsum(values)])
    starts, ends = rows["run_starts"], rows["run_starts"] + lengths
    sums = np.concatenate([[0], np.cumsum(coefs * (prefix[ends] - prefix[starts]))])
    lhs = sums[rows["run_ptr"][1:]] - sums[rows["run_ptr"][:-1]]
    rhs, senses, tags = rows["rhs"], rows["senses"], rows["row_tags"]
    failed = np.where(senses == ">=", lhs < rhs, np.where(senses == "<=", lhs > rhs, lhs != rhs))
    for k in np.flatnonzero(failed).tolist():
        i, j = int(rows["row_i"][k]), int(rows["row_j"][k])
        out.append(ConstraintViolation(str(tags[k]), i or None, j or None,
                                       f"left side {lhs[k]} is not {senses[k]} {rhs[k]}"))
    return out

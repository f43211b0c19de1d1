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
"""

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .schedule import Schedule
from .workload import Config, ConfigurationError, Workload, mandatory_load, _require_matching

DEFAULT_BIG_M = 1_000_000

Term = Tuple[int, str]

# stands for the space between two pieces of an LP row until the row is
# wrapped, so that piece boundaries can be found with str.rfind
_SEP = "\x00"
_LP_WIDTH = 72
_INDENT = "   "


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
    pairs = [f"{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(["x_" + p for p in pairs] + ["y_" + p for p in pairs]
                 + [f"r_{j}" for j in range(1, n + 1)])


@dataclass(frozen=True, eq=False)
class IlpModel:
    """A fully instantiated model for one workload, as sparse rows.

    Row k has the terms coefs[p] * variable indices[p] for p in
    indptr[k]:indptr[k+1], in the variable order of variable_names.  The
    objective is stored the same way.  The arrays are read-only;
    constraints, objective and variables are derived from them on access.
    """

    config: Config
    big_m: int
    indptr: np.ndarray
    indices: np.ndarray
    coefs: np.ndarray
    row_names: Tuple[str, ...]
    row_tags: Tuple[str, ...]
    senses: Tuple[str, ...]
    rhs: np.ndarray
    objective_indices: np.ndarray
    objective_coefs: np.ndarray

    @property
    def variables(self) -> Tuple[str, ...]:
        return variable_names(self.config.n)

    @property
    def integer_variables(self) -> Tuple[str, ...]:
        return self.variables[: 2 * self.config.n ** 2]

    @property
    def binary_variables(self) -> Tuple[str, ...]:
        return self.variables[2 * self.config.n ** 2:]

    @property
    def objective(self) -> Tuple[Term, ...]:
        names = self.variables
        return tuple(zip(self.objective_coefs.tolist(),
                         [names[v] for v in self.objective_indices.tolist()]))

    @property
    def constraints(self) -> Tuple[LinearConstraint, ...]:
        names = self.variables
        terms = list(zip(self.coefs.tolist(), [names[v] for v in self.indices.tolist()]))
        bounds = self.indptr.tolist()
        return tuple(
            LinearConstraint(name, tag, tuple(terms[lo:hi]), sense, rhs)
            for name, tag, sense, rhs, lo, hi in zip(
                self.row_names, self.row_tags, self.senses, self.rhs.tolist(),
                bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class SolutionMatrices:
    """Assignment of all model variables.

    allocations and deallocations are n x n integer matrices indexed
    [arrival slot - 1, request slot - 1]; requests is the 0/1 flag vector.
    The container checks shape and flag integrality only; whether the
    values satisfy the model is the job of validate_solution.
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
        if np.any((r != 0) & (r != 1)):
            raise ValueError("requests entries must be 0 or 1")
        object.__setattr__(self, "allocations", x.astype(np.int64))
        object.__setattr__(self, "deallocations", y.astype(np.int64))
        object.__setattr__(self, "requests", r.astype(np.int64))

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
        parts = [f"VIOLATION {self.tag}"]
        if self.i is not None:
            parts.append(f"i={self.i}")
        if self.j is not None:
            parts.append(f"j={self.j}")
        parts.append(f"detail={self.detail}")
        return " ".join(parts)



def effective_big_m(workload: Workload, big_m: int = DEFAULT_BIG_M) -> int:
    """The linking coefficient actually used.

    big_m must cover the total arrival count; it is tightened to
    max(total arrivals, 1) when that is smaller.
    """
    total = int(workload.arrivals.sum())
    if big_m < total:
        raise ConfigurationError(
            f"big_m={big_m} is below the total arrival count {total}")
    return min(big_m, max(total, 1))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + lengths[k] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def build_model(workload: Workload, config: Config, big_m: int = DEFAULT_BIG_M) -> IlpModel:
    """Instantiate every variable and constraint row for this workload.

    Each family is given as runs of consecutive variable indices with one
    coefficient each, k runs per row; the rows come out in tag order.
    """
    _require_matching(workload, config)
    n, delta, theta = config.n, config.delta, config.theta
    m_eff = effective_big_m(workload, big_m)
    a = workload.arrivals
    d = workload.departures
    load = mandatory_load(workload, config).values
    nn = n * n
    x_rows = np.arange(0, nn, n)        # index of x_i_1 for each i
    y_rows = x_rows + nn
    r_first = 2 * nn

    names: List[str] = []
    tags: List[str] = []
    senses: List[str] = []
    rhs: List[np.ndarray] = []
    starts: List[np.ndarray] = []
    lengths: List[np.ndarray] = []
    run_coefs: List[np.ndarray] = []
    row_lengths: List[np.ndarray] = []

    def family(tag, sense, labels, row_rhs, run_starts, run_lengths, coefs):
        count = len(labels)
        names.extend(f"{tag}_{label}" for label in labels)
        tags.extend([tag] * count)
        senses.extend([sense] * count)
        rhs.append(np.broadcast_to(np.asarray(row_rhs, dtype=np.int64), (count,)))
        run_lengths = np.broadcast_to(np.asarray(run_lengths, dtype=np.int64), run_starts.shape)
        starts.append(run_starts.astype(np.int64))
        lengths.append(run_lengths)
        run_coefs.append(np.broadcast_to(np.asarray(coefs, dtype=np.int64), run_starts.shape))
        row_lengths.append(run_lengths.reshape(count, -1).sum(axis=1) if count else run_lengths)

    i = np.arange(1, n - theta + 1)
    family("EQ2", ">=", [f"i{k}" for k in i], a[i - 1], x_rows[i - 1], i + theta - delta, 1)
    i = np.arange(n - theta + 1, n + 1)
    family("EQ3", ">=", [f"i{k}" for k in i], a[i - 1], x_rows[i - 1], n - delta, 1)
    i = np.arange(1, delta + 1)
    family("EQ4", "<=", [f"i{k}" for k in i], d[i - 1], y_rows[i - 1], n - delta, 1)
    i = np.arange(delta + 1, n + 1)
    family("EQ5", "<=", [f"i{k}" for k in i], d[i - 1],
           y_rows[i - 1] + i - delta - 1, n - i + 1, 1)
    i = np.arange(delta + 2, n + 1)
    family("EQ6", "=", [f"i{k}" for k in i], 0, y_rows[i - 1], i - delta - 1, 1)
    # EQ7/EQ8 row j sums x_i_t and y_i_t over every i and t <= j (t <= j - delta):
    # n runs of x with coefficient 1, then n runs of y with coefficient -1
    net_starts = np.concatenate([x_rows, y_rows])
    net_coefs = np.repeat([1, -1], n)
    j = np.arange(1, n + 1)
    family("EQ7", ">=", [f"j{k}" for k in j], 0, np.tile(net_starts, n),
           np.repeat(j, 2 * n), np.tile(net_coefs, n))
    j = np.arange(delta + 1, n + 1)
    family("EQ8", ">=", [f"j{k}" for k in j], load[j - 1], np.tile(net_starts, len(j)),
           np.repeat(j - delta, 2 * n), np.tile(net_coefs, len(j)))
    i = np.arange(1, n - delta + 1)
    family("EQ9", "<=", [f"i{k}" for k in i], 1, r_first + i - 1, delta, 1)
    # EQ10/EQ11 row (i, j): big_m r_j - x_i_j >= 0, then the same for y_i_j
    cells = [f"i{p}_j{q}" for p in range(1, n + 1) for q in range(1, n + 1)]
    flags = r_first + np.tile(np.arange(n), n)
    link_coefs = np.tile([m_eff, -1], nn)
    family("EQ10", ">=", cells, 0, np.column_stack([flags, np.arange(nn)]).ravel(), 1,
           link_coefs)
    family("EQ11", ">=", cells, 0, np.column_stack([flags, nn + np.arange(nn)]).ravel(), 1,
           link_coefs)
    j = np.arange(n - delta + 1, n + 1)
    family("EQ12", "=", [f"j{k}" for k in j], 0, r_first + j - 1, 1, 1)

    run_lengths = np.concatenate(lengths)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(row_lengths))])
    indices = _ranges(np.concatenate(starts), run_lengths)
    coefs = np.repeat(np.concatenate(run_coefs), run_lengths)

    # objective: weight n - j - delta on x_i_j and its negative on y_i_j,
    # leaving out the zero weights from j = n - delta on
    weighted = n - delta - 1
    weights = n - delta - np.arange(1, weighted + 1)
    objective_indices = np.concatenate([_ranges(x_rows, np.full(n, weighted)),
                                        _ranges(y_rows, np.full(n, weighted))])
    objective_coefs = np.concatenate([np.tile(weights, n), -np.tile(weights, n)])

    arrays = [indptr, indices, coefs, np.concatenate(rhs), objective_indices, objective_coefs]
    for array in arrays:
        array.setflags(write=False)
    indptr, indices, coefs, row_rhs, objective_indices, objective_coefs = arrays
    return IlpModel(
        config=config,
        big_m=m_eff,
        indptr=indptr,
        indices=indices,
        coefs=coefs,
        row_names=tuple(names),
        row_tags=tuple(tags),
        senses=tuple(senses),
        rhs=row_rhs,
        objective_indices=objective_indices,
        objective_coefs=objective_coefs,
    )


def _wrap(row: str) -> str:
    """Break a row before the pieces that would pass the line width.

    Continuation lines are indented.  Every piece fits on a line: an int64
    coefficient and a variable name take well under the 69 columns left.
    """
    lines = []
    start, room = 0, _LP_WIDTH
    while len(row) - start > room:
        cut = row.rfind(_SEP, start, start + room + 1)
        lines.append(row[start:cut])
        start, room = cut + 1, _LP_WIDTH - len(_INDENT)
    lines.append(row[start:])
    return ("\n" + _INDENT).join(lines)


def _render_rows(names: Sequence[str], indptr: np.ndarray, indices: np.ndarray,
                 coefs: np.ndarray, heads: Sequence[str], tails: Sequence[str]) -> List[str]:
    """LP text of each row: head, the terms, tail, wrapped.

    A run is a stretch of one row over consecutive variables with one
    coefficient.  Every coefficient that has a run longer than one term is
    rendered once as a piece table over all variable names, and its runs are
    cut out of that table as single slices; single terms are rendered
    directly.
    """
    nnz = len(indices)
    run_start = np.ones(nnz, dtype=bool)
    run_start[1:] = (indices[1:] != indices[:-1] + 1) | (coefs[1:] != coefs[:-1])
    run_start[indptr[:-1][indptr[:-1] < nnz]] = True
    lo = np.flatnonzero(run_start)
    hi = np.append(lo[1:], nnz)
    row_runs = np.searchsorted(lo, indptr).tolist()
    first = indices[lo]
    last = indices[hi - 1] + 1
    run_coefs = coefs[lo]

    distinct, which = np.unique(run_coefs, return_inverse=True)
    leads = [_SEP + (f"+ {c} " if c >= 0 else f"- {-c} ") for c in distinct.tolist()]
    tables = {}
    for k in np.unique(which[hi - lo > 1]).tolist():
        tables[k] = leads[k] + leads[k].join(names)
    # offset of variable v's piece in a table whose lead has width w: v * w + name chars before v
    name_chars = np.concatenate([[0], np.cumsum([len(name) for name in names])])
    width = np.array([len(lead) for lead in leads])[which]
    slice_lo = (first * width + name_chars[first]).tolist()
    slice_hi = (last * width + name_chars[last]).tolist()
    which = which.tolist()
    first = first.tolist()
    positive = (run_coefs >= 0).tolist()

    rows = []
    for row, (head, tail) in enumerate(zip(heads, tails)):
        parts = [head]
        begin, end = row_runs[row], row_runs[row + 1]
        for run in range(begin, end):
            table = tables.get(which[run])
            if table is None:
                parts.append(leads[which[run]] + names[first[run]])
            else:
                parts.append(table[slice_lo[run]:slice_hi[run]])
        if begin < end and positive[begin]:
            parts[1] = _SEP + parts[1][3:]      # the first term has no "+ "
        parts.append(tail)
        text = "".join(parts)
        rows.append((_wrap(text) if len(text) > _LP_WIDTH else text).replace(_SEP, " "))
    return rows


def export_lp(model: IlpModel) -> str:
    """Render the model as LP-format text.

    Output is a pure function of the model: same model, same bytes.
    Variables with a zero objective weight are declared but left out of the
    objective expression; an objective without terms is written as 0 x_1_1.
    """
    names = model.variables
    objective_indices, objective_coefs = model.objective_indices, model.objective_coefs
    if not len(objective_indices):
        objective_indices = objective_coefs = np.zeros(1, dtype=np.int64)
    objective = _render_rows(names, np.array([0, len(objective_indices)]),
                             objective_indices, objective_coefs, [" obj:"], [""])
    rows = _render_rows(
        names, model.indptr, model.indices, model.coefs,
        [f" {name}:" for name in model.row_names],
        [f"{_SEP}{sense} {rhs}" for sense, rhs in zip(model.senses, model.rhs.tolist())])
    integers = names[: 2 * model.config.n ** 2]
    binaries = names[2 * model.config.n ** 2:]
    return "\n".join([
        "Minimize",
        *objective,
        "Subject To",
        *rows,
        "Bounds",
        " 0 <= " + "\n 0 <= ".join(integers),
        "General",
        " " + "\n ".join(integers),
        "Binary",
        " " + "\n ".join(binaries),
        "End",
        "",
    ])


INTEGRALITY_TOLERANCE = 1e-6

_VARIABLE_NAME = re.compile(r"([xy])_([1-9][0-9]*)_([1-9][0-9]*)|r_([1-9][0-9]*)")


def parse_solution(text: str, config: Config) -> SolutionMatrices:
    """Read solver output: one `<variable> <value>` pair per line.

    `#` starts a comment; blank lines are skipped; variables not listed
    default to 0.  Names are those of the model for config.n slots.  Values
    must sit within 1e-6 of an integer, request flags must round to 0 or 1,
    and allocation values must not be negative.
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
        try:
            val = float(val_text)
        except ValueError as exc:
            raise SolutionFormatError(
                f"line {lineno}: value {val_text!r} is not a number") from exc
        rounded = round(val)
        if abs(val - rounded) > INTEGRALITY_TOLERANCE:
            raise SolutionFormatError(
                f"line {lineno}: value {val_text} of {name} is not integral")
        rounded = int(rounded)
        if name.startswith("r_") and rounded not in (0, 1):
            raise SolutionFormatError(
                f"line {lineno}: request flag {name} must be 0 or 1, got {rounded}")
        if not name.startswith("r_") and rounded < 0:
            raise SolutionFormatError(
                f"line {lineno}: {name} must be non-negative, got {rounded}")
        seen.add(name)
        if match.group(1) is None:
            r[int(slots[0]) - 1] = rounded
        else:
            (x if match.group(1) == "x" else y)[int(slots[0]) - 1, int(slots[1]) - 1] = rounded
    return SolutionMatrices(x, y, r)


def objective_value(matrices: SolutionMatrices, config: Config) -> int:
    """Provisioning cost of an assignment: active-slot weighted net allocation."""
    n, delta = config.n, config.delta
    w = np.zeros(n, dtype=np.int64)
    cols = np.arange(1, n - delta + 1)
    w[: n - delta] = n - cols - delta
    net = matrices.allocations - matrices.deallocations
    return int(net.sum(axis=0) @ w)


def matrices_to_schedule(matrices: SolutionMatrices, config: Config) -> Schedule:
    """Collapse an assignment to per-slot net capacity changes."""
    if matrices.n != config.n:
        raise ConfigurationError(
            f"matrices are {matrices.n}x{matrices.n} but config.n is {config.n}")
    net = matrices.allocations - matrices.deallocations
    return Schedule(net.sum(axis=0))


def validate_solution(matrices: SolutionMatrices, workload: Workload, config: Config,
                      big_m: int = DEFAULT_BIG_M,
                      skip_families: Iterable[str] = ()) -> List[ConstraintViolation]:
    """Check every constraint family in exact integer arithmetic.

    Returns one violation per failed row, tagged with the family name and
    the 1-based row indices.  skip_families drops whole families by tag,
    which supports probing which ones are implied by the rest.
    """
    _require_matching(workload, config)
    if matrices.n != config.n:
        raise ConfigurationError(
            f"matrices are {matrices.n}x{matrices.n} but config.n is {config.n}")
    n, delta, theta = config.n, config.delta, config.theta
    skip = set(skip_families)
    m_eff = effective_big_m(workload, big_m)
    x = matrices.allocations
    y = matrices.deallocations
    r = matrices.requests
    a = workload.arrivals
    d = workload.departures
    out: List[ConstraintViolation] = []

    neg = np.argwhere(x < 0)
    for i0, j0 in neg:
        out.append(ConstraintViolation("BOUND", int(i0) + 1, int(j0) + 1,
                                       f"allocation {int(x[i0, j0])} is negative"))
    neg = np.argwhere(y < 0)
    for i0, j0 in neg:
        out.append(ConstraintViolation("BOUND", int(i0) + 1, int(j0) + 1,
                                       f"de-allocation {int(y[i0, j0])} is negative"))

    if "EQ2" not in skip:
        for i in range(1, n - theta + 1):
            got = int(x[i - 1, : i + theta - delta].sum())
            if got < a[i - 1]:
                out.append(ConstraintViolation(
                    "EQ2", i=i, detail=f"covered {got} of {int(a[i - 1])} arrivals"))
    if "EQ3" not in skip:
        for i in range(n - theta + 1, n + 1):
            got = int(x[i - 1, : n - delta].sum())
            if got < a[i - 1]:
                out.append(ConstraintViolation(
                    "EQ3", i=i, detail=f"covered {got} of {int(a[i - 1])} arrivals"))
    if "EQ4" not in skip:
        for i in range(1, delta + 1):
            got = int(y[i - 1, : n - delta].sum())
            if got > d[i - 1]:
                out.append(ConstraintViolation(
                    "EQ4", i=i, detail=f"released {got} for {int(d[i - 1])} departures"))
    if "EQ5" not in skip:
        for i in range(delta + 1, n + 1):
            got = int(y[i - 1, i - delta - 1: n - delta].sum())
            if got > d[i - 1]:
                out.append(ConstraintViolation(
                    "EQ5", i=i, detail=f"released {got} for {int(d[i - 1])} departures"))
    if "EQ6" not in skip:
        for i in range(delta + 2, n + 1):
            got = int(y[i - 1, : i - delta - 1].sum())
            if got != 0:
                out.append(ConstraintViolation(
                    "EQ6", i=i, detail=f"{got} released before departure could free it"))
    cx = np.cumsum(x.sum(axis=0))
    cy = np.cumsum(y.sum(axis=0))
    if "EQ7" not in skip:
        for j in range(1, n + 1):
            if cx[j - 1] < cy[j - 1]:
                out.append(ConstraintViolation(
                    "EQ7", j=j,
                    detail=f"cumulative allocation {int(cx[j - 1])} below release {int(cy[j - 1])}"))
    if "EQ8" not in skip:
        load = mandatory_load(workload, config).values
        for j in range(delta + 1, n + 1):
            net = int(cx[j - delta - 1] - cy[j - delta - 1])
            if net < load[j - 1]:
                out.append(ConstraintViolation(
                    "EQ8", j=j, detail=f"active capacity {net} below floor {int(load[j - 1])}"))
    if "EQ9" not in skip:
        for i in range(1, n - delta + 1):
            got = int(r[i - 1: i + delta - 1].sum())
            if got > 1:
                out.append(ConstraintViolation(
                    "EQ9", i=i, detail=f"{got} requests within {delta} slots"))
    if "EQ10" not in skip:
        for i0, j0 in np.argwhere(x > m_eff * r[None, :]):
            out.append(ConstraintViolation(
                "EQ10", int(i0) + 1, int(j0) + 1,
                f"allocation {int(x[i0, j0])} at unflagged slot"))
    if "EQ11" not in skip:
        for i0, j0 in np.argwhere(y > m_eff * r[None, :]):
            out.append(ConstraintViolation(
                "EQ11", int(i0) + 1, int(j0) + 1,
                f"de-allocation {int(y[i0, j0])} at unflagged slot"))
    if "EQ12" not in skip:
        for j in range(n - delta + 1, n + 1):
            if r[j - 1] != 0:
                out.append(ConstraintViolation(
                    "EQ12", j=j, detail="request cannot take effect within the horizon"))
    return out

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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .schedule import Schedule
from .workload import Config, ConfigurationError, Workload, mandatory_load, _require_matching

DEFAULT_BIG_M = 1_000_000

Term = Tuple[int, str]


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


@dataclass(eq=False)
class IlpModel:
    """A fully instantiated model for one workload."""

    config: Config
    variables: Tuple[str, ...]
    integer_variables: Tuple[str, ...]
    binary_variables: Tuple[str, ...]
    constraints: List[LinearConstraint]
    objective: Tuple[Term, ...]
    big_m: int


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


def _vx(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def _vy(i: int, j: int) -> str:
    return f"y_{i}_{j}"


def _vr(j: int) -> str:
    return f"r_{j}"


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


def build_model(workload: Workload, config: Config, big_m: int = DEFAULT_BIG_M) -> IlpModel:
    """Instantiate every variable and constraint row for this workload."""
    _require_matching(workload, config)
    n, delta, theta = config.n, config.delta, config.theta
    m_eff = effective_big_m(workload, big_m)
    a = workload.arrivals
    d = workload.departures
    load = mandatory_load(workload, config).values

    x_names = tuple(_vx(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    y_names = tuple(_vy(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    r_names = tuple(_vr(j) for j in range(1, n + 1))

    objective: List[Term] = []
    for i in range(1, n + 1):
        for j in range(1, n - delta + 1):
            w = n - j - delta
            if w:
                objective.append((w, _vx(i, j)))
    for i in range(1, n + 1):
        for j in range(1, n - delta + 1):
            w = n - j - delta
            if w:
                objective.append((-w, _vy(i, j)))

    cons: List[LinearConstraint] = []

    for i in range(1, n - theta + 1):
        terms = tuple((1, _vx(i, j)) for j in range(1, i + theta - delta + 1))
        cons.append(LinearConstraint(f"EQ2_i{i}", "EQ2", terms, ">=", int(a[i - 1])))
    for i in range(n - theta + 1, n + 1):
        terms = tuple((1, _vx(i, j)) for j in range(1, n - delta + 1))
        cons.append(LinearConstraint(f"EQ3_i{i}", "EQ3", terms, ">=", int(a[i - 1])))
    for i in range(1, delta + 1):
        terms = tuple((1, _vy(i, j)) for j in range(1, n - delta + 1))
        cons.append(LinearConstraint(f"EQ4_i{i}", "EQ4", terms, "<=", int(d[i - 1])))
    for i in range(delta + 1, n + 1):
        terms = tuple((1, _vy(i, j)) for j in range(i - delta, n - delta + 1))
        cons.append(LinearConstraint(f"EQ5_i{i}", "EQ5", terms, "<=", int(d[i - 1])))
    for i in range(delta + 2, n + 1):
        terms = tuple((1, _vy(i, j)) for j in range(1, i - delta))
        cons.append(LinearConstraint(f"EQ6_i{i}", "EQ6", terms, "=", 0))
    for j in range(1, n + 1):
        terms = tuple((1, _vx(i, t)) for i in range(1, n + 1) for t in range(1, j + 1)) \
            + tuple((-1, _vy(i, t)) for i in range(1, n + 1) for t in range(1, j + 1))
        cons.append(LinearConstraint(f"EQ7_j{j}", "EQ7", terms, ">=", 0))
    for j in range(delta + 1, n + 1):
        terms = tuple((1, _vx(i, t)) for i in range(1, n + 1) for t in range(1, j - delta + 1)) \
            + tuple((-1, _vy(i, t)) for i in range(1, n + 1) for t in range(1, j - delta + 1))
        cons.append(LinearConstraint(f"EQ8_j{j}", "EQ8", terms, ">=", int(load[j - 1])))
    for i in range(1, n - delta + 1):
        terms = tuple((1, _vr(j)) for j in range(i, i + delta))
        cons.append(LinearConstraint(f"EQ9_i{i}", "EQ9", terms, "<=", 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cons.append(LinearConstraint(
                f"EQ10_i{i}_j{j}", "EQ10",
                ((m_eff, _vr(j)), (-1, _vx(i, j))), ">=", 0))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cons.append(LinearConstraint(
                f"EQ11_i{i}_j{j}", "EQ11",
                ((m_eff, _vr(j)), (-1, _vy(i, j))), ">=", 0))
    for j in range(n - delta + 1, n + 1):
        cons.append(LinearConstraint(f"EQ12_j{j}", "EQ12", ((1, _vr(j)),), "=", 0))

    return IlpModel(
        config=config,
        variables=x_names + y_names + r_names,
        integer_variables=x_names + y_names,
        binary_variables=r_names,
        constraints=cons,
        objective=tuple(objective),
        big_m=m_eff,
    )


def _term_pieces(terms: Sequence[Term]) -> List[str]:
    pieces = []
    for k, (coef, var) in enumerate(terms):
        if k == 0:
            pieces.append(f"{coef} {var}" if coef >= 0 else f"- {-coef} {var}")
        else:
            pieces.append(f"+ {coef} {var}" if coef >= 0 else f"- {-coef} {var}")
    return pieces


def _expr_lines(prefix: str, terms: Sequence[Term], suffix: str = "") -> List[str]:
    # wraps long expressions; continuation lines are indented
    pieces = _term_pieces(terms)
    if suffix:
        pieces = pieces + [suffix.strip()]
    lines: List[str] = []
    line = prefix
    for piece in pieces:
        if len(line) + 1 + len(piece) > 72 and line.strip():
            lines.append(line)
            line = "   " + piece
        else:
            line = line + " " + piece
    lines.append(line)
    return lines


def export_lp(model: IlpModel) -> str:
    """Render the model as LP-format text.

    Output is a pure function of the model: same model, same bytes.
    Variables with a zero objective weight are declared but left out of the
    objective expression.
    """
    out: List[str] = ["Minimize"]
    obj_terms = model.objective if model.objective else ((0, model.variables[0]),)
    out.extend(_expr_lines(" obj:", obj_terms))
    out.append("Subject To")
    for c in model.constraints:
        out.extend(_expr_lines(f" {c.name}:", c.terms, f" {c.sense} {c.rhs}"))
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


INTEGRALITY_TOLERANCE = 1e-6


def parse_solution(text: str, model: IlpModel) -> SolutionMatrices:
    """Read solver output: one `<variable> <value>` pair per line.

    `#` starts a comment; blank lines are skipped; variables not listed
    default to 0.  Values must sit within 1e-6 of an integer, request flags
    must round to 0 or 1, and allocation values must not be negative.
    """
    n = model.config.n
    known = set(model.variables)
    values: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionFormatError(
                f"line {lineno}: expected '<variable> <value>', got {raw!r}")
        name, val_text = parts
        if name not in known:
            raise SolutionFormatError(f"line {lineno}: unknown variable name {name!r}")
        if name in values:
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
        values[name] = rounded

    x = np.zeros((n, n), dtype=np.int64)
    y = np.zeros((n, n), dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    for name, val in values.items():
        kind, rest = name.split("_", 1)
        if kind == "r":
            r[int(rest) - 1] = val
        else:
            i_text, j_text = rest.split("_")
            (x if kind == "x" else y)[int(i_text) - 1, int(j_text) - 1] = val
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

"""Exact rational linear algebra and linear-programming feasibility.

Every geometric decision in this package reduces to the primitives kept
here: Gauss-Jordan elimination (ranks, linear solves), a phase-one primal
simplex for feasibility of equality systems over nonnegative variables
(Dantzig pivoting with a permanent Bland anti-cycling fallback), and exact
substitution checks.  There is no floating point on any decision path.

Both eliminations pivot on integers over one common denominator (Edmonds
1967, Bareiss 1968): the input is scaled to integers once, every update is
an exact integer division, and ``fractions.Fraction`` appears only in the
values read in and returned.  The pivots are the ones rational arithmetic
would choose, so every result is the same rational.

Rationals serialize as decimal integer strings or ``"p/q"`` strings with
positive denominator; that is the only numeric wire format used anywhere
in the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MalformedInputError(ValueError):
    """Input has the wrong shape or kind for an operation."""


class PreconditionError(ValueError):
    """A mathematical hypothesis required by an operation does not hold."""


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise MalformedInputError(f"expected an exact rational, got {value!r}")


_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def format_rational(value: Fraction) -> str:
    """Wire format: ``"3"`` for integers, ``"p/q"`` (q > 0, reduced) otherwise."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the wire format.  Decimal points and negative denominators are
    rejected so no consumer can silently lose precision."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise MalformedInputError(f"bad rational literal {text!r}")
    return Fraction(text)


class QVector:
    """Immutable vector of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        object.__setattr__(self, "entries", tuple(as_rational(e) for e in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def __mul__(self, scalar) -> "QVector":
        c = as_rational(scalar)
        return QVector(a * c for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def _check_dim(self, other: "QVector") -> None:
        if not isinstance(other, QVector) or other.dim != self.dim:
            raise MalformedInputError("vector dimensions do not match")

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(format_rational(e) for e in self.entries)


class QMatrix:
    """Dense rectangular matrix of exact rationals, stored by rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable) -> None:
        rs = tuple(r if isinstance(r, QVector) else QVector(r) for r in rows)
        if not rs:
            raise MalformedInputError("matrix needs at least one row")
        if len({r.dim for r in rs}) != 1:
            raise MalformedInputError("matrix rows have unequal lengths")
        object.__setattr__(self, "rows", rs)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return self.rows[0].dim

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def transpose(self) -> "QMatrix":
        return QMatrix(
            QVector(row[j] for row in self.rows) for j in range(self.num_cols)
        )

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(
            QVector(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
        )

    def __repr__(self) -> str:
        return "QMatrix(%s)" % ", ".join(repr(r) for r in self.rows)


def _integer_rows(rows) -> tuple:
    """The rows times ``scale``, the lcm of all their denominators, as lists
    of ints; returns ``(table, scale)``.

    One scale for the whole system keeps every ratio between entries, in a
    row and across rows, as it was.
    """
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    table = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    return table, scale


def _reduced_echelon(rows) -> tuple:
    """Fraction-free Gauss-Jordan elimination; returns ``(pivots, table,
    denominator)``.

    ``pivots`` are the pivot column indices and the reduced row echelon form
    of ``rows`` is ``table / denominator`` cell by cell.  The rows are scaled
    to integers once and every step is the integer update
    ``(p*T[i] - T[i][c]*T[r]) // D`` with ``D`` the previous pivot, so no
    Fraction is made during elimination (Bareiss 1968; every division is
    exact by Sylvester's identity).  Deterministic: pivots on the first
    nonzero entry scanning top to bottom, left to right.
    """
    table, _ = _integer_rows(rows)
    num_rows = len(table)
    num_cols = len(table[0]) if num_rows else 0
    pivots = []
    denominator = 1
    row = 0
    for col in range(num_cols):
        if row == num_rows:
            break
        pivot_row = next((i for i in range(row, num_rows) if table[i][col]), None)
        if pivot_row is None:
            continue
        table[row], table[pivot_row] = table[pivot_row], table[row]
        lead = table[row]
        pivot = lead[col]
        for i in range(num_rows):
            if i != row:
                f = table[i][col]
                table[i] = [
                    (pivot * a - f * b) // denominator for a, b in zip(table[i], lead)
                ]
        denominator = pivot
        pivots.append(col)
        row += 1
    return pivots, table, denominator


def rank(matrix: QMatrix) -> int:
    """Exact rank via fraction-free Gaussian elimination."""
    return len(_reduced_echelon([row.entries for row in matrix.rows])[0])


class LinearSolution(NamedTuple):
    particular: QVector
    kernel_basis: tuple


def solve_linear(matrix: QMatrix, rhs: QVector) -> Optional[LinearSolution]:
    """Solve ``matrix @ x = rhs`` exactly.

    Returns one particular solution (free variables pinned to zero) together
    with a basis of the homogeneous solution space, or None when the system
    is inconsistent.
    """
    if rhs.dim != matrix.num_rows:
        raise MalformedInputError("right-hand side length does not match row count")
    n = matrix.num_cols
    pivots, table, denominator = _reduced_echelon(
        [list(row.entries) + [b] for row, b in zip(matrix.rows, rhs)]
    )
    if pivots and pivots[-1] == n:
        return None
    particular = [_ZERO] * n
    for r, c in enumerate(pivots):
        particular[c] = Fraction(table[r][n], denominator)
    pivot_set = set(pivots)
    kernel = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [_ZERO] * n
        vec[free] = _ONE
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-table[r][free], denominator)
        kernel.append(QVector(vec))
    return LinearSolution(QVector(particular), tuple(kernel))


class Relation(Enum):
    EQ = "="
    LE = "<="
    LT = "<"


@dataclass(frozen=True)
class LinearConstraint:
    """One linear condition ``normal . x  rel  rhs``.

    LT encodes an open halfspace; see ``lp_feasible`` for how strictness is
    decided.
    """

    normal: QVector
    relation: Relation
    rhs: Fraction

    def __post_init__(self):
        if not isinstance(self.normal, QVector):
            object.__setattr__(self, "normal", QVector(self.normal))
        object.__setattr__(self, "rhs", as_rational(self.rhs))
        if not isinstance(self.relation, Relation):
            raise MalformedInputError(f"bad relation {self.relation!r}")

    def holds_at(self, point: QVector) -> bool:
        value = self.normal.dot(point)
        if self.relation is Relation.EQ:
            return value == self.rhs
        if self.relation is Relation.LE:
            return value <= self.rhs
        return value < self.rhs


def _phase_one(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Phase-one simplex for ``{x >= 0 : rows @ x = rhs}``.

    Returns ``(solution, infeasibility)``: a list of Fractions and exact zero
    when feasible, or ``(None, optimum)`` with the certifiably positive
    optimum of the artificial objective when not.

    Pivoting starts with Dantzig's rule and switches permanently to Bland's
    rule after a run of degenerate pivots, so degenerate systems cannot
    cycle.  Artificial columns are never stored: an artificial variable that
    leaves the basis is dropped for good, which is sound because any feasible
    point of the system is expressible in original columns alone.

    The tableau is integers over one common denominator ``D`` (Edmonds
    1967).  The whole system is scaled once by ``L``, the lcm of its
    denominators; a pivot on ``p`` maps every other row to
    ``(p*T[i] - T[i][e]*T[r]) // D``, exact by Sylvester's identity, and
    sets ``D = p``.  A row whose basic variable is original then reads
    ``T / D`` and a row still held by an artificial, like the cost row, reads
    ``T / (D*L)``.  Each row keeps its own ratios and the cost row is a
    positive multiple of the rational one, so the pivot rules choose exactly
    the pivots rational arithmetic would.  Fractions are made only for the
    returned values.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [_ZERO] * n, _ZERO

    tableau, scale = _integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    for i, vals in enumerate(tableau):
        if vals[-1] < 0:
            tableau[i] = [-v for v in vals]
    # Basic variable per row; artificial for row i is indexed n + i so that
    # Bland tie-breaking prefers original variables.
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the artificial sum under the all-artificial
    # basis: column j prices to the negated column sum, the objective cell to
    # the negated right-hand-side sum.
    cost = [-sum(tableau[i][j] for i in range(m)) for j in range(n + 1)]
    denominator = 1

    bland = False
    stall = 0
    stall_limit = 3 * (m + n) + 10
    while True:
        enter = -1
        if bland:
            for j in range(n):
                if cost[j] < 0:
                    enter = j
                    break
        else:
            best = 0
            for j in range(n):
                cj = cost[j]
                if cj < best:
                    best = cj
                    enter = j
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][-1]
                if leave < 0:
                    leave, best_num, best_den = i, b, a
                else:
                    diff = b * best_den - best_num * a
                    if diff < 0:
                        leave, best_num, best_den = i, b, a
                    elif diff == 0:
                        # Tie-break: Bland's guarantee needs the lowest basic
                        # index; otherwise prefer evicting artificials
                        # (indices >= n) to drain degenerate stalls faster.
                        if bland:
                            better = basis[i] < basis[leave]
                        else:
                            better = basis[i] > basis[leave]
                        if better:
                            leave, best_num, best_den = i, b, a
        if leave < 0:
            # The artificial objective is bounded below by zero, so an
            # unbounded ray is impossible.
            raise AssertionError("phase-one simplex reported unbounded")
        if best_num == 0:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0

        lead = tableau[leave]
        pivot = lead[enter]
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                tableau[i] = [
                    (pivot * a - f * b) // denominator for a, b in zip(tableau[i], lead)
                ]
        f = cost[enter]
        cost = [(pivot * a - f * b) // denominator for a, b in zip(cost, lead)]
        denominator = pivot
        basis[leave] = enter

    if cost[-1]:
        return None, Fraction(-cost[-1], denominator * scale)
    solution = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i][-1], denominator)
    return solution, _ZERO


def standard_form_feasible(rows, rhs):
    """Exact feasible point of ``{x >= 0 : rows @ x = rhs}``, or None."""
    return _phase_one(rows, rhs)[0]


def lp_feasible(constraints, dim: int) -> Optional[QVector]:
    """Exact rational point satisfying every constraint, or None iff the
    system is infeasible.

    Variables are free; internally each is split into a nonnegative pair and
    LE rows receive slacks.  A system with strict rows ``C x < d`` beside
    ``A x <= b`` and ``E x = e`` is decided through one more variable ``t``:
    ``{A y <= b t, E y = e t, C y <= d t - 1, t >= 1}`` is feasible exactly
    when the original system is (scale a solution ``x`` by a large enough
    ``t``), and ``x = y / t``.  The returned point is substituted back into
    every constraint before it is returned.
    """
    constraints = list(constraints)
    if dim < 1:
        raise MalformedInputError("ambient dimension must be positive")
    for c in constraints:
        if c.normal.dim != dim:
            raise MalformedInputError(
                f"constraint dimension {c.normal.dim} does not match {dim}"
            )
    if any(c.relation is Relation.LT for c in constraints):
        lifted = [
            LinearConstraint(
                QVector(c.normal.entries + (-c.rhs,)),
                Relation.LE if c.relation is Relation.LT else c.relation,
                -_ONE if c.relation is Relation.LT else _ZERO,
            )
            for c in constraints
        ]
        t_at_least_one = QVector([_ZERO] * dim + [-_ONE])
        lifted.append(LinearConstraint(t_at_least_one, Relation.LE, -_ONE))
        solution = _free_solution(lifted, dim + 1)
        if solution is not None:
            solution = [v / solution[dim] for v in solution[:dim]]
    else:
        solution = _free_solution(constraints, dim)
    if solution is None:
        return None
    point = QVector(solution)
    for c in constraints:
        if not c.holds_at(point):
            raise AssertionError("simplex produced a point violating a constraint")
    return point


def _free_solution(constraints, dim: int) -> Optional[list]:
    """Free variables satisfying EQ and LE constraints, through the phase-one
    simplex in standard form, or None."""
    slack_count = sum(1 for c in constraints if c.relation is not Relation.EQ)
    width = 2 * dim + slack_count
    rows = []
    rhs = []
    slack_at = 2 * dim
    for c in constraints:
        row = [_ZERO] * width
        for j, coef in enumerate(c.normal):
            row[j] = coef
            row[dim + j] = -coef
        if c.relation is not Relation.EQ:
            row[slack_at] = _ONE
            slack_at += 1
        rows.append(row)
        rhs.append(c.rhs)
    solution = standard_form_feasible(rows, rhs)
    if solution is None:
        return None
    return [solution[j] - solution[dim + j] for j in range(dim)]


def strict_separation(points_p, points_q):
    """Hyperplane strictly separating two finite point sets.

    Returns ``(normal, offset)`` with ``normal . p < offset`` for every p in
    the first set and ``normal . q > offset`` for every q in the second, or
    None exactly when the two convex hulls intersect.  Found by the
    margin-one feasibility system over the hyperplane coefficients, which is
    complete here because both hulls are compact.
    """
    points_p = list(points_p)
    points_q = list(points_q)
    if not points_p or not points_q:
        raise MalformedInputError("separation needs two nonempty point sets")
    d = points_p[0].dim
    for p in points_p + points_q:
        if p.dim != d:
            raise MalformedInputError("mixed dimensions in separation input")
    constraints = []
    for p in points_p:
        constraints.append(
            LinearConstraint(QVector(list(p.entries) + [-1]), Relation.LE, Fraction(-1))
        )
    for q in points_q:
        constraints.append(
            LinearConstraint(
                QVector([-e for e in q.entries] + [1]), Relation.LE, Fraction(-1)
            )
        )
    solution = lp_feasible(constraints, d + 1)
    if solution is None:
        return None
    normal = QVector(solution.entries[:d])
    offset = solution[d]
    for p in points_p:
        if not normal.dot(p) < offset:
            raise AssertionError("separation output fails a strict inequality")
    for q in points_q:
        if not normal.dot(q) > offset:
            raise AssertionError("separation output fails a strict inequality")
    return normal, offset


def positive_functional(normals, offsets, above: QVector, below: QVector) -> QVector:
    """Vector with strictly positive inner product against every normal.

    Requires the two-sided hypothesis ``below . n_i < offset_i < above . n_i``
    for every i (checked exactly; violations name the offending index).  The
    constructive choice is the difference of the two witness points, whose
    positivity is verified exactly before returning.
    """
    normals = list(normals)
    offsets = [as_rational(o) for o in offsets]
    if len(normals) != len(offsets):
        raise MalformedInputError("normals and offsets differ in length")
    if not normals:
        raise MalformedInputError("need at least one normal")
    for index, (nv, off) in enumerate(zip(normals, offsets), start=1):
        lo = below.dot(nv)
        hi = above.dot(nv)
        if not lo < off < hi:
            raise PreconditionError(
                f"two-sided bound fails at index {index}: "
                f"{format_rational(lo)} < {format_rational(off)} < "
                f"{format_rational(hi)} is false"
            )
    result = above - below
    for nv in normals:
        if not result.dot(nv) > 0:
            raise AssertionError("difference vector lost positivity")
    return result

"""Exact rational linear algebra and linear-programming feasibility.

Every geometric decision in this package reduces to the primitives kept
here: Gaussian elimination (ranks, linear solves), a phase-one primal
simplex for feasibility of equality systems over nonnegative variables
(Dantzig pivoting with a permanent Bland anti-cycling fallback), and exact
substitution checks.  There is no floating point on any decision path.

Every LP answers both ways.  A feasible system returns its point; an
infeasible one returns an integer Farkas vector ``y`` with ``y . column <=
0`` for every column and ``y . rhs > 0`` (Farkas 1902), a positive multiple
of the dual read from the final basis (Chvatal 1983), checked by
substitution.  On the system asking whether two pooled hulls meet, ``y``
holds a strictly separating direction; ``farkas_separator`` rounds it, on
the blocks' integer tables, to a small integer normal with the simplest
rational offset inside the gap, and checks it exactly.

The elimination and the simplex pivot on integers over one common
denominator (Edmonds 1967, Bareiss 1968): the input is scaled to integers
once, before the simplex, every update is an exact integer division, and
``fractions.Fraction`` appears only in the values read in and returned.
The pivots are the ones rational arithmetic would choose, so every result
is the same rational.  The simplex keeps a condensed tableau, only the
nonbasic columns.  Hull-weight systems are built in integers from the
generators' integer tables.  There is one elimination, forward only
(``_echelon``), and one solve on top of it (``_integer_solve``: forward
elimination, then fraction-free back substitution), which returns integer
rows over one positive denominator; every linear solve, the Farkas
back-solve included, goes through it.  Dot products are integer too: a
vector keeps its numerators over the lcm of its denominators, and a
product of two such forms makes one Fraction.

Rationals serialize as decimal integer strings or ``"p/q"`` strings with
positive denominator; that is the only numeric wire format used anywhere
in the package.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MalformedInputError(ValueError):
    """Input has the wrong shape or kind for an operation."""


class PreconditionError(ValueError):
    """A mathematical hypothesis required by an operation does not hold."""


# Largest count a budget check forms in full; every budget is far below it.
_COUNT_LIMIT = 10**18


def check_budget(counts, budget: int, subject: str, things: str) -> None:
    """Refuse work above ``budget`` items before any of it starts.  ``counts``
    are nondecreasing partial counts that end in the count; none is read past
    ``_COUNT_LIMIT``, and such a count shows as "more than ``budget``"."""
    for count in counts:
        if count > _COUNT_LIMIT:
            count = f"more than {budget}"
            break
    if isinstance(count, str) or count > budget:
        raise MalformedInputError(f"{subject} has {count} {things}, above the budget of {budget}")


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise MalformedInputError(f"expected an exact rational, got {value!r}")


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _over_digit_limit(what: str) -> MalformedInputError:
    limit = sys.get_int_max_str_digits()
    return MalformedInputError(f"{what} exceeds the {limit}-digit integer string limit")


def format_rational(value: Fraction, what: str = "result") -> str:
    """Wire format: ``"3"`` for integers, ``"p/q"`` (q > 0, reduced) otherwise.
    Refused with MalformedInputError naming ``what`` above
    ``sys.get_int_max_str_digits()``."""
    value = as_rational(value)
    return _format_lowest(value.numerator, value.denominator, what)


def _format_lowest(numerator: int, denominator: int, what: str = "result") -> str:
    """``format_rational`` of ``numerator / denominator``, given in lowest
    terms with ``denominator > 0``."""
    try:
        if denominator == 1:
            return str(numerator)
        return f"{numerator}/{denominator}"
    except ValueError as exc:
        raise _over_digit_limit(what) from exc


def parse_rational(text: str) -> Fraction:
    """Parse the wire format in ASCII digits.  Decimal points and negative
    denominators are rejected so no consumer can silently lose precision;
    a literal above the digit limit is refused without being echoed.  The
    two matched parts are read by ``int`` once each."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise MalformedInputError(f"bad rational literal {text!r}")
    numerator, denominator = match.groups(default="1")
    try:
        return Fraction(int(numerator), int(denominator))
    except ValueError as exc:
        raise _over_digit_limit("rational literal") from exc


class QVector:
    """Immutable vector of exact rationals.

    Besides ``entries``, a vector keeps its integer form once ``dot`` has
    asked for it: the numerators scaled by the lcm of the denominators,
    and that lcm.  The form is derived from ``entries`` alone, so equality,
    hashing and ``repr`` ignore it.
    """

    __slots__ = ("entries", "_integer")

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
        """Exact inner product, summed on integers: with ``a / da`` and
        ``b / db`` the two integer forms, it is ``(a . b) / (da * db)``, so
        one Fraction is made per product."""
        self._check_dim(other)
        a, da = self._integer_form()
        b, db = other._integer_form()
        return Fraction(sum(map(operator.mul, a, b)), da * db)

    def _integer_form(self) -> tuple:
        """``(numerators, scale)`` with ``entries == numerators / scale``,
        ``scale`` the lcm of the denominators; computed once per vector."""
        try:
            return self._integer
        except AttributeError:
            (numerators,), scale = _integer_rows([self.entries])
            object.__setattr__(self, "_integer", (numerators, scale))
            return numerators, scale

    def _check_dim(self, other: "QVector") -> None:
        if not isinstance(other, QVector) or other.dim != self.dim:
            raise MalformedInputError("vector dimensions do not match")

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(format_rational(e) for e in self.entries)


def _integer_rows(rows) -> tuple:
    """The rows times ``scale``, the lcm of all their denominators, as lists
    of ints; returns ``(table, scale)``.  ``rows`` is any iterable of
    QVectors or rational sequences, read once; unequal lengths are refused.

    One scale for the whole system keeps every ratio between entries, in a
    row and across rows, as it was.
    """
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise MalformedInputError("rows have unequal lengths")
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    table = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    return table, scale


def _echelon(table) -> tuple:
    """Fraction-free forward elimination of the integer rows ``table``, in
    place; returns ``(pivots, denominator)``.

    ``pivots`` are the pivot column indices: row r of the result is zero
    left of ``pivots[r]``, and the rows after the last pivot row are zero.
    Every step is the integer update ``(p*T[i] - T[i][c]*T[r]) // D`` of the
    rows below the pivot, with ``D`` the previous pivot, so every entry is a
    minor of the input and every division is exact (Bareiss 1968, by
    Sylvester's identity); ``denominator`` is the last pivot.
    Deterministic: pivots on the first nonzero entry scanning top to bottom,
    left to right.
    """
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
        for i in range(row + 1, num_rows):
            f = table[i][col]
            table[i] = [(pivot * a - f * b) // denominator for a, b in zip(table[i], lead)]
        denominator = pivot
        pivots.append(col)
        row += 1
    return pivots, denominator


def _integer_solve(table, width: int) -> Optional[tuple]:
    """Solve the integer system ``[M | b_1 ... b_t]``, given as at least one
    row with ``M`` the first ``width`` columns; the rows are changed in place.

    Returns None when a pivot lands in a right-hand-side column: that column
    is inconsistent.  Otherwise returns ``(particulars, kernel, D)``, integer
    rows over one denominator ``D > 0``: one particular solution per column,
    its free variables at zero, and one kernel vector per free column ``f``,
    in order, with ``D`` at ``f`` and zero at the other free columns.

    ``_echelon`` eliminates forward; then fraction-free back substitution
    solves each vector ``z`` from its fixed entries (``D`` at ``f``, or
    ``-D`` at the right-hand side's column) so that every echelon row reads
    ``row . z = 0``, pivot rows from the bottom up.  Those are ``D`` times
    the vectors that reduced row echelon form would give, whose numerators
    over ``D`` are integers (Cramer's rule), so every division is exact.
    """
    pivots, denominator = _echelon(table)
    if pivots and pivots[-1] >= width:
        return None
    denominator = abs(denominator)

    def back(column, value):
        z = [0] * len(table[0])
        z[column] = value
        for r in reversed(range(len(pivots))):
            row = table[r]
            z[pivots[r]] = -sum(map(operator.mul, row, z)) // row[pivots[r]]
        return z[:width]

    pivoted = set(pivots)
    kernel = [back(f, denominator) for f in range(width) if f not in pivoted]
    particulars = [back(j, -denominator) for j in range(width, len(table[0]))]
    return particulars, kernel, denominator


def rank(rows) -> int:
    """Exact rank of the rows via fraction-free forward elimination."""
    return len(_echelon(_integer_rows(rows)[0])[0])


def independent_subsets(rows, size: int):
    """Yield ``(subset, independent)`` for every ``size``-subset of row
    indices, in ``itertools.combinations`` order; ``independent`` says
    whether those rows are linearly independent.

    The subsets are decided on the dual (Whitney 1935).  One
    ``_integer_solve`` of the transposed rows gives a basis ``g_1 .. g_k`` of
    the dependencies ``z`` (``sum z_i row_i = 0``), with ``k`` the row count
    minus the rank; ``G`` stacks them, so row ``i`` owns the column
    ``G[:, i]`` of length ``k``.  A subset ``S`` is independent exactly when
    the columns of its complement have rank ``k``.  Proof: the ``g_j`` are a
    basis, so every dependency is ``z = y^T G`` for a unique ``y``; ``z``
    lives on ``S`` when ``y . G[:, i] = 0`` for every ``i`` outside ``S``;
    and a nonzero such ``y`` exists exactly when those columns span less
    than ``Q^k``.  So ``k = 0`` makes every subset independent, and a
    complement shorter than ``k`` makes every subset dependent.

    ``G`` comes in integers and the complements are walked
    depth-first in ``itertools.combinations`` order.  A node hands its
    child every later column already reduced against the prefix, so each
    (prefix, later column) pair costs one fraction-free update
    ``(p*col - col[c]*lead) // q``: ``lead`` is the prefix's last nonzero
    reduced column, ``c`` its pivot entry, ``p`` its pivot and ``q`` the
    pivot before it (Bareiss 1968; every entry stays a minor of ``G``, so
    each division is exact).  A column that reduces to zero adds no rank.
    A prefix of rank ``k`` makes all its extensions independent, and one
    that cannot reach rank ``k`` with the picks left makes them all
    dependent, each at once.  Complementing reverses ``combinations``
    order, so the verdicts are yielded reversed.  The work grows with ``k``
    and with the complement size, so the walk suits sets with few more rows
    than their rank, such as the counterexample's 2n+m points in dimension
    n+m; many rows of small rank make it slow.
    """
    table, _ = _integer_rows(rows)
    count = len(table)
    if not size:
        return iter([((), True)])
    subsets = itertools.combinations(range(count), size)
    if size > count or not table[0]:
        # No subsets, or rows of width zero: all zero, so all dependent.
        return zip(subsets, itertools.repeat(False))
    _, basis, _ = _integer_solve(list(zip(*table)), count)
    k = len(basis)
    if not k or count - size < k:
        return zip(subsets, itertools.repeat(not k))
    verdicts = []

    def settle(independent, pending, picks):
        verdicts.extend(itertools.repeat(independent, math.comb(len(pending), picks)))

    def walk(pending, picks, found, q):
        for position in range(len(pending) - picks + 1):
            column = pending[position]
            later = pending[position + 1 :]
            col = next((c for c, a in enumerate(column) if a), None)
            if col is None:
                if found + picks - 1 < k:
                    settle(False, later, picks - 1)
                else:
                    walk(later, picks - 1, found, q)
            elif found + 1 == k:
                settle(True, later, picks - 1)
            else:
                p = column[col]
                reduced = [
                    [(p * a - other[col] * b) // q for a, b in zip(other, column)]
                    for other in later
                ]
                walk(reduced, picks - 1, found + 1, p)

    walk([[g[i] for g in basis] for i in range(count)], count - size, 0, 1)
    return zip(subsets, reversed(verdicts))


class LinearSolution(NamedTuple):
    particulars: tuple  # one QVector per right-hand side, in order
    kernel_basis: tuple


def solve_linear(rows, rhs_columns=()) -> Optional[LinearSolution]:
    """Solve ``rows @ x = b`` exactly for every ``b`` in ``rhs_columns``.

    The rows and the columns are QVectors or rational sequences, each
    iterable read once.  One elimination of ``[rows | b_1 ... b_t]`` serves
    every column.  Returns one particular solution per column, in order,
    with the free variables pinned to zero, together with a basis of the
    homogeneous solutions; with no columns, the kernel alone.  Returns None
    as soon as a pivot lands in a right-hand-side column: that column is
    inconsistent, and its row operations mix the later columns.
    """
    rows = list(rows)
    if not rows:
        raise MalformedInputError("a linear system needs at least one row")
    rhs_columns = list(rhs_columns)
    if any(len(b) != len(rows) for b in rhs_columns):
        raise MalformedInputError("right-hand side length does not match row count")
    table, _ = _integer_rows(
        list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(rows)
    )
    solved = _integer_solve(table, len(rows[0]))
    if solved is None:
        return None
    particulars, kernel, denominator = solved

    def rational(vectors):
        return tuple(QVector(Fraction(v, denominator) for v in z) for z in vectors)

    return LinearSolution(rational(particulars), rational(kernel))


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


def _phase_one(rows: Sequence[Sequence], rhs: Sequence):
    """Phase-one simplex for ``{x >= 0 : rows @ x = rhs}``.

    The entries are ints, and anything else is refused with
    MalformedInputError; a rational system is scaled to integers first
    (``_integer_rows``).  Returns ``(solution, None)`` with a list of
    Fractions when the system is feasible, and ``(None, farkas)`` when it is
    not: ``farkas`` is a list ``y`` of ints, one per row, with ``y . column
    <= 0`` for every column of ``rows`` and ``y . rhs > 0`` (Farkas 1902).
    ``y`` is a positive multiple of the optimal dual read from the final
    basis (Chvatal 1983), whose ``y . rhs`` is the optimum of the artificial
    objective.

    Pivoting starts with Dantzig's rule and switches permanently to Bland's
    rule after a run of degenerate pivots, so degenerate systems cannot
    cycle.  Both rules, and the ratio test's ties, break on the variable
    index.  Artificial columns are never stored: an artificial variable that
    leaves the basis is dropped for good, which is sound because any feasible
    point of the system is expressible in original columns alone.

    The tableau is integers over one common denominator ``D`` (Edmonds
    1967): a pivot on ``p`` maps every other row to ``(p*T[i] - T[i][e]*T[r])
    // D``, exact by Sylvester's identity, and sets ``D = p``, so every row
    reads ``T / D``.  A system scaled from rationals by ``L`` has the same
    solutions, and each of its rows and its cost row are positive multiples
    of the rational ones, so the pivot rules choose exactly the pivots
    rational arithmetic would.  Fractions are made only for the solution.

    The tableau is condensed (Tucker's form): only nonbasic original columns
    are stored, ``columns[s]`` naming the variable in slot ``s``, because a
    basic column is ``D`` in its row and 0 elsewhere.  The entering
    variable's slot goes to the leaving variable: an original one takes the
    entries the full update would give its unit column, ``-T[i][e]`` in
    every other row, the old ``D`` in the pivot row and ``-c_e`` in the cost
    row; a leaving artificial is dropped with the slot.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [_ZERO] * n, None

    original = [list(row) + [b] for row, b in zip(rows, rhs)]
    # Copies: the pivots below edit rows in place, and ``_farkas`` reads the
    # original rows.
    tableau = [[-v for v in vals] if vals[-1] < 0 else vals[:] for vals in original]
    # Basic variable per row; artificial for row i is indexed n + i so that
    # Bland tie-breaking prefers original variables.
    basis = [n + i for i in range(m)]
    columns = list(range(n))

    # Reduced costs for minimizing the artificial sum under the all-artificial
    # basis: column j prices to the negated column sum, the objective cell to
    # the negated right-hand-side sum.
    cost = [-sum(column) for column in zip(*tableau)]
    # A column sums to an int only when all its entries are ints: a Fraction
    # would be floored by the exact divisions below, a silently wrong answer.
    if not all(type(c) is int for c in cost):
        raise MalformedInputError("the phase-one simplex takes integer entries only")
    denominator = 1

    bland = False
    stall = 0
    stall_limit = 3 * (m + n) + 10
    while True:
        enter = -1
        if bland:
            for s, var in enumerate(columns):
                if cost[s] < 0 and (enter < 0 or var < columns[enter]):
                    enter = s
        else:
            best = 0
            for s, var in enumerate(columns):
                cs = cost[s]
                if cs < best or (cs == best and enter >= 0 and var < columns[enter]):
                    best = cs
                    enter = s
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
        leaving = basis[leave]
        leaving_original = leaving < n
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                row = [
                    (pivot * a - f * b) // denominator for a, b in zip(tableau[i], lead)
                ]
                if leaving_original:
                    row[enter] = -f
                else:
                    del row[enter]
                tableau[i] = row
        f = cost[enter]
        cost = [(pivot * a - f * b) // denominator for a, b in zip(cost, lead)]
        basis[leave] = columns[enter]
        if leaving_original:
            cost[enter] = -f
            lead[enter] = denominator
            columns[enter] = leaving
        else:
            del cost[enter], lead[enter], columns[enter]
        denominator = pivot

    if cost[-1]:
        return None, _farkas(original, basis, n)
    solution = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i][-1], denominator)
    return solution, None


def _farkas(original, basis, n: int) -> list:
    """Integer Farkas vector of an infeasible system from its final basis.

    ``original`` is the system ``[rows | rhs]`` as integers, before any row
    was negated.  The vector is the dual ``y`` of the final basis, solved
    from ``B^T y = c_B``: a basic original column costs 0, and a row still
    held by its artificial costs 1 on the unit column of that row.  The
    simplex negated the rows with ``rhs < 0``; the equations here are
    written in the unnegated rows, which flips those rows back: a column
    equation is the same either way, and the artificial's ``y_i = 1`` in a
    negated row reads ``y_i = -1``.

    So only the rows held by an original column are unknown.  With the fixed
    ``y_i`` moved to the right-hand side, their equations are one square
    integer system, nonsingular because ``B`` is, and ``_integer_solve``
    solves it over ``D > 0``; with no unknown rows, ``D = 1``.  The result
    is ``D y``, checked by exact integer substitution and returned as ints.
    """
    fixed = [
        (i, -1 if original[i][-1] < 0 else 1) for i, var in enumerate(basis) if var >= n
    ]
    unknown = [i for i, var in enumerate(basis) if var < n]
    system = [
        [original[i][var] for i in unknown]
        + [-sum(original[i][var] * s for i, s in fixed)]
        for var in basis
        if var < n
    ]
    solved, denominator = [], 1
    if system:
        (solved,), _, denominator = _integer_solve(system, len(unknown))
    y = [0] * len(original)
    for i, s in fixed:
        y[i] = s * denominator
    for i, value in zip(unknown, solved):
        y[i] = value
    *columns, value = [sum(map(operator.mul, y, column)) for column in zip(*original)]
    if any(c > 0 for c in columns) or value <= 0:
        raise AssertionError("Farkas vector fails the substitution check")
    return y


def standard_form_feasible(rows, rhs):
    """Exact feasible point of ``{x >= 0 : rows @ x = rhs}``, or None; the
    rows and the right-hand side are ints, as for ``_phase_one``."""
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
    simplex in standard form, or None.  The system ``[rows | rhs]`` is
    scaled to integers once."""
    slack_count = sum(1 for c in constraints if c.relation is not Relation.EQ)
    width = 2 * dim + slack_count
    system = []
    slack_at = 2 * dim
    for c in constraints:
        row = [_ZERO] * width + [c.rhs]
        for j, coef in enumerate(c.normal):
            row[j] = coef
            row[dim + j] = -coef
        if c.relation is not Relation.EQ:
            row[slack_at] = _ONE
            slack_at += 1
        system.append(row)
    table, _ = _integer_rows(system)
    solution = standard_form_feasible([row[:-1] for row in table], [row[-1] for row in table])
    if solution is None:
        return None
    return [solution[j] - solution[dim + j] for j in range(dim)]


def _hull_system(blocks, groups, equations=()) -> tuple:
    """``(rows, rhs)`` of the hull-weight system, in integers; see
    ``hull_weights``.

    One weight column per generator, in block order; ``groups[i]`` is the
    group of block i.  Coordinate rows come first: group 0's combination
    equals each other group's combination in turn.  One row per group then
    sums its weights to one.  Last, each ``(normal, value)`` of
    ``equations`` puts group 0's combination on that hyperplane:
    ``normal . g`` under group 0's generators ``g``.

    The rows are the rational system times ``L``, the lcm of every
    denominator in it, which is the table ``_integer_rows`` makes of it,
    entry for entry.  The denominators are read off the integer tables: a
    block's coordinates have the lcm ``scale``, and an equation's entries
    ``e_j / D`` on a block, with ``D`` the normal's scale times the block's,
    have in lowest terms the lcm ``D / gcd(D, e_1, e_2, ...)``.
    """
    groups = list(groups)
    count = max(groups) + 1
    # Coordinates appear only when two or more groups are compared.
    scales = [scale for _, scale in blocks] if count > 1 else []
    hyperplanes = []  # per equation: its value and, per block, (dots, D) or None
    for normal, value in equations:
        numerators, normal_scale = normal._integer_form()
        parts = []
        for (table, scale), group in zip(blocks, groups):
            part = None
            if group == 0:
                dots = [sum(map(operator.mul, numerators, g)) for g in table]
                common = math.gcd(normal_scale * scale, *dots)
                part = ([e // common for e in dots], normal_scale * scale // common)
                scales.append(part[1])
            parts.append(part)
        scales.append(value.denominator)
        hyperplanes.append((value, parts))
    lcm = math.lcm(*scales)

    def row(parts):
        # One part per block; None stands for that block's zeros.
        cells = []
        for part, (table, _) in zip(parts, blocks):
            cells.extend([0] * len(table) if part is None else part)
        return cells

    rows = []
    rhs = []
    if count > 1:
        # Per block, its coordinate rows times L: group 0's as they are, the
        # other groups' negated.
        coordinates = []
        for (table, scale), group in zip(blocks, groups):
            factor = lcm // scale if group == 0 else -(lcm // scale)
            coordinates.append([[v * factor for v in column] for column in zip(*table)])
        for other in range(1, count):
            for c in range(len(coordinates[0])):
                rows.append(
                    row(
                        [
                            part[c] if group in (0, other) else None
                            for part, group in zip(coordinates, groups)
                        ]
                    )
                )
                rhs.append(0)
    for index in range(count):
        rows.append(
            row([[lcm] * len(table) if group == index else None
                 for (table, _), group in zip(blocks, groups)])
        )
        rhs.append(lcm)
    for value, parts in hyperplanes:
        rows.append(
            row([None if part is None else [e * (lcm // part[1]) for e in part[0]]
                 for part in parts])
        )
        rhs.append(value.numerator * (lcm // value.denominator))
    return rows, rhs


def _per_block(solution, blocks) -> list:
    """A hull system's solution split into one weight list per block."""
    weights = []
    at = 0
    for table, _ in blocks:
        weights.append(solution[at : at + len(table)])
        at += len(table)
    return weights


def hull_weights(blocks, groups, equations=()) -> Optional[list]:
    """Convex weights, one list per block, under which the pooled group
    hulls meet (``_hull_system``), or None: the one-way answer.

    ``blocks`` are the generators' integer tables ``(table, scale)`` from
    ``_integer_rows``, in column order, and ``groups[i]`` is the group, 0,
    1, ..., of block i.  A point is asked about as a one-generator group:
    polytope membership and the join certificate's origin audit compare it
    with group 0, and intersections with polytopes compare the polytopes.
    The partition scan asks ``hull_certificate``, which also answers "no".
    """
    solution = standard_form_feasible(*_hull_system(blocks, groups, equations))
    if solution is None:
        return None
    return _per_block(solution, blocks)


def hull_certificate(blocks, groups) -> tuple:
    """The hull-weight system without equations, answered both ways by one
    phase-one solve: ``(weights, None)`` with one weight list per block when
    the pooled group hulls meet, ``(None, farkas)`` when they do not.
    ``blocks`` are integer tables, as for ``hull_weights``.

    With two groups the Farkas vector is ``(u, alpha, beta)``: ``u`` over
    the coordinate rows, then one entry per group row.  Every generator
    ``g`` of group 0 has ``u . g <= -alpha``, every one of group 1 has
    ``u . g >= beta``, and ``alpha + beta > 0``, so ``u`` separates the two
    groups strictly; ``farkas_separator`` rounds it to a small separator.
    """
    solution, farkas = _phase_one(*_hull_system(blocks, groups))
    if solution is None:
        return None, farkas
    return _per_block(solution, blocks), None


def _simplest_between(low: Fraction, high: Fraction) -> Fraction:
    """The simplest rational strictly between ``low < high``: least
    denominator, then least absolute numerator.  Found by descending the
    Stern-Brocot tree, one continued-fraction term per step of a loop."""
    if low < 0 < high:
        return _ZERO
    if high <= 0:
        return -_simplest_between(-high, -low)
    # The answer is (p*x + p0) / (q*x + q0), x the simplest rational between
    # 0 <= a/b < c/d (d = 0 is infinity).  Both ends in [whole, whole + 1]
    # make x = whole + 1/x', x' between the fractional parts' reciprocals.
    a, b, c, d = low.numerator, low.denominator, high.numerator, high.denominator
    p, q, p0, q0 = 1, 0, 0, 1
    whole = a // b
    while (whole + 1) * d >= c:
        p, q, p0, q0 = whole * p + p0, whole * q + q0, p, q
        a, b, c, d = d, c - whole * d, b, a - whole * b
        whole = a // b
    return Fraction((whole + 1) * p + p0, (whole + 1) * q + q0)


def farkas_separator(farkas, first, second) -> tuple:
    """Small strict separator from a two-group ``hull_certificate`` Farkas
    vector whose group 0 is ``first`` and group 1 is ``second``, two lists
    of integer tables ``(table, scale)``.

    Returns ``(normal, offset)`` with ``normal . p < offset`` for every p in
    ``first`` and ``normal . q > offset`` for every q in ``second``.  The
    direction ``u`` of the Farkas vector is scaled so that its largest entry
    has absolute value ``2^t`` and rounded to integers, half to even, for
    t = 1, 2, ... until exact dot products show a strict gap; strict
    separation is an open condition that ``u`` itself meets, so some t
    succeeds.  The offset is the simplest rational inside the gap.

    All of it runs on integers: ``e * 2^t / top`` is a quotient of integers
    rounded by ``divmod``, and every table is rescaled to the lcm of all the
    scales, so an attempt costs one integer dot product per point.  The
    gap's two ends are the only Fractions made.
    """
    scale = math.lcm(*(s for _, s in first + second))
    below, above = ([[v * (scale // s) for v in row] for table, s in blocks for row in table]
                    for blocks in (first, second))
    u = farkas[: len(below[0])]
    top = max(map(abs, u))
    power = 2
    while True:
        normal = []
        for e in u:
            whole, rest = divmod(e * power, top)
            if 2 * rest > top or (2 * rest == top and whole & 1):
                whole += 1
            normal.append(whole)
        low = max(sum(map(operator.mul, normal, p)) for p in below)
        high = min(sum(map(operator.mul, normal, q)) for q in above)
        if low < high:
            offset = _simplest_between(Fraction(low, scale), Fraction(high, scale))
            return QVector(normal), offset
        power *= 2


def strict_separation(points_p, points_q):
    """Hyperplane strictly separating two finite point sets.

    Returns ``(normal, offset)`` with ``normal . p < offset`` for every p in
    the first set and ``normal . q > offset`` for every q in the second, or
    None exactly when the two convex hulls intersect.  Decided by one
    ``hull_certificate`` solve with the first set as group 0; the separator
    is its Farkas vector rounded by ``farkas_separator``, with an integer
    normal, the simplest offset, and every inequality checked exactly.
    """
    points_p = list(points_p)
    points_q = list(points_q)
    if not points_p or not points_q:
        raise MalformedInputError("separation needs two nonempty point sets")
    d = points_p[0].dim
    for p in points_p + points_q:
        if p.dim != d:
            raise MalformedInputError("mixed dimensions in separation input")
    blocks = [_integer_rows(points_p), _integer_rows(points_q)]
    _, farkas = hull_certificate(blocks, [0, 1])
    if farkas is None:
        return None
    return farkas_separator(farkas, blocks[:1], blocks[1:])


def check_two_sided(bounds) -> None:
    """Check ``lo < offset < hi`` for every ``(lo, offset, hi)`` of
    ``bounds``, in order, reading each only after the one before it held;
    raise PreconditionError naming the first failing 1-based index and its
    three values.  ``positive_functional`` and the join certificate's claim
    check both check the two-sided hypothesis here."""
    for index, (lo, off, hi) in enumerate(bounds, start=1):
        if not lo < off < hi:
            raise PreconditionError(
                f"two-sided bound fails at index {index}: "
                f"{format_rational(lo)} < {format_rational(off)} < "
                f"{format_rational(hi)} is false"
            )


def positive_functional(normals, offsets, above: QVector, below: QVector) -> QVector:
    """Vector with strictly positive inner product against every normal.

    Requires the two-sided hypothesis ``below . n_i < offset_i < above . n_i``
    for every i (checked exactly by ``check_two_sided``; violations name the
    offending index).  The constructive choice is the difference of the two
    witness points, whose positivity is verified exactly before returning.
    """
    normals = list(normals)
    offsets = [as_rational(o) for o in offsets]
    if len(normals) != len(offsets):
        raise MalformedInputError("normals and offsets differ in length")
    if not normals:
        raise MalformedInputError("need at least one normal")
    check_two_sided(
        (below.dot(nv), off, above.dot(nv)) for nv, off in zip(normals, offsets)
    )
    result = above - below
    for nv in normals:
        if not result.dot(nv) > 0:
            raise AssertionError("difference vector lost positivity")
    return result

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from transversals.exactla import (
    LinearConstraint,
    MalformedInputError,
    PreconditionError,
    QMatrix,
    QVector,
    Relation,
    _phase_one,
    _reduced_echelon,
    format_rational,
    lp_feasible,
    parse_rational,
    positive_functional,
    rank,
    solve_linear,
    strict_separation,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(QVector)


def spans_same_line(u, v):
    return all(a * v[0] == b * u[0] for a, b in zip(u, v)) or all(
        a * u[1] == b * v[1] for a, b in zip(u, v)
    )


class TestWireFormat:
    def test_round_trip(self):
        for q in (F(3), F(-7, 2), F(0), F(10**40, 3)):
            assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("bad", ["1.5", "3/-4", "3/0", "", "a", "1e3", "+3/0"])
    def test_rejects_lossy_or_malformed(self, bad):
        with pytest.raises(MalformedInputError):
            parse_rational(bad)

    def test_parse_normalizes(self):
        q = parse_rational("6/4")
        assert (q.numerator, q.denominator) == (3, 2)
        assert q.denominator > 0


class TestVectors:
    def test_floats_rejected(self):
        with pytest.raises(MalformedInputError):
            QVector([0.5, 1])

    def test_arithmetic(self):
        v = QVector([1, 2]) + QVector([F(1, 2), -1])
        assert v == QVector([F(3, 2), 1])
        assert v.dot(QVector([2, 2])) == 5
        assert -v == QVector([F(-3, 2), -1])

    def test_dim_mismatch(self):
        with pytest.raises(MalformedInputError):
            QVector([1]).dot(QVector([1, 2]))


class TestSolveLinear:
    def test_identity(self):
        solution = solve_linear(QMatrix.identity(2), QVector([3, 5]))
        assert solution.particular == QVector([3, 5])
        assert solution.kernel_basis == ()

    def test_one_equation_one_free_direction(self):
        solution = solve_linear(QMatrix([[1, 1]]), QVector([2]))
        assert solution.particular == QVector([2, 0])
        assert len(solution.kernel_basis) == 1
        assert spans_same_line(solution.kernel_basis[0], QVector([1, -1]))

    def test_contradictory_rows(self):
        assert solve_linear(QMatrix([[1, 0], [1, 0]]), QVector([0, 1])) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    def test_substitution_property(self, cols, rows, data):
        matrix = QMatrix(
            [data.draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(rows)]
        )
        x0 = data.draw(vectors(cols))
        rhs = QVector(row.dot(x0) for row in matrix.rows)
        solution = solve_linear(matrix, rhs)
        assert solution is not None
        assert QVector(row.dot(solution.particular) for row in matrix.rows) == rhs
        for kvec in solution.kernel_basis:
            assert all(row.dot(kvec) == 0 for row in matrix.rows)
        assert len(solution.kernel_basis) == cols - rank(matrix)


class TestRank:
    def test_examples(self):
        assert rank(QMatrix.identity(3)) == 3
        assert rank(QMatrix([[1, 2], [2, 4]])) == 1
        # four planar points homogenized with a 1-column span the plane
        homogenized = QMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 2, 1]])
        assert rank(homogenized) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_rank_of_transpose(self, rows, cols, data):
        matrix = QMatrix(
            [data.draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(rows)]
        )
        assert rank(matrix) == rank(matrix.transpose())


class TestLpFeasible:
    def test_empty_interval(self):
        constraints = [
            LinearConstraint(QVector([-1]), Relation.LE, 0),
            LinearConstraint(QVector([1]), Relation.LE, -1),
        ]
        assert lp_feasible(constraints, 1) is None

    def test_single_equality(self):
        point = lp_feasible([LinearConstraint(QVector([1]), Relation.EQ, 1)], 1)
        assert point == QVector([1])

    def test_hull_intersection_of_intervals(self):
        # weights (a1, a2, b1, b2): pick the same value from [0,2] and [1,3]
        constraints = [
            LinearConstraint(QVector([0, 2, -1, -3]), Relation.EQ, 0),
            LinearConstraint(QVector([1, 1, 0, 0]), Relation.EQ, 1),
            LinearConstraint(QVector([0, 0, 1, 1]), Relation.EQ, 1),
        ]
        for j in range(4):
            unit = [0] * 4
            unit[j] = -1
            constraints.append(LinearConstraint(QVector(unit), Relation.LE, 0))
        weights = lp_feasible(constraints, 4)
        assert weights is not None
        value = 2 * weights[1]
        assert value == weights[2] + 3 * weights[3]
        assert F(1) <= value <= F(2)

    def test_strict_relation_margin(self):
        point = lp_feasible([LinearConstraint(QVector([1]), Relation.LT, 0)], 1)
        assert point is not None and point[0] < 0

    def test_strict_row_with_fractional_bounds(self):
        # 1/4 <= x < 1/2 is feasible, but not with a unit margin on x < 1/2
        constraints = [
            LinearConstraint(QVector([-1]), Relation.LE, F(-1, 4)),
            LinearConstraint(QVector([1]), Relation.LT, F(1, 2)),
        ]
        point = lp_feasible(constraints, 1)
        assert point is not None and F(1, 4) <= point[0] < F(1, 2)

    def test_strict_rows_stay_infeasible(self):
        constraints = [
            LinearConstraint(QVector([1]), Relation.LT, F(1, 2)),
            LinearConstraint(QVector([-1]), Relation.LT, F(-1, 2)),
        ]
        assert lp_feasible(constraints, 1) is None

    def test_dimension_mismatch(self):
        with pytest.raises(MalformedInputError):
            lp_feasible([LinearConstraint(QVector([1, 0]), Relation.EQ, 0)], 1)

    def test_infeasible_has_positive_phase_one_optimum(self):
        # x = 0 and x = 1 simultaneously, in standard form with x >= 0
        solution, infeasibility = _phase_one([[F(1)], [F(1)]], [F(0), F(1)])
        assert solution is None
        assert infeasibility > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_returned_points_satisfy_everything(self, dim, count, data):
        constraints = []
        for _ in range(count):
            normal = data.draw(vectors(dim))
            relation = data.draw(st.sampled_from(list(Relation)))
            rhs = data.draw(rationals)
            constraints.append(LinearConstraint(normal, relation, rhs))
        point = lp_feasible(constraints, dim)
        if point is not None:
            assert all(c.holds_at(point) for c in constraints)


def random_points(rng, dim, count, spread=8):
    return [
        QVector([rng.randint(-spread, spread) for _ in range(dim)])
        for _ in range(count)
    ]


def hulls_intersect(points_p, points_q):
    """Independent hull-intersection system in weight space."""
    np, nq = len(points_p), len(points_q)
    dim = points_p[0].dim
    width = np + nq
    constraints = []
    for c in range(dim):
        row = [p[c] for p in points_p] + [-q[c] for q in points_q]
        constraints.append(LinearConstraint(QVector(row), Relation.EQ, 0))
    constraints.append(
        LinearConstraint(QVector([1] * np + [0] * nq), Relation.EQ, 1)
    )
    constraints.append(
        LinearConstraint(QVector([0] * np + [1] * nq), Relation.EQ, 1)
    )
    for j in range(width):
        unit = [0] * width
        unit[j] = -1
        constraints.append(LinearConstraint(QVector(unit), Relation.LE, 0))
    return lp_feasible(constraints, width) is not None


class TestStrictSeparation:
    def test_two_points(self):
        normal, offset = strict_separation([QVector([0])], [QVector([1])])
        assert normal.dot(QVector([0])) < offset < normal.dot(QVector([1]))

    def test_point_inside_hull(self):
        assert strict_separation([QVector([0]), QVector([2])], [QVector([1])]) is None

    def test_parallel_segments(self):
        left = [QVector([0, 1]), QVector([0, 3])]
        right = [QVector([1, 0]), QVector([1, 2])]
        normal, offset = strict_separation(left, right)
        assert all(normal.dot(p) < offset for p in left)
        assert all(normal.dot(q) > offset for q in right)

    def test_empty_input(self):
        with pytest.raises(MalformedInputError):
            strict_separation([], [QVector([1])])

    def test_duality_against_hull_intersection(self):
        rng = random.Random(20240817)
        disagreements = 0
        for trial in range(120):
            dim = rng.choice([1, 2, 3])
            points_p = random_points(rng, dim, rng.randint(1, 4))
            points_q = random_points(rng, dim, rng.randint(1, 4))
            separated = strict_separation(points_p, points_q) is not None
            intersecting = hulls_intersect(points_p, points_q)
            if separated == intersecting:
                disagreements += 1
        assert disagreements == 0


class TestPositiveFunctional:
    def test_symmetric_case(self):
        v = positive_functional(
            [QVector([1, 0]), QVector([0, 1])], [0, 0], QVector([1, 1]), QVector([-1, -1])
        )
        assert v == QVector([2, 2])
        assert v.dot(QVector([1, 0])) == 2 and v.dot(QVector([0, 1])) == 2

    def test_one_dimensional(self):
        v = positive_functional([QVector([1])], [5], QVector([6]), QVector([0]))
        assert v == QVector([6])

    def test_oriented_pair(self):
        normals = [QVector([-1, 0]), QVector([-1, -1])]
        offsets = [F(-1, 2), F(-2)]
        v = positive_functional(normals, offsets, QVector([0, 1]), QVector([1, 2]))
        assert v == QVector([-1, -1])
        assert v.dot(normals[0]) == 1 and v.dot(normals[1]) == 2

    def test_violation_names_the_index(self):
        with pytest.raises(PreconditionError, match="index 2"):
            positive_functional(
                [QVector([1]), QVector([-1])], [0, 0], QVector([1]), QVector([-1])
            )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_always_positive_under_hypothesis(self, dim, count, data):
        above = data.draw(vectors(dim))
        below = data.draw(vectors(dim))
        normals = []
        offsets = []
        for _ in range(count):
            normal = data.draw(vectors(dim))
            lo, hi = below.dot(normal), above.dot(normal)
            if not lo < hi:
                normal = -normal
                lo, hi = below.dot(normal), above.dot(normal)
            if not lo < hi:
                return  # above and below agree against this normal; skip draw
            offsets.append(lo + (hi - lo) * F(1, 3))
            normals.append(normal)
        v = positive_functional(normals, offsets, above, below)
        assert all(v.dot(n) > 0 for n in normals)


class TestSimplexTermination:
    def test_degenerate_fuzz(self):
        rng = random.Random(99)
        for trial in range(150):
            m = rng.randint(1, 5)
            n = rng.randint(1, 6)
            rows = [
                [F(rng.choice([-1, 0, 0, 1, 2])) for _ in range(n)] for _ in range(m)
            ]
            if trial % 3 == 0 and m > 1:
                rows[-1] = list(rows[0])  # duplicated constraint
            rhs = [F(rng.choice([0, 0, 0, 1])) for _ in range(m)]
            solution, infeasibility = _phase_one(rows, rhs)
            if solution is None:
                assert infeasibility > 0
            else:
                for row, b in zip(rows, rhs):
                    assert sum(a * x for a, x in zip(row, solution)) == b
                assert all(x >= 0 for x in solution)


# ---------------------------------------------------------------------------
# Rational reference kernels.  These are the Fraction implementations the
# fraction-free kernels replaced; the fraction-free ones must return the same
# values, pivot for pivot.


def reference_reduced_echelon(cells: list) -> list:
    """In-place rational Gauss-Jordan elimination; returns the pivot columns."""
    num_rows = len(cells)
    num_cols = len(cells[0]) if num_rows else 0
    pivots = []
    row = 0
    for col in range(num_cols):
        if row == num_rows:
            break
        pivot_row = next((i for i in range(row, num_rows) if cells[i][col] != 0), None)
        if pivot_row is None:
            continue
        cells[row], cells[pivot_row] = cells[pivot_row], cells[row]
        pv = cells[row][col]
        if pv != 1:
            cells[row] = [v / pv for v in cells[row]]
        lead = cells[row]
        for i in range(num_rows):
            if i != row and cells[i][col] != 0:
                f = cells[i][col]
                cells[i] = [a - f * b for a, b in zip(cells[i], lead)]
        pivots.append(col)
        row += 1
    return pivots


def reference_phase_one(rows, rhs, switched=None):
    """Rational phase-one simplex; ``switched`` (a list) receives whether the
    run switched to Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [F(0)] * n, F(0)

    tableau = []
    for row, b in zip(rows, rhs):
        vals = list(row)
        if b < 0:
            vals = [-v for v in vals]
            b = -b
        vals.append(b)
        tableau.append(vals)
    basis = [n + i for i in range(m)]
    cost = [-sum(tableau[i][j] for i in range(m)) for j in range(n + 1)]

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
            best = F(0)
            for j in range(n):
                cj = cost[j]
                if cj < best:
                    best = cj
                    enter = j
        if enter < 0:
            break
        leave = -1
        best_num = best_den = F(0)
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
                        if bland:
                            better = basis[i] < basis[leave]
                        else:
                            better = basis[i] > basis[leave]
                        if better:
                            leave, best_num, best_den = i, b, a
        if leave < 0:
            raise AssertionError("phase-one simplex reported unbounded")
        if best_num == 0:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0

        lead = tableau[leave]
        pivot = lead[enter]
        if pivot != 1:
            inv = 1 / pivot
            lead = [v * inv for v in lead]
            tableau[leave] = lead
        updates = [(j, v) for j, v in enumerate(lead) if v]
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                if f:
                    row = tableau[i]
                    for j, v in updates:
                        row[j] -= f * v
        f = cost[enter]
        if f:
            for j, v in updates:
                cost[j] -= f * v
        basis[leave] = enter

    if switched is not None:
        switched.append(bland)
    infeasibility = -cost[-1]
    if infeasibility != 0:
        return None, infeasibility
    solution = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
    return solution, F(0)


def random_rational(rng, denominators):
    return F(rng.randint(-9, 9), rng.choice(denominators))


def beale_system(u, beta, scale):
    """Beale's cycling example with its objective held by an artificial row.

    The columns are reordered so that Dantzig's rule, with this kernel's
    tie-breaks, pivots degenerately until the stall counter switches to
    Bland's rule.
    """
    rows = [
        [0, 0, u, -20, F(3, 4), -6, F(1, 2) + u],
        [0, 1, 0, -8, F(1, 4), 9, -1],
        [1, 0, 0, -12, F(1, 2), 3, F(-1, 2)],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    rhs = [beta + u, 0, 0, 1]
    return [[F(v) * scale for v in row] for row in rows], [F(b) * scale for b in rhs]


class TestFractionFreeKernels:
    def test_phase_one_matches_rational_reference(self):
        rng = random.Random(7411)
        seen = {"infeasible": 0, "feasible": 0, "negative_rhs": 0, "bland": 0}
        cases = []
        for trial in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(1, 8)
            denominators = rng.choice([(1,), (1, 2, 3), (8,), (8, 9, 16), (1, 27, 64)])
            rows = [
                [random_rational(rng, denominators) for _ in range(n)] for _ in range(m)
            ]
            if trial % 4 == 0 and m > 1:
                rows[-1] = list(rows[0])  # duplicated constraint
            if trial % 5 == 0:
                rhs = [F(0)] * m  # every pivot degenerate
            else:
                rhs = [random_rational(rng, denominators) for _ in range(m)]
            cases.append((rows, rhs))
        for u in (-1, 3):
            for beta in (1, 2, 5):
                for scale in (F(1), F(1, 8), F(3, 16)):
                    cases.append(beale_system(u, beta, scale))
        for rows, rhs in cases:
            switched = []
            expected = reference_phase_one(rows, rhs, switched)
            assert _phase_one(rows, rhs) == expected
            seen["infeasible" if expected[0] is None else "feasible"] += 1
            seen["negative_rhs"] += any(b < 0 for b in rhs)
            seen["bland"] += switched[0]
        assert min(seen.values()) >= 10, seen

    def test_infeasibility_is_unscaled(self):
        # x = 1/8 and x = 3/8 at once: the optimum is 1/4 in the input's units,
        # not in the units of the integer tableau (8 times larger).
        rows = [[F(1, 8)], [F(1, 8)]]
        rhs = [F(1, 64), F(3, 64)]
        expected = (None, F(1, 32))
        assert _phase_one(rows, rhs) == reference_phase_one(rows, rhs) == expected

    def test_reduced_echelon_matches_rational_reference(self):
        rng = random.Random(2718)
        negative_pivots = deficient = 0
        for trial in range(300):
            num_rows = rng.randint(1, 6)
            num_cols = rng.randint(1, 7)
            denominators = rng.choice([(1,), (1, 2, 3), (8,), (8, 9, 16)])
            cells = [
                [random_rational(rng, denominators) for _ in range(num_cols)]
                for _ in range(num_rows)
            ]
            if trial % 3 == 0 and num_rows > 2:
                # a combination of two other rows
                c = random_rational(rng, denominators)
                cells[-1] = [a + c * b for a, b in zip(cells[0], cells[1])]
            if trial % 7 == 0:
                for row in cells:
                    row[0] = F(0)  # an all-zero column
            reference = [list(row) for row in cells]
            expected_pivots = reference_reduced_echelon(reference)
            pivots, table, denominator = _reduced_echelon(cells)
            assert pivots == expected_pivots
            assert [[F(v, denominator) for v in row] for row in table] == reference
            negative_pivots += denominator < 0
            deficient += len(pivots) < min(num_rows, num_cols)
        assert negative_pivots >= 10 and deficient >= 10

import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from transversals import certificate, convex, exactla
from transversals.cli import main
from transversals.generators import gen_colorful_random
from transversals.exactla import (
    LinearConstraint,
    MalformedInputError,
    PreconditionError,
    QVector,
    Relation,
    _integer_rows,
    _integer_solve,
    _phase_one,
    _simplest_between,
    farkas_separator,
    format_rational,
    independent_subsets,
    lp_feasible,
    parse_rational,
    positive_functional,
    rank,
    solve_linear,
    strict_separation,
)

from test_golden import COUNTEREXAMPLE, JOIN, JOIN_2_2, JOIN_3_1, THEOREM

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def scaled(rows, rhs):
    """A rational system as the integer one ``_phase_one`` takes: every
    entry times ``L``, the lcm of every denominator in it.  Returns
    ``(rows, rhs, L)``."""
    table, scale = _integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    return [row[:-1] for row in table], [row[-1] for row in table], scale


def phase_one_optimum(rows, rhs):
    """``_phase_one`` of the scaled system as ``(solution, optimum)``, 0 for
    a feasible system.  For an infeasible one it is ``y . rhs`` in the
    input's units, ``y`` the integer Farkas vector: the optimum of the
    artificial objective times the positive integer by which ``y`` exceeds
    the dual (``multiple_of_optimum``)."""
    rows, rhs, scale = scaled(rows, rhs)
    solution, farkas = _phase_one(rows, rhs)
    if farkas is None:
        return solution, F(0)
    return None, F(sum(map(operator.mul, farkas, rhs)), scale)


def multiple_of_optimum(found, expected) -> bool:
    """``phase_one_optimum``'s answer against the rational reference's
    ``(solution, optimum)``: the same solution, or the optimum times a
    positive integer."""
    if expected[0] is not None or found[0] is not None:
        return found == expected
    factor = found[1] / expected[1]
    return factor > 0 and factor.denominator == 1


def assert_positive_multiple(y, reference):
    """``y`` is a list of ints equal to ``reference`` times one positive
    integer."""
    assert all(type(v) is int for v in y), y
    factor = next(v / r for v, r in zip(y, reference) if r)
    assert factor > 0 and factor.denominator == 1, (y, reference)
    assert y == [factor * r for r in reference]


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

    @pytest.mark.parametrize(
        "bad", ["1.5", "3/-4", "3/0", "", "a", "1e3", "+3/0", "\u0663", "1/1\u0663", "3\n"]
    )
    def test_rejects_lossy_or_malformed(self, bad):
        with pytest.raises(MalformedInputError):
            parse_rational(bad)

    def test_parse_normalizes(self):
        q = parse_rational("6/4")
        assert (q.numerator, q.denominator) == (3, 2)
        assert q.denominator > 0

    @pytest.mark.parametrize(
        "text", ["6/4", "-6/4", "-12/18", "0", "-0", "0/7", "-0/3", "007/14", "-5", "12/1"]
    )
    def test_parse_equals_fraction_of_the_text(self, text):
        """The two parts are read by ``int`` once; the result is the one
        ``Fraction`` gives for the whole text, unreduced, negative and zero
        literals included."""
        q = parse_rational(text)
        assert q == F(text) and type(q) is F
        assert (q.numerator, q.denominator) == (F(text).numerator, F(text).denominator)


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
        u = QVector([F(1, 3), 2])
        u.dot(u)  # stores the integer form of u
        with pytest.raises(MalformedInputError):
            u.dot(QVector([1, 2, 3]))
        with pytest.raises(MalformedInputError):
            QVector([1, 2, 3]).dot(u)


class TestSolveLinear:
    def test_identity(self):
        solution = solve_linear([[1, 0], [0, 1]], [[3, 5]])
        assert solution.particulars == (QVector([3, 5]),)
        assert solution.kernel_basis == ()

    def test_one_equation_one_free_direction(self):
        solution = solve_linear([[1, 1]], [[2]])
        assert solution.particulars == (QVector([2, 0]),)
        assert len(solution.kernel_basis) == 1
        assert spans_same_line(solution.kernel_basis[0], QVector([1, -1]))

    def test_contradictory_rows(self):
        assert solve_linear([[1, 0], [1, 0]], [[0, 1]]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    def test_substitution_property(self, cols, rows, data):
        matrix = [data.draw(vectors(cols)) for _ in range(rows)]
        x0 = data.draw(vectors(cols))
        rhs = QVector(row.dot(x0) for row in matrix)
        solution = solve_linear(matrix, [rhs])
        assert solution is not None
        (particular,) = solution.particulars
        assert QVector(row.dot(particular) for row in matrix) == rhs
        for kvec in solution.kernel_basis:
            assert all(row.dot(kvec) == 0 for row in matrix)
        assert len(solution.kernel_basis) == cols - rank(matrix)


class TestRank:
    def test_examples(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([]) == 0
        # four planar points homogenized with a 1-column span the plane
        homogenized = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 2, 1]]
        assert rank(homogenized) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_rank_of_transpose(self, rows, cols, data):
        entries = [
            data.draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(rows)
        ]
        assert rank(entries) == rank(zip(*entries))


def random_rows(rng, count, width):
    """Rows of small integers or eighths, with repeated, scaled and summed
    rows mixed in so that many subsets are dependent."""
    rows = []
    for _ in range(count):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and roll < 0.3:
            factor = F(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append([factor * v for v in rng.choice(rows)])
        elif len(rows) > 1 and roll < 0.45:
            a, b = rng.sample(rows, 2)
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append([F(rng.randint(-3, 3), rng.choice((1, 1, 8))) for _ in range(width)])
    return rows


def reference_independent_subsets(rows, size):
    """The subset walk that eliminates each candidate row afresh
    against every reduced row of its prefix, kept as the reference for the
    walk that passes partially reduced rows down."""
    table, _ = _integer_rows(rows)
    count = len(table)

    def walk(start, prefix, reduced):
        if len(prefix) == size:
            yield prefix, True
            return
        remaining = size - len(prefix) - 1
        for index in range(start, count - remaining):
            row = table[index]
            q = 1
            for col, lead in reduced:
                p = lead[col]
                f = row[col]
                row = [(p * a - f * b) // q for a, b in zip(row, lead)]
                q = p
            col = next((c for c, a in enumerate(row) if a), None)
            if col is None:
                for rest in itertools.combinations(range(index + 1, count), remaining):
                    yield prefix + (index,) + rest, False
            else:
                yield from walk(index + 1, prefix + (index,), reduced + [(col, row)])

    return list(walk(0, (), []))


class TestIndependentSubsets:
    """The depth-first walk against one ``rank`` per subset, and against the
    per-candidate reference walk."""

    @staticmethod
    def reference(rows, size):
        return [
            (subset, rank(rows[i] for i in subset) == size)
            for subset in itertools.combinations(range(len(rows)), size)
        ]

    def test_matches_rank_per_subset(self):
        rng = random.Random(20)
        dependent = independent = 0
        for _ in range(300):
            width = rng.randint(1, 6)
            rows = random_rows(rng, rng.randint(1, 8), width)
            size = rng.randint(1, min(len(rows), width + 1))
            walked = list(independent_subsets(rows, size))
            assert walked == self.reference(rows, size)
            dependent += sum(not passed for _, passed in walked)
            independent += sum(passed for _, passed in walked)
        assert dependent > 200 and independent > 200

    def test_matches_reference_walk(self):
        """Seeded sets of 11-15 rows in dimension 11, walked at size 10 and
        at a random size.  Random rows are mixed with repeated, scaled and
        summed ones and with zero rows, then shuffled, so dependences show
        at every depth of the walk."""
        rng = random.Random(21)
        dependent = independent = 0
        for _ in range(12):
            rows = [
                [F(rng.randint(-3, 3), rng.choice((1, 1, 8))) for _ in range(11)]
                for _ in range(rng.randint(10, 12))
            ]
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.3:
                    rows.append(list(rng.choice(rows)))
                elif roll < 0.6:
                    factor = F(rng.choice((-3, -1, 2, 3)), rng.randint(1, 4))
                    rows.append([factor * v for v in rng.choice(rows)])
                elif roll < 0.9:
                    summands = rng.sample(rows, rng.randint(2, 6))
                    rows.append([sum(column) for column in zip(*summands)])
                else:
                    rows.append([F(0)] * 11)
            rng.shuffle(rows)
            for size in (10, rng.randint(1, len(rows) + 1)):
                walked = list(independent_subsets(rows, size))
                assert walked == reference_independent_subsets(rows, size)
                dependent += sum(not passed for _, passed in walked)
                independent += sum(passed for _, passed in walked)
        assert dependent > 2000 and independent > 2000

    def test_deep_dependent_prefix_matches_reference_walk(self):
        """Row 5 is the sum of rows 0-4, so every 10-subset holding rows 0-5
        is dependent at depth 6; row 9 is row 7 scaled, row 12 repeats row 8
        and row 3 of a second set is zero."""
        rng = random.Random(22)
        rows = [
            [F(rng.randint(-9, 9), rng.choice((1, 2, 8))) for _ in range(11)]
            for _ in range(15)
        ]
        rows[5] = [sum(column) for column in zip(*rows[:5])]
        rows[9] = [F(-3, 4) * v for v in rows[7]]
        rows[12] = list(rows[8])
        walked = list(independent_subsets(rows, 10))
        assert walked == reference_independent_subsets(rows, 10)
        assert ((0, 1, 2, 3, 4, 5, 6, 7, 8, 10), False) in walked
        assert ((0, 1, 2, 3, 4, 6, 7, 8, 10, 11), True) in walked
        rows[3] = [F(0)] * 11
        assert list(independent_subsets(rows, 10)) == reference_independent_subsets(rows, 10)

    def test_dependent_prefix_fails_every_extension(self):
        rows = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert list(independent_subsets(rows, 3)) == [
            ((0, 1, 2), False),
            ((0, 1, 3), False),
            ((0, 2, 3), True),
            ((1, 2, 3), True),
        ]

    def test_edge_sizes(self):
        rows = [[1, 2], [3, 4]]
        assert list(independent_subsets(rows, 0)) == [((), True)]
        assert list(independent_subsets(rows, 3)) == []
        assert list(independent_subsets([[0, 0]], 1)) == [((0,), False)]
        for size in (0, 2, 3):
            assert list(independent_subsets(rows, size)) == reference_independent_subsets(
                rows, size
            )
        assert list(independent_subsets([], 0)) == [((), True)]

    def test_rows_without_dependency_are_all_independent(self):
        """Linearly independent rows have no dependency at all, so every
        subset of every size is independent."""
        rng = random.Random(23)
        for count in range(1, 7):
            while True:
                rows = [
                    [F(rng.randint(-5, 5), rng.choice((1, 3))) for _ in range(count + 2)]
                    for _ in range(count)
                ]
                if rank(rows) == count:
                    break
            for size in range(count + 1):
                walked = list(independent_subsets(rows, size))
                assert walked == self.reference(rows, size)
                assert all(passed for _, passed in walked)

    def test_complement_shorter_than_dependency_space(self):
        """Seven rows in the plane have five independent dependencies, so
        every complement of a 3- or 4-subset is too short to span them,
        while the 2-subsets are decided one by one."""
        rows = [[1, 0], [0, 1], [1, 1], [2, 2], [F(1, 2), 3], [0, 0], [-4, 1]]
        for size in (3, 4):
            walked = list(independent_subsets(rows, size))
            assert walked == self.reference(rows, size)
            assert not any(passed for _, passed in walked)
        walked = list(independent_subsets(rows, 2))
        assert walked == self.reference(rows, 2)
        assert ((0, 1), True) in walked and ((2, 3), False) in walked

    def test_size_equal_to_count(self):
        assert list(independent_subsets([[1, 2], [3, 4]], 2)) == [((0, 1), True)]
        assert list(independent_subsets([[1, 2], [2, 4]], 2)) == [((0, 1), False)]
        assert list(independent_subsets([[1, 2, 0]], 1)) == [((0,), True)]
        rng = random.Random(24)
        for _ in range(50):
            rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert list(independent_subsets(rows, len(rows))) == self.reference(
                rows, len(rows)
            )

    def test_zero_rows_and_zero_width_rows(self):
        assert list(independent_subsets([], 1)) == []
        assert list(independent_subsets([], 2)) == []
        for count in (1, 2, 3):
            rows = [[] for _ in range(count)]
            for size in range(count + 2):
                walked = list(independent_subsets(rows, size))
                assert walked == self.reference(rows, size)
                assert all(passed == (size == 0) for _, passed in walked)
        assert list(independent_subsets([[], []], 1)) == [((0,), False), ((1,), False)]

    @pytest.mark.parametrize("ks", [[1, 1, 1, 1], [2, 2, 2], [2, 1, 1]])
    def test_homogenized_points_at_generator_shapes(self, ks):
        """The counterexample's 2n+m homogenized points in dimension n+m,
        walked at size n+m.  One set is generic; the others plant a
        repeated point or three collinear points, which makes exactly the
        subsets holding them dependent."""
        n, m = len(ks), sum(ks)
        d = n + m
        rng = random.Random(25 + d)
        points = [[rng.randint(-50, 50) for _ in range(d)] for _ in range(2 * n + m)]
        repeated = [list(p) for p in points]
        repeated[5] = list(repeated[1])
        collinear = [list(p) for p in points]
        collinear[7] = [2 * b - a for a, b in zip(collinear[2], collinear[4])]
        for planted, degenerate in ((points, None), (repeated, {1, 5}), (collinear, {2, 4, 7})):
            rows = [p + [1] for p in planted]
            walked = list(independent_subsets(rows, d))
            assert walked == self.reference(rows, d)
            for subset, passed in walked:
                assert passed == (degenerate is None or not degenerate <= set(subset))


class TestSolveLinearColumns:
    """One elimination for many right-hand sides against one ``solve_linear``
    per right-hand side, on square and rectangular systems."""

    def test_matches_one_solve_per_column(self):
        rng = random.Random(21)
        inconsistent = singular_consistent = unique = 0
        for _ in range(400):
            count, width = rng.randint(1, 5), rng.randint(1, 5)
            rows = random_rows(rng, count, width)
            columns = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.6:
                    # consistent by construction: rows @ x for a random x
                    x = random_rows(rng, 1, width)[0]
                    columns.append([sum(a * b for a, b in zip(row, x)) for row in rows])
                else:
                    columns.append(random_rows(rng, 1, count)[0])
            solution = solve_linear(rows, columns)
            expected = [solve_linear(rows, [b]) for b in columns]
            if any(s is None for s in expected):
                inconsistent += 1
                assert solution is None
                continue
            assert solution.particulars == tuple(s.particulars[0] for s in expected)
            assert all(s.kernel_basis == solution.kernel_basis for s in expected)
            assert len(solution.kernel_basis) == width - rank(rows)
            for particular, b in zip(solution.particulars, columns):
                assert [QVector(row).dot(particular) for row in rows] == b
            if solution.kernel_basis:
                singular_consistent += 1
            else:
                unique += 1
        assert inconsistent > 50 and singular_consistent > 50 and unique > 50

    def test_kernel_only(self):
        solution = solve_linear([[1, 1, 0], [2, 2, 0]])
        assert solution.particulars == ()
        assert len(solution.kernel_basis) == 2
        for kvec in solution.kernel_basis:
            assert QVector([1, 1, 0]).dot(kvec) == 0
        assert solve_linear([[1, 0], [0, 1]]) == ((), ())

    def test_rows_and_columns_are_read_once(self):
        rows = [[1, 2], [3, 4], [5, 6]]
        columns = [[1, 3, 5], [2, 4, 6]]
        once = solve_linear(iter(rows), (b for b in columns))
        assert once == solve_linear(rows, columns)
        assert once.particulars == (QVector([1, 0]), QVector([0, 1]))

    def test_a_pivot_in_any_column_is_inconsistent(self):
        # the first column is inconsistent, the second one consistent
        assert solve_linear([[1], [1]], [[0, 1], [2, 2]]) is None
        assert solve_linear([[1], [1]], [[2, 2], [0, 1]]) is None

    def test_rejects_bad_shapes(self):
        with pytest.raises(MalformedInputError, match="right-hand side length"):
            solve_linear([[1]], [QVector([1, 2])])
        with pytest.raises(MalformedInputError, match="unequal lengths"):
            solve_linear([[1, 0], [1]])
        with pytest.raises(MalformedInputError, match="unequal lengths"):
            rank([[1, 0], [1]])
        with pytest.raises(MalformedInputError, match="at least one row"):
            solve_linear([])


class TestIntegerKernels:
    def test_no_rational_round_trip(self, monkeypatch):
        """``VPolytope._normal_rows`` and ``independent_subsets`` read the
        integer kernel of ``_integer_solve``: neither calls ``solve_linear``
        for Fractions only to scale them back to integers."""
        rng = random.Random(77)
        cases = [
            [QVector(random_rational(rng, (1, 2, 3)) for _ in range(4)) for _ in range(count)]
            for count in (1, 2, 3, 6)
        ]
        normals = [convex.VPolytope(points)._normal_rows for points in cases]
        subsets = [list(independent_subsets(points, 3)) for points in cases]
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_linear(*args)

        monkeypatch.setattr(exactla, "solve_linear", counting)
        monkeypatch.setattr(convex, "solve_linear", counting)
        assert [convex.VPolytope(points)._normal_rows for points in cases] == normals
        assert [list(independent_subsets(points, 3)) for points in cases] == subsets
        assert calls == []
        assert [len(n) for n in normals] == [4, 3, 2, 0]


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
        solution, infeasibility = phase_one_optimum([[F(1)], [F(1)]], [F(0), F(1)])
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
            solution, infeasibility = phase_one_optimum(rows, rhs)
            if solution is None:
                assert infeasibility > 0
            else:
                for row, b in zip(rows, rhs):
                    assert sum(a * x for a, x in zip(row, solution)) == b
                assert all(x >= 0 for x in solution)


# ---------------------------------------------------------------------------
# Rational reference kernels.  These are the Fraction implementations the
# fraction-free kernels replaced; the fraction-free ones must return the same
# values, pivot for pivot.  The fraction-free Gauss-Jordan elimination that
# the forward elimination with back substitution replaced is kept beside
# them.


def reference_fraction_free_echelon(rows) -> tuple:
    """Fraction-free Gauss-Jordan elimination; returns ``(pivots, table,
    denominator)`` with the reduced row echelon form ``table / denominator``
    cell by cell, ``denominator`` the last pivot, whatever its sign.  Every
    row is updated at every pivot by ``(p*T[i] - T[i][c]*T[r]) // D``
    (Bareiss 1968)."""
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


def solution_from_echelon(pivots, table, width, unit):
    """``(particulars, kernel)`` read from a reduced row echelon form
    ``table`` of ``[M | b_1 ... b_t]`` with ``M`` of ``width`` columns, as
    ``solve_linear`` did before it read them from ``_integer_solve``; None
    when a pivot lies in a right-hand-side column.  ``unit`` is 1 in the
    table's units: 1 for the rational form, the denominator for the
    fraction-free one, whose entries are numerators over it."""
    if pivots and pivots[-1] >= width:
        return None
    particulars = []
    for column in range(width, len(table[0])):
        particular = [0] * width
        for r, c in enumerate(pivots):
            particular[c] = table[r][column]
        particulars.append(particular)
    kernel = []
    for free in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[free] = unit
        for r, c in enumerate(pivots):
            vec[c] = -table[r][free]
        kernel.append(vec)
    return particulars, kernel


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
            assert multiple_of_optimum(phase_one_optimum(rows, rhs), expected)
            seen["infeasible" if expected[0] is None else "feasible"] += 1
            seen["negative_rhs"] += any(b < 0 for b in rhs)
            seen["bland"] += switched[0]
        assert min(seen.values()) >= 10, seen

    def test_infeasibility_is_unscaled(self):
        # x = 1/8 and x = 3/8 at once: the optimum is 1/32 in the input's
        # units, and 64 times that in the units of the scaled system
        # 8x = 1, 8x = 3, whose integer Farkas vector is (-8, 8): the dual
        # (-1, 1) times the back-solve's denominator 8.
        rows = [[F(1, 8)], [F(1, 8)]]
        rhs = [F(1, 64), F(3, 64)]
        assert reference_phase_one(rows, rhs) == (None, F(1, 32))
        assert _phase_one(*scaled(rows, rhs)[:2]) == (None, [-8, 8])
        assert phase_one_optimum(rows, rhs) == (None, F(8, 32))

    def test_reduced_echelon_matches_rational_reference(self):
        """The Gauss-Jordan reference against the rational one, and ``rank``,
        ``_integer_solve`` and ``solve_linear`` against both, on systems split
        at a seeded width into a matrix and right-hand-side columns: some
        consistent (a combination of the matrix columns), some not, some
        with all-zero rows and some of matrix width zero."""
        rng = random.Random(2718)
        negative_pivots = deficient = 0
        seen = dict.fromkeys(["inconsistent", "consistent", "zero-row", "zero-width"], 0)
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
            width = rng.randint(0, num_cols)
            if trial % 4 == 1:
                # one more column, a combination of the matrix columns
                x = [random_rational(rng, denominators) for _ in range(width)]
                for row in cells:
                    row.append(sum((a * b for a, b in zip(row, x)), F(0)))
            if trial % 5 == 2:
                cells[rng.randrange(num_rows)] = [F(0)] * len(cells[0])
            reference = [list(row) for row in cells]
            expected_pivots = reference_reduced_echelon(reference)
            pivots, table, denominator = reference_fraction_free_echelon(cells)
            assert pivots == expected_pivots
            assert [[F(v, denominator) for v in row] for row in table] == reference
            negative_pivots += denominator < 0
            deficient += len(pivots) < min(num_rows, len(cells[0]))
            assert rank(cells) == len(pivots)

            rational = solution_from_echelon(pivots, reference, width, F(1))
            expected = solution_from_echelon(pivots, table, width, denominator)
            solved = _integer_solve(_integer_rows(cells)[0], width)
            matrix = [row[:width] for row in cells]
            columns = list(zip(*(row[width:] for row in cells)))
            solution = solve_linear(matrix, columns)
            seen["zero-row"] += any(not any(row) for row in cells)
            seen["zero-width"] += width == 0
            if rational is None:
                assert expected is None and solved is None and solution is None
                seen["inconsistent"] += 1
                continue
            seen["consistent"] += len(columns) > 0
            particulars, kernel, positive = solved
            sign = 1 if denominator > 0 else -1
            assert positive == sign * denominator > 0
            assert (particulars, kernel) == tuple(
                [[sign * v for v in z] for z in vectors] for vectors in expected
            )
            assert solution == tuple(
                tuple(QVector(z) for z in vectors) for vectors in rational
            )
        assert negative_pivots >= 10 and deficient >= 10
        assert min(seen.values()) >= 10, seen

    def test_zero_width_rows(self):
        assert rank([[], []]) == 0
        assert _integer_solve([[], []], 0) == ([], [], 1)
        assert _integer_solve([[0], [0]], 0) == ([[]], [], 1)
        assert _integer_solve([[0], [3]], 0) is None
        assert solve_linear([[], []], [[0, 0]]) == ((QVector([]),), ())
        assert solve_linear([[], []], [[0, 1]]) is None
        assert solve_linear([[], []]) == ((), ())


def reference_dot(u, v):
    """The inner product summed in Fractions, term by term."""
    return sum((a * b for a, b in zip(u.entries, v.entries)), F(0))


def random_entry(rng, kind):
    if kind == "zero":
        return F(0)
    if kind == "integer":
        return F(rng.randint(-10**6, 10**6))
    if kind == "small":
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 8, 9, 16)))
    return F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**64))


def random_qvector(rng, dim):
    kinds = rng.choice(
        [("zero",), ("integer",), ("small",), ("huge",), ("zero", "small", "huge")]
    )
    return QVector(random_entry(rng, rng.choice(kinds)) for _ in range(dim))


class TestIntegerDot:
    def test_matches_fraction_reference(self):
        rng = random.Random(9173)
        # one long-lived vector per dimension, dotted against many others, so
        # the integer form stored on it is read back again and again
        shared = {dim: random_qvector(rng, dim) for dim in range(1, 9)}
        seen = {"zero": 0, "negative": 0, "integer": 0, "self": 0, "shared": 0}
        for trial in range(800):
            dim = rng.randint(1, 8)
            u = random_qvector(rng, dim)
            mode = trial % 4
            if mode == 0:
                v = u
            elif mode == 1:
                v = shared[dim]
            else:
                v = random_qvector(rng, dim)
            expected = reference_dot(u, v)
            assert u.dot(v) == expected
            assert v.dot(u) == expected
            assert u.dot(v) == expected  # both integer forms stored by now
            seen["zero"] += expected == 0
            seen["negative"] += expected < 0
            seen["integer"] += all(e.denominator == 1 for e in u.entries + v.entries)
            seen["self"] += v is u
            seen["shared"] += v is shared[dim]
        for v in shared.values():
            # a fresh vector equal to a shared one gives the same products
            twin = QVector(v.entries)
            assert twin.dot(v) == v.dot(twin) == reference_dot(v, v)
        assert min(seen.values()) >= 50, seen

    def test_identity_and_immutability_ignore_integer_form(self):
        u = QVector([F(1, 3), F(-2, 5), 0])
        before = (repr(u), hash(u))
        assert u.dot(QVector([1, 1, 1])) == F(-1, 15)
        fresh = QVector([F(1, 3), F(-2, 5), 0])
        assert u == fresh and fresh == u
        assert (repr(u), hash(u)) == before == (repr(fresh), hash(fresh))
        assert repr(u) == "QVector(1/3, -2/5, 0)"
        assert len({u, fresh}) == 1
        for name in ("entries", "_integer", "other"):
            with pytest.raises(AttributeError):
                setattr(u, name, None)
        assert u.entries == (F(1, 3), F(-2, 5), F(0))
        assert u.dot(u) == F(1, 9) + F(4, 25)


# ---------------------------------------------------------------------------
# Farkas vectors and small separators


def farkas_cases(rng):
    """Seeded infeasible standard-form systems: random rational systems with
    negative right-hand sides and duplicated rows, systems with a zero row
    whose right-hand side is not zero (its artificial can never leave the
    basis), and infeasible variants of Beale's cycling system."""
    cases = []
    while len(cases) < 300:
        trial = len(cases)
        m = rng.randint(1, 6)
        n = rng.randint(1, 8)
        denominators = rng.choice([(1,), (1, 2, 3), (8,), (8, 9, 16)])
        rows = [[random_rational(rng, denominators) for _ in range(n)] for _ in range(m)]
        rhs = [random_rational(rng, denominators) for _ in range(m)]
        if trial % 4 == 0 and m > 1:
            rows[-1] = list(rows[0])  # duplicated row, different right-hand side
        if trial % 7 == 0:
            rows.append([F(0)] * n)
            rhs.append(F(rng.choice([-3, -1, 1, 2]), rng.choice(denominators)))
        if reference_phase_one(rows, rhs)[0] is None:
            cases.append((rows, rhs))
    for u in (-1, 3):
        for beta in (1, 2, 5):
            for scale in (F(1), F(1, 8), F(3, 16)):
                rows, rhs = beale_system(u, beta, scale)
                for extra in ([0, 0, 1, 0, 0, 0, 1], [0] * 7):
                    # x3 + x7 = 2 beside x3 + x7 = 1, or 0 = 2
                    cases.append(
                        (rows + [[F(v) * scale for v in extra]], rhs + [2 * scale])
                    )
    return cases


class TestFarkasVectors:
    def test_certifies_every_infeasible_system(self):
        rng = random.Random(3301)
        seen = {"negative_rhs": 0, "duplicated": 0, "zero_row": 0, "bland": 0}
        for rows, rhs in farkas_cases(rng):
            switched = []
            expected = reference_phase_one(rows, rhs, switched)
            integer_rows, integer_rhs, scale = scaled(rows, rhs)
            solution, farkas = _phase_one(integer_rows, integer_rhs)
            assert solution is None and len(farkas) == len(rows)
            assert all(type(y) is int for y in farkas)
            for column in zip(*integer_rows):
                assert sum(map(operator.mul, farkas, column)) <= 0
            value = sum(map(operator.mul, farkas, integer_rhs))
            assert value > 0
            assert multiple_of_optimum((None, F(value, scale)), expected)
            seen["negative_rhs"] += any(b < 0 for b in rhs)
            seen["duplicated"] += any(
                rows[i] == rows[j] for i in range(len(rows)) for j in range(i)
            )
            seen["zero_row"] += any(not any(row) for row in rows)
            seen["bland"] += switched[0]
        assert min(seen.values()) >= 20, seen

    def test_flipped_row_keeps_its_sign(self):
        # x = -2 has no x >= 0.  The simplex negates the row to -x = 2; read
        # back in the row as given, the Farkas vector is y = -1, y . b = 2.
        assert _phase_one([[1]], [-2]) == (None, [-1])
        # -x = 2 is already the negated row, so there y = 1.
        assert _phase_one([[-1]], [2]) == (None, [1])


def simplest_by_search(low, high):
    denominator = 1
    while True:
        candidates = [
            F(p, denominator)
            for p in range(
                math.floor(low * denominator), math.ceil(high * denominator) + 1
            )
            if low < F(p, denominator) < high
        ]
        if candidates:
            return min(candidates, key=abs)
        denominator += 1


def margin_one_separation(points_p, points_q):
    """The margin-one system over ``(normal, offset)``: ``normal . p <=
    offset - 1`` and ``normal . q >= offset + 1``, decided by the
    free-variable ``lp_feasible``."""
    constraints = [
        LinearConstraint(QVector(list(p.entries) + [-1]), Relation.LE, -1)
        for p in points_p
    ] + [
        LinearConstraint(QVector([-e for e in q.entries] + [1]), Relation.LE, -1)
        for q in points_q
    ]
    return lp_feasible(constraints, points_p[0].dim + 1)


def separation_case(rng, trial):
    """A seeded point-set pair; the kind cycles through random sets, single
    points, touching hulls and hulls a hair apart."""
    dim = 1 + trial % 5
    kind = ("random", "single", "touching", "apart")[trial % 4]

    def point():
        return QVector(
            F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7))) for _ in range(dim)
        )

    points_p = [point() for _ in range(rng.randint(1, 4))]
    points_q = [point() for _ in range(rng.randint(1, 4))]
    if kind == "single":
        return kind, points_p[:1], points_q[:1]
    if kind == "touching":
        # a vertex of one hull, or the midpoint of two, lies in the other
        shared = rng.choice(points_p)
        if len(points_p) > 1 and rng.random() < 0.5:
            shared = F(1, 2) * (points_p[0] + points_p[1])
        return kind, points_p, points_q + [shared]
    if kind == "apart":
        # q lies beyond the supporting hyperplane of p in direction w, at
        # distance |w|^2 / 97 or more
        w = QVector(rng.randint(-3, 3) or 1 for _ in range(dim))
        top = max(points_p, key=w.dot)
        near = top + F(1, 97) * w
        return kind, points_p, [near] + [
            near + (v if v.dot(w) >= 0 else -v) for v in points_q
        ]
    return kind, points_p, points_q


class TestSmallSeparators:
    def test_simplest_between_matches_search(self):
        rng = random.Random(1605)
        cases = [(F(0), F(1)), (F(-1), F(0)), (F(1, 3), F(1, 2)), (F(2), F(3))]
        for _ in range(400):
            low = F(rng.randint(-40, 40), rng.randint(1, 12))
            high = low + F(rng.randint(1, 30), rng.randint(1, 40))
            cases.append((low, high))
        for low, high in cases:
            assert _simplest_between(low, high) == simplest_by_search(low, high)

    def test_simplest_between_deep_continued_fractions(self):
        """Consecutive Fibonacci ratios are Farey neighbours, so the simplest
        rational strictly between them is their mediant; their continued
        fractions have about n terms each."""
        fib = [0, 1]
        while len(fib) < 4004:
            fib.append(fib[-1] + fib[-2])
        for n in (10, 11, 1500, 4000):
            ends = sorted([F(fib[n], fib[n + 1]), F(fib[n + 1], fib[n + 2])])
            mediant = F(fib[n + 2], fib[n + 3])
            if n < 20:
                assert simplest_by_search(*ends) == mediant
            assert _simplest_between(*ends) == mediant
            assert _simplest_between(-ends[1], -ends[0]) == -mediant

    def test_agrees_with_margin_one_oracle(self):
        rng = random.Random(5521)
        seen = {"separated": 0, "meeting": 0}
        for trial in range(320):
            kind, points_p, points_q = separation_case(rng, trial)
            separation = strict_separation(points_p, points_q)
            oracle = margin_one_separation(points_p, points_q)
            assert (separation is None) == (oracle is None), (kind, points_p, points_q)
            if kind == "touching":
                assert separation is None
            if kind == "apart":
                assert separation is not None
            if separation is None:
                seen["meeting"] += 1
                continue
            seen["separated"] += 1
            normal, offset = separation
            assert all(e.denominator == 1 for e in normal)
            assert all(normal.dot(p) < offset for p in points_p)
            assert all(normal.dot(q) > offset for q in points_q)
            low = max(normal.dot(p) for p in points_p)
            high = min(normal.dot(q) for q in points_q)
            assert offset == simplest_by_search(low, high)
        assert min(seen.values()) >= 80, seen


# ---------------------------------------------------------------------------
# Integer kernels of the certificate pipeline against the rational ones they
# replaced: separator rounding and the Farkas back-solve.


def reference_farkas_separator(farkas, first, second):
    """Separator rounding in Fractions, on point lists: ``round`` on each
    scaled entry and one ``QVector.dot`` per point and attempt."""
    u = [F(e) for e in farkas[: first[0].dim]]
    top = max(abs(e) for e in u)
    power = 2
    while True:
        normal = QVector(round(e * power / top) for e in u)
        low = max(normal.dot(p) for p in first)
        high = min(normal.dot(q) for q in second)
        if low < high:
            return normal, _simplest_between(low, high)
        power *= 2


def reference_farkas(original, basis, n):
    """The Farkas back-solve over all m rows: ``B^T y = c_B`` as one
    m x (m+1) system, each row held by an artificial written as a unit row."""
    m = len(original)
    system = []
    for i, var in enumerate(basis):
        if var < n:
            system.append([original[k][var] for k in range(m)] + [0])
        else:
            unit = [0] * (m + 1)
            unit[i] = 1
            unit[m] = -1 if original[i][-1] < 0 else 1
            system.append(unit)
    _, table, denominator = reference_fraction_free_echelon(system)
    sign = 1 if denominator > 0 else -1
    y = [sign * row[m] for row in table]
    *columns, value = [sum(y[i] * column[i] for i in range(m)) for column in zip(*original)]
    if any(c > 0 for c in columns) or value <= 0:
        raise AssertionError("Farkas vector fails the substitution check")
    return [F(v, sign * denominator) for v in y]


def separable_case(rng, trial):
    """A seeded direction ``u`` inside a Farkas-shaped vector (two group
    entries follow it) and two point sets that ``u`` strictly separates.
    Entries mix denominators and signs, and the two sets are drawn over
    different denominators, so their lcms differ; the gap is sometimes a
    hair wide, which takes several rounding attempts."""
    dim = 1 + trial % 5
    u_denominators = rng.choice([(1,), (1, 2, 3), (8, 9, 16), (5, 7, 64)])
    u = [F(0)] * dim
    while not any(u):
        u = [random_rational(rng, u_denominators) for _ in range(dim)]
    farkas = u + [random_rational(rng, (1, 2)), random_rational(rng, (1, 3))]

    def point(denominators):
        return QVector(random_rational(rng, denominators) for _ in range(dim))

    first = [point((1, 2, 4)) for _ in range(rng.randint(1, 4))]
    second = [point((3, 9, 27)) for _ in range(rng.randint(1, 4))]
    direction = QVector(u)
    gap = rng.choice([F(1), F(1, 7), F(1, 997)]) * direction.dot(direction)
    shift = max(direction.dot(p) for p in first) - min(direction.dot(q) for q in second)
    t = (shift + gap) / direction.dot(direction)
    return farkas, first, [q + t * direction for q in second]


def points(blocks):
    """The points of integer tables ``(table, scale)``, in order."""
    return [QVector(F(v, scale) for v in row) for table, scale in blocks for row in table]


def split_tables(rng, vectors):
    """The vectors split into consecutive runs of seeded lengths, one
    integer table per run."""
    blocks = []
    while vectors:
        size = rng.randint(1, len(vectors))
        blocks.append(_integer_rows(vectors[:size]))
        vectors = vectors[size:]
    return blocks


class TestIntegerSeparatorRounding:
    @pytest.mark.parametrize(
        "pipeline",
        [COUNTEREXAMPLE, JOIN, JOIN_2_2, JOIN_3_1],
        ids=["counterexample", "join", "join-2-2", "join-3-1"],
    )
    def test_matches_reference_on_golden_pipelines(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []

        def checked(farkas, first, second):
            result = farkas_separator(farkas, first, second)
            assert all(type(y) is int for y in farkas)
            expected = reference_farkas_separator(farkas, points(first), points(second))
            assert result == expected
            calls.append(result)
            return result

        monkeypatch.setattr(certificate, "farkas_separator", checked)
        for argv, expected in pipeline:
            assert main(argv) == expected, argv
        assert len(calls) >= 6

    def test_matches_reference_on_random_cases(self):
        """The integer Farkas vector and the point sets split into blocks
        of seeded sizes, each its own integer table."""
        rng = random.Random(6047)
        split = random.Random(6048)
        attempts = set()
        for trial in range(500):
            farkas, first, second = separable_case(rng, trial)
            expected = reference_farkas_separator(farkas, first, second)
            (integer,), _ = _integer_rows([farkas])
            blocks = [split_tables(split, first), split_tables(split, second)]
            assert farkas_separator(integer, *blocks) == expected
            normal, _ = expected
            attempts.add(max(abs(e) for e in normal))  # 2^t at attempt t
        # the gap was found at several scales, not only the first
        assert len(attempts) >= 4, attempts

    def test_ties_round_half_to_even(self):
        # u / max|u| * 2 is (2, 1/2, 3/2, -1/2, -3/2): ties over floors 0 and
        # -2 (even, kept) and 1 and -1 (odd, moved up).  Rounding half up
        # would give (2, 1, 2, 0, -1).
        u = [F(4, 6), F(1, 6), F(3, 6), F(-1, 6), F(-3, 6)]
        first = [QVector([0] * 5)]
        second = [QVector(F(10) * e for e in u)]
        expected = (QVector([2, 0, 2, 0, -2]), F(1))
        assert reference_farkas_separator(u, first, second) == expected
        blocks = [[_integer_rows(first)], [_integer_rows(second)]]
        assert farkas_separator([4, 1, 3, -1, -3], *blocks) == expected


class TestShortBackSolve:
    def test_matches_full_system_reference(self, monkeypatch):
        """Every infeasible system leaves some row with its artificial, so
        k < m; the cases cover k = 0, k = m - 1 and the sizes between."""
        solve = exactla._farkas
        seen = {"k=0": 0, "k=m-1": 0, "between": 0}

        def checked(original, basis, n):
            y = solve(original, basis, n)
            assert_positive_multiple(y, reference_farkas(original, basis, n))
            k = sum(var < n for var in basis)
            seen["k=0" if k == 0 else "k=m-1" if k == len(basis) - 1 else "between"] += 1
            return y

        monkeypatch.setattr(exactla, "_farkas", checked)
        for rows, rhs in farkas_cases(random.Random(3301)):
            solution, farkas = _phase_one(*scaled(rows, rhs)[:2])
            assert solution is None and farkas is not None
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "pipeline", [JOIN, JOIN_2_2, JOIN_3_1], ids=["join", "join-2-2", "join-3-1"]
    )
    def test_golden_join_pipelines(self, pipeline, tmp_path, monkeypatch):
        """Every back-solve of the partition scans is the reference dual
        times one positive integer."""
        monkeypatch.chdir(tmp_path)
        solve = exactla._farkas
        calls = []

        def checked(original, basis, n):
            y = solve(original, basis, n)
            assert_positive_multiple(y, reference_farkas(original, basis, n))
            calls.append(y)
            return y

        monkeypatch.setattr(exactla, "_farkas", checked)
        for argv, expected in pipeline:
            assert main(argv) == expected, argv
        assert len(calls) >= 6

    def test_edge_bases(self):
        assert _phase_one([[-1], [-1]], [1, 1]) == (None, [1, 1])
        assert _phase_one([[0, 0]], [-3]) == (None, [-1])
        # x1 = 1 takes row 0's basis; row 1 keeps its artificial, y_1 = 1,
        # and x1's column fixes y_0 = -1
        assert _phase_one([[1, 0], [1, 0]], [1, 2]) == (None, [-1, 1])

    def test_corrupted_solution_fails_substitution(self, monkeypatch):
        solve = exactla._integer_solve

        def corrupted(table, width):
            particulars, kernel, denominator = solve(table, width)
            return [[-v for v in z] for z in particulars], kernel, denominator

        monkeypatch.setattr(exactla, "_integer_solve", corrupted)
        with pytest.raises(AssertionError, match="substitution check"):
            _phase_one([[1, 0], [1, 0]], [1, 2])


class TestIntegerKernelInput:
    """``_phase_one`` takes ints and does not rescan them; every caller in
    the package scales its system first."""

    def test_check_colorful_makes_no_integer_rows_in_the_kernel(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "random", "--ks", "1,1,1", "--seed", "0", "--out", "inst.json"]
        assert main(argv) == 0
        phase_one, integer_rows = exactla._phase_one, exactla._integer_rows
        inside = []
        seen = {"phase_one": 0, "integer_rows": 0}

        def watched_phase_one(rows, rhs):
            seen["phase_one"] += 1
            inside.append(True)
            try:
                return phase_one(rows, rhs)
            finally:
                inside.pop()

        def watched_integer_rows(rows):
            seen["integer_rows"] += bool(inside)
            return integer_rows(rows)

        monkeypatch.setattr(exactla, "_phase_one", watched_phase_one)
        monkeypatch.setattr(exactla, "_integer_rows", watched_integer_rows)
        assert main(["check-colorful", "inst.json"]) == 0
        assert seen == {"phase_one": 27, "integer_rows": 0}

    @pytest.mark.parametrize(
        "rows,rhs",
        [
            # infeasible, yet its exact divisions, floored on these
            # Fractions, returned the point (1, 1/2) without the refusal
            ([[F(1, 4), F(-1, 2)], [F(-1, 3), -1], [F(4, 3), -3]], [0, -1, F(-1, 3)]),
            ([[1, 2]], [F(1, 2)]),
            ([[1.0]], [1]),
            ([[F(2)]], [1]),
        ],
        ids=["fractions", "fraction-rhs", "float", "whole-fraction"],
    )
    def test_non_integer_entries_are_refused(self, rows, rhs):
        with pytest.raises(MalformedInputError, match="integer entries only"):
            _phase_one(rows, rhs)
        with pytest.raises(MalformedInputError, match="integer entries only"):
            exactla.standard_form_feasible(rows, rhs)

    def test_callers_pass_ints(self, tmp_path, monkeypatch):
        """The theorem pipeline has coordinates over denominators up to 8,
        and ``lp_feasible`` takes Fraction constraints, strict ones
        included; every system still reaches the kernel as ints."""
        monkeypatch.chdir(tmp_path)
        phase_one = exactla._phase_one
        systems = []

        def checked(rows, rhs):
            assert all(type(v) is int for row in rows for v in row)
            assert all(type(b) is int for b in rhs)
            systems.append(len(rows))
            return phase_one(rows, rhs)

        monkeypatch.setattr(exactla, "_phase_one", checked)
        for argv, expected in THEOREM:
            assert main(argv) == expected, argv
        constraints = [
            LinearConstraint(QVector([F(1, 3), F(-2, 5)]), Relation.LE, F(7, 2)),
            LinearConstraint(QVector([F(1, 2), 1]), Relation.EQ, F(1, 9)),
            LinearConstraint(QVector([-1, F(1, 4)]), Relation.LT, F(3, 7)),
        ]
        point = lp_feasible(constraints, 2)
        assert point is not None and all(c.holds_at(point) for c in constraints)
        assert len(systems) >= 2


def full_tableau_phase_one(rows, rhs, events=None):
    """``_phase_one`` with the full tableau: every original column stored,
    basic ones included, each updated by every pivot; the rows and the
    right-hand side are ints.  ``events`` (a list) receives ``"bland"`` when
    the run switches to Bland's rule and ``"original-left"`` for each pivot
    whose leaving variable is original."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [F(0)] * n, None

    original = [list(row) + [b] for row, b in zip(rows, rhs)]
    tableau = [[-v for v in vals] if vals[-1] < 0 else vals for vals in original]
    basis = [n + i for i in range(m)]
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
            if stall > stall_limit and not bland:
                bland = True
                if events is not None:
                    events.append("bland")
        else:
            stall = 0
        if events is not None and basis[leave] < n:
            events.append("original-left")

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
        return None, exactla._farkas(original, basis, n)
    solution = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = F(tableau[i][-1], denominator)
    return solution, None


def random_hull_polytopes(rng, dim, count):
    """``count`` small random point sets in dimension ``dim`` over mixed
    denominators, so their integer tables have different scales."""
    return [
        [
            QVector(random_rational(rng, rng.choice([(1,), (1, 2), (3, 4, 8)])) for _ in range(dim))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(count)
    ]


def colorful_hull_systems():
    """The hull systems ``common_point`` builds for every colourful tuple of
    a few random ``--ks 1,1,1`` instances: the guarantee-wide shape."""
    systems = []
    for seed in range(3):
        instance = gen_colorful_random([1, 1, 1], seed)
        for selector in itertools.product(*(range(len(f.bodies)) for f in instance.families)):
            bodies = [f.bodies[c] for f, c in zip(instance.families, selector)]
            systems.append(
                exactla._hull_system([b._table for b in bodies], range(len(bodies)))
            )
    return systems


class TestCondensedTableau:
    """The condensed kernel makes the full tableau's pivots: the same
    ``(solution, farkas)`` on every system."""

    def check(self, cases):
        seen = {"feasible": 0, "infeasible": 0, "negative_rhs": 0, "bland": 0, "original-left": 0}
        for rows, rhs in cases:
            rows, rhs, _ = scaled(rows, rhs)
            events = []
            expected = full_tableau_phase_one(rows, rhs, events)
            assert _phase_one(rows, rhs) == expected
            seen["infeasible" if expected[0] is None else "feasible"] += 1
            seen["negative_rhs"] += any(b < 0 for b in rhs)
            seen["bland"] += "bland" in events
            seen["original-left"] += "original-left" in events
        return seen

    def test_random_and_degenerate_systems(self):
        rng = random.Random(2301)
        cases = []
        for trial in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(1, 8)
            denominators = rng.choice([(1,), (1, 2, 3), (8,), (8, 9, 16)])
            rows = [[random_rational(rng, denominators) for _ in range(n)] for _ in range(m)]
            if trial % 4 == 0 and m > 1:
                rows[-1] = list(rows[0])
            if trial % 5 == 0:
                rhs = [F(0)] * m
            else:
                rhs = [random_rational(rng, denominators) for _ in range(m)]
            cases.append((rows, rhs))
        for u in (-1, 3):
            for beta in (1, 2, 5):
                for scale in (F(1), F(1, 8), F(3, 16)):
                    cases.append(beale_system(u, beta, scale))
        cases.extend(farkas_cases(random.Random(3301)))
        seen = self.check(cases)
        assert min(seen.values()) >= 10, seen

    def test_hull_systems(self):
        seen = self.check(colorful_hull_systems())
        assert seen["feasible"] == 81 and seen["original-left"] > 0, seen

    def test_original_column_leaves(self):
        # Row 0 is negated to x1 + x2 = 1.  x2 enters at the lowest cost and
        # takes row 1 by the zero ratio; then x1 enters, and row 1's zero
        # ratio pushes x2 out again, so x2's column comes back with the old
        # denominator in the pivot row.  x3 enters last.
        rows = [[-1, -1, 0], [1, 2, -1]]
        rhs = [-1, 0]
        events = []
        expected = full_tableau_phase_one(rows, rhs, events)
        assert "original-left" in events
        assert _phase_one(rows, rhs) == expected == ([F(1), F(0), F(1)], None)

    def test_negative_rows_keep_the_original_for_farkas(self):
        """The simplex negates rows with ``rhs < 0``; ``_farkas`` reads the
        rows as given, so the kernel edits copies of them only."""
        cases = [
            ([[1, 1], [-1, 0]], [-1, -2]),
            ([[2, -1], [1, 1], [0, 1]], [-2, 3, -1]),
            ([[1, 0], [1, 0]], [1, 2]),
        ]
        for rows, rhs in cases:
            frozen = [list(row) for row in rows], list(rhs)
            assert _phase_one(rows, rhs) == full_tableau_phase_one(rows, rhs)
            assert (rows, rhs) == frozen
        assert self.check(cases)["negative_rhs"] == 2


def reference_hull_system(blocks, groups, target=None, equations=()):
    """The hull-weight system as Fractions, built from generator sequences:
    the builder ``_hull_system`` replaced.  Its ``target`` mode, group 0's
    combination equal to a given point, is kept only as the oracle of the
    one-point group 1 that ``contains`` and ``origin_in_hull`` ask."""
    columns = [(group, g) for block, group in zip(blocks, groups) for g in block]
    count = max(groups) + 1
    d = columns[0][1].dim
    rows = []
    rhs = []
    if target is not None:
        for c in range(d):
            rows.append([g[c] if group == 0 else F(0) for group, g in columns])
            rhs.append(target[c])
    else:
        for other in range(1, count):
            for c in range(d):
                rows.append(
                    [
                        g[c] if group == 0 else -g[c] if group == other else F(0)
                        for group, g in columns
                    ]
                )
                rhs.append(F(0))
    for index in range(count):
        rows.append([F(1) if group == index else F(0) for group, _ in columns])
        rhs.append(F(1))
    for normal, value in equations:
        rows.append([normal.dot(g) if group == 0 else F(0) for group, g in columns])
        rhs.append(value)
    return rows, rhs


def hull_case(rng, trial):
    """``(blocks, groups, equations)``: two or three groups, or one with
    equations, some with hyperplanes through a point of group 0's hull, some
    off it."""
    dim = 1 + trial % 4
    count = 1 + trial % 3
    groups = list(range(count)) + [rng.randrange(count) for _ in range(rng.randint(0, 2))]
    blocks = random_hull_polytopes(rng, dim, len(groups))
    group_zero = [g for block, group in zip(blocks, groups) if group == 0 for g in block]
    inside = group_zero[0] if trial % 2 else sum(group_zero[1:], group_zero[0]) * F(1, len(group_zero))
    equations = []
    if count == 1 or trial % 3 == 0:
        for _ in range(rng.randint(1, dim)):
            normal = QVector(random_rational(rng, (1, 2, 3, 7)) for _ in range(dim))
            value = normal.dot(inside) if rng.random() < 0.6 else random_rational(rng, (1, 4))
            equations.append((normal, value))
    return blocks, groups, equations


class TestIntegerHullSystem:
    """``_hull_system`` reads the integer tables and makes the table
    ``_integer_rows`` makes of the Fraction system, entry for entry, so the
    answers are the Fraction system's answers."""

    def test_matches_the_fraction_builder(self, monkeypatch):
        """Every Farkas vector, of the scaled Fraction system and of the
        built one, is the reference dual times one positive integer."""
        solve = exactla._farkas

        def checked(original, basis, n):
            y = solve(original, basis, n)
            assert_positive_multiple(y, reference_farkas(original, basis, n))
            return y

        monkeypatch.setattr(exactla, "_farkas", checked)
        rng = random.Random(2302)
        seen = {"groups=1": 0, "groups=2": 0, "groups=3": 0, "equations": 0,
                "feasible": 0, "infeasible": 0}
        for trial in range(240):
            blocks, groups, equations = hull_case(rng, trial)
            tables = [_integer_rows(block) for block in blocks]
            rows, rhs = reference_hull_system(blocks, groups, equations=equations)
            built = exactla._hull_system(tables, groups, equations)
            expected, _ = _integer_rows([row + [b] for row, b in zip(rows, rhs)])
            assert [row + [b] for row, b in zip(*built)] == expected
            solution, farkas = _phase_one(*scaled(rows, rhs)[:2])
            weights = exactla.hull_weights(tables, groups, equations)
            assert (weights is None) == (solution is None)
            if weights is not None:
                assert [w for block in weights for w in block] == solution
            if not equations:
                assert exactla.hull_certificate(tables, groups) == (
                    None if solution is None else weights,
                    farkas,
                )
            seen[f"groups={max(groups) + 1}"] += 1
            seen["equations"] += bool(equations)
            seen["feasible" if solution is not None else "infeasible"] += 1
        assert min(seen.values()) >= 20, seen

    def test_contains_matches_the_target_system(self):
        """``contains`` asks with the point as a one-generator group 1; the
        target system on group 0 alone decides the same, for points inside,
        on the boundary (the lexicographically largest generator, a vertex)
        and just outside it."""
        rng = random.Random(2401)
        seen = {True: 0, False: 0}
        for trial in range(150):
            dim = 1 + trial % 3
            (points,) = random_hull_polytopes(rng, dim, 1)
            vertex = max(points, key=tuple)
            point = [
                sum(points[1:], points[0]) * F(1, len(points)),
                vertex,
                QVector([vertex[0] + F(1, 97), *vertex[1:]]),
            ][trial % 3]
            solution, _ = _phase_one(*scaled(*reference_hull_system([points], [0], point))[:2])
            expected = solution is not None
            assert convex.contains(convex.VPolytope(points), point) is expected
            assert expected is (trial % 3 != 2)
            seen[expected] += 1
        assert min(seen.values()) >= 40, seen

    def test_origin_lp_matches_the_target_system(self, monkeypatch):
        """With ``_integer_solve`` stubbed to None no Gordan functional
        settles anything, so every ``origin_in_hull`` asks its LP, the origin
        as a one-generator group 1; the target system decides the same."""
        monkeypatch.setattr(certificate, "_integer_solve", lambda table, width: None)
        rng = random.Random(2402)
        seen = {True: 0, False: 0}
        for trial in range(150):
            dim = 1 + trial % 3
            (vectors,) = random_hull_polytopes(rng, dim, 1)
            if trial % 2:
                vectors.append(-vectors[0] * F(rng.randint(1, 3)))
            origin = QVector([F(0)] * dim)
            solution, _ = _phase_one(*scaled(*reference_hull_system([vectors], [0], origin))[:2])
            expected = solution is not None
            assert certificate.origin_in_hull(vectors) is expected
            seen[expected] += 1
        assert min(seen.values()) >= 20, seen

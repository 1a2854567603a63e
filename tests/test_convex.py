import random
from collections import Counter
from fractions import Fraction as F

import pytest

from transversals.convex import (
    AffineFlat,
    VPolytope,
    affine_span,
    common_point,
    contains,
    weighted_sum,
)
from transversals.exactla import (
    MalformedInputError,
    QVector,
    _integer_rows,
    hull_weights,
    rank,
    solve_linear,
    standard_form_feasible,
)


def vec(*entries):
    return QVector(entries)


def segment(a, b):
    return VPolytope((vec(a), vec(b)))


class TestRepresentations:
    def test_polytope_needs_generators(self):
        with pytest.raises(MalformedInputError):
            VPolytope(())

    def test_flat_rejects_dependent_directions(self):
        with pytest.raises(MalformedInputError):
            AffineFlat(vec(0, 0), (vec(1, 1), vec(2, 2)))

    def test_point_flat_has_dimension_zero(self):
        assert AffineFlat(vec(1, 2)).dimension == 0

    def test_equations(self):
        assert AffineFlat(vec(1, 2)).equations == ((vec(1, 0), 1), (vec(0, 1), 2))
        assert AffineFlat(vec(1, 2), (vec(1, 0), vec(1, 1))).equations == ()
        [(normal, value)] = AffineFlat(vec(1, 2), (vec(1, 1),)).equations
        assert normal.dot(vec(1, 1)) == 0 and normal.dot(vec(1, 2)) == value


class TestTranslatedFlat:
    def test_matches_the_constructor(self):
        rng = random.Random(19)
        for dim in (1, 2, 3, 5):
            for count in range(dim + 1):
                kernel = random_directions(rng, dim, count, lambda: rng.randint(-9, 9))
                first = AffineFlat(vec(*(rng.randint(-9, 9) for _ in range(dim))), kernel)
                anchor = vec(*(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)))
                moved = first.translated(anchor)
                made = AffineFlat(anchor, kernel)
                assert moved == made
                assert moved.base == made.base and moved.directions == made.directions
                assert moved.equations == made.equations
                assert first.translated(list(anchor)) == made

    def test_refuses_another_dimension(self):
        with pytest.raises(MalformedInputError, match="^flat base has dimension 3, not 2$"):
            AffineFlat(vec(0, 0), (vec(1, 1),)).translated(vec(1, 2, 3))

    def test_constructor_still_refuses_dependent_directions(self):
        first = AffineFlat(vec(0, 0, 0), (vec(1, 2, 0), vec(0, 1, 1)))
        first.translated(vec(1, 1, 1))
        with pytest.raises(MalformedInputError, match="linearly dependent"):
            AffineFlat(vec(1, 1, 1), first.directions + (vec(1, 3, 1),))


class TestCommonPoint:
    def test_coincident_point_polytopes(self):
        point = VPolytope((vec(1, 1),))
        assert common_point([point, point]) == vec(1, 1)

    def test_disjoint_segments(self):
        assert common_point([segment(0, 1), segment(2, 3)]) is None

    def test_two_lines_meet(self):
        vertical = AffineFlat(vec(0, 0), (vec(0, 1),))
        diagonal = AffineFlat(vec(0, 1), (vec(1, 1),))
        assert common_point([vertical, diagonal]) == vec(0, 1)

    def test_interval_overlap(self):
        point = common_point([segment(0, 2), segment(1, 3)])
        assert point is not None
        assert F(1) <= point[0] <= F(2)

    def test_mixed_polytope_and_flat(self):
        line = AffineFlat(vec(0, 0), (vec(1, 0),))
        square = VPolytope((vec(0, -1), vec(2, -1), vec(0, 1), vec(2, 1)))
        point = common_point([line, square])
        assert point is not None
        assert contains(line, point) and contains(square, point)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(MalformedInputError):
            common_point([segment(0, 1), VPolytope((vec(0, 0),))])

    def test_result_is_in_every_body(self):
        rng = random.Random(4242)
        for _ in range(60):
            dim = rng.choice([1, 2, 3])
            bodies = []
            for _ in range(rng.randint(1, 3)):
                gens = [
                    QVector([rng.randint(-5, 5) for _ in range(dim)])
                    for _ in range(rng.randint(1, 4))
                ]
                bodies.append(VPolytope(tuple(gens)))
            point = common_point(bodies)
            if point is not None:
                assert all(contains(b, point) for b in bodies)


def reference_affine_span(points):
    """The incremental Fraction echelon ``affine_span`` used before it read
    the pivot columns of a fraction-free elimination (now ``exactla._echelon``):
    each difference from the first
    point is reduced against the stored normalised rows and kept when a
    nonzero residue remains."""
    base = points[0]
    directions = []
    echelon = []
    for p in points[1:]:
        candidate = list((p - base).entries)
        residue = list(candidate)
        for lead in echelon:
            col = next(j for j, v in enumerate(lead) if v != 0)
            f = residue[col]
            if f:
                residue = [a - f * b for a, b in zip(residue, lead)]
        pivot = next((j for j, v in enumerate(residue) if v != 0), None)
        if pivot is None:
            continue
        pv = residue[pivot]
        echelon.append([v / pv for v in residue])
        directions.append(QVector(candidate))
    return AffineFlat(base, tuple(directions))


class TestAffineSpan:
    def test_matches_incremental_fraction_reference(self):
        rng = random.Random(2718)

        def entry():
            return F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7, 12)))

        dropped = kept_all = 0
        for case in range(360):
            dim = rng.randint(1, 5)
            kind = case % 4
            count = rng.randint(1, 7)
            if kind == 0:  # general points, possibly fewer or more than dim + 1
                points = [QVector(entry() for _ in range(dim)) for _ in range(count)]
            elif kind == 1:  # collinear: base + t * direction
                base = QVector(entry() for _ in range(dim))
                direction = QVector(entry() for _ in range(dim))
                points = [base + entry() * direction for _ in range(count)]
            elif kind == 2:  # affinely dependent: combinations of a few points
                seeds = [QVector(entry() for _ in range(dim)) for _ in range(2)]
                points = list(seeds)
                for _ in range(count):
                    t = entry()
                    points.append(t * seeds[0] + (1 - t) * seeds[1])
                rng.shuffle(points)
            else:  # duplicates, including copies of the base (zero differences)
                points = [QVector(entry() for _ in range(dim)) for _ in range(2)]
                for _ in range(count):
                    points.append(rng.choice(points))
            expected = reference_affine_span(points)
            flat = affine_span(points)
            assert flat.base == expected.base
            assert flat.directions == expected.directions, points
            if flat.dimension < len(points) - 1:
                dropped += 1
            else:
                kept_all += 1
        assert dropped >= 150 and kept_all >= 50, (dropped, kept_all)

    def test_single_point(self):
        assert affine_span([vec(0, 0)]).dimension == 0

    def test_collinear_points(self):
        flat = affine_span([vec(0, 0), vec(1, 0), vec(2, 0)])
        assert flat.dimension == 1
        assert flat.directions == (vec(1, 0),)

    def test_spanning_points(self):
        assert affine_span([vec(0, 0), vec(1, 0), vec(0, 1)]).dimension == 2


class TestContains:
    def test_segment_membership(self):
        assert contains(segment(0, 2), vec(1))
        assert not contains(segment(0, 2), vec(3))

    def test_flat_membership(self):
        assert contains(AffineFlat(vec(0, 0), (vec(0, 1),)), vec(0, 7))
        assert not contains(AffineFlat(vec(0, 0), (vec(0, 1),)), vec(1, 0))


def reference_flat_contains(flat, point):
    """Flat membership as ``contains`` decided it before flats carried
    their equations: one solve for ``point - base`` in the column span of
    the directions."""
    if not flat.directions:
        return point == flat.base
    columns = zip(*flat.directions)
    return solve_linear(columns, [point - flat.base]) is not None


def reference_common_point(bodies):
    """``common_point`` as it was before flats carried their equations.

    All-flat input stacks every parameterisation into one solve with the
    ambient point and every flat parameter as unknowns.  Mixed input is one
    standard-form system over ``x+ - x-``, one weight per polytope
    generator and ``t+ - t-`` per flat direction."""
    d = bodies[0].dim
    flats = [b for b in bodies if isinstance(b, AffineFlat)]
    polytopes = [b for b in bodies if isinstance(b, VPolytope)]
    if not polytopes:
        width = d + sum(f.dimension for f in flats)
        rows, rhs, at = [], [], d
        for flat in flats:
            for c in range(d):
                row = [F(0)] * width
                row[c] = F(1)
                for l, direction in enumerate(flat.directions):
                    row[at + l] = -direction[c]
                rows.append(row)
                rhs.append(flat.base[c])
            at += flat.dimension
        solution = solve_linear(rows, [rhs])
        return None if solution is None else QVector(solution.particulars[0].entries[:d])
    if not flats:
        weights = hull_weights([p._table for p in polytopes], range(len(polytopes)))
        return None if weights is None else weighted_sum(weights[0], polytopes[0].generators)
    num_weights = sum(len(p.generators) for p in polytopes)
    num_params = sum(f.dimension for f in flats)
    width = 2 * d + num_weights + 2 * num_params
    rows, rhs = [], []

    def x_row(c):
        row = [F(0)] * width
        row[c] = F(1)
        row[d + c] = F(-1)
        return row

    offset = 2 * d
    for poly in polytopes:
        for c in range(d):
            row = x_row(c)
            for j, g in enumerate(poly.generators):
                row[offset + j] = -g[c]
            rows.append(row)
            rhs.append(F(0))
        norm_row = [F(0)] * width
        for j in range(len(poly.generators)):
            norm_row[offset + j] = F(1)
        rows.append(norm_row)
        rhs.append(F(1))
        offset += len(poly.generators)
    for flat in flats:
        for c in range(d):
            row = x_row(c)
            for l, direction in enumerate(flat.directions):
                row[offset + l] = -direction[c]
                row[offset + num_params + l] = direction[c]
            rows.append(row)
            rhs.append(flat.base[c])
        offset += flat.dimension
    # The kernel takes integers: the system times the lcm of its denominators.
    table, _ = _integer_rows(row + [b] for row, b in zip(rows, rhs))
    solution = standard_form_feasible([row[:-1] for row in table], [row[-1] for row in table])
    if solution is None:
        return None
    return QVector(solution[c] - solution[d + c] for c in range(d))


def random_directions(rng, dim, count, entry):
    """``count`` independent random directions in dimension ``dim``."""
    while True:
        dirs = [QVector(entry() for _ in range(dim)) for _ in range(count)]
        if not dirs or rank(dirs) == count:
            return tuple(dirs)


class TestFlatIntersectionAgainstLinearSolve:
    def test_agreement(self):
        rng = random.Random(31415)
        for _ in range(60):
            dim = rng.choice([2, 3])

            def random_flat():
                base = QVector([rng.randint(-4, 4) for _ in range(dim)])
                count = rng.randint(0, dim - 1)
                return AffineFlat(
                    base, random_directions(rng, dim, count, lambda: rng.randint(-3, 3))
                )

            first, second = random_flat(), random_flat()
            point = common_point([first, second])
            oracle = reference_common_point([first, second])
            assert (point is not None) == (oracle is not None)
            if point is not None:
                assert contains(first, point) and contains(second, point)


class TestAgainstFreeVariableReferences:
    """The equation-based flat predicates against the free-variable systems
    they replaced, on seeded inputs in dimensions 1 to 4."""

    def test_common_point_decisions(self):
        rng = random.Random(8128)

        def entry():
            return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

        seen = Counter()
        for case in range(420):
            dim = 1 + case % 4
            mixed = case % 3 != 0
            # a planted point that every body passes through, or none
            planted = QVector(entry() for _ in range(dim)) if rng.random() < 0.6 else None
            bodies = []
            kinds = ["flat"] * rng.randint(1, 3)
            if mixed:
                kinds += ["polytope"] * rng.randint(1, 2)
                rng.shuffle(kinds)
            for kind in kinds:
                anchor = planted if planted is not None else QVector(
                    entry() for _ in range(dim)
                )
                if kind == "flat":
                    dirs = random_directions(rng, dim, rng.randint(0, dim), entry)
                    base = anchor
                    for direction in dirs:
                        base = base + entry() * direction
                    bodies.append(AffineFlat(base, dirs))
                    seen["point flat"] += not dirs
                    seen["whole-space flat"] += len(dirs) == dim
                else:
                    # the anchor is the centroid of the generators
                    gens = [QVector(entry() for _ in range(dim)) for _ in range(rng.randint(0, 2))]
                    total = anchor * (len(gens) + 1)
                    for g in gens:
                        total = total - g
                    bodies.append(VPolytope(tuple(gens + [total])))
                    seen["single-generator polytope"] += not gens
            point = common_point(bodies)
            expected = reference_common_point(bodies)
            assert (point is None) == (expected is None), bodies
            if planted is not None:
                assert point is not None, bodies
            if point is None:
                seen["empty"] += 1
                continue
            seen["mixed" if mixed else "all-flat"] += 1
            for body in bodies:
                if isinstance(body, AffineFlat):
                    assert reference_flat_contains(body, point), (bodies, point)
                else:
                    assert contains(body, point), (bodies, point)
        assert seen["empty"] >= 80 and seen["mixed"] >= 150 and seen["all-flat"] >= 80, seen
        for kind in ("point flat", "whole-space flat", "single-generator polytope"):
            assert seen[kind] >= 40, seen

    def test_flat_membership(self):
        rng = random.Random(1729)

        def entry():
            return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 5)))

        on = off = 0
        for case in range(400):
            dim = 1 + case % 4
            dirs = random_directions(rng, dim, rng.randint(0, dim), entry)
            flat = AffineFlat(QVector(entry() for _ in range(dim)), dirs)
            if rng.random() < 0.5:
                point = flat.base
                for direction in dirs:
                    point = point + entry() * direction
            else:
                point = QVector(entry() for _ in range(dim))
            expected = reference_flat_contains(flat, point)
            assert contains(flat, point) is expected, (flat, point)
            on += expected
            off += not expected
        assert on >= 200 and off >= 100, (on, off)

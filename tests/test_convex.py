import random
from fractions import Fraction as F

import pytest

from transversals.convex import (
    AffineFlat,
    VPolytope,
    affine_span,
    common_point,
    contains,
)
from transversals.exactla import MalformedInputError, QVector, solve_linear, QMatrix


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
    the pivot columns of ``_reduced_echelon``: each difference from the first
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


class TestFlatIntersectionAgainstLinearSolve:
    def test_agreement(self):
        rng = random.Random(31415)
        for _ in range(60):
            dim = rng.choice([2, 3])

            def random_flat():
                base = QVector([rng.randint(-4, 4) for _ in range(dim)])
                dirs = []
                while len(dirs) < rng.randint(0, dim - 1):
                    cand = QVector([rng.randint(-3, 3) for _ in range(dim)])
                    try:
                        AffineFlat(base, tuple(dirs + [cand]))
                    except MalformedInputError:
                        continue
                    dirs.append(cand)
                return AffineFlat(base, tuple(dirs))

            first, second = random_flat(), random_flat()
            point = common_point([first, second])
            # oracle: stack both flats' parameterizations into one solve
            width = dim + first.dimension + second.dimension
            rows = []
            rhs = []
            at = dim
            for flat in (first, second):
                for c in range(dim):
                    row = [F(0)] * width
                    row[c] = F(1)
                    for l, d in enumerate(flat.directions):
                        row[at + l] = -d[c]
                    rows.append(row)
                    rhs.append(flat.base[c])
                at += flat.dimension
            oracle = solve_linear(QMatrix(rows), QVector(rhs))
            assert (point is not None) == (oracle is not None)
            if point is not None:
                assert contains(first, point) and contains(second, point)

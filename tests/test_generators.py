import itertools
import random
from fractions import Fraction as F

import pytest

from transversals import convex, generators
from transversals.cli import EXIT_PRECONDITION, main, save_instance
from transversals.convex import VPolytope, contains
from transversals.exactla import QVector, _integer_solve, rank, solve_linear
from transversals.generators import (
    FLATS,
    TRUNCATED,
    GeneralPositionError,
    _general_position_checks,
    counterexample_from_points,
    gen_colorful_random,
    gen_counterexample,
    gen_planted,
)
from transversals.reporting import CheckRecord
from transversals.transversal import (
    Family,
    _member_tuples,
    check_colorful,
    k_transversal,
    validate_witness,
    verify_theorem,
)


def vec(*entries):
    return QVector(entries)


def assert_optimal(ce, twin):
    """The colorful property holds on ``ce``, every group spans its affine
    dimension, and no family of ``twin``, the truncated form, has a
    transversal."""
    assert check_colorful(ce.instance, points=False).failing_tuple is None
    spans = [c for c in ce.checks if c.name == "family-affine-dim"]
    assert len(spans) == len(ce.instance.families) and all(c.passed for c in spans)
    assert twin.tuple_points == ce.tuple_points
    assert all(k_transversal(f) is None for f in twin.instance.families)


HAND_POINTS = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 2)]


class TestHandConstruction:
    """Two groups of two planar points; the construction is small enough to
    check every artifact by hand."""

    def test_fibers(self):
        ce = counterexample_from_points([0, 0], HAND_POINTS, FLATS)
        first, second = ce.instance.families
        assert [b.base for b in first.bodies] == [vec(0, 0), vec(1, 0)]
        for fiber in first.bodies:
            (direction,) = fiber.directions
            assert direction[0] == 0 and direction[1] != 0  # vertical lines
        for fiber, anchor in zip(second.bodies, (vec(0, 1), vec(1, 2))):
            assert fiber.base == anchor
            (direction,) = fiber.directions
            assert direction[0] + direction[1] == 0  # slope -1 fibers

    def test_tuple_points(self):
        ce = counterexample_from_points([0, 0], HAND_POINTS, FLATS)
        assert ce.tuple_points == {
            (1, 1): vec(0, 1),
            (1, 2): vec(0, 3),
            (2, 1): vec(1, 0),
            (2, 2): vec(1, 2),
        }

    def test_truncated_members(self):
        ce = counterexample_from_points([0, 0], HAND_POINTS, TRUNCATED)
        first, second = ce.instance.families
        assert first.bodies[0].generators == (vec(0, 1), vec(0, 3))
        assert first.bodies[1].generators == (vec(1, 0), vec(1, 2))
        assert second.bodies[0].generators == (vec(0, 1), vec(1, 0))
        assert second.bodies[1].generators == (vec(0, 3), vec(1, 2))

    def test_colorful_witnesses_are_the_tuple_points(self):
        for representation in (TRUNCATED, FLATS):
            ce = counterexample_from_points([0, 0], HAND_POINTS, representation)
            report = check_colorful(ce.instance)
            assert report.holds
            assert report.witnesses == ce.tuple_points

    def test_verification_passes(self):
        twin = counterexample_from_points([0, 0], HAND_POINTS, TRUNCATED)
        for representation in (FLATS, TRUNCATED):
            ce = counterexample_from_points([0, 0], HAND_POINTS, representation)
            assert_optimal(ce, twin)

    def test_degenerate_points_rejected(self):
        collinear = [vec(0, 0), vec(0, 0), vec(0, 1), vec(1, 2)]
        with pytest.raises(GeneralPositionError):
            counterexample_from_points([0, 0], collinear, TRUNCATED)


def reference_general_position_checks(ks, points):
    """The ledger, parts, family rows and tuple points as computed before
    the shared elimination: one homogenized ``rank`` per subset and one
    ``solve_linear`` per member tuple."""

    def homogenized_rank(group):
        return rank(list(p.entries) + [1] for p in group)

    d = len(ks) + sum(ks)
    checks = []
    parts = []
    at = 0
    for k in ks:
        parts.append(tuple(points[at : at + k + 2]))
        at += k + 2
    for subset in itertools.combinations(range(len(points)), d):
        passed = homogenized_rank([points[i] for i in subset]) == d
        params = "subset=(%s)" % ",".join(str(i + 1) for i in subset)
        checks.append(CheckRecord("affine-span-unique", params, passed))
    family_rows = []
    for i, group in enumerate(parts, start=1):
        passed = homogenized_rank(group) == ks[i - 1] + 2
        params = f"family={i} expected={ks[i-1]+1}"
        checks.append(CheckRecord("family-affine-dim", params, passed))
        family_rows.append([p - group[0] for p in group[1:]])
    tuple_points = {}
    for selector in _member_tuples(k + 2 for k in ks):
        rows = []
        rhs = []
        for i, choice in enumerate(selector):
            anchor = parts[i][choice - 1]
            for row in family_rows[i]:
                rows.append(row)
                rhs.append(row.dot(anchor))
        solution = solve_linear(rows, [rhs])
        unique = solution is not None and not solution.kernel_basis
        params = "tuple=(%s)" % ",".join(str(c) for c in selector)
        checks.append(CheckRecord("tuple-intersection-unique", params, unique))
        if unique:
            tuple_points[selector] = solution.particulars[0]
    return checks, tuple(parts), family_rows, tuple_points


def reference_fiber_kernels(parts, family_rows):
    """One ``solve_linear`` kernel per anchor, as before the kernels were
    shared by each color group."""
    return [
        [
            solve_linear(rows, [[row.dot(a) for row in rows]]).kernel_basis
            for a in group
        ]
        for rows, group in zip(family_rows, parts)
    ]


def random_points(rng, ks, side):
    d = len(ks) + sum(ks)
    return [
        vec(*(rng.randint(-side, side) for _ in range(d)))
        for _ in range(2 * len(ks) + sum(ks))
    ]


def degenerate_cases():
    """(name, ks, points) for each kind of failure the ledger must report."""
    rng = random.Random(17)
    repeated = random_points(rng, [1, 1], 50)
    repeated[4] = repeated[1]
    collinear = random_points(rng, [1, 1], 50)
    collinear[2] = 2 * collinear[1] - collinear[0]
    # (1,3,4,6) is the 8th of the 15 subsets, and the only dependent one.
    middle = random_points(rng, [1, 1], 50)
    middle[5] = middle[0] + middle[2] - middle[3]
    # Parallel segments: every pair of points is distinct, but the two
    # difference rows are dependent, so no tuple point is unique.
    parallel = [vec(0, 0), vec(1, 0), vec(0, 1), vec(2, 1)]
    # The second group's direction lies in the first group's span.
    singular = random_points(rng, [1, 0], 50)
    singular[4] = singular[3] + (singular[1] - singular[0]) + 2 * (singular[2] - singular[0])
    return [
        ("repeated", [1, 1], repeated),
        ("collinear", [1, 1], collinear),
        ("middle", [1, 1], middle),
        ("parallel", [0, 0], parallel),
        ("singular", [1, 0], singular),
    ]


class TestSharedEliminationMatchesReference:
    """The depth-first subset walk, the one-elimination tuple solve and the
    per-group fiber kernels give what the per-subset and per-tuple code gave."""

    def assert_matches(self, ks, points):
        checks, parts, family_rows, tuple_points = reference_general_position_checks(
            ks, points
        )
        ok, got_checks, got_parts, got_rows, got_points = _general_position_checks(
            ks, points
        )
        assert got_checks == checks
        assert ok == all(c.passed for c in checks)
        assert tuple(got_parts) == parts and got_rows == family_rows
        assert got_points == tuple_points
        if not ok:
            first_failure = next(c for c in checks if not c.passed)
            for representation in (TRUNCATED, FLATS):
                with pytest.raises(GeneralPositionError) as info:
                    counterexample_from_points(ks, points, representation)
                assert info.value.check == first_failure
            return checks
        ce = counterexample_from_points(ks, points, FLATS)
        assert ce.checks == checks and ce.tuple_points == tuple_points
        kernels = [[fiber.directions for fiber in f.bodies] for f in ce.instance.families]
        assert kernels == reference_fiber_kernels(parts, family_rows)
        return checks

    def test_seeded_random_point_sets(self):
        rng = random.Random(5)
        outcomes = set()
        for ks in ([0], [1], [0, 0], [1, 0], [1, 1], [0, 0, 0], [2, 1], [1, 1, 1]):
            for side in (1, 2, 1000):
                for _ in range(4):
                    checks = self.assert_matches(ks, random_points(rng, ks, side))
                    outcomes.add(all(c.passed for c in checks))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name,ks,points", degenerate_cases())
    def test_degenerate_point_sets(self, name, ks, points):
        checks = self.assert_matches(ks, points)
        failed = [c for c in checks if not c.passed]
        names = {c.name for c in failed}
        if name == "repeated":
            # points 2 and 5 sit in different groups, so only subsets fail
            assert names == {"affine-span-unique"}
        elif name == "collinear":
            assert "family-affine-dim" in names
        elif name == "middle":
            assert [c.params for c in failed] == ["subset=(1,3,4,6)"]
        else:
            assert names == {"tuple-intersection-unique"}
            assert len(failed) == len(list(_member_tuples(k + 2 for k in ks)))


def reference_tuple_solve(ks, points):
    """The "tuple-intersection-unique" records and tuple points as computed
    before the right-hand sides were taken per member: one ``solve_linear``
    with one right-hand side per member tuple."""
    parts = []
    at = 0
    for k in ks:
        parts.append(points[at : at + k + 2])
        at += k + 2
    family_rows = [[p - group[0] for p in group[1:]] for group in parts]
    rhs = [
        [[row.dot(anchor) for row in rows] for anchor in group]
        for rows, group in zip(family_rows, parts)
    ]
    selectors = list(_member_tuples(k + 2 for k in ks))
    solution = solve_linear(
        (row for rows in family_rows for row in rows),
        (
            [b for i, choice in enumerate(selector) for b in rhs[i][choice - 1]]
            for selector in selectors
        ),
    )
    unique = solution is not None and not solution.kernel_basis
    checks = [
        CheckRecord(
            "tuple-intersection-unique",
            "tuple=(%s)" % ",".join(str(c) for c in selector),
            unique,
        )
        for selector in selectors
    ]
    return checks, dict(zip(selectors, solution.particulars)) if unique else {}


def singular_cases():
    """(name, ks, points) whose stacked difference rows are dependent while
    every group keeps its own affine dimension."""
    rng = random.Random(23)
    cases = []
    for ks in ([1, 1, 1, 1], [2, 2, 2], [2, 1, 1], [1, 0]):
        points = random_points(rng, ks, 1000)
        # The last group's last difference row repeats the first group's first.
        points[-1] = points[-2] + (points[1] - points[0])
        cases.append(("repeated-row-%s" % "".join(map(str, ks)), ks, points))
    # Rational points, the last row a combination of two other groups' rows.
    points = [
        vec(*(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))
        for _ in range(7)
    ]
    points[-1] = points[-2] + F(1, 3) * (points[1] - points[0]) - (points[4] - points[3])
    cases.append(("rational-combination", [1, 0, 0], points))
    return cases


class TestMemberColumnsMatchTupleColumns:
    """One right-hand side per (family, member) gives the records and the
    tuple points that one right-hand side per tuple gave."""

    def assert_matches(self, ks, points):
        checks, tuple_points = reference_tuple_solve(ks, points)
        _, got_checks, _, _, got_points = _general_position_checks(ks, points)
        got_tuple_checks = [c for c in got_checks if c.name == "tuple-intersection-unique"]
        assert got_tuple_checks == checks
        assert list(got_points.items()) == list(tuple_points.items())
        return checks

    @pytest.mark.parametrize("ks", [[1, 1, 1, 1], [2, 2, 2], [2, 1, 1], [1, 0]])
    def test_random_point_sets(self, ks):
        rng = random.Random(sum(ks) * 7 + len(ks))
        outcomes = set()
        for side in (1, 3, 1000):
            for _ in range(3):
                checks = self.assert_matches(ks, random_points(rng, ks, side))
                outcomes.add(checks[0].passed)
        assert True in outcomes

    @pytest.mark.parametrize("name,ks,points", singular_cases())
    def test_singular_stack_fails_every_tuple(self, name, ks, points):
        checks = self.assert_matches(ks, points)
        assert not any(c.passed for c in checks)
        _, got_checks, _, _, _ = _general_position_checks(ks, points)
        family_checks = [c for c in got_checks if c.name == "family-affine-dim"]
        assert all(c.passed for c in family_checks)


class TestWorkCounts:
    """The tuple solve eliminates one column per member, and a flats
    counterexample ranks each color group's directions once."""

    def test_one_right_hand_side_per_member(self, monkeypatch):
        shapes = []

        def counting(table, width):
            shapes.append((len(table), len(table[0]), width))
            return _integer_solve(table, width)

        monkeypatch.setattr(generators, "_integer_solve", counting)
        gen_counterexample([1, 1, 1, 1], 0)
        # d = 8 matrix columns and 4 * 3 member columns, not 3**4 = 81.
        assert shapes and set(shapes) == {(8, 8 + 12, 8)}

    @pytest.mark.parametrize("ks", [[1, 1, 1, 1], [2, 1, 1], [1, 0]])
    def test_directions_ranked_once_per_group(self, monkeypatch, ks):
        calls = []

        def counting(rows):
            rows = list(rows)
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(convex, "rank", counting)
        ce = gen_counterexample(ks, 3, FLATS)
        assert len(calls) == len(ks)
        for family in ce.instance.families:
            first = family.bodies[0]
            assert all(f.directions is first.directions for f in family.bodies)


class TestSingleFamilyBoundary:
    def test_two_distinct_points_on_the_line(self):
        ce = gen_counterexample([0], seed=9)
        (family,) = ce.instance.families
        assert ce.instance.dim == 1
        gens = [b.generators for b in family.bodies]
        assert all(len(g) == 1 for g in gens)
        assert gens[0] != gens[1]
        assert check_colorful(ce.instance).holds
        assert k_transversal(family) is None
        assert all(c.passed for c in ce.checks)


class TestGenCounterexample:
    @pytest.mark.parametrize("ks", [(0, 0), (1, 0), (1, 1), (0, 0, 0), (2, 1)])
    def test_verifies_across_seeds(self, ks):
        for seed in range(4):
            twin = gen_counterexample(list(ks), seed)
            assert_optimal(twin, twin)
            assert_optimal(gen_counterexample(list(ks), seed, FLATS), twin)

    def test_retry_budget(self, monkeypatch):
        from transversals.generators import RetryExhaustedError

        # a zero-size box makes every draw degenerate
        monkeypatch.setattr(generators, "_BOX_SIDE", 0)
        monkeypatch.setattr(generators, "_MAX_TRIES", 3)
        with pytest.raises(RetryExhaustedError, match="in 3 attempts"):
            gen_counterexample([0, 0], seed=0)

    def test_truncated_members_lie_on_their_fibers(self):
        flats_ce = gen_counterexample([1, 1], seed=2, representation=FLATS)
        trunc_ce = gen_counterexample([1, 1], seed=2, representation=TRUNCATED)
        assert flats_ce.tuple_points == trunc_ce.tuple_points
        for flat_fam, trunc_fam in zip(
            flats_ce.instance.families, trunc_ce.instance.families
        ):
            for fiber, member in zip(flat_fam.bodies, trunc_fam.bodies):
                for generator in member.generators:
                    assert contains(fiber, generator)

    def test_determinism(self):
        first = gen_counterexample([1, 0], seed=5)
        second = gen_counterexample([1, 0], seed=5)
        assert first.instance == second.instance
        assert first.tuple_points == second.tuple_points
        assert gen_counterexample([1, 0], seed=6).instance != first.instance

    def test_certificate_names_every_condition(self):
        ce = gen_counterexample([0, 0], seed=1)
        names = {c.name for c in ce.checks}
        assert names == {
            "affine-span-unique",
            "family-affine-dim",
            "tuple-intersection-unique",
        }
        assert all(c.passed for c in ce.checks)


class TestTamperedInstances:
    def test_dependent_group_fails_rank_check(self):
        with pytest.raises(GeneralPositionError) as info:
            counterexample_from_points([0], [vec(3), vec(3)])
        assert info.value.check.name == "family-affine-dim"

    def test_deleted_tuple_point_fails_colorful(self, tmp_path, capsys):
        ce = gen_counterexample([0, 0], seed=4)
        families = list(ce.instance.families)
        first = families[0]
        pruned = VPolytope((first.bodies[0].generators[0],))
        families[0] = Family(first.k, (pruned,) + first.bodies[1:])
        tampered = type(ce.instance)(ce.instance.dim, tuple(families))
        assert check_colorful(tampered, points=False).failing_tuple == (1, 2)
        path = str(tmp_path / "tampered.json")
        save_instance(path, tampered)
        assert main(["certificate", path]) == EXIT_PRECONDITION
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["error: colorful intersection fails at tuple (1, 2)"]


class TestGenPlanted:
    def test_point_plant_on_the_line(self):
        instance = gen_planted(1, [0, 0], seed=0)
        witness = k_transversal(instance.families[0])
        assert witness is not None
        assert witness.flat.dimension == 0

    def test_line_plant_in_the_plane(self):
        instance = gen_planted(2, [1], seed=1)
        witness = k_transversal(instance.families[0])
        assert witness is not None
        validate_witness(instance.families[0], witness)

    def test_theorem_mode_instance(self):
        instance = gen_planted(3, [1, 1], seed=2)
        report = verify_theorem(instance)
        assert report.family_index in (1, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_designated_family_always_has_witness(self, seed):
        instance = gen_planted(3, [1, 1], seed=seed)
        assert k_transversal(instance.families[0]) is not None

    def test_dimension_precondition(self):
        with pytest.raises(Exception):
            gen_planted(1, [2], seed=0)


class TestGenColorfulRandom:
    @pytest.mark.parametrize("ks", [(0, 0), (1, 1), (1, 1, 1)])
    def test_colorful_by_construction(self, ks):
        instance = gen_colorful_random(list(ks), seed=0)
        assert instance.dim == len(ks) + sum(ks) - 1
        assert check_colorful(instance).holds

    def test_member_counts(self):
        instance = gen_colorful_random([1, 1], seed=7)
        assert [len(f.bodies) for f in instance.families] == [3, 3]
        anchor_count = 3 * 3
        total_anchor_slots = sum(
            1
            for fam_index in range(2)
            for member in instance.families[fam_index].bodies
            for _ in member.generators
        )
        assert total_anchor_slots >= 2 * anchor_count  # every anchor appears twice

    def test_theorem_holds_on_samples(self):
        for seed in range(5):
            instance = gen_colorful_random([1, 0], seed=seed)
            report = verify_theorem(instance)
            validate_witness(
                instance.families[report.family_index - 1], report.witness
            )

    def test_determinism(self):
        assert gen_colorful_random([1, 1], 3) == gen_colorful_random([1, 1], 3)
        assert gen_colorful_random([1, 1], 3) != gen_colorful_random([1, 1], 4)

    def test_missing_anchor_breaks_the_wiring_check(self, monkeypatch):
        def drop_first_generator(generators):
            return VPolytope(generators[1:])

        monkeypatch.setattr(generators, "VPolytope", drop_first_generator)
        with pytest.raises(AssertionError, match="anchor wiring"):
            gen_colorful_random([1, 1], seed=0)

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from transversals.convex import AffineFlat, UnsupportedRepresentationError, VPolytope, contains
from transversals.exactla import (
    LinearConstraint,
    MalformedInputError,
    QVector,
    Relation,
    _integer_rows,
    hull_certificate,
    lp_feasible,
    solve_linear,
)
from transversals import transversal as transversal_module
from transversals.generators import (
    FLATS,
    TRUNCATED,
    gen_colorful_random,
    gen_counterexample,
)
from transversals.transversal import (
    Family,
    Instance,
    Partition,
    TheoremPreconditionError,
    _shared_generator,
    check_colorful,
    common_point,
    k_transversal,
    partitions,
    scan_partitions,
    validate_witness,
    verify_theorem,
)
from test_convex import weighted_sum


def vec(*entries):
    return QVector(entries)


def point_poly(*entries):
    return VPolytope((vec(*entries),))


def segment(a, b):
    return VPolytope((QVector(a), QVector(b)))


class TestPartitions:
    def test_size_two(self):
        assert [p.label() for p in partitions(2)] == ["{1}/{2}"]

    def test_size_three(self):
        assert [p.label() for p in partitions(3)] == [
            "{1}/{2,3}",
            "{1,2}/{3}",
            "{1,3}/{2}",
        ]

    def test_size_four_count_matches_enumeration(self):
        # brute force: nonempty bipartitions of a 4-set, one per complement pair
        ground = {1, 2, 3, 4}
        seen = set()
        for r in range(1, 4):
            for combo in itertools.combinations(sorted(ground), r):
                key = frozenset([frozenset(combo), frozenset(ground - set(combo))])
                seen.add(key)
        produced = partitions(4)
        assert len(produced) == len(seen) == 2 ** 3 - 1
        assert len({(p.part_a, p.part_b) for p in produced}) == 7

    def test_canonical_form(self):
        for p in partitions(5):
            assert 1 in p.part_a
            assert set(p.part_a) | set(p.part_b) == set(range(1, 6))

    def test_too_small(self):
        with pytest.raises(MalformedInputError):
            partitions(1)

    def test_partition_validation(self):
        with pytest.raises(MalformedInputError):
            Partition((2,), (1, 3))  # canonical form keeps 1 in block A


class TestKTransversal:
    def test_collinear_points_have_a_line(self):
        family = Family(1, (point_poly(0, 0), point_poly(1, 0), point_poly(2, 0)))
        witness = k_transversal(family)
        assert witness is not None
        assert witness.partition == Partition((1, 3), (2,))
        assert witness.crossing_point == vec(1, 0)
        assert witness.flat.dimension == 1
        validate_witness(family, witness)

    def test_non_collinear_points_have_none(self):
        family = Family(1, (point_poly(0, 0), point_poly(1, 1), point_poly(2, 0)))
        assert k_transversal(family) is None

    def test_overlapping_intervals(self):
        family = Family(0, (segment([0], [2]), segment([1], [3])))
        witness = k_transversal(family)
        assert witness is not None
        assert F(1) <= witness.crossing_point[0] <= F(2)
        assert witness.flat.dimension == 0
        validate_witness(family, witness)

    def test_flats_rejected(self):
        family = Family(0, (AffineFlat(vec(0)), AffineFlat(vec(1))))
        with pytest.raises(UnsupportedRepresentationError):
            k_transversal(family)

    def test_wrong_size_rejected(self):
        family = Family(1, (point_poly(0, 0), point_poly(1, 0)))
        with pytest.raises(MalformedInputError):
            k_transversal(family)

    def test_zero_weight_anchor_uses_first_generator(self):
        # member 3 never receives weight: the first two members already meet
        family = Family(
            1,
            (
                segment([0, 0], [2, 0]),
                segment([1, -1], [1, 1]),
                segment([5, 5], [6, 5]),
            ),
        )
        witness = k_transversal(family)
        assert witness is not None
        validate_witness(family, witness)


class TestValidateWitnessIndices:
    """Anchors must name the members 1..k+2, each once; any other index set
    is refused with a ValueError naming the bad index before any anchor is
    looked up."""

    def witness(self):
        segments = [VPolytope((vec(x, 0), vec(x, 2))) for x in range(3)]
        family = Family(1, tuple(segments))
        witness = k_transversal(family)
        validate_witness(family, witness)
        return family, witness

    def relabelled(self, witness, indices):
        anchors = tuple((idx, point) for idx, (_, point) in zip(indices, witness.anchor_points))
        return dataclasses.replace(witness, anchor_points=anchors)

    def test_member_zero(self):
        # member 3's anchor lies in bodies[-1], which index 0 would read
        family, witness = self.witness()
        with pytest.raises(ValueError, match=r"^anchor member 0 is not a member index 1\.\.3$"):
            validate_witness(family, self.relabelled(witness, (1, 2, 0)))

    def test_repeated_member(self):
        # member 1's anchor twice, in place of member 2's: each lies in its member
        family, witness = self.witness()
        first, _, third = witness.anchor_points
        repeated = dataclasses.replace(witness, anchor_points=(first, first, third))
        with pytest.raises(ValueError, match=r"^anchor member 1 is repeated$"):
            validate_witness(family, repeated)

    def test_member_past_the_family(self):
        family, witness = self.witness()
        with pytest.raises(ValueError, match=r"^anchor member 4 is not a member index 1\.\.3$"):
            validate_witness(family, self.relabelled(witness, (1, 2, 4)))


def random_polytope(rng, dim, max_gens=4, spread=6):
    gens = [
        QVector([rng.randint(-spread, spread) for _ in range(dim)])
        for _ in range(rng.randint(1, max_gens))
    ]
    return VPolytope(tuple(gens))


class TestFullSpaceIsAlwaysATransversal:
    def test_any_family_of_k_plus_2_bodies_in_k_space(self):
        # ambient dimension equals the target: the whole space is a k-flat
        # meeting everything, so a witness must always exist
        rng = random.Random(808)
        for _ in range(25):
            k = rng.choice([1, 2])
            family = Family(k, tuple(random_polytope(rng, k) for _ in range(k + 2)))
            witness = k_transversal(family)
            assert witness is not None
            validate_witness(family, witness)


class TestPairEquivalence:
    def test_matches_common_point_for_pairs(self):
        rng = random.Random(1105)
        present = absent = 0
        for _ in range(200):
            dim = rng.choice([1, 2, 3])
            family = Family(0, (random_polytope(rng, dim), random_polytope(rng, dim)))
            witness = k_transversal(family)
            meets = common_point(family.bodies) is not None
            assert (witness is not None) == meets
            if witness is not None:
                validate_witness(family, witness)
                present += 1
            else:
                absent += 1
        assert present > 10 and absent > 10  # both outcomes exercised


def line_stabs_all_segments(segments):
    """Independent oracle for a line meeting three planar segments: sign
    patterns over non-vertical lines (y = a*x + b) plus the vertical sweep."""
    for signs in itertools.product((1, -1), repeat=len(segments)):
        constraints = []
        for (start, end), sign in zip(segments, signs):
            # sign * (y - a*x - b) >= 0 at start, <= 0 at end
            constraints.append(
                LinearConstraint(
                    QVector([sign * start[0], sign]), Relation.LE, sign * start[1]
                )
            )
            constraints.append(
                LinearConstraint(
                    QVector([-sign * end[0], -sign]), Relation.LE, -sign * end[1]
                )
            )
        if lp_feasible(constraints, 2) is not None:
            return True
    lo = max(min(s[0][0], s[1][0]) for s in segments)
    hi = min(max(s[0][0], s[1][0]) for s in segments)
    return lo <= hi


class TestLineStabbingOracle:
    def test_agreement_on_random_triples(self):
        rng = random.Random(2718)
        hits = misses = 0
        for _ in range(200):
            segments = []
            for _ in range(3):
                start = vec(rng.randint(-9, 9), rng.randint(-9, 9))
                end = vec(rng.randint(-9, 9), rng.randint(-9, 9))
                segments.append((start, end))
            family = Family(1, tuple(VPolytope(s) for s in segments))
            witness = k_transversal(family)
            oracle = line_stabs_all_segments(segments)
            assert (witness is not None) == oracle
            if witness is not None:
                validate_witness(family, witness)
                hits += 1
            else:
                misses += 1
        assert hits > 10 and misses > 10


class TestCheckColorful:
    def intervals_instance(self):
        return Instance(
            1,
            (
                Family(0, (segment([0], [2]), segment([1], [3]))),
                Family(0, (segment([0], [3]), segment([1], [2]))),
            ),
        )

    def test_holds_with_witness_per_tuple(self):
        report = check_colorful(self.intervals_instance())
        assert report.holds
        assert set(report.witnesses) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        instance = self.intervals_instance()
        for selector, point in report.witnesses.items():
            for fam, choice in zip(instance.families, selector):
                assert contains(fam.bodies[choice - 1], point)

    def test_first_failing_tuple_is_lexicographic(self):
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [1]),)),
                Family(0, (segment([2], [3]),)),
            ),
        )
        report = check_colorful(instance)
        assert not report.holds
        assert report.failing_tuple == (1, 1)

    def test_order_invariant_and_monotone(self):
        from transversals.generators import gen_colorful_random

        rng = random.Random(63)
        for seed in range(6):
            instance = gen_colorful_random([1, 0], seed)
            assert check_colorful(instance).holds
            flipped = Instance(instance.dim, tuple(reversed(instance.families)))
            assert check_colorful(flipped).holds
            # dropping any one member preserves the property
            target = rng.randrange(len(instance.families))
            fam = instance.families[target]
            if len(fam.bodies) > 1:
                drop = rng.randrange(len(fam.bodies))
                kept = tuple(b for i, b in enumerate(fam.bodies) if i != drop)
                families = list(instance.families)
                families[target] = Family(fam.k, kept)
                shrunk = Instance(instance.dim, tuple(families))
                assert check_colorful(shrunk).holds


# The instances of the golden pipelines: generator, targets, seed and, for
# counterexamples, representation.
GOLDEN_INSTANCES = [
    ("random", [1, 1], 3, None),
    ("counterexample", [1, 0], 5, TRUNCATED),
    ("counterexample", [2, 1], 5, TRUNCATED),
    ("counterexample", [2, 1], 5, FLATS),
    ("counterexample", [2, 2], 5, TRUNCATED),
    ("counterexample", [3, 1], 5, TRUNCATED),
    ("counterexample", [1, 1, 1], 5, TRUNCATED),
]


def golden_instance(kind, ks, seed, representation):
    if kind == "random":
        return gen_colorful_random(ks, seed)
    return gen_counterexample(ks, seed, representation).instance


class TestColorfulShortcut:
    """Polytopes that share a generator meet there, so a ``check_colorful``
    walk without points solves no LP for them; a points walk prints the
    shared generator only where it is the tuple's one common point."""

    def counting_common_point(self, monkeypatch):
        calls = []

        def counted(bodies):
            calls.append(tuple(bodies))
            return common_point(bodies)

        monkeypatch.setattr(transversal_module, "common_point", counted)
        return calls

    def bodies(self, instance, selector):
        return [fam.bodies[c - 1] for fam, c in zip(instance.families, selector)]

    @pytest.mark.parametrize("kind,ks,seed,representation", GOLDEN_INSTANCES)
    def test_witnesses_equal_common_point_on_golden_instances(
        self, kind, ks, seed, representation
    ):
        instance = golden_instance(kind, ks, seed, representation)
        report = check_colorful(instance)
        assert report.holds
        sizes = [len(fam.bodies) for fam in instance.families]
        assert sorted(report.witnesses) == list(
            itertools.product(*[range(1, size + 1) for size in sizes])
        )
        for selector, point in report.witnesses.items():
            assert point == common_point(self.bodies(instance, selector))
        assert check_colorful(instance, points=False).failing_tuple is None
        # Each scan witness's anchors and crossing point are the Fraction
        # reference sums of its partition's hull weights.
        for family in instance.families:
            if representation == FLATS:
                continue
            witness = scan_partitions(family).witness
            if witness is None:
                continue
            in_a = set(witness.partition.part_a)
            groups = [0 if idx in in_a else 1 for idx in range(1, family.k + 3)]
            weights, _ = hull_certificate([b._table for b in family.bodies], groups)
            crossing = QVector([F(0)] * instance.dim)
            for (idx, anchor), block, member in zip(
                witness.anchor_points, weights, family.bodies
            ):
                combo = weighted_sum(block, member.generators)
                total = sum(block)
                assert anchor == ((1 / total) * combo if total else member.generators[0])
                if idx in in_a:
                    crossing = crossing + combo
            assert witness.crossing_point == crossing

    @pytest.mark.parametrize("ks", [[1, 0], [2, 1], [1, 1, 1]])
    def test_truncated_counterexamples_solve_no_lp(self, ks, monkeypatch):
        instance = gen_counterexample(ks, 5).instance
        calls = self.counting_common_point(monkeypatch)
        assert check_colorful(instance).holds
        assert check_colorful(instance, points=False).failing_tuple is None
        assert calls == []

    def test_random_instances_decide_without_lp(self, monkeypatch):
        instance = gen_colorful_random([1, 1], 3)
        calls = self.counting_common_point(monkeypatch)
        assert check_colorful(instance, points=False).failing_tuple is None
        assert calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_too_few_hull_normals_are_not_ranked(self, seed, monkeypatch):
        # Full-dimensional bodies have no hull normals, so no tuple of them
        # can have its shared generator proven unique and none is ranked.
        instance = gen_colorful_random([1, 1, 1], seed)
        ranked = []
        echelon = transversal_module._echelon

        def counted(rows):
            ranked.append(rows)
            return echelon(rows)

        monkeypatch.setattr(transversal_module, "_echelon", counted)
        report = check_colorful(instance)
        monkeypatch.undo()
        assert ranked == []
        assert report.holds and len(report.witnesses) == 27
        for selector, point in report.witnesses.items():
            assert point == common_point(self.bodies(instance, selector))

    def test_unique_shared_generator_is_the_witness(self, monkeypatch):
        # Two segments crossing only at their shared endpoint.
        instance = Instance(
            2,
            (
                Family(0, (segment([0, 0], [2, 0]),)),
                Family(0, (segment([0, 0], [0, 3]),)),
            ),
        )
        calls = self.counting_common_point(monkeypatch)
        assert check_colorful(instance).witnesses == {(1, 1): vec(0, 0)}
        assert calls == []

    @pytest.mark.parametrize(
        "first,second,lp_point",
        [
            (segment([0], [2]), segment([0], [3]), vec(2)),
            (segment([0, 0], [2, 0]), segment([0, 0], [3, 0]), vec(2, 0)),
        ],
    )
    def test_shared_generator_without_unique_point_keeps_lp_witness(
        self, first, second, lp_point, monkeypatch
    ):
        # The hulls overlap in a segment, so the shared endpoint is one of
        # many common points and the LP's point is printed.
        assert common_point([first, second]) == lp_point
        instance = Instance(first.dim, (Family(0, (first,)), Family(0, (second,))))
        calls = self.counting_common_point(monkeypatch)
        assert check_colorful(instance).witnesses == {(1, 1): lp_point}
        assert len(calls) == 1
        assert check_colorful(instance, points=False).failing_tuple is None
        assert len(calls) == 1

    @pytest.mark.parametrize("ks,seed", [([1, 0], 5), ([2, 1], 5), ([2, 2], 1), ([1, 1, 1], 3)])
    def test_integer_hull_normals_keep_the_witnesses(self, ks, seed, monkeypatch):
        """``_normal_rows`` are primitive integer rows, each a positive
        multiple of a row of the rational kernel basis, so the rank tests of
        ``check_colorful``, which ranks them, and the witnesses are those
        the rational kernel gives."""

        def rational_kernel(body):
            base = body.generators[0]
            differences = [g - base for g in body.generators[1:]]
            return solve_linear(differences or [[0] * body.dim]).kernel_basis

        instance = gen_counterexample(ks, seed).instance
        witnesses = check_colorful(instance).witnesses
        for family in instance.families:
            for body in family.bodies:
                rational = rational_kernel(body)
                assert len(body._normal_rows) == len(rational)
                for normal, row in zip(body._normal_rows, rational):
                    assert all(type(e) is int for e in normal)
                    assert math.gcd(*normal) == 1
                    ratio = next(a / b for a, b in zip(normal, row) if b)
                    assert ratio > 0 and QVector(normal) == row * ratio
        monkeypatch.setattr(
            VPolytope,
            "_normal_rows",
            property(lambda body: [_integer_rows([row])[0][0] for row in rational_kernel(body)]),
        )
        assert check_colorful(instance).witnesses == witnesses

    def test_points_walk_reuses_the_decided_points(self, monkeypatch):
        # (1, 1) shares the generator 0, one of many common points, and
        # (1, 2) meets only by LP.
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [2]),)),
                Family(0, (segment([0], [5]), segment([1], [3]))),
            ),
        )
        witnesses = check_colorful(instance).witnesses
        calls = self.counting_common_point(monkeypatch)
        decided = check_colorful(instance, points=False)
        assert decided.holds and list(decided.witnesses) == [(1, 2)]
        assert check_colorful(instance, solved=decided.witnesses).witnesses == witnesses
        assert calls == [tuple(self.bodies(instance, s)) for s in [(1, 2), (1, 1)]]

    def test_shared_generator_across_table_scales(self):
        """Equal generators get equal keys in polytopes whose tables have
        different scales, and unequal ones never do."""
        half = F(1, 2)
        first = VPolytope((vec(F(1, 3), 5), vec(half, 1)))  # table scale 6
        second = VPolytope((vec(0, F(1, 4)), vec(half, 1)))  # table scale 4
        third = VPolytope((vec(half, 1), vec(1, 2)))  # table scale 2
        assert _shared_generator([first, second, third]) == vec(half, 1)
        assert _shared_generator([first, VPolytope((vec(half, 2), vec(1, 1)))]) is None
        for body in (first, second, third):
            assert list(body._generator_keys.values()) == list(body.generators)
            for key, g in body._generator_keys.items():
                numerators, scale = g._integer_form()
                assert key == (tuple(numerators), scale)

    def test_hand_made_failing_tuple_is_reported_first(self):
        # (1, 1) shares the generator 0, (1, 2) meets only by LP, and (1, 3)
        # is the first of the disjoint tuples.
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [2]), segment([9], [10]))),
                Family(0, (segment([0], [5]), segment([1], [3]), segment([7], [8]))),
            ),
        )
        assert check_colorful(instance, points=False).failing_tuple == (1, 3)
        report = check_colorful(instance)
        assert not report.holds and report.failing_tuple == (1, 3)
        assert report.witnesses == {}

    def test_flat_and_mixed_tuples_never_take_the_shortcut(self, monkeypatch):
        origin = vec(0, 0)
        line = AffineFlat(origin, (vec(1, 0),))
        point_flat = AffineFlat(origin)
        corner = VPolytope((origin, vec(0, 1)))
        for bodies in ([line, corner], [corner, line], [point_flat, line]):
            instance = Instance(2, tuple(Family(0, (body,)) for body in bodies))
            calls = self.counting_common_point(monkeypatch)
            assert check_colorful(instance, points=False).failing_tuple is None
            assert check_colorful(instance).witnesses == {(1, 1): common_point(bodies)}
            assert calls == [tuple(bodies), tuple(bodies)]


class TestVerifyTheorem:
    def test_interval_instance(self):
        instance = TestCheckColorful().intervals_instance()
        report = verify_theorem(instance)
        assert report.family_index == 1
        assert F(1) <= report.witness.crossing_point[0] <= F(2)
        validate_witness(instance.families[0], report.witness)

    def test_red_blue_boxes(self):
        # three red and three blue boxes in 3-space, every red meets every blue
        rng = random.Random(5)
        anchors = {
            (i, j): QVector([rng.randint(-6, 6) for _ in range(3)])
            for i in range(1, 4)
            for j in range(1, 4)
        }
        red = tuple(
            VPolytope(tuple(anchors[(i, j)] for j in range(1, 4))) for i in range(1, 4)
        )
        blue = tuple(
            VPolytope(tuple(anchors[(i, j)] for i in range(1, 4))) for j in range(1, 4)
        )
        instance = Instance(3, (Family(1, red), Family(1, blue)))
        report = verify_theorem(instance)
        family = instance.families[report.family_index - 1]
        validate_witness(family, report.witness)
        assert report.witness.flat.dimension <= 1

    def test_three_pairs_in_the_plane(self):
        rng = random.Random(12)
        for seed in range(8):
            anchors = {
                t: QVector([rng.randint(-7, 7), rng.randint(-7, 7)])
                for t in itertools.product((1, 2), repeat=3)
            }
            families = []
            for i in range(3):
                members = tuple(
                    VPolytope(tuple(p for t, p in sorted(anchors.items()) if t[i] == j))
                    for j in (1, 2)
                )
                families.append(Family(0, members))
            instance = Instance(2, tuple(families))
            report = verify_theorem(instance)
            fam = instance.families[report.family_index - 1]
            meet = common_point(fam.bodies)
            assert meet is not None

    def test_wrong_dimension_reported(self):
        instance = Instance(
            2,
            (
                Family(0, (point_poly(0, 0), point_poly(0, 0))),
                Family(0, (point_poly(0, 0), point_poly(0, 0))),
            ),
        )
        with pytest.raises(TheoremPreconditionError, match="dimension"):
            verify_theorem(instance)

    def test_wrong_family_size_reported(self):
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [2]),)),
                Family(0, (segment([0], [3]), segment([1], [2]))),
            ),
        )
        with pytest.raises(TheoremPreconditionError, match="family 1"):
            verify_theorem(instance)

    def test_colorful_failure_reported(self):
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [1]), segment([0], [1]))),
                Family(0, (segment([2], [3]), segment([2], [3]))),
            ),
        )
        with pytest.raises(TheoremPreconditionError, match="colorful"):
            verify_theorem(instance)

import itertools
import math
import random
from fractions import Fraction

import pytest

from transversals import certificate as certificate_module
from transversals import exactla as exactla_module
from transversals.certificate import (
    _AUDIT_STRIDE,
    CERTIFICATE_COMPLETE,
    THEOREM_CONFIRMED,
    CertificateInconsistencyError,
    NormalAssignment,
    assign_normals,
    build_chain_complex,
    build_join,
    full_certificate,
    involution,
    origin_in_hull,
    verify_claim,
)
from transversals.convex import VPolytope
from transversals.exactla import (
    LinearConstraint,
    MalformedInputError,
    PreconditionError,
    QVector,
    Relation,
    check_two_sided,
    format_rational,
    lp_feasible,
    positive_functional,
)
from transversals.generators import (
    TRUNCATED,
    counterexample_from_points,
    gen_colorful_random,
    gen_counterexample,
)
from transversals.reporting import CheckRecord
from transversals.transversal import (
    Family,
    Instance,
    Partition,
    TheoremPreconditionError,
    check_colorful,
    partitions,
)


def vec(*entries):
    return QVector(entries)


def reference_origin_in_hull(vectors):
    """The origin-in-hull system in free variables: ``sum_j w_j v_j = 0``,
    ``sum_j w_j = 1`` and ``-w_j <= 0``, decided by ``lp_feasible``."""
    count = len(vectors)
    constraints = [
        LinearConstraint(QVector(v[c] for v in vectors), Relation.EQ, 0)
        for c in range(vectors[0].dim)
    ]
    constraints.append(LinearConstraint(QVector([1] * count), Relation.EQ, 1))
    for j in range(count):
        row = [0] * count
        row[j] = -1
        constraints.append(LinearConstraint(QVector(row), Relation.LE, 0))
    return lp_feasible(constraints, count) is not None


def reference_claim_lines(instance, assignments, points):
    """The claim-simplex ledger lines as the per-simplex check makes them:
    one ``positive_functional`` call on each simplex's own normals, and an
    audit of every tenth simplex."""
    complexes = [build_chain_complex(f.k) for f in instance.families]
    lines = []
    maximal = itertools.product(*[cx.maximal_chains for cx in complexes])
    for index, simplex in enumerate(maximal):
        first_tuple = []
        last_tuple = []
        for chain, cx in zip(simplex, complexes):
            (first_member,) = chain[0]
            (last_member,) = involution(chain[-1], cx.k + 2)
            first_tuple.append(first_member)
            last_tuple.append(last_member)
        above = points[tuple(first_tuple)]
        below = points[tuple(last_tuple)]

        normals = []
        offsets = []
        for chain, assignment in zip(simplex, assignments):
            for vertex in chain:
                normal, offset = assignment.normal_for(vertex)
                normals.append(normal)
                offsets.append(offset)
        try:
            functional = positive_functional(normals, offsets, above, below)
        except PreconditionError as exc:
            raise CertificateInconsistencyError(
                f"simplex {index}: separator orientation broke the two-sided "
                f"bounds ({exc})"
            ) from exc

        audited = False
        if index % _AUDIT_STRIDE == 0:
            if origin_in_hull(normals):
                raise CertificateInconsistencyError(
                    f"simplex {index}: audit LP found the origin inside the "
                    "normal hull"
                )
            audited = True

        label = " ".join(
            "F%d:%s"
            % (
                i,
                "<".join(
                    "{%s}" % ",".join(str(member) for member in sorted(v))
                    for v in chain
                ),
            )
            for i, chain in enumerate(simplex, start=1)
        )
        record = CheckRecord(
            "claim-simplex",
            f"index={index}",
            True,
            "S=[%s] v=(%s)%s"
            % (
                label,
                ",".join(format_rational(e) for e in functional),
                " audited" if audited else "",
            ),
        )
        lines.append(record.ledger_line())
    return lines


def claim_outcome(check, instance, assignments, points):
    """``("lines", claim-simplex ledger lines)`` or ``("error", message)``."""
    try:
        lines = check(instance, assignments, points)
    except CertificateInconsistencyError as exc:
        return ("error", str(exc))
    return ("lines", lines)


def verify_claim_lines(instance, assignments, points):
    report = verify_claim(instance, assignments, points)
    return [c.ledger_line() for c in report.checks if c.name == "claim-simplex"]


def segment(a, b):
    return VPolytope((QVector(a), QVector(b)))


HAND_POINTS = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 2)]


def brute_force_euler(vertices):
    """Independent oracle: scan all vertex subsets and keep the chains."""
    euler = 0
    items = list(vertices)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            subsets = sorted(combo, key=len)
            if all(a < b for a, b in zip(subsets, subsets[1:])):
                euler += (-1) ** (r - 1)
    return euler


class TestChainComplex:
    def test_k0_is_two_points(self):
        cx = build_chain_complex(0)
        assert len(cx.vertices) == 2
        assert cx.f_vector == (2,)
        assert len(cx.maximal_chains) == 2
        assert cx.euler_characteristic == 2

    def test_k1_is_a_hexagon(self):
        cx = build_chain_complex(1)
        assert len(cx.vertices) == 6
        assert cx.f_vector == (6, 6)
        assert len(cx.maximal_chains) == 6
        assert cx.euler_characteristic == 0

    def test_k2_euler_against_brute_force(self):
        cx = build_chain_complex(2)
        assert len(cx.vertices) == 14
        assert cx.euler_characteristic == 2
        assert brute_force_euler(cx.vertices) == 2

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_sphere_invariants(self, k):
        cx = build_chain_complex(k)
        assert len(cx.vertices) == 2 ** (k + 2) - 2
        assert cx.euler_characteristic == 1 + (-1) ** k
        for chain in cx.maximal_chains:
            assert [len(v) for v in chain] == list(range(1, k + 2))

    def test_pair_count_matches_partitions(self):
        for k in range(4):
            cx = build_chain_complex(k)
            assert len(cx.vertices) // 2 == len(partitions(k + 2))


class TestInvolution:
    def test_examples(self):
        assert involution(frozenset({1}), 3) == frozenset({2, 3})
        assert involution(frozenset({1, 2}), 3) == frozenset({3})

    def test_reverses_chains(self):
        bottom = frozenset({1})
        top = frozenset({1, 2})
        assert bottom < top
        assert involution(top, 3) < involution(bottom, 3)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_free_and_order_two_exhaustively(self, k):
        cx = build_chain_complex(k)
        for v in cx.vertices:
            assert involution(v, k + 2) != v
            assert involution(involution(v, k + 2), k + 2) == v


class TestAssignNormals:
    def test_truncated_pair_family(self):
        family = Family(0, (segment([0, 1], [0, 3]), segment([1, 0], [1, 2])))
        assignment = assign_normals(family)
        assert isinstance(assignment, NormalAssignment)
        normal, offset = assignment.normal_for(frozenset({1}))
        for g in family.bodies[0].generators:
            assert normal.dot(g) > offset
        for g in family.bodies[1].generators:
            assert normal.dot(g) < offset
        negated, neg_offset = assignment.normal_for(frozenset({2}))
        assert negated == -normal and neg_offset == -offset

    def test_intersecting_family_returns_failing_pair(self):
        family = Family(0, (segment([0], [2]), segment([1], [3])))
        outcome = assign_normals(family)
        assert isinstance(outcome, Partition)
        assert outcome == Partition((1,), (2,))

    def test_three_points_in_general_position(self):
        family = Family(1, tuple(VPolytope((p,)) for p in (vec(0, 0), vec(1, 1), vec(2, 0))))
        assignment = assign_normals(family)
        assert isinstance(assignment, NormalAssignment)
        assert len(assignment.normals) == 6
        for subset, (normal, offset) in assignment.normals.items():
            for idx in range(1, 4):
                value = normal.dot(family.bodies[idx - 1].generators[0])
                if idx in subset:
                    assert value > offset
                else:
                    assert value < offset


class TestBuildJoin:
    def test_two_zero_targets_make_a_cycle(self):
        join = build_join([build_chain_complex(0), build_chain_complex(0)])
        assert join.f_vector == (4, 4)
        assert join.euler_characteristic == 0

    def test_three_zero_targets_make_an_octahedron(self):
        join = build_join([build_chain_complex(0) for _ in range(3)])
        assert join.f_vector == (6, 12, 8)
        assert join.euler_characteristic == 2

    def test_two_hexagons(self):
        hexagon = build_chain_complex(1)
        join = build_join([hexagon, hexagon])
        maximal = list(itertools.product(hexagon.maximal_chains, repeat=2))
        assert len(maximal) == 36 == join.f_vector[-1]
        assert all(sum(len(chain) for chain in simplex) == 4 for simplex in maximal)
        assert join.euler_characteristic == 0


class TestVerifyClaim:
    def hand_instance(self):
        return counterexample_from_points([0, 0], HAND_POINTS, TRUNCATED).instance

    def assignments_for(self, instance):
        return [
            assign_normals(fam, i + 1) for i, fam in enumerate(instance.families)
        ]

    def test_hand_case_all_simplices_pass(self):
        instance = self.hand_instance()
        report = verify_claim(
            instance,
            self.assignments_for(instance),
            check_colorful(instance).witnesses,
        )
        claim_checks = [c for c in report.checks if c.name == "claim-simplex"]
        assert len(claim_checks) == 4
        assert all(c.passed for c in report.checks)
        assert report.verdict == CERTIFICATE_COMPLETE
        # first simplex selects the two members through (0,1) and the two
        # through (1,2); both tuple intersections are single points, so the
        # functional is forced to their difference
        assert "v=(-1,-1)" in claim_checks[0].details

    def test_single_family_of_two_points(self):
        instance = Instance(
            1, (Family(0, (VPolytope((vec(0),)), VPolytope((vec(1),)))),)
        )
        report = verify_claim(
            instance,
            self.assignments_for(instance),
            check_colorful(instance).witnesses,
        )
        claim_checks = [c for c in report.checks if c.name == "claim-simplex"]
        assert len(claim_checks) == 2
        assert "v=(-1)" in claim_checks[0].details
        assert "v=(1)" in claim_checks[1].details

    def test_flipped_offset_is_detected(self):
        instance = self.hand_instance()
        assignments = self.assignments_for(instance)
        subset = frozenset({1})
        normal, offset = assignments[0].normals[subset]
        assignments[0].normals[subset] = (normal, offset - 10)
        with pytest.raises(CertificateInconsistencyError):
            verify_claim(instance, assignments, check_colorful(instance).witnesses)

    def test_origin_in_hull_oracle(self):
        assert origin_in_hull([vec(1, 0), vec(-1, 0)])
        assert not origin_in_hull([vec(1, 0), vec(0, 1)])
        assert origin_in_hull([vec(1, 1), vec(-1, 0), vec(0, -1)])

    def test_origin_in_hull_matches_free_variable_reference(self):
        rng = random.Random(4242)
        cases = [
            [vec(0, 0)],
            [vec(0, 0, 0), vec(1, 2, 3)],
            [vec(1, 0), vec(-2, 0)],  # the origin on an edge
            [vec(1, 1), vec(-1, -1), vec(5, 0)],  # on an edge of a triangle
            [vec(1, 2), vec(1, 2), vec(3, -1)],
            [vec(1, 2), vec(1, 2), vec(-1, -2)],
            [vec(Fraction(1, 3)), vec(Fraction(-1, 7))],
            [vec(Fraction(1, 3)), vec(Fraction(2, 7))],
        ]
        for _ in range(300):
            dim = rng.randint(1, 4)
            count = rng.randint(1, 6)
            vectors = [
                QVector(
                    Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 8)))
                    for _ in range(dim)
                )
                for _ in range(count)
            ]
            if rng.random() < 0.3:
                vectors.append(rng.choice(vectors))  # duplicated vector
            if rng.random() < 0.3:
                # keep one open halfspace so that infeasible sets are common
                vectors = [v if v[0] > 0 else -v for v in vectors if v[0] != 0]
                vectors = vectors or [QVector([1] * dim)]
            cases.append(vectors)
        answers = []
        for vectors in cases:
            expected = reference_origin_in_hull(vectors)
            assert origin_in_hull(vectors) is expected, vectors
            answers.append(expected)
        assert answers[:8] == [True, True, True, True, False, True, True, False]
        assert answers.count(True) >= 50 and answers.count(False) >= 50

    def test_origin_in_hull_checks_the_weights(self, monkeypatch):
        # u . (1, 0) = 1 and u . (2, 0) = 1 is inconsistent, so no functional
        # settles this pair and the LP answers; its weights are checked.
        monkeypatch.setattr(
            exactla_module,
            "standard_form_feasible",
            lambda rows, rhs: [Fraction(1, 2), Fraction(1, 2)],
        )
        with pytest.raises(AssertionError, match="weights outside the hull system"):
            origin_in_hull([vec(1, 0), vec(2, 0)])

    def test_inconsistent_systems_go_to_the_lp(self, monkeypatch):
        """[V | 1] is inconsistent for a zero vector and for a dependency
        whose coefficients do not sum to zero; the LP decides those."""
        calls = []
        solve = certificate_module.hull_weights

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(certificate_module, "hull_weights", spy)
        assert not origin_in_hull([vec(1, 0), vec(2, 0)])
        assert origin_in_hull([vec(1, 0), vec(-1, 0)])
        assert origin_in_hull([vec(0, 0)])
        assert origin_in_hull([vec(0, 0), vec(1, 1)])
        assert len(calls) == 4

    def test_consistent_systems_solve_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("the functional should settle this")

        monkeypatch.setattr(certificate_module, "hull_weights", no_lp)
        assert not origin_in_hull([vec(1, 0), vec(0, 1)])
        assert not origin_in_hull([vec(1, 0), vec(1, 0)])  # a repeated vector
        assert not origin_in_hull([vec(2, 0), vec(0, 2), vec(1, 1)])  # 3 in the plane
        assert not origin_in_hull([vec(Fraction(-1, 3), 5), vec(Fraction(2, 7), 1)])
        assert not origin_in_hull([vec(1, 2, 3)])

    def test_corrupted_functional_fails_substitution(self, monkeypatch):
        solve = certificate_module._integer_solve

        def corrupted(table, width):
            particulars, kernel, denominator = solve(table, width)
            return [[-v for v in z] for z in particulars], kernel, denominator

        monkeypatch.setattr(certificate_module, "_integer_solve", corrupted)
        with pytest.raises(AssertionError, match="Gordan functional"):
            origin_in_hull([vec(1, 0), vec(0, 1)])

    def test_origin_in_hull_rejects_mixed_dimensions(self):
        with pytest.raises(MalformedInputError):
            origin_in_hull([vec(1, 0), vec(-1, 0, 0)])
        with pytest.raises(MalformedInputError):
            origin_in_hull([vec(1, 0), vec(-1)])

    def test_claim_certifies_origin_avoidance_on_random_sample(self):
        ce = gen_counterexample([1, 1], seed=8)
        report = full_certificate(ce.instance)
        assert report.verdict == CERTIFICATE_COMPLETE
        assignments = self.assignments_for(ce.instance)
        complexes = [build_chain_complex(f.k) for f in ce.instance.families]
        maximal = list(itertools.product(*[cx.maximal_chains for cx in complexes]))
        rng = random.Random(55)
        sample = rng.sample(maximal, max(4, len(maximal) // 10))
        for simplex in sample:
            normals = []
            for chain, assignment in zip(simplex, assignments):
                normals.extend(assignment.normal_for(v)[0] for v in chain)
            assert not origin_in_hull(normals)


class TestClaimAgainstPerSimplexReference:
    """``verify_claim`` reads each simplex's bounds as integer signs and
    formats each (first, last) tuple pair's functional once; the
    ``positive_functional`` loop it replaced is kept above as the
    reference."""

    def setup(self, ks, seed):
        instance = gen_counterexample(ks, seed=seed).instance
        assignments = [
            assign_normals(fam, i + 1) for i, fam in enumerate(instance.families)
        ]
        return instance, assignments, check_colorful(instance).witnesses

    @pytest.mark.parametrize("ks", [[2, 1], [2, 2], [3, 1], [1, 1, 1]])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_ledger_lines(self, ks, seed):
        instance, assignments, points = self.setup(ks, seed)
        lines = verify_claim_lines(instance, assignments, points)
        assert lines == reference_claim_lines(instance, assignments, points)
        assert len(lines) == math.prod(math.factorial(k + 2) for k in ks)

    @pytest.mark.parametrize("ks,seed", [([2, 2], 3), ([2, 2], 4), ([2, 1], 5)])
    def test_same_error_after_moving_one_offset(self, ks, seed):
        """Move one vertex's offset in one family, and its complement's to
        match, either far out, which breaks every simplex through the pair,
        or onto a tuple point's level, which breaks only the simplices whose
        tuple point it is.
        Both checks must then fail at the same simplex with the same text,
        or pass with the same lines.  At ``--ks 2,2`` both families key
        their separators by the same subsets, so a table that mixed the
        families up would disagree with the reference here."""
        instance, assignments, points = self.setup(ks, seed)
        rng = random.Random(seed)
        errors = 0
        for _ in range(12):
            changed = [
                NormalAssignment(a.family_size, dict(a.normals))
                for a in assignments
            ]
            target = rng.choice(changed)
            subset = rng.choice(sorted(target.normals, key=sorted))
            normal, offset = target.normals[subset]
            if rng.random() < 0.5:
                offset += rng.choice((-1, 1)) * 10**12
            else:
                offset = normal.dot(rng.choice(list(points.values())))
            target.normals[subset] = (normal, offset)
            complement = frozenset(range(1, target.family_size + 1)) - subset
            target.normals[complement] = (-normal, -offset)
            outcome = claim_outcome(verify_claim_lines, instance, changed, points)
            expected = claim_outcome(reference_claim_lines, instance, changed, points)
            assert outcome == expected
            errors += outcome[0] == "error"
        assert errors >= 6

    def test_offset_off_the_straddle_fails_at_its_simplex(self, monkeypatch):
        """Move family 2's ``{1}`` offset far out.  Simplex 0 is checked on
        its own 5 separators, where that one is at index 4: one
        ``check_two_sided`` call of 5 bounds, whose error must read as the
        reference's."""
        instance, assignments, points = self.setup([2, 1], 0)
        family = assignments[1]
        normal, offset = family.normals[frozenset({1})]
        family.normals[frozenset({1})] = (normal, offset + 10**12)
        family.normals[frozenset({2, 3})] = (-normal, -offset - 10**12)
        sizes = []

        def spy(bounds):
            bounds = list(bounds)
            sizes.append(len(bounds))
            return check_two_sided(bounds)

        monkeypatch.setattr(certificate_module, "check_two_sided", spy)
        outcome = claim_outcome(verify_claim_lines, instance, assignments, points)
        expected = claim_outcome(reference_claim_lines, instance, assignments, points)
        assert outcome == expected
        kind, message = outcome
        assert kind == "error"
        assert message.startswith("simplex 0: ") and "at index 4: " in message
        assert sizes == [5]

    @pytest.mark.parametrize("ks", [[2, 1], [3, 1]])
    def test_valid_certificate_checks_no_bounds_in_fractions(self, ks, monkeypatch):
        """On the golden joins' valid certificates (seed 5) every simplex
        straddles by its integer signs, so ``check_two_sided`` is never
        called."""
        instance, assignments, points = self.setup(ks, 5)

        def fail(bounds):
            raise AssertionError("a valid certificate should not reach this")

        monkeypatch.setattr(certificate_module, "check_two_sided", fail)
        lines = verify_claim_lines(instance, assignments, points)
        assert len(lines) == math.prod(math.factorial(k + 2) for k in ks)


def fraction_dot_table(assignment, points):
    """The claim check's table in Fractions: subset -> ``(normal, offset,
    dots)`` with ``dots`` each tuple point's ``QVector.dot`` with the
    normal, the complement's the negations."""
    ground = frozenset(range(1, assignment.family_size + 1))
    table = {}
    for subset, (normal, offset) in assignment.normals.items():
        if subset not in table:
            dots = {key: normal.dot(point) for key, point in points.items()}
            table[subset] = (normal, offset, dots)
            negated = {key: -d for key, d in dots.items()}
            table[ground - subset] = (*assignment.normals[ground - subset], negated)
    return table


def fraction_claim_lines(instance, assignments, points):
    """The pair walk of ``verify_claim`` on ``fraction_dot_table``: every
    bound read by ``check_two_sided`` and every functional formatted from
    the Fraction difference of the two tuple points, audits by the
    free-variable reference."""
    complexes = [build_chain_complex(f.k) for f in instance.families]
    chain_rows = []
    straddled = []
    for i, (cx, assignment) in enumerate(zip(complexes, assignments), start=1):
        entries = fraction_dot_table(assignment, points)
        size = cx.k + 2
        rows = []
        for chain in cx.maximal_chains:
            (first,) = chain[0]
            (last,) = involution(chain[-1], size)
            label = "F%d:%s" % (
                i,
                "<".join("{%s}" % ",".join(str(j) for j in sorted(v)) for v in chain),
            )
            rows.append((first, last, [entries[v] for v in chain], label))
        chain_rows.append(rows)
        pairs = {}
        for vertex in cx.vertices:
            for first in vertex:
                for last in range(1, size + 1):
                    if last not in vertex:
                        pairs.setdefault((first, last), []).append(entries[vertex])
        straddled.append(pairs)

    def functional(separators, first_tuple, last_tuple):
        check_two_sided(
            (dots[last_tuple], offset, dots[first_tuple])
            for _, offset, dots in separators
        )
        above, below = points[first_tuple], points[last_tuple]
        return ",".join(format_rational(a - b) for a, b in zip(above, below))

    functionals = {}
    lines = []
    for index, rows in enumerate(itertools.product(*chain_rows)):
        firsts, lasts, chain_separators, labels = zip(*rows)
        key = (firsts, lasts)
        if key not in functionals:
            union = [
                separator
                for pairs, first, last in zip(straddled, *key)
                for separator in pairs[first, last]
            ]
            try:
                functionals[key] = functional(union, *key)
            except PreconditionError:
                functionals[key] = None
        separators = [s for group in chain_separators for s in group]
        formatted = functionals[key]
        if formatted is None:
            try:
                formatted = functional(separators, *key)
            except PreconditionError as exc:
                raise CertificateInconsistencyError(
                    f"simplex {index}: separator orientation broke the two-sided "
                    f"bounds ({exc})"
                ) from exc
        audited = index % _AUDIT_STRIDE == 0
        if audited:
            assert not reference_origin_in_hull([normal for normal, _, _ in separators])
        record = CheckRecord(
            "claim-simplex",
            f"index={index}",
            True,
            "S=[%s] v=(%s)%s" % (" ".join(labels), formatted, " audited" if audited else ""),
        )
        lines.append(record.ledger_line())
    return lines


def rational_assignments(assignments, points, rng, moved):
    """Each complementary pair's normal and offset scaled by one random
    positive rational, which keeps every separator; with probability
    ``moved`` the offset is then moved to a random tuple point's level,
    shifted by a small random rational or not at all."""
    changed = []
    for assignment in assignments:
        ground = frozenset(range(1, assignment.family_size + 1))
        normals = {}
        for subset in sorted(assignment.normals, key=sorted):
            if subset in normals:
                continue
            normal, offset = assignment.normals[subset]
            scale = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            normal, offset = normal * scale, offset * scale
            if rng.random() < moved:
                level = normal.dot(rng.choice(list(points.values())))
                offset = level + Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            normals[subset] = (normal, offset)
            normals[ground - subset] = (-normal, -offset)
        changed.append(NormalAssignment(assignment.family_size, normals))
    return changed


class TestIntegerClaimWalk:
    """The claim walk reads its bounds as integer signs and formats its
    functionals from integer forms; the Fraction walk it replaced is kept
    above as the reference."""

    @pytest.mark.parametrize("ks,seed", [([2, 1], 0), ([1, 1, 1], 1), ([1, 0], 2)])
    def test_same_outcome_on_rational_assignments(self, ks, seed):
        instance = gen_counterexample(ks, seed=seed).instance
        base = [assign_normals(fam, i + 1) for i, fam in enumerate(instance.families)]
        points = check_colorful(instance).witnesses
        rng = random.Random(9100 + seed)
        outcomes = []
        for trial in range(10):
            assignments = rational_assignments(base, points, rng, 0.0 if trial < 3 else 0.1)
            outcome = claim_outcome(verify_claim_lines, instance, assignments, points)
            expected = claim_outcome(fraction_claim_lines, instance, assignments, points)
            assert outcome == expected
            outcomes.append(outcome[0])
        assert outcomes[:3] == ["lines"] * 3 and "error" in outcomes

    def test_same_sides_as_the_fraction_table(self):
        instance = gen_counterexample([2, 2], seed=3).instance
        base = [assign_normals(fam, i + 1) for i, fam in enumerate(instance.families)]
        points = dict(check_colorful(instance).witnesses)
        rng = random.Random(77)
        # points with coordinates over several denominators, and offsets on them
        for key in list(points)[::3]:
            points[key] = QVector(e + Fraction(rng.randint(-5, 5), rng.choice((1, 3, 8)))
                                  for e in points[key])
        for assignment in rational_assignments(base, points, rng, 0.5):
            subset = rng.choice(sorted(assignment.normals, key=sorted))
            normal, _ = assignment.normals[subset]
            offset = normal.dot(rng.choice(list(points.values())))
            complement = frozenset(range(1, assignment.family_size + 1)) - subset
            assignment.normals[subset] = (normal, offset)
            assignment.normals[complement] = (-normal, -offset)
            table = certificate_module._dot_table(assignment, points)
            reference = fraction_dot_table(assignment, points)
            signs = set()
            for subset, (normal, offset, sides) in table.items():
                assert (normal, offset) == reference[subset][:2]
                for key, dot in reference[subset][2].items():
                    expected = (dot > offset) - (dot < offset)
                    assert sides[key] == expected
                    signs.add(expected)
            assert signs == {-1, 0, 1}


class TestFullCertificate:
    def test_hand_case_complete(self):
        instance = counterexample_from_points([0, 0], HAND_POINTS, TRUNCATED).instance
        report = full_certificate(instance)
        assert report.verdict == CERTIFICATE_COMPLETE
        assert sum(1 for c in report.checks if c.name == "claim-simplex") == 4

    def test_guarantee_dimension_confirms_theorem(self):
        instance = gen_colorful_random([1, 1], seed=21)
        report = full_certificate(instance)
        assert report.verdict == THEOREM_CONFIRMED
        assert report.confirmed_family is not None
        assert report.confirmed_witness is not None
        assert report.confirmed_witness.partition is not None

    def test_dichotomy_is_exhaustive_and_exclusive(self):
        for seed in range(4):
            instance = gen_colorful_random([0, 0], seed=seed)
            report = full_certificate(instance)
            assert report.verdict == THEOREM_CONFIRMED
            ce = gen_counterexample([0, 0], seed=seed)
            report = full_certificate(ce.instance)
            assert report.verdict == CERTIFICATE_COMPLETE

    def test_non_colorful_rejected(self):
        instance = Instance(
            1,
            (
                Family(0, (segment([0], [1]), segment([0], [1]))),
                Family(0, (segment([2], [3]), segment([2], [3]))),
            ),
        )
        with pytest.raises(TheoremPreconditionError, match=r"at tuple \(1, 1\)$"):
            full_certificate(instance)

    def test_confirmed_family_matches_first_inseparable(self):
        instance = gen_colorful_random([0, 0, 0], seed=17)
        report = full_certificate(instance)
        index = report.confirmed_family
        for i in range(1, index):
            outcome = assign_normals(instance.families[i - 1], i)
            assert isinstance(outcome, NormalAssignment)
        outcome = assign_normals(instance.families[index - 1], index)
        assert isinstance(outcome, Partition)

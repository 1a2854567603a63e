"""Separation certificates over joins of subset chain complexes.

For each family, the complex of nonempty proper subfamilies ordered by
inclusion is a combinatorial sphere of dimension k; complementation is a
free involution on it.  When every complementary subfamily pair can be
strictly separated, orienting each separator toward its own side produces
an antipodal normal assignment, and on every maximal simplex of the join
the two tuple intersection points guaranteed by the colorful property
certify that the origin avoids the hull of the simplex's normals.  The
full pipeline therefore ends in exactly one of two states: some family
has an inseparable pair (hence a transversal), or the complete
certificate exists, which is possible only above the guarantee dimension.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Union

from .convex import combination
from .exactla import (
    MalformedInputError,
    PreconditionError,
    QVector,
    _format_lowest,
    _integer_rows,
    _integer_solve,
    check_budget,
    check_two_sided,
    farkas_separator,
    hull_weights,
)
from .reporting import CheckRecord
from .transversal import (
    Family,
    Instance,
    Partition,
    PartitionScan,
    TheoremPreconditionError,
    TransversalWitness,
    _member_label,
    check_colorful,
    check_member_count,
    partitions,
    scan_partitions,
)

THEOREM_CONFIRMED = "THEOREM-CONFIRMED"
CERTIFICATE_COMPLETE = "CERTIFICATE-COMPLETE"

# Deterministic sampling stride for the LP audit of claim checks.
_AUDIT_STRIDE = 10

# Most maximal join simplices a certificate run may enumerate; the count is
# prod((k_i + 2)!), which --ks 4,4 already takes to 518400.
_JOIN_BUDGET = 100_000


class CertificateInconsistencyError(RuntimeError):
    """A structural or orientation check failed while building the
    certificate; indicates a bug rather than a property of the instance."""


def involution(subset: frozenset, size: int) -> frozenset:
    """Complement within a family of ``size`` members: fixed-point-free,
    order two, and inclusion-reversing on chains."""
    return frozenset(range(1, size + 1)) - subset


@dataclass
class ChainComplex:
    """All inclusion chains of nonempty proper subfamilies of one family;
    a vertex is the frozenset of its members."""

    k: int
    vertices: tuple
    maximal_chains: tuple  # the full flags, sizes 1..k+1
    f_vector: tuple  # f_vector[r-1] = number of chains with r vertices
    euler_characteristic: int


def build_chain_complex(k: int) -> ChainComplex:
    """Enumerate the subset chain complex for a family of k+2 members."""
    if k < 0:
        raise MalformedInputError("k must be non-negative")
    size = k + 2
    ground = range(1, size + 1)
    vertices = [
        frozenset(combo)
        for r in range(1, size)
        for combo in itertools.combinations(ground, r)
    ]

    supersets = {v: [w for w in vertices if v < w] for v in vertices}
    faces = []

    def grow(chain):
        faces.append(chain)
        for nxt in supersets[chain[-1]]:
            grow(chain + (nxt,))

    for v in vertices:
        grow((v,))

    maximal = tuple(c for c in faces if len(c) == k + 1)
    f_vector = [0] * max(len(c) for c in faces)
    for c in faces:
        f_vector[len(c) - 1] += 1
    euler = sum((-1) ** r * f for r, f in enumerate(f_vector))
    return ChainComplex(k, tuple(vertices), maximal, tuple(f_vector), euler)


@dataclass
class NormalAssignment:
    """Oriented separators for every complementary subfamily pair.

    ``normals[subset]`` is ``(normal, offset)`` with every generator of the
    subset's members strictly on the positive side and every generator of
    the complement's members strictly on the negative side; complements
    carry the exact negations.
    """

    family_size: int
    normals: dict  # frozenset -> (QVector, Fraction)

    def normal_for(self, subset: frozenset):
        return self.normals[frozenset(subset)]


def assign_normals(
    family: Family, family_index: int = 1
) -> Union[NormalAssignment, Partition]:
    """Separate every complementary pair of subfamilies, oriented so each
    vertex's own members sit on the positive side.

    Returns the failing partition instead when some pair cannot be strictly
    separated, which by the Radon-type characterization means the family has
    a k-transversal.  One ``scan_partitions`` decides every pair, and
    ``assign_from_scan`` turns its Farkas vectors into separators.
    """
    scan = scan_partitions(family)
    witness = scan.witness
    return witness.partition if witness else assign_from_scan(family, scan, family_index)


def assign_from_scan(
    family: Family, scan: PartitionScan, family_index: int = 1
) -> NormalAssignment:
    """``assign_normals`` from a finished scan of a family with no witness.

    Each partition's Farkas vector, whose group 0 is block A, becomes a
    small separator by ``farkas_separator`` on the members' cached integer
    tables: an integer normal with block A strictly below the simplest
    offset and block B strictly above.  Block A takes its negation, so its
    own members are on the positive side.  Raises
    CertificateInconsistencyError when a partition has no Farkas
    vector, because the scan then found an inseparable partition yet no
    transversal.
    """
    size = family.k + 2
    tables = [body._table for body in family.bodies]
    normals = {}
    for part in partitions(size):
        farkas = scan.farkas.get(part)
        if farkas is None:
            raise CertificateInconsistencyError(
                f"family {family_index}: partition {part.label()} is "
                "inseparable yet no transversal was found"
            )
        normal, offset = farkas_separator(
            farkas, *([tables[idx - 1] for idx in block] for block in (part.part_a, part.part_b))
        )
        normals[frozenset(part.part_a)] = (-normal, -offset)
        normals[frozenset(part.part_b)] = (normal, offset)
    return NormalAssignment(size, normals)


@dataclass
class JoinComplex:
    """Face counts of the join of the per-family chain complexes; its
    maximal simplices are the ``itertools.product`` of the factors'
    maximal chains, which ``verify_claim`` walks without storing."""

    f_vector: tuple
    euler_characteristic: int


def build_join(complexes) -> JoinComplex:
    """The join's f-vector is the convolution of the factors' (with the
    empty face included), from which the Euler characteristic follows."""
    complexes = tuple(complexes)
    if not complexes:
        raise MalformedInputError("join needs at least one complex")

    poly = [1]  # coefficient r = number of simplices with r vertices, plus empty
    for complex_ in complexes:
        factor = [1] + list(complex_.f_vector)
        result = [0] * (len(poly) + len(factor) - 1)
        for a, ca in enumerate(poly):
            for b, cb in enumerate(factor):
                result[a + b] += ca * cb
        poly = result
    f_vector = tuple(poly[1:])
    euler = sum((-1) ** r * f for r, f in enumerate(f_vector))
    return JoinComplex(f_vector, euler)


@dataclass
class CertificateReport:
    """Outcome of the certificate pipeline: one verdict plus the ledger of
    named checks (structural sphere checks, antipodality, and one line per
    maximal simplex).  Every record passed; a failed check raises."""

    verdict: str
    checks: list = field(default_factory=list)
    confirmed_family: Optional[int] = None
    confirmed_witness: Optional[TransversalWitness] = None

    def ledger_lines(self):
        lines = [c.ledger_line() for c in self.checks]
        lines.append(f"verdict {self.verdict}")
        return lines


def _structural_checks(complexes, assignments):
    checks = []

    def record(name, params, passed, details=""):
        check = CheckRecord(name, params, passed, details)
        checks.append(check)
        if not passed:
            raise CertificateInconsistencyError(check.ledger_line())

    for i, (cx, assignment) in enumerate(zip(complexes, assignments), start=1):
        fam = f"family={i}"
        size = cx.k + 2
        record(
            "vertex-count",
            f"{fam} expected={2 ** size - 2}",
            len(cx.vertices) == 2 ** size - 2,
        )
        expected_euler = 1 + (-1) ** cx.k
        record(
            "euler-characteristic",
            f"{fam} expected={expected_euler}",
            cx.euler_characteristic == expected_euler,
            f"actual={cx.euler_characteristic}",
        )
        free = all(involution(v, size) != v for v in cx.vertices)
        order_two = all(
            involution(involution(v, size), size) == v for v in cx.vertices
        )
        reversing = True
        for chain in cx.maximal_chains:
            image = tuple(involution(v, size) for v in reversed(chain))
            reversing = reversing and all(a < b for a, b in zip(image, image[1:]))
        record("involution-free", fam, free and order_two and reversing)

        pair_count = 0
        antipodal = True
        for subset, (normal, offset) in assignment.normals.items():
            normal_c, offset_c = assignment.normals[involution(subset, size)]
            antipodal = antipodal and normal_c == -normal and offset_c == -offset
            pair_count += 1
        record(
            "antipodality",
            f"{fam} pairs={pair_count // 2}",
            antipodal and pair_count == 2 ** size - 2,
        )

    return checks, record


def _dot_table(assignment: NormalAssignment, points: dict) -> dict:
    """Subset -> ``(normal, offset, sides)``, where ``sides`` maps each key
    of ``points`` to the sign, -1, 0 or 1, of ``normal . p - offset`` at
    that tuple point.

    Computed on integers: with ``a / s_a`` and ``b / s_b`` the integer
    forms of the normal and the point and ``num / den`` the offset, the
    sign is that of ``(a . b) * den - num * s_a * s_b``, because the scales
    and ``den`` are positive.  A complementary pair costs one set of
    products: the complement's normal and offset are the exact negations,
    as the antipodality check has confirmed, so its signs are the
    negations."""
    ground = frozenset(range(1, assignment.family_size + 1))
    forms = {key: point._integer_form() for key, point in points.items()}
    table = {}
    for subset, (normal, offset) in assignment.normals.items():
        if subset not in table:
            a, scale = normal._integer_form()
            den = offset.denominator
            num = offset.numerator * scale
            sides = {}
            for key, (b, point_scale) in forms.items():
                side = sum(map(operator.mul, a, b)) * den - num * point_scale
                sides[key] = (side > 0) - (side < 0)
            table[subset] = (normal, offset, sides)
            negated = {key: -side for key, side in sides.items()}
            table[ground - subset] = (*assignment.normals[ground - subset], negated)
    return table


def verify_claim(instance: Instance, assignments, points) -> CertificateReport:
    """Check the origin-avoidance property on every maximal join simplex.

    ``points`` maps every member tuple to a common point of its members, as
    ``check_colorful`` returns them in ``witnesses``.  For each simplex, the
    smallest subfamily of each chain pins one member and the complement of
    the largest pins another; their two tuple points straddle every
    separator of the simplex, so their difference is a functional strictly
    positive on all of the simplex's normals, excluding the origin from
    their hull (and from every subsimplex's, by monotonicity).

    Each simplex is checked on its own separators.  The bounds are read as
    signs from a table made once per certificate on integers
    (``_dot_table``: every separator against every tuple point), and the
    functional is formatted once per (first tuple, last tuple) pair from
    the two points' integer forms, each coordinate reduced by one gcd; the
    difference's product with a normal is ``hi - lo`` by linearity, which
    the check has shown positive.  Only a failing simplex makes Fractions:
    its bounds go to ``check_two_sided``, the check ``positive_functional``
    makes, so failures read the same, and the first failing simplex in
    index order is the one reported.  Every tenth simplex is audited
    independently by ``origin_in_hull``.
    """
    families = instance.families
    assignments = list(assignments)
    if len(assignments) != len(families):
        raise MalformedInputError("need one normal assignment per family")
    complexes = [build_chain_complex(f.k) for f in families]
    n = len(families)
    m = instance.total_target
    expected_join_euler = 1 + (-1) ** (n + m - 1)
    checks, record = _structural_checks(complexes, assignments)

    join = build_join(complexes)
    record(
        "join-euler",
        f"expected={expected_join_euler}",
        join.euler_characteristic == expected_join_euler,
        f"actual={join.euler_characteristic}",
    )
    # The claim walk below counts the maximal simplices; the count's record
    # goes here, before the walk's lines.
    count_position = len(checks)

    # Per family, in ``maximal_chains`` order: each chain's first and last
    # member, table entries and label.
    chain_rows = []
    for i, (cx, assignment) in enumerate(zip(complexes, assignments), start=1):
        entries = _dot_table(assignment, points)
        size = cx.k + 2
        rows = []
        for chain in cx.maximal_chains:
            (first,) = chain[0]
            (last,) = involution(chain[-1], size)
            label = "F%d:%s" % (i, "<".join(_member_label(v) for v in chain))
            rows.append((first, last, [entries[v] for v in chain], label))
        chain_rows.append(rows)

    # (first tuple, last tuple) -> formatted functional.  The product of the
    # row lists walks the maximal join simplices, one maximal chain per
    # family, without storing them.
    functionals = {}
    walked = 0
    for index, rows in enumerate(itertools.product(*chain_rows)):
        firsts, lasts, chain_separators, labels = zip(*rows)
        straddled = True
        for group in chain_separators:
            for _, _, sides in group:
                if not sides[lasts] < 0 < sides[firsts]:
                    straddled = False
        audited = index % _AUDIT_STRIDE == 0
        if not straddled or audited:
            separators = [s for group in chain_separators for s in group]
        if not straddled:
            above, below = points[firsts], points[lasts]
            try:
                check_two_sided(
                    (normal.dot(below), offset, normal.dot(above))
                    for normal, offset, _ in separators
                )
            except PreconditionError as exc:
                raise CertificateInconsistencyError(
                    f"simplex {index}: separator orientation broke the two-sided "
                    f"bounds ({exc})"
                ) from exc
        key = (firsts, lasts)
        formatted = functionals.get(key)
        if formatted is None:
            x, x_scale = points[firsts]._integer_form()
            y, y_scale = points[lasts]._integer_form()
            scale = x_scale * y_scale
            coordinates = []
            for a, b in zip(x, y):
                num = a * y_scale - b * x_scale
                g = math.gcd(num, scale)
                coordinates.append(_format_lowest(num // g, scale // g))
            formatted = functionals[key] = ",".join(coordinates)

        if audited and origin_in_hull([normal for normal, _, _ in separators]):
            raise CertificateInconsistencyError(
                f"simplex {index}: audit LP found the origin inside the "
                "normal hull"
            )

        walked += 1
        checks.append(
            CheckRecord(
                "claim-simplex",
                f"index={index}",
                True,
                "S=[%s] v=(%s)%s"
                % (
                    " ".join(labels),
                    formatted,
                    " audited" if audited else "",
                ),
            )
        )

    expected = math.prod(len(c.maximal_chains) for c in complexes)
    count = CheckRecord("join-maximal-count", f"expected={expected}", walked == expected)
    if not count.passed:
        raise CertificateInconsistencyError(count.ledger_line())
    checks.insert(count_position, count)
    return CertificateReport(CERTIFICATE_COMPLETE, checks)


def origin_in_hull(vectors) -> bool:
    """Exact test whether the origin is a convex combination of the vectors.

    First a functional (Gordan 1873): the origin is outside the hull when
    some ``u`` has ``v . u > 0`` for every vector ``v``.  One
    ``exactla._integer_solve`` of ``[V | 1]``, the row of each ``v = a / s``
    scaled to ``[a | s]``, looks for a ``u`` with ``v . u = 1`` for every
    ``v``, its free variables at zero.  When that system is consistent, its
    particular solution is ``u = w / D`` with integer ``w`` and ``D > 0``;
    ``a . w == D * s`` is checked by integer substitution for every ``v``,
    and the answer is False with no LP.

    Only an inconsistent ``[V | 1]`` (a zero vector, or a dependency among
    the vectors whose coefficients do not sum to zero) is decided by
    ``{w >= 0 : sum_j w_j v_j = 0, sum_j w_j = 1}``, which is
    ``exactla.hull_weights`` with the vectors as group 0 and the origin as
    a one-generator group 1.  Group 0's weights are substituted back
    exactly (``combination``) before the answer is trusted.
    """
    vectors = list(vectors)
    if not vectors:
        return False
    d = vectors[0].dim
    if any(v.dim != d for v in vectors):
        raise MalformedInputError("mixed dimensions in hull input")
    forms = [v._integer_form() for v in vectors]
    solved = _integer_solve([[*a, s] for a, s in forms], d)
    if solved is not None:
        (functional,), _, denominator = solved
        if all(sum(map(operator.mul, a, functional)) == denominator * s for a, s in forms):
            return False
        raise AssertionError("Gordan functional fails the substitution check")
    block = _integer_rows(vectors)
    found = hull_weights([block, ([[0] * d], 1)], [0, 1])
    if found is None:
        return False
    weights, _ = found
    if min(weights) < 0 or sum(weights) != 1 or any(combination(weights, block)):
        raise AssertionError("simplex produced weights outside the hull system")
    return True


def full_certificate(instance: Instance) -> CertificateReport:
    """Run the whole pipeline on a colorful instance.

    Decides the colorful property first, with a ``check_colorful`` walk
    without points, and scans each family's partitions once.  The first
    family with an inseparable pair settles the matter: the scan's witness
    is its transversal and the verdict is THEOREM-CONFIRMED (at the
    guarantee dimension this always happens).  If every family separates,
    the scans' Farkas vectors become its separators, a points walk takes
    the tuple points, reusing every point the decision solved for, the
    join claim is verified and the verdict is CERTIFICATE-COMPLETE, which
    only instances above the guarantee dimension can reach.

    Raises MalformedInputError before any other work when the join would
    have more than ``_JOIN_BUDGET`` maximal simplices, and then before the
    colorful check when some family does not have exactly k+2 members;
    raises TheoremPreconditionError when some member tuple has no common
    point.
    """
    factors = itertools.chain.from_iterable(range(1, f.k + 3) for f in instance.families)
    simplices = itertools.accumulate(factors, operator.mul, initial=1)  # prod (k_i + 2)!
    check_budget(simplices, _JOIN_BUDGET, "the certificate join", "maximal simplices")
    for fam in instance.families:
        check_member_count(fam)
    colorful = check_colorful(instance, points=False)
    if not colorful.holds:
        raise TheoremPreconditionError(
            f"colorful intersection fails at tuple {colorful.failing_tuple}"
        )
    assignments = []
    for i, fam in enumerate(instance.families, start=1):
        scan = scan_partitions(fam)
        if scan.witness is not None:
            partition = scan.witness.partition
            checks = [
                CheckRecord(
                    "inseparable-pair",
                    f"family={i} partition={partition.label()}",
                    True,
                    "transversal witness recovered",
                )
            ]
            return CertificateReport(
                THEOREM_CONFIRMED,
                checks,
                confirmed_family=i,
                confirmed_witness=scan.witness,
            )
        assignments.append(assign_from_scan(fam, scan, i))
    points = check_colorful(instance, solved=colorful.witnesses).witnesses
    return verify_claim(instance, assignments, points)

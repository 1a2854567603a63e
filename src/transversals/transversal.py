"""Deciding k-flat transversals and the colorful intersection property.

A family of k+2 convex bodies admits a k-dimensional transversal flat
exactly when some two-block partition of the family has intersecting
pooled hulls; the decision procedure below searches the canonical
partitions in a fixed order and reconstructs an explicit witness (a
crossing point, one anchor point per member, and the spanning flat) from
the feasible combination.  Each partition it passes keeps the Farkas
vector of its hull system, from which the certificate's separators are
rounded.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional

from .convex import (
    AffineFlat,
    UnsupportedRepresentationError,
    VPolytope,
    affine_span,
    combination,
    common_point,
    contains,
)
from .exactla import (
    MalformedInputError,
    QVector,
    _ZERO,
    _echelon,
    check_budget,
    format_rational,
    hull_certificate,
)

# Most canonical partitions one family may enumerate, one LP each; a family
# of k + 2 members has 2^(k+1) - 1 of them, so k = 16 is the first above.
_PARTITION_BUDGET = 100_000

# Most member tuples the colorful check may solve, one LP each; the count is
# the product of the family sizes.
_TUPLE_BUDGET = 100_000


class TheoremPreconditionError(ValueError):
    """The instance is not in theorem mode (dimension, family sizes, or the
    colorful property fail); the certificate needs the colorful property too."""


class TheoremViolationError(RuntimeError):
    """No family admitted a transversal on a valid theorem-mode instance.
    Unreachable unless there is a bug; callers treat it as a triage signal."""


@dataclass(frozen=True)
class Family:
    """One color class: a target flat dimension and its member bodies."""

    k: int
    bodies: tuple

    def __post_init__(self):
        if self.k < 0:
            raise MalformedInputError("target dimension k must be non-negative")
        bodies = tuple(self.bodies)
        if not bodies:
            raise MalformedInputError("family needs at least one body")
        if len({b.dim for b in bodies}) != 1:
            raise MalformedInputError("family bodies have mixed dimensions")
        object.__setattr__(self, "bodies", bodies)

    @property
    def dim(self) -> int:
        return self.bodies[0].dim


@dataclass(frozen=True)
class Instance:
    """An ambient dimension and the color families living in it."""

    dim: int
    families: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise MalformedInputError("ambient dimension must be positive")
        families = tuple(self.families)
        if not families:
            raise MalformedInputError("instance needs at least one family")
        for fam in families:
            if fam.dim != self.dim:
                raise MalformedInputError("family dimension does not match instance")
        object.__setattr__(self, "families", families)

    @property
    def total_target(self) -> int:
        return sum(f.k for f in self.families)


@dataclass(frozen=True)
class Partition:
    """Two-block partition of {1..size} with 1 always in the first block."""

    part_a: tuple
    part_b: tuple

    def __post_init__(self):
        a = tuple(sorted(self.part_a))
        b = tuple(sorted(self.part_b))
        object.__setattr__(self, "part_a", a)
        object.__setattr__(self, "part_b", b)
        size = len(a) + len(b)
        if not a or not b or set(a) | set(b) != set(range(1, size + 1)) or set(a) & set(b):
            raise MalformedInputError("blocks must partition {1..size} nontrivially")
        if 1 not in a:
            raise MalformedInputError("canonical partitions keep member 1 in block A")

    @property
    def size(self) -> int:
        return len(self.part_a) + len(self.part_b)

    def label(self) -> str:
        return f"{_member_label(self.part_a)}/{_member_label(self.part_b)}"


def _member_label(members) -> str:
    return "{%s}" % ",".join(str(i) for i in sorted(members))


def partitions(size: int):
    """All canonical two-block partitions of {1..size}: exactly
    2^(size-1) - 1 of them, ordered by |A| ascending then lexicographically.

    Raises MalformedInputError before building any when there are more than
    ``_PARTITION_BUDGET``."""
    if size < 2:
        raise MalformedInputError("partitions need size >= 2")
    counts = (2**j - 1 for j in range(size))
    check_budget(counts, _PARTITION_BUDGET, f"a family of {size} members", "partitions")
    rest = tuple(range(2, size + 1))
    result = []
    for a_size in range(1, size):
        for extra in itertools.combinations(rest, a_size - 1):
            a = (1,) + extra
            b = tuple(i for i in rest if i not in extra)
            result.append(Partition(a, b))
    return result


@dataclass(frozen=True)
class TransversalWitness:
    """Certificate that a family has a k-transversal: the crossing partition,
    the common point of the two pooled hulls, one anchor per member (each in
    its member and on the flat), and the spanning flat itself."""

    partition: Partition
    crossing_point: QVector
    anchor_points: tuple  # ((member_index, point), ...)
    flat: AffineFlat


@dataclass(frozen=True)
class PartitionScan:
    """One hull LP per canonical partition, in order, up to the first whose
    pooled hulls meet.

    ``witness`` is the transversal witness of that partition, or None when
    no partition's hulls meet.  ``farkas`` maps every partition solved
    before it, so all of them when ``witness`` is None, to the Farkas vector
    of its hull system, in which block A is group 0; see
    ``exactla.hull_certificate``.
    """

    witness: Optional[TransversalWitness]
    farkas: dict  # Partition -> list of ints


def check_member_count(family: Family) -> None:
    """Raise MalformedInputError unless the family has exactly k+2 members."""
    size = family.k + 2
    if len(family.bodies) != size:
        raise MalformedInputError(
            f"need exactly k+2 = {format_rational(size, 'k+2')} members, got {len(family.bodies)}"
        )


def scan_partitions(family: Family) -> PartitionScan:
    """Decide the family's k-transversal, keeping a certificate either way.

    Requires exactly k+2 members, all V-polytopes.  Scans the canonical
    partitions in order and asks ``hull_certificate`` whether the pooled
    hull of block A (group 0) meets that of block B (group 1), with one
    weight block per member in member order.  A disjoint partition keeps its
    Farkas vector.  On the first feasible partition the scan stops and
    reconstructs anchors from the weight blocks: a member with positive
    weight contributes the ``combination`` of its block over the block's
    sum, a zero-weight member its first generator (any point is valid).
    """
    for body in family.bodies:
        if not isinstance(body, VPolytope):
            raise UnsupportedRepresentationError(
                "transversal decisions need V-polytopes; truncate flats first"
            )
    check_member_count(family)
    size = family.k + 2
    members = family.bodies
    blocks = [member._table for member in members]
    farkas = {}
    for part in partitions(size):
        in_a = set(part.part_a)
        weights, certificate = hull_certificate(
            blocks, [0 if idx in in_a else 1 for idx in range(1, size + 1)]
        )
        if weights is None:
            farkas[part] = certificate
            continue
        anchors = []
        crossing = QVector([_ZERO] * family.dim)
        for idx, member in enumerate(members, start=1):
            block = weights[idx - 1]
            total = sum(block, _ZERO)
            if total > 0:
                combo = combination(block, member._table)
                anchors.append((idx, (1 / total) * combo))
                if idx in in_a:
                    crossing = crossing + combo
            else:
                anchors.append((idx, member.generators[0]))
        flat = affine_span([p for _, p in anchors])
        if flat.dimension > family.k:
            raise AssertionError("witness flat exceeds the target dimension")
        return PartitionScan(
            TransversalWitness(part, crossing, tuple(anchors), flat), farkas
        )
    return PartitionScan(None, farkas)


def k_transversal(family: Family) -> Optional[TransversalWitness]:
    """Decide whether the family admits a k-dimensional transversal flat.

    The witness of ``scan_partitions``: None exactly when every canonical
    partition's pooled hulls are disjoint.  The scan's Farkas vectors are
    not rounded to separators here; ``certificate.assign_from_scan`` does
    that for callers that print or check them.
    """
    return scan_partitions(family).witness


def validate_witness(family: Family, witness: TransversalWitness) -> None:
    """Independent witness validation by exact substitution; raises
    ValueError on the first failed condition."""
    size = family.k + 2
    if witness.partition.size != size:
        raise ValueError("partition size does not match the family")
    if len(witness.anchor_points) != size:
        raise ValueError("witness must carry one anchor per member")
    seen = set()
    for idx, _ in witness.anchor_points:
        if not 1 <= idx <= size:
            raise ValueError(f"anchor member {idx} is not a member index 1..{size}")
        if idx in seen:
            raise ValueError(f"anchor member {idx} is repeated")
        seen.add(idx)
    for idx, point in witness.anchor_points:
        if not contains(family.bodies[idx - 1], point):
            raise ValueError(f"anchor for member {idx} lies outside the member")
        if not contains(witness.flat, point):
            raise ValueError(f"anchor for member {idx} is off the witness flat")
    anchors = dict(witness.anchor_points)
    for block in (witness.partition.part_a, witness.partition.part_b):
        hull = VPolytope(tuple(anchors[i] for i in block))
        if not contains(hull, witness.crossing_point):
            raise ValueError("crossing point misses one side's anchor hull")
    if witness.flat.dimension > family.k:
        raise ValueError("witness flat dimension exceeds k")


@dataclass
class ColorfulReport:
    """Outcome of the all-tuples intersection check; see ``check_colorful``
    for which tuples ``witnesses`` holds."""

    holds: bool
    witnesses: dict = field(default_factory=dict)
    failing_tuple: Optional[tuple] = None


def _member_tuples(sizes):
    """Every choice of one member per family, as 1-based indices, in
    lexicographic order; ``sizes`` are the member counts."""
    return itertools.product(*[range(1, size + 1) for size in sizes])


def _check_tuple_budget(sizes, work: str) -> None:
    """Raise MalformedInputError when ``work`` would enumerate more than
    ``_TUPLE_BUDGET`` member tuples; ``sizes`` are the member counts."""
    counts = itertools.accumulate(sizes, operator.mul, initial=1)
    check_budget(counts, _TUPLE_BUDGET, work, "member tuples")


def _colorful_tuples(instance: Instance):
    """Every member tuple in lexicographic order, as ``(selector, bodies)``.
    Raises MalformedInputError before yielding any when there are more than
    ``_TUPLE_BUDGET`` tuples."""
    families = instance.families
    sizes = [len(f.bodies) for f in families]
    _check_tuple_budget(sizes, "the colorful check")
    for selector in _member_tuples(sizes):
        yield selector, [families[i].bodies[c - 1] for i, c in enumerate(selector)]


def _shared_generator(bodies) -> Optional[QVector]:
    """The first generator of the first body that every body lists, by
    exact equality, or None; always None when a body is a flat.  Equality
    is looked up in each polytope's ``_generator_keys``."""
    if not all(isinstance(body, VPolytope) for body in bodies):
        return None
    first, *rest = bodies
    for key, g in first._generator_keys.items():
        if all(key in body._generator_keys for body in rest):
            return g
    return None


def check_colorful(instance: Instance, points: bool = True, solved=None) -> ColorfulReport:
    """Decide the colorful intersection property: every choice of one member
    per family must have a common point.  Returns the first failing tuple
    in lexicographic order, or the witness points when the property holds.

    Polytopes that list one generator ``g`` in common meet at it, so such a
    tuple holds with no LP; every other tuple is decided by
    ``common_point`` and witnessed by its point.  Without ``points`` the
    walk only decides: ``witnesses`` keeps just the solved tuples, and
    passing them back as ``solved`` lets a points walk reuse them instead
    of solving again.  A points walk witnesses a shared-generator tuple by
    ``g`` when the stacked ``_normal_rows`` have rank d, since the affine
    hulls, all through ``g``, then meet in ``g`` alone and ``common_point``
    would return ``g`` too; otherwise by ``common_point``.  Fewer than d
    normals cannot have rank d, so they are not ranked.  Raises
    MalformedInputError before deciding any when there are more than
    ``_TUPLE_BUDGET`` tuples.
    """
    witnesses = {}
    for selector, bodies in _colorful_tuples(instance):
        point = _shared_generator(bodies)
        if point is not None:
            if not points:
                continue
            normals = [n for body in bodies for n in body._normal_rows]
            if len(normals) < point.dim or len(_echelon(normals)[0]) < point.dim:
                point = common_point(bodies)
        elif solved is not None:
            point = solved[selector]
        else:
            point = common_point(bodies)
            if point is None:
                return ColorfulReport(False, {}, selector)
        witnesses[selector] = point
    return ColorfulReport(True, witnesses)


@dataclass
class TheoremReport:
    """First family admitting a transversal, with its witness."""

    family_index: int  # 1-based
    witness: TransversalWitness


def verify_theorem(instance: Instance) -> TheoremReport:
    """Check the transversal guarantee on a theorem-mode instance.

    Preconditions are verified, not assumed: the ambient dimension must be
    (number of families) + (sum of targets) - 1, every family must have
    exactly k+2 members, and the colorful property must hold, which a
    ``check_colorful`` walk without points decides.  Returns the first
    family with a witness; raises TheoremViolationError if none has
    one, which is unreachable on valid input and treated as a bug signal.
    """
    n = len(instance.families)
    m = instance.total_target
    expected_dim = n + m - 1
    if instance.dim != expected_dim:
        raise TheoremPreconditionError(
            f"theorem mode needs dimension {format_rational(expected_dim, 'n+m-1')}, "
            f"instance has {instance.dim}"
        )
    for i, fam in enumerate(instance.families, start=1):
        if len(fam.bodies) != fam.k + 2:
            raise TheoremPreconditionError(
                f"family {i} needs {format_rational(fam.k + 2, 'k+2')} members, "
                f"has {len(fam.bodies)}"
            )
    failing = check_colorful(instance, points=False).failing_tuple
    if failing is not None:
        raise TheoremPreconditionError(
            f"colorful intersection fails at tuple {failing}"
        )
    for i, fam in enumerate(instance.families, start=1):
        witness = k_transversal(fam)
        if witness is not None:
            return TheoremReport(i, witness)
    raise TheoremViolationError(
        "no family admits a transversal on a valid theorem-mode instance"
    )

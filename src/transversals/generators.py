"""Instance generators and the dimension-optimality construction.

The central construction places 2n+m integer points in R^(n+m) (rejection
sampled until explicit rank certificates pass), splits them into color
groups of size k_i+2, and takes each family to be the fibers of the
orthogonal projection onto the group's affine span.  Any choice of one
fiber per family meets in exactly one point, so the colorful property
holds, yet no family admits a k_i-transversal: the group spans too many
affine dimensions to fit in any projected k_i-flat.  Truncating each
fiber to the hull of its incident tuple points preserves both properties
and produces V-polytope instances the partition machinery can consume.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .convex import AffineFlat, VPolytope
from .exactla import (
    MalformedInputError,
    QVector,
    _integer_rows,
    _integer_solve,
    check_budget,
    independent_subsets,
    rank,
    solve_linear,
)
from .reporting import CheckRecord
from .transversal import (
    Family,
    Instance,
    _check_tuple_budget,
    _member_tuples,
)

FLATS = "flats"
TRUNCATED = "truncated"

# Most (n+m)-point subsets a counterexample may rank-check, one ledger
# record each from a single subset walk; 2n+m points have C(2n+m, n+m) of
# them, which --ks 1,1,1,1,1,1,1,1,1,1 takes to 30045015.
_SUBSET_BUDGET = 100_000

# Highest ambient dimension a generator may sample in; the budgets on counts
# do not bound it, and --ks 26,26,26 passes them in dimension 81.
_DIMENSION_BUDGET = 16

# Side of the counterexample sampler's coordinate box, and its attempts.
_BOX_SIDE = 1000
_MAX_TRIES = 200


class GeneralPositionError(ValueError):
    """A sampled point set failed one of the named rank certificates."""

    def __init__(self, check: CheckRecord):
        super().__init__(f"general position check failed: {check.name} {check.params}")
        self.check = check


class RetryExhaustedError(RuntimeError):
    """The rejection sampler ran out of attempts (pathological seed)."""


def derive_seed(*parts) -> int:
    """Stable sub-seed from labels and integers; hash-based, so it does not
    depend on ``PYTHONHASHSEED`` or the interpreter."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class CounterexampleInstance:
    instance: Instance
    tuple_points: dict  # member tuple (1-based) -> QVector
    checks: list  # the passed rank certificates, in ledger order


def _check_counterexample_budgets(ks) -> None:
    """Raise MalformedInputError when the construction for ``ks`` would
    rank-check more than ``_SUBSET_BUDGET`` point subsets, solve more than
    the colorful check's budget of member tuples, or live in more than
    ``_DIMENSION_BUDGET`` dimensions; checked in that order."""
    n = len(ks)
    m = sum(ks)
    # C(2n+m, n+m) = C(2n+m, n), the last of the growing C(n+m+i, i).
    subsets = (math.comb(n + m + i, i) for i in range(n + 1))
    check_budget(subsets, _SUBSET_BUDGET, "the counterexample", "point subsets to rank-check")
    _check_tuple_budget([k + 2 for k in ks], "the counterexample")
    check_budget([n + m], _DIMENSION_BUDGET, "the counterexample", "ambient dimensions")


def _general_position_checks(ks, points):
    """Run every rank certificate; returns (ok, checks, parts, family rows,
    tuple points).

    The ledger holds one "affine-span-unique" record per (n+m)-subset of
    the points, in ``itertools.combinations`` order, then one
    "family-affine-dim" record per color group, then one
    "tuple-intersection-unique" record per member tuple in sorted order.
    The subsets are decided by one ``exactla.independent_subsets`` walk
    over the homogenized points, on the dual: n+m points are affinely
    independent exactly when a basis of the dependencies of all 2n+m
    homogenized points keeps full rank on the n points left out.  On
    generic points that basis has n-1 vectors, so the walk reduces columns
    of length n-1 over n-point complements instead of rows of length n+m+1
    over (n+m)-point subsets.

    Family rows are one difference-row matrix per family (a basis of the
    group's span directions).  A tuple's system stacks every family's
    orthogonality equations ``row . x = row . anchor``; the stacked matrix
    is square and the same for every tuple, and a tuple's right-hand side
    is the sum of one block per member: the member's ``row . anchor`` on
    its family's rows, zero elsewhere.  So one ``exactla._integer_solve``
    of the matrix beside one such column per (family, member), sum(k_i+2)
    columns instead of prod(k_i+2), answers every tuple.  A consistent
    solve with no kernel gives each tuple its unique intersection point,
    the sum of its members' particular solutions over the one shared
    denominator (the solution is linear in the right-hand side).  That is
    the genericity the construction actually uses; a singular matrix fails
    every tuple.
    """
    n = len(ks)
    m = sum(ks)
    d = n + m
    checks = []

    parts = []
    at = 0
    for k in ks:
        parts.append(tuple(points[at : at + k + 2]))
        at += k + 2

    homogenized = [list(p.entries) + [1] for p in points]
    names = [str(i + 1) for i in range(len(points))]
    for subset, passed in independent_subsets(homogenized, d):
        checks.append(
            CheckRecord(
                "affine-span-unique",
                "subset=(%s)" % ",".join(map(names.__getitem__, subset)),
                passed,
            )
        )

    family_rows = []
    for i, group in enumerate(parts, start=1):
        passed = rank(list(p.entries) + [1] for p in group) == ks[i - 1] + 2
        checks.append(
            CheckRecord("family-affine-dim", f"family={i} expected={ks[i-1]+1}", passed)
        )
        family_rows.append([p - group[0] for p in group[1:]])

    # Right-hand side c belongs to point c, the member it anchors.
    augmented = []
    at = 0
    for rows, group in zip(family_rows, parts):
        for row in rows:
            rhs = [0] * len(points)
            rhs[at : at + len(group)] = [row.dot(anchor) for anchor in group]
            augmented.append(list(row) + rhs)
        at += len(group)
    solved = _integer_solve(_integer_rows(augmented)[0], d)
    unique = solved is not None and not solved[1]
    selectors = list(_member_tuples(k + 2 for k in ks))
    for selector in selectors:
        checks.append(
            CheckRecord(
                "tuple-intersection-unique",
                "tuple=(%s)" % ",".join(str(c) for c in selector),
                unique,
            )
        )
    tuple_points = {}
    if unique:
        # Point c's particular solution, read in point order.  Summing one
        # member per family in product order walks the tuples in sorted order.
        particulars, _, denominator = solved
        particulars = iter(particulars)
        sums = [[0] * d]
        for group in parts:
            members = [next(particulars) for _ in group]
            sums = [[a + b for a, b in zip(s, m)] for s in sums for m in members]
        tuple_points = {
            selector: QVector([Fraction(v, denominator) for v in numerators])
            for selector, numerators in zip(selectors, sums)
        }

    ok = all(c.passed for c in checks)
    return ok, checks, parts, family_rows, tuple_points


def _truncated_families(ks, tuple_points):
    """Member j of family i becomes the hull of the tuple points whose i-th
    choice is j, taken in sorted tuple order."""
    order = sorted(tuple_points)
    families = []
    for i, k in enumerate(ks):
        members = []
        for j in range(1, k + 3):
            gens = [tuple_points[t] for t in order if t[i] == j]
            members.append(VPolytope(tuple(gens)))
        families.append(Family(k, tuple(members)))
    return tuple(families)


def counterexample_from_points(ks, points, representation: str = TRUNCATED) -> CounterexampleInstance:
    """Build the optimality instance from an explicit point set.

    Raises GeneralPositionError if any rank certificate fails; the
    rejection sampler in gen_counterexample relies on that.  Raises
    MalformedInputError before any check when the subset count, the tuple
    count or the dimension is over its budget.
    """
    ks = list(ks)
    if not ks or any(k < 0 for k in ks):
        raise MalformedInputError("need at least one non-negative target")
    if representation not in (FLATS, TRUNCATED):
        raise MalformedInputError(f"unknown representation {representation!r}")
    _check_counterexample_budgets(ks)
    n = len(ks)
    m = sum(ks)
    d = n + m
    points = [p if isinstance(p, QVector) else QVector(p) for p in points]
    if len(points) != 2 * n + m or any(p.dim != d for p in points):
        raise MalformedInputError(f"need {2*n+m} points in dimension {d}")

    ok, checks, parts, family_rows, tuple_points = _general_position_checks(ks, points)
    if not ok:
        raise GeneralPositionError(next(c for c in checks if not c.passed))

    if representation == TRUNCATED:
        families = _truncated_families(ks, tuple_points)
    else:
        families = []
        for i, group in enumerate(parts):
            # Every fiber of a group has the same direction space, the kernel
            # of the group's difference rows; only its base point moves, so
            # the first fiber checks it and the rest are its translates.
            first = AffineFlat(group[0], solve_linear(family_rows[i]).kernel_basis)
            fibers = (first,) + tuple(first.translated(a) for a in group[1:])
            families.append(Family(ks[i], fibers))

    instance = Instance(d, tuple(families))
    return CounterexampleInstance(instance, tuple_points, checks)


def gen_counterexample(ks, seed: int, representation: str = TRUNCATED) -> CounterexampleInstance:
    """Sample an optimality instance at dimension n+m.

    Integer coordinates are drawn uniformly from a box of side ``_BOX_SIDE``
    and rejected, at most ``_MAX_TRIES`` times, until every general-position
    certificate passes.  Identical (ks, seed, representation) arguments
    reproduce the instance exactly.  Raises MalformedInputError before
    sampling when the subset count, the tuple count or the dimension is over
    its budget.
    """
    ks = list(ks)
    n = len(ks)
    if n < 1 or any(k < 0 for k in ks):
        raise MalformedInputError("need at least one non-negative target")
    _check_counterexample_budgets(ks)
    m = sum(ks)
    d = n + m
    rng = random.Random(derive_seed("counterexample", tuple(ks), seed))
    half = _BOX_SIDE // 2
    for _ in range(_MAX_TRIES):
        points = [
            QVector(rng.randint(-half, half) for _ in range(d))
            for _ in range(2 * n + m)
        ]
        try:
            return counterexample_from_points(ks, points, representation)
        except GeneralPositionError:
            continue
    raise RetryExhaustedError(
        f"no generic point set found in {_MAX_TRIES} attempts (seed {seed})"
    )


def gen_planted(dim: int, ks, seed: int) -> Instance:
    """Instance whose first family has a transversal planted by construction.

    A random k_1-flat is drawn, the first family's members each receive one
    point of it, and every member selected by a tuple shares that tuple's
    anchor point, so the colorful property holds as well.  Raises
    MalformedInputError before sampling when the tuple count or the
    dimension is over its budget.
    """
    ks = list(ks)
    if not ks or any(k < 0 for k in ks):
        raise MalformedInputError("need at least one non-negative target")
    if dim < 1 or dim < max(ks):
        raise MalformedInputError("ambient dimension too small for the targets")
    _check_tuple_budget([k + 2 for k in ks], "the planted instance")
    check_budget([dim], _DIMENSION_BUDGET, "the planted instance", "ambient dimensions")
    rng = random.Random(derive_seed("planted", dim, tuple(ks), seed))

    def random_point(spread=20):
        return QVector(rng.randint(-spread, spread) for _ in range(dim))

    base = random_point()
    directions = []
    while len(directions) < ks[0]:
        candidate = QVector(rng.randint(-5, 5) for _ in range(dim))
        trial = directions + [candidate]
        if rank(trial) == len(trial):
            directions.append(candidate)

    planted = []
    for _ in range(ks[0] + 2):
        point = base
        for direction in directions:
            point = point + rng.randint(-5, 5) * direction
        planted.append(point)

    anchors = {t: random_point() for t in _member_tuples(k + 2 for k in ks)}

    families = []
    for i, k in enumerate(ks):
        members = []
        for j in range(1, k + 3):
            gens = [planted[j - 1]] if i == 0 else []
            gens += [anchors[t] for t in sorted(anchors) if t[i] == j]
            gens += [random_point() for _ in range(rng.randint(0, 2))]
            members.append(VPolytope(tuple(gens)))
        families.append(Family(k, tuple(members)))
    return Instance(dim, tuple(families))


def _scaled_box_sample(rng, gens):
    """Point inside the generators' bounding box scaled by two about its
    center, drawn from a 17-point rational grid per coordinate."""
    coords = []
    for c in range(gens[0].dim):
        values = [g[c] for g in gens]
        lo, hi = min(values), max(values)
        low_end = (3 * lo - hi) / 2  # center minus twice the half-width
        coords.append(low_end + Fraction(rng.randint(0, 16), 8) * (hi - lo))
    return QVector(coords)


def gen_colorful_random(ks, seed: int) -> Instance:
    """Random instance at the guarantee dimension n+m-1 with the colorful
    property enforced by per-tuple shared anchor points.

    Each tuple draws an anchor that becomes a generator of every member the
    tuple selects; members may gain a few noise generators inside twice
    their bounding box.  Anchor membership is re-verified before returning.
    Raises MalformedInputError before sampling when the tuple count or the
    dimension is over its budget.
    """
    ks = list(ks)
    n = len(ks)
    if n < 1 or any(k < 0 for k in ks):
        raise MalformedInputError("need at least one non-negative target")
    dim = n + sum(ks) - 1
    if dim < 1:
        raise MalformedInputError("single family with k=0 has no ambient dimension")
    _check_tuple_budget([k + 2 for k in ks], "the random instance")
    check_budget([dim], _DIMENSION_BUDGET, "the random instance", "ambient dimensions")
    rng = random.Random(derive_seed("colorful-random", tuple(ks), seed))

    anchors = {
        t: QVector(rng.randint(-50, 50) for _ in range(dim))
        for t in _member_tuples(k + 2 for k in ks)
    }

    families = []
    for i, k in enumerate(ks):
        members = []
        for j in range(1, k + 3):
            gens = [anchors[t] for t in sorted(anchors) if t[i] == j]
            gens += [_scaled_box_sample(rng, gens) for _ in range(rng.randint(0, 2))]
            members.append(VPolytope(tuple(gens)))
        families.append(Family(k, tuple(members)))

    generator_sets = [[set(b.generators) for b in f.bodies] for f in families]
    for selector, anchor in anchors.items():
        for i, choice in enumerate(selector):
            if anchor not in generator_sets[i][choice - 1]:
                raise AssertionError("anchor wiring broke the colorful property")
    return Instance(dim, tuple(families))

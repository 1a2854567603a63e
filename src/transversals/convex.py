"""Convex body representations and their exact predicates.

Two representations are supported: V-polytopes (convex hulls of finitely
many rational points, redundancy allowed) and affine flats (base point
plus independent directions, and the equations those define).
Intersection and membership reduce to hull-weight systems, linear solves
and exact substitution from :mod:`transversals.exactla`; nothing here is
ever approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .exactla import (
    MalformedInputError,
    QMatrix,
    QVector,
    _ONE,
    _ZERO,
    _hull_system,
    _per_block,
    _reduced_echelon,
    rank,
    solve_linear,
    standard_form_feasible,
)


class UnsupportedRepresentationError(ValueError):
    """An operation defined only for V-polytopes was given a flat."""


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of the generator points.  Generators need not be in
    convex position; a single point is a valid polytope."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(
            g if isinstance(g, QVector) else QVector(g) for g in self.generators
        )
        if not gens:
            raise MalformedInputError("polytope needs at least one generator")
        if len({g.dim for g in gens}) != 1:
            raise MalformedInputError("polytope generators have mixed dimensions")
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.generators[0].dim


@dataclass(frozen=True)
class AffineFlat:
    """Flat ``base + span(directions)``; directions must be independent.

    ``equations`` describe the same flat as ``(normal, value)`` pairs, the
    points ``x`` with ``normal . x == value`` for every pair.  The normals
    are the identity rows for a point flat and otherwise the kernel basis
    of the directions, so a flat that spans the whole space has none.  They
    are computed on first use.
    """

    base: QVector
    directions: tuple = ()

    def __post_init__(self):
        base = self.base if isinstance(self.base, QVector) else QVector(self.base)
        dirs = tuple(
            d if isinstance(d, QVector) else QVector(d) for d in self.directions
        )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)
        for d in dirs:
            if d.dim != base.dim:
                raise MalformedInputError("flat directions have mixed dimensions")
        if dirs and rank(QMatrix(dirs)) != len(dirs):
            raise MalformedInputError("flat directions are linearly dependent")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def dimension(self) -> int:
        """Intrinsic dimension of the flat."""
        return len(self.directions)

    @cached_property
    def equations(self) -> tuple:
        if self.directions:
            zero = QVector([_ZERO] * len(self.directions))
            normals = solve_linear(QMatrix(self.directions), zero).kernel_basis
        else:
            normals = tuple(
                QVector(_ONE if r == c else _ZERO for c in range(self.dim))
                for r in range(self.dim)
            )
        return tuple((normal, normal.dot(self.base)) for normal in normals)


ConvexBody = Union[VPolytope, AffineFlat]


def _common_dim(bodies) -> int:
    dims = {b.dim for b in bodies}
    if len(dims) != 1:
        raise MalformedInputError("bodies live in mixed ambient dimensions")
    return dims.pop()


def hull_weights(blocks, groups, target=None) -> Optional[list]:
    """Convex weights under which pooled generator hulls meet, or None.

    ``blocks`` are generator sequences in column order and ``groups[i]`` is
    the group, 0, 1, ..., of block i; a group's hull pools its blocks.  The
    system has one weight column per generator and nonnegative weights
    summing to one in each group.  Its coordinate rows put group 0's
    combination equal to ``target`` when one is given, and otherwise equal
    to each other group's combination in turn.  Polytope membership and
    the origin audit of the join certificate ask this system of the
    phase-one simplex; the weights come back split per block.
    ``common_point`` solves the same system with one row per flat equation
    appended.  The partition scan of ``k_transversal`` asks the same system,
    built by the same ``exactla._hull_system``, through
    ``exactla.hull_certificate``, which also answers "no" with a Farkas
    vector.
    """
    solution = standard_form_feasible(*_hull_system(blocks, groups, target))
    if solution is None:
        return None
    return _per_block(solution, blocks)


def weighted_sum(weights, points) -> QVector:
    """Exact ``sum_j w_j p_j``, skipping zero weights."""
    total = QVector([_ZERO] * points[0].dim)
    for w, p in zip(weights, points):
        if w:
            total = total + w * p
    return total


def contains(body: ConvexBody, point: QVector) -> bool:
    """Exact membership: ``hull_weights`` with the point as target for
    polytopes, substitution into the ``equations`` for flats."""
    if point.dim != body.dim:
        raise MalformedInputError("point dimension does not match body")
    if isinstance(body, AffineFlat):
        return all(normal.dot(point) == value for normal, value in body.equations)
    return hull_weights([body.generators], [0], point) is not None


def common_point(bodies) -> Optional[QVector]:
    """Exact point in the intersection of the bodies, or None iff empty.

    All-flat inputs are decided by one linear solve of their stacked
    ``equations``, whose particular solution is the point; with no
    equations at all every flat is the whole space and the point is the
    first base.  Any polytope puts the input on the hull-weight system of
    the polytopes, one group each, with one more row per flat equation
    over group 0's weights: the normal's dot product with each generator
    of the first polytope.  The point is the first polytope's combination.
    """
    bodies = list(bodies)
    if not bodies:
        raise MalformedInputError("need at least one body")
    _common_dim(bodies)
    polytopes = [b for b in bodies if isinstance(b, VPolytope)]
    equations = [e for b in bodies if isinstance(b, AffineFlat) for e in b.equations]

    if not polytopes:
        if not equations:
            return bodies[0].base
        solution = solve_linear(
            QMatrix(normal for normal, _ in equations),
            QVector(value for _, value in equations),
        )
        return None if solution is None else solution.particular

    first = polytopes[0].generators
    rows, rhs = _hull_system([p.generators for p in polytopes], range(len(polytopes)))
    padding = [_ZERO] * (len(rows[0]) - len(first))
    for normal, value in equations:
        rows.append([normal.dot(g) for g in first] + padding)
        rhs.append(value)
    solution = standard_form_feasible(rows, rhs)
    if solution is None:
        return None
    return weighted_sum(solution[: len(first)], first)


def affine_span(points) -> AffineFlat:
    """Affine span of a point set: base at the first point, directions the
    differences from it that are independent of the earlier ones, in input
    order.  Those are the pivot columns of the echelon form of the matrix
    whose columns are the differences."""
    points = [p if isinstance(p, QVector) else QVector(p) for p in points]
    if not points:
        raise MalformedInputError("need at least one point")
    _common_dim(points)
    base = points[0]
    differences = [p - base for p in points[1:]]
    pivots, _, _ = _reduced_echelon(
        [[v[c] for v in differences] for c in range(base.dim)]
    )
    return AffineFlat(base, tuple(differences[j] for j in pivots))

"""Convex body representations and their exact predicates.

Two representations are supported: V-polytopes (convex hulls of finitely
many rational points, redundancy allowed) and affine flats (base point
plus independent directions).  Intersection and membership reduce to
solves in :mod:`transversals.exactla`; nothing here is ever approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Flat ``base + span(directions)``; directions must be independent."""

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
    to each other group's combination in turn.  Polytope membership,
    polytope intersection and the origin audit of the join certificate ask
    this system of the phase-one simplex; the weights come back split per
    block.  The partition scan of ``k_transversal`` asks the same system,
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
    polytopes, a linear solve for flats."""
    if point.dim != body.dim:
        raise MalformedInputError("point dimension does not match body")
    if isinstance(body, AffineFlat):
        if not body.directions:
            return point == body.base
        columns = body.directions
        matrix = QMatrix(
            QVector(d[c] for d in columns) for c in range(body.dim)
        )
        return solve_linear(matrix, point - body.base) is not None
    return hull_weights([body.generators], [0], point) is not None


def common_point(bodies) -> Optional[QVector]:
    """Exact point in the intersection of the bodies, or None iff empty.

    All-flat inputs are decided by one linear solve, and all-polytope
    inputs by ``hull_weights`` with one group per polytope; the point is
    the first polytope's combination.  Mixed inputs get one feasibility
    system whose unknowns are the ambient point, one convex-combination
    weight per polytope generator, and one free parameter per flat
    direction.
    """
    bodies = list(bodies)
    if not bodies:
        raise MalformedInputError("need at least one body")
    d = _common_dim(bodies)

    if all(isinstance(b, AffineFlat) for b in bodies):
        total_params = sum(len(b.directions) for b in bodies)
        width = d + total_params
        rows = []
        rhs = []
        param_at = d
        for flat in bodies:
            for c in range(d):
                row = [_ZERO] * width
                row[c] = _ONE
                for l, direction in enumerate(flat.directions):
                    row[param_at + l] = -direction[c]
                rows.append(row)
                rhs.append(flat.base[c])
            param_at += len(flat.directions)
        solution = solve_linear(QMatrix(rows), QVector(rhs))
        if solution is None:
            return None
        return QVector(solution.particular.entries[:d])

    polytopes = [b for b in bodies if isinstance(b, VPolytope)]
    flats = [b for b in bodies if isinstance(b, AffineFlat)]

    if not flats:
        weights = hull_weights(
            [p.generators for p in polytopes], range(len(polytopes))
        )
        if weights is None:
            return None
        return weighted_sum(weights[0], polytopes[0].generators)

    num_weights = sum(len(p.generators) for p in polytopes)
    num_params = sum(len(f.directions) for f in flats)
    # columns: x+ | x- | weight blocks | param+ blocks | param- blocks
    width = 2 * d + num_weights + 2 * num_params
    weight_at = 2 * d
    param_at = 2 * d + num_weights
    rows = []
    rhs = []

    def x_row(c):
        row = [_ZERO] * width
        row[c] = _ONE
        row[d + c] = -_ONE
        return row

    offset = weight_at
    for poly in polytopes:
        gens = poly.generators
        for c in range(d):
            row = x_row(c)
            for j, g in enumerate(gens):
                row[offset + j] = -g[c]
            rows.append(row)
            rhs.append(_ZERO)
        norm_row = [_ZERO] * width
        for j in range(len(gens)):
            norm_row[offset + j] = _ONE
        rows.append(norm_row)
        rhs.append(_ONE)
        offset += len(gens)

    offset = param_at
    for flat in flats:
        dirs = flat.directions
        for c in range(d):
            row = x_row(c)
            for l, direction in enumerate(dirs):
                row[offset + l] = -direction[c]
                row[offset + num_params + l] = direction[c]
            rows.append(row)
            rhs.append(flat.base[c])
        offset += len(dirs)

    solution = standard_form_feasible(rows, rhs)
    if solution is None:
        return None
    return QVector(solution[c] - solution[d + c] for c in range(d))


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

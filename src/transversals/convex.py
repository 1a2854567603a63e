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


def contains(body: ConvexBody, point: QVector) -> bool:
    """Exact membership: a convex-combination feasibility system for
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
    gens = body.generators
    d = body.dim
    rows = []
    for c in range(d):
        rows.append([g[c] for g in gens])
    rows.append([_ONE] * len(gens))
    rhs = list(point.entries) + [_ONE]
    return standard_form_feasible(rows, rhs) is not None


def common_point(bodies) -> Optional[QVector]:
    """Exact point in the intersection of the bodies, or None iff empty.

    All-flat inputs are decided by one linear solve.  Otherwise a single
    feasibility system is built whose unknowns are the ambient point, one
    convex-combination weight per polytope generator, and one free
    parameter per flat direction.
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
        # Pure polytope case: presolve the ambient point away by pinning it
        # to the first polytope's combination, leaving only weight columns.
        sizes = [len(p.generators) for p in polytopes]
        width = sum(sizes)
        starts = []
        at = 0
        for s in sizes:
            starts.append(at)
            at += s
        rows = []
        rhs = []
        first = polytopes[0].generators
        for other_index in range(1, len(polytopes)):
            other = polytopes[other_index].generators
            for c in range(d):
                row = [_ZERO] * width
                for j, g in enumerate(first):
                    row[j] = g[c]
                for j, g in enumerate(other):
                    row[starts[other_index] + j] = -g[c]
                rows.append(row)
                rhs.append(_ZERO)
        for index, size in enumerate(sizes):
            row = [_ZERO] * width
            for j in range(size):
                row[starts[index] + j] = _ONE
            rows.append(row)
            rhs.append(_ONE)
        solution = standard_form_feasible(rows, rhs)
        if solution is None:
            return None
        point = QVector([_ZERO] * d)
        for weight, g in zip(solution, first):
            if weight:
                point = point + weight * g
        return point

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
    """Affine span of a point set: base at the first point, directions a
    maximal independent subset of the differences, scanned in input order."""
    points = [p if isinstance(p, QVector) else QVector(p) for p in points]
    if not points:
        raise MalformedInputError("need at least one point")
    _common_dim(points)
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

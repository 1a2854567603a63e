"""Convex body representations and their exact predicates.

Two representations are supported: V-polytopes (convex hulls of finitely
many rational points, redundancy allowed) and affine flats (base point
plus independent directions, and the equations those define).
Intersection and membership reduce to hull-weight systems, linear solves
and exact substitution from :mod:`transversals.exactla`; nothing here is
ever approximate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .exactla import (
    MalformedInputError,
    QVector,
    _ZERO,
    _echelon,
    _integer_rows,
    _integer_solve,
    hull_weights,
    rank,
    solve_linear,
)


class UnsupportedRepresentationError(ValueError):
    """An operation defined only for V-polytopes was given a flat."""


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of the generator points.  Generators need not be in
    convex position; a single point is a valid polytope.

    ``_normal_rows`` are a basis of the vectors orthogonal to the affine
    hull of the generators, as tuples of ints: the kernel of their
    differences from the first generator, so the identity rows for a single
    point, read in integers from ``exactla._integer_solve`` and each divided
    by the gcd of its entries, which keeps its direction and the basis's
    rank.  The differences are taken in the integer generator table, over
    one scale; a uniform scale moves no pivot, and each kernel row is a
    positive multiple of the rational one, so the primitive rows are the
    same.  They, and the table, are computed on first use.
    """

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

    @cached_property
    def _table(self) -> tuple:
        """``(table, scale)``: the generators' numerators over the lcm of
        all their denominators, one row per generator, as
        ``exactla._integer_rows`` makes them; every hull system of this
        polytope is built from it."""
        return _integer_rows(self.generators)

    @cached_property
    def _generator_keys(self) -> dict:
        """Each generator by a key that equal vectors share, in generator
        order: its row of ``_table`` divided by the gcd of the row and the
        scale, with the scale so divided.  Those are its numerators over the
        lcm of its own denominators, and the key hashes as integers."""
        table, scale = self._table
        keys = {}
        for g, row in zip(self.generators, table):
            common = math.gcd(scale, *row)
            keys.setdefault((tuple(v // common for v in row), scale // common), g)
        return keys

    @cached_property
    def _normal_rows(self) -> tuple:
        # The kernel of one zero row is the identity rows, in order.
        table, _ = self._table
        base = table[0]
        differences = [[a - b for a, b in zip(g, base)] for g in table[1:]]
        _, kernel, _ = _integer_solve(differences or [[0] * self.dim], self.dim)
        return tuple(tuple(e // math.gcd(*row) for e in row) for row in kernel)


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
        if dirs and rank(dirs) != len(dirs):
            raise MalformedInputError("flat directions are linearly dependent")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def dimension(self) -> int:
        """Intrinsic dimension of the flat."""
        return len(self.directions)

    def translated(self, base) -> "AffineFlat":
        """The flat through ``base`` with these directions.  They were
        checked when this flat was made, so they are not ranked again."""
        base = base if isinstance(base, QVector) else QVector(base)
        if base.dim != self.dim:
            raise MalformedInputError(f"flat base has dimension {base.dim}, not {self.dim}")
        flat = object.__new__(AffineFlat)
        object.__setattr__(flat, "base", base)
        object.__setattr__(flat, "directions", self.directions)
        return flat

    @cached_property
    def equations(self) -> tuple:
        # The kernel of one zero row is the identity rows, in order.
        normals = solve_linear(self.directions or [[_ZERO] * self.dim]).kernel_basis
        return tuple((normal, normal.dot(self.base)) for normal in normals)


ConvexBody = Union[VPolytope, AffineFlat]


def _common_dim(bodies) -> int:
    dims = {b.dim for b in bodies}
    if len(dims) != 1:
        raise MalformedInputError("bodies live in mixed ambient dimensions")
    return dims.pop()


def combination(weights, block) -> QVector:
    """Exact ``sum_j w_j g_j`` over the generators of an integer table
    ``block = (table, scale)`` from ``exactla._integer_rows``: the weights'
    numerators over their lcm summed in integers, one Fraction a coordinate."""
    (numerators,), denominator = _integer_rows([weights])
    table, scale = block
    denominator *= scale
    return QVector(
        Fraction(sum(map(operator.mul, numerators, column)), denominator)
        for column in zip(*table)
    )


def contains(body: ConvexBody, point: QVector) -> bool:
    """Exact membership: ``exactla.hull_weights`` with the point as a
    one-generator group 1 for polytopes, substitution into the
    ``equations`` for flats."""
    if point.dim != body.dim:
        raise MalformedInputError("point dimension does not match body")
    if isinstance(body, AffineFlat):
        return all(normal.dot(point) == value for normal, value in body.equations)
    return hull_weights([body._table, _integer_rows([point])], [0, 1]) is not None


def common_point(bodies) -> Optional[QVector]:
    """Exact point in the intersection of the bodies, or None iff empty.

    All-flat inputs are decided by one linear solve of their stacked
    ``equations``, whose particular solution is the point; with no
    equations at all every flat is the whole space and the point is the
    first base.  Any polytope puts the input on ``exactla.hull_weights`` of
    the polytopes, one group each, with the flat equations on group 0, the
    first polytope.  The point is the first polytope's ``combination``.
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
        normals, values = zip(*equations)
        solution = solve_linear(normals, [values])
        return None if solution is None else solution.particulars[0]

    weights = hull_weights(
        [p._table for p in polytopes], range(len(polytopes)), equations=equations
    )
    return None if weights is None else combination(weights[0], polytopes[0]._table)


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
    table, _ = _integer_rows([v[c] for v in differences] for c in range(base.dim))
    pivots, _ = _echelon(table)
    return AffineFlat(base, tuple(differences[j] for j in pivots))

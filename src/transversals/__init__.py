"""Exact-arithmetic transversal decisions for small families of convex sets.

The package decides k-dimensional flat transversals for families of k+2
convex bodies, checks the colorful intersection property across color
families, generates instances (planted, random colorful, and
dimension-optimality counterexamples), and builds separation certificates
over joins of subset chain complexes.  All arithmetic is exact rational.
"""

from .exactla import (
    LinearSolution,
    MalformedInputError,
    PreconditionError,
    QVector,
    format_rational,
    parse_rational,
    positive_functional,
    rank,
    solve_linear,
    strict_separation,
)
from .convex import (
    AffineFlat,
    ConvexBody,
    UnsupportedRepresentationError,
    VPolytope,
    affine_span,
    common_point,
    contains,
)
from .transversal import (
    ColorfulReport,
    Family,
    Instance,
    Partition,
    TheoremPreconditionError,
    TheoremReport,
    TheoremViolationError,
    TransversalWitness,
    check_colorful,
    k_transversal,
    partitions,
    validate_witness,
    verify_theorem,
)

__version__ = "0.1.0"

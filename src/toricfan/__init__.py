"""Exact-arithmetic toolkit for smooth complete toric fans.

Fans are immutable combinatorial values (named primitive rays plus maximal
cones); every operation is a pure function over exact integers and
rationals. The package computes primitive collections and relations, Mori
cones with extremality flags, Fano and projectivity verdicts, performs
equivariant blow-ups and blow-downs, and factors refinement morphisms into
chains of blow-downs.
"""

from . import birational, catalog, lattice, mori
from .errors import (
    CenterNotInFanError,
    CenterTooSmallError,
    DimensionMismatchError,
    DuplicateNameError,
    FanParseError,
    FanSyntaxError,
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidDimensionError,
    NameCollisionError,
    NoBlowdownRelationError,
    NotARefinementError,
    StarConditionViolatedError,
    ToricFanError,
    UnknownRayError,
    UnsupportedDimensionError,
)
from .fan import (
    Cone,
    Fan,
    RayGenerator,
    ValidationReport,
    canonical_gl_key,
    cone_in_fan,
    contract_ray,
    fan_isomorphism,
    locate_relint,
    make_fan,
    parse_fan,
    refines,
    resolve_cone,
    resolve_ray,
    serialize_fan,
    star_subdivide,
    structural_key,
    structurally_equal,
    validate_fan,
)

__all__ = [
    "Cone",
    "Fan",
    "RayGenerator",
    "ValidationReport",
    "birational",
    "canonical_gl_key",
    "catalog",
    "cone_in_fan",
    "contract_ray",
    "fan_isomorphism",
    "lattice",
    "locate_relint",
    "make_fan",
    "mori",
    "parse_fan",
    "refines",
    "resolve_cone",
    "resolve_ray",
    "serialize_fan",
    "star_subdivide",
    "structural_key",
    "structurally_equal",
    "validate_fan",
    # errors
    "CenterNotInFanError",
    "CenterTooSmallError",
    "DimensionMismatchError",
    "DuplicateNameError",
    "FanParseError",
    "FanSyntaxError",
    "InternalInconsistencyError",
    "InvalidArgumentError",
    "InvalidDimensionError",
    "NameCollisionError",
    "NoBlowdownRelationError",
    "NotARefinementError",
    "StarConditionViolatedError",
    "ToricFanError",
    "UnknownRayError",
    "UnsupportedDimensionError",
]

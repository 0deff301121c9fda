"""Exception hierarchy shared by all modules."""


class ToricFanError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(ToricFanError):
    """Vector or matrix sizes are inconsistent with the ambient dimension."""


class InvalidArgumentError(ToricFanError):
    """An argument outside the function's domain: a matrix or LP entry that
    is not an exact integer (or, for the LP, an int or a Fraction), or a
    ray set that is not a primitive collection. Not a ValueError, which
    the unimodularity tests read as "not unimodular"."""


class FanParseError(ToricFanError):
    """Base class for fan-file parsing failures."""


class FanSyntaxError(FanParseError):
    """Malformed fan-file line; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DuplicateNameError(FanParseError):
    """Two ray generators share a name."""


class UnknownRayError(FanParseError):
    """A cone references a ray name or index that does not exist."""


class CenterNotInFanError(ToricFanError):
    """The requested subdivision center is not a cone of the fan."""


class CenterTooSmallError(ToricFanError):
    """Subdivision centers must have at least two rays."""


class NameCollisionError(ToricFanError):
    """The requested new ray name is already taken."""


class NoBlowdownRelationError(ToricFanError):
    """No relation of the shape x1+...+xh = ray targets the requested ray."""


class StarConditionViolatedError(ToricFanError):
    """A contraction failed: some cone around the ray misses the required rays.

    ``witnesses`` lists every offending maximal cone (as index tuples).
    """

    def __init__(self, message: str, witnesses):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class NotARefinementError(ToricFanError):
    """Factorization requested between fans that are not a refinement pair."""


class InternalInconsistencyError(ToricFanError):
    """The fan is one that ``validate_fan`` rejects. Contraction, the
    blow-down tools, ``locate_relint``, the relations, the Mori cone and
    the wall verdicts raise it through ``fan.wall_classes`` before any
    other work."""


class InvalidDimensionError(ToricFanError):
    """A construction was requested in a nonsensical dimension."""


class UnsupportedDimensionError(ToricFanError):
    """Enumeration is not implemented for the requested dimension."""

"""Exception hierarchy shared by all germimage modules."""


class GermImageError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GermImageError):
    """Operands live in polynomial rings with different variable counts."""


class DivisibilityError(GermImageError):
    """Exact division requested but the divisor is not a factor."""


class GcdUndefinedError(GermImageError):
    """gcd(0, 0) has no normal form."""


class NotAGermError(GermImageError):
    """A map component does not vanish at the origin."""


class ParseError(GermImageError):
    """Syntax error in a polynomial expression, with source location."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownVariableError(ParseError):
    """Identifier not in the declared variable list."""


class PreconditionError(GermImageError):
    """An operation was called outside its documented domain."""


class ImageContainsCurveError(GermImageError):
    """The candidate curve's pullback vanishes identically: the curve contains
    the whole image, so it is not a gap curve; route to the curve-image branch."""


class InternalConsistencyError(GermImageError):
    """A certified invariant failed; indicates a bug, not bad input."""

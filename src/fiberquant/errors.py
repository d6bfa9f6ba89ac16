"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit-code contract: validation-type errors
exit 2, accuracy failures exit 3, usage problems exit 64.
"""


class FiberquantError(Exception):
    """Base class for all package errors."""


class InvalidArgument(FiberquantError, ValueError):
    """A caller passed an argument outside an operation's precondition."""


class ChartError(FiberquantError):
    """A point or path left the declared chart coverage."""


class PoleNotInOverlap(ChartError):
    """Chart transition requested at the excluded pole (z = 0)."""


class AccuracyFailure(FiberquantError):
    """A computed quantity violated its advertised tolerance."""


class ConfigurationError(FiberquantError):
    """Model construction rejected inconsistent or unsupported input data."""


class ValidationError(FiberquantError):
    """A scenario document failed schema validation."""


class ParseError(FiberquantError):
    """A scenario file could not be parsed at all."""

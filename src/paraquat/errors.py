"""Exception taxonomy for the verification engine.

Every failure mode that a check or builder can report is a distinct class so
that scenario reports and callers can key on the name.  All of them derive
from :class:`ParaquatError`.
"""


class ParaquatError(Exception):
    """Base class for all package errors."""


class ValidationError(ParaquatError):
    """A declared object violates its structural invariants."""


class OutOfDomainError(ParaquatError):
    """A point lies outside the chart's domain box."""


class StencilOutOfDomainError(OutOfDomainError):
    """The stencil of the step around a point would leave the domain box."""


class EmptyDomainError(ParaquatError):
    """The domain box has no interior once the sampling margin is applied."""


class ShapeError(ParaquatError):
    """Evaluated components do not have the declared tensor shape."""


class EvaluationError(ParaquatError):
    """A component function produced a non-finite value or an invalid operation
    (e.g. division by zero inside a scenario expression)."""


class DegenerateMetricError(ParaquatError):
    """|det g| fell below the nondegeneracy floor at an evaluation point."""


class DegenerateFiberMetricError(ParaquatError):
    """The metric restricted to the vertical (fiber) subspace is degenerate."""


class RankDeficientError(ParaquatError):
    """A submersion differential lost full rank."""


class IllConditionedError(ParaquatError):
    """A linear extraction problem is too close to singular to trust."""


class SingularTransitionError(ParaquatError):
    """A basis transition matrix is not invertible at the evaluation point."""


class PreconditionFailedError(ParaquatError):
    """A check's stated hypothesis does not hold, so its conclusion is not
    being tested."""


class NotAFiberError(ParaquatError):
    """Points handed to a fiber computation do not share one image."""


class ParseError(ParaquatError):
    """A scenario file is not valid JSON or is structurally malformed."""


class ExprSyntaxError(ParseError):
    """Malformed expression text.  Carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    """An expression references a name that is not a coordinate of the chart."""

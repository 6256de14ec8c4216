"""Exception types shared across the package."""


class LeviFlatError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(LeviFlatError):
    """Malformed expression text. Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(LeviFlatError):
    """Identifier is neither a chart coordinate nor a known function."""


class ArityError(LeviFlatError):
    """Function called with the wrong number of arguments."""


class SingularEvaluationError(LeviFlatError):
    """Division by a value with magnitude below the evaluation guard."""


class EvaluationRangeError(LeviFlatError):
    """exp or an integer power overflowed, or sin or cos met an infinity."""


class ChartMismatchError(LeviFlatError):
    """Operands live on different charts."""


class ZMembershipError(LeviFlatError):
    """Form is not annihilated by the transverse field within tolerance."""


class ConjugationSingularError(LeviFlatError):
    """det(J + Jtilde) is below the invertibility guard."""


class GaugeDomainError(LeviFlatError):
    """Pullback normalization denominator is too close to zero."""


class FlowParameterError(LeviFlatError):
    """Invalid step size or time for the flow integrator."""


class ScenarioError(LeviFlatError):
    """Unknown scenario name or malformed scenario file."""


class ConfigError(LeviFlatError):
    """Invalid run configuration (CLI exit status 2)."""

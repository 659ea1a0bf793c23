"""Exception hierarchy.

Two families matter for the CLI exit-code contract: hypothesis/precondition
violations (exit 2) and numerical failures (exit 3).
"""


class QuadzeroError(Exception):
    pass


class HypothesisViolation(QuadzeroError):
    """A theorem hypothesis or operation precondition does not hold."""


class BEqualsOne(HypothesisViolation):
    pass


class BZero(HypothesisViolation):
    pass


class BoundUnavailable(HypothesisViolation):
    pass


class ZeroPolynomial(HypothesisViolation):
    pass


class NotARootAtOne(HypothesisViolation):
    pass


class NoSignChange(HypothesisViolation):
    pass


class NumericalError(QuadzeroError):
    """A computation failed to converge or could not be resolved."""


class NonConvergence(NumericalError):
    pass


class ZeroOnContour(NumericalError):
    pass


class SampleCapExceeded(NumericalError):
    pass


class DegenerateJacobian(NumericalError):
    """Newton's Jacobian is singular within rounding: no positive margin."""


class PoleAtCriticalPoint(QuadzeroError):
    """The analytic derivative vanishes, so the dilatation has a pole."""

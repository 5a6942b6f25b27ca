"""Exception types shared across the package."""


class NormPlaneError(Exception):
    """Base class for all package-specific errors."""


class SelfCheckFailed(NormPlaneError):
    """A built-in consistency check failed: the input was valid, the result
    is not trustworthy (e.g. the primal and dual ST verdicts disagree)."""


class BadParameter(NormPlaneError):
    """A constructor parameter is outside its admissible range."""


class NotConvex(NormPlaneError):
    """The candidate curve or gauge fails a convexity check."""


class NotPeriodic(NormPlaneError):
    """A polar profile contains odd harmonics and is not pi-periodic."""


class NotClosed(NormPlaneError):
    """An arc chain does not close up."""


class NotSymmetric(NormPlaneError):
    """A candidate unit sphere is not symmetric under v -> -v."""


class TangentBreak(NormPlaneError):
    """Consecutive arcs meet with mismatched tangents."""


class NonSmoothPoint(NormPlaneError):
    """An operation requiring a unique support functional hit a kink."""


class SingularPoint(NormPlaneError):
    """A curvature formula was evaluated at a point with vanishing speed/gradient."""


class Singular(NormPlaneError):
    """A linear map expected to be invertible is numerically singular."""


class Degenerate(NormPlaneError):
    """A construction was requested with a degenerate parameter (e.g. eps = 1)."""


class NotPositiveDefinite(NormPlaneError):
    """A quadratic form expected to be positive definite is not."""


class BadEps(NormPlaneError):
    """A modulus argument lies outside its domain."""


class WrongModel(NormPlaneError):
    """An operation specialised to one norm family received another."""


class NotFlat(NormPlaneError):
    """The target point of a flat transport is not on a flat face."""


class OutOfDomain(NormPlaneError):
    """A curve parameter lies outside the curve's domain."""


class TangencySolveFailed(NormPlaneError):
    """The two-circle closure system admitted no valid solution."""


class ScaleLawViolation(NormPlaneError):
    """Numeric image-curve curvature disagrees with the exact scaling law."""


class InfiniteCurvature(NormPlaneError):
    """A curvature-based bound was requested at a point with infinite curvature."""

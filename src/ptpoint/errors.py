"""Exception hierarchy for ptpoint."""


class PointInteractionError(Exception):
    """Base class for all ptpoint errors."""


class InvalidParams(PointInteractionError):
    """Parameter record violates its constraints (e.g. 1 + b*c < 0)."""


class NotInFamily(PointInteractionError):
    """Matrix cannot be written in the requested parameter family."""


class Degenerate(PointInteractionError):
    """Interface matrix is singular where a connected condition is required."""


class DegenerateIdenticallyZero(PointInteractionError):
    """Dispersion relation vanishes identically; every wave number solves it."""


class ContourThroughZero(PointInteractionError):
    """A dispersion zero lies on (or too close to) the search contour; perturb it."""


class NoConvergence(PointInteractionError):
    """Iterative refinement failed within the allowed iteration budget."""


class NotAnEigenvalue(PointInteractionError):
    """Requested wave number is not a discrete eigenvalue of the model."""


class SpectrumPoint(PointInteractionError):
    """Resolvent requested at (or numerically near) a spectral point."""


class InvalidRegion(PointInteractionError):
    """Resolvent requested on the absolutely continuous branch [0, inf)."""


class GridCollision(PointInteractionError):
    """A grid node coincides with an interaction point."""


class GridMismatch(PointInteractionError):
    """Two grid functions do not share the same grid."""


class EigensolverFailure(PointInteractionError):
    """The oracle's zero search failed: an edge did not resolve, or the zeros found do not add up to the count."""


class ResonantK(PointInteractionError):
    """Scattering matching system is singular at this wave number."""

"""Exception types shared across the solver."""


class GaussFlowError(Exception):
    """Base class for all library errors."""


class SpacelikeViolationError(GaussFlowError):
    """Gradient magnitude reached or exceeded the causal limit |Du| = 1."""


class ConvexityError(GaussFlowError):
    """A field that must be strictly convex has an indefinite Hessian."""


class BoundaryMembershipError(GaussFlowError):
    """A point claimed to lie on a domain boundary does not."""


class NonConvergenceError(GaussFlowError):
    """The flow did not reach the translator tolerance, or a step failed."""


class StepFailureError(NonConvergenceError):
    """Newton failed to produce an admissible state before tau underflowed."""


class OracleFailureError(GaussFlowError):
    """A ground-truth oracle missed its target or built an inadmissible profile."""


class ConfigError(GaussFlowError):
    """A run configuration file is missing, malformed, or inconsistent."""

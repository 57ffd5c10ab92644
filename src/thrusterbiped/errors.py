"""Exception types shared across the package."""


class BipedError(Exception):
    """Base class for domain errors raised by this package."""


class SingularDynamicsError(BipedError):
    """Mass matrix numerically singular; unreachable for valid parameters."""


class SingularImpactError(BipedError):
    """Impact KKT system degenerate (kinematically singular posture)."""


class SingularContactError(BipedError):
    """Double-support contact KKT system degenerate."""


class DecouplingSingularityError(BipedError):
    """Output decoupling matrix LgLfh is not invertible at this state."""


class GaitDesignError(BipedError):
    """Requested gait boundary data cannot be realized."""


class EventLocationError(BipedError):
    """Guard root bracketing/refinement failed."""


class ConfigError(BipedError, ValueError):
    """Scenario configuration missing, malformed, invalid, or with unknown keys."""


class NumericalFailureError(BipedError):
    """Non-finite state or failed linear algebra during simulation."""

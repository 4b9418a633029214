"""Exception types shared across the package.

Every error raised by library code derives from LiouvilleLabError so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""


class LiouvilleLabError(Exception):
    """Base class for all package errors."""


class ConfigError(LiouvilleLabError):
    """Invalid, unreadable, or over-specified experiment configuration."""


class DomainError(LiouvilleLabError):
    """Input outside the mathematical domain of an operation."""


class SingularityError(LiouvilleLabError):
    """A configuration hit (or came within threshold of) a pair coincidence."""


class SubstepLimitError(LiouvilleLabError):
    """Adaptive integrator exceeded its substep budget."""


class QuadratureError(LiouvilleLabError):
    """Quadrature refinement failed to converge to the requested tolerance."""


class CoverageError(LiouvilleLabError):
    """Sampling box cannot support the requested estimator."""


class AlignmentError(LiouvilleLabError):
    """States offered to an estimator do not match its time nodes."""

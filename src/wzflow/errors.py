"""Exception types shared across the toolkit."""


class WzflowError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(WzflowError):
    """A requested path or grid would exceed the configured memory cap."""


class DomainError(WzflowError):
    """An argument lies outside the valid time or space domain."""


class ConfigurationError(WzflowError):
    """Inconsistent or incomplete object configuration."""


class GaugeError(WzflowError):
    """A source term violates the zero-mean gauge requirement."""


class ConvergenceError(WzflowError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SupportError(WzflowError):
    """A density dropped below the positivity floor where it is required."""


class StabilityError(WzflowError):
    """A time step exceeds the reported stability bound."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class DiffeomorphismLostError(WzflowError):
    """The flow map stopped being invertible before the requested time."""

    def __init__(self, message, loss_time=None):
        super().__init__(message)
        self.loss_time = loss_time


class InsufficientDataError(WzflowError):
    """Not enough levels or sample times for the requested estimate."""


class EvaluationError(WzflowError):
    """A model function returned a non-finite value."""

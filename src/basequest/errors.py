"""Exception types shared across the package.

Every domain failure raised by the library derives from SimulationError so
the CLI can map the whole family onto a single exit code.
"""


class SimulationError(Exception):
    """Base class for all numeric/domain errors raised by this package."""


class InvalidDimensionError(SimulationError, ValueError):
    """State-space dimension outside the supported range."""


class InvalidTargetError(SimulationError, ValueError):
    """Marked-object index outside [0, dim)."""


class DimensionMismatchError(SimulationError, ValueError):
    """Two states (or a state and an operator) disagree on dimension."""


class InvalidPhaseError(SimulationError, ValueError):
    """A supplied phase factor is not unit modulus, or the phase vector
    has the wrong length."""


class InvalidParameterError(SimulationError, ValueError):
    """A numeric parameter violates its domain (nonpositive time step,
    zero trials, negative temperature, ...)."""


class IncompleteTransitionError(SimulationError, ValueError):
    """The energy-time product does not sit on a half Rabi cycle, so the
    transition amplitude is not a pure phase."""


class DrawBudgetExceededError(SimulationError, RuntimeError):
    """A selection-scenario sample used up its emission attempts
    (run_scenario's attempt_cap) without a successful check."""

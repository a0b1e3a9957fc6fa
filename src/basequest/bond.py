"""Two-level dynamics of a single molecular bond forming event.

The two basis states are |intact donor, no quanta emitted> and
|formed bond, quanta emitted>; the coupling Hamiltonian is the energy gap
times the swap matrix (off-diagonal sigma_x form), so a half Rabi cycle
carries the first state fully onto the second, up to a universal phase
factor of -1j. Natural units (hbar = 1) throughout, except bond_time which
returns SI seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IncompleteTransitionError, InvalidParameterError
from .grover import _Amplitudes, _is_integer

if TYPE_CHECKING:
    import numpy as np

# CODATA 2018
HBAR = 1.054571817e-34       # J*s
BOLTZMANN = 1.380649e-23     # J/K (exact)

# Allowed deviation of gap*duration from pi/2 for a half cycle.
HALF_CYCLE_ATOL = 1e-9

_PHASE_BY_STEP = {0: 1.0 + 0.0j, 1: -1.0j, 2: -1.0 + 0.0j, 3: 1.0j}


@dataclass(frozen=True)
class BondParams:
    """Dimensionless gap (delta E over kT), temperature in kelvin, and the
    number of half-cycle steps chained in a cascade."""

    gap_over_kt: float = 7.0
    temperature: float = 300.0
    cascade_steps: int = 1

    def __post_init__(self):
        _check_positive("gap_over_kt", self.gap_over_kt)
        _check_positive("temperature", self.temperature)
        if not _is_integer(self.cascade_steps) or self.cascade_steps < 1:
            raise InvalidParameterError(
                f"cascade_steps must be an integer >= 1, got {self.cascade_steps!r}")


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class TwoLevelState(_Amplitudes):
    """Normalized amplitude pair (no-transition component, transition
    component)."""

    amplitudes: np.ndarray

    @staticmethod
    def _check_shape(amps: np.ndarray) -> None:
        if amps.shape != (2,):
            raise InvalidParameterError(
                f"two-level state needs exactly 2 amplitudes, got {amps.shape}")


def interaction_hamiltonian(energy_gap: float) -> np.ndarray:
    """energy_gap times the swap matrix; eigenvalues +-energy_gap with
    eigenvectors (1, +-1)/sqrt(2)."""
    import numpy as np

    _check_positive("energy gap", energy_gap)
    return np.array([[0.0, energy_gap], [energy_gap, 0.0]], dtype=np.complex128)


def _propagator(energy_gap: float, duration: float) -> tuple[float, complex]:
    """Diagonal and off-diagonal entries, cos(x) and -i sin(x), of
    exp(-i H duration) with x = energy_gap * duration."""
    _check_positive("energy gap", energy_gap)
    if not 0 <= duration < math.inf:
        raise InvalidParameterError(
            f"duration must be finite and >= 0, got {duration!r}")
    x = energy_gap * duration
    return math.cos(x), -1j * math.sin(x)


def evolution_operator(energy_gap: float, duration: float) -> np.ndarray:
    """exp(-i H duration) in closed form: cos(x) 1 - i sin(x) swap, with
    x = energy_gap * duration."""
    import numpy as np

    diagonal, off = _propagator(energy_gap, duration)
    return np.array([[diagonal, off], [off, diagonal]], dtype=np.complex128)


def evolve(state: TwoLevelState, energy_gap: float, duration: float) -> TwoLevelState:
    return TwoLevelState._adopt(
        evolution_operator(energy_gap, duration) @ state.amplitudes)


def half_rabi_phase(energy_gap: float, duration: float) -> complex:
    """Transition amplitude picked up over one half Rabi cycle.

    Requires energy_gap * duration = pi/2 within 1e-9; anything else is not
    a complete transition (a full cycle, for instance, returns the system
    to the start with an overall sign and transfers nothing). The returned
    factor is -1j up to the same tolerance.
    """
    x = energy_gap * duration
    if abs(x - math.pi / 2.0) > HALF_CYCLE_ATOL:
        raise IncompleteTransitionError(
            f"gap*duration = {x!r} is not a half cycle (pi/2 within "
            f"{HALF_CYCLE_ATOL}); the transition amplitude is not a pure phase")
    # the no-transition state (1, 0) lands on the first column
    return _propagator(energy_gap, duration)[1]


def cascade_phase(steps: int) -> complex:
    """Accumulated factor (-1j)**steps after `steps` chained half cycles.

    Evaluated by residue mod 4 so the value is exact: two steps give -1
    (the sign a search query imprints on the marked amplitude), four give
    +1.
    """
    if not _is_integer(steps) or steps < 1:
        raise InvalidParameterError(f"steps must be an integer >= 1, got {steps!r}")
    return _PHASE_BY_STEP[steps % 4]


def boltzmann_error_rate(gap_over_kt: float) -> float:
    """Thermal occupation error exp(-gap/kT) for a gap of gap_over_kt kT."""
    _check_positive("gap_over_kt", gap_over_kt)
    return math.exp(-gap_over_kt)


def bond_time(gap_over_kt: float, temperature: float) -> float:
    """Characteristic transition timescale hbar/(gap) in seconds for a gap
    of gap_over_kt * k_B * temperature."""
    _check_positive("gap_over_kt", gap_over_kt)
    _check_positive("temperature", temperature)
    return HBAR / (gap_over_kt * BOLTZMANN * temperature)

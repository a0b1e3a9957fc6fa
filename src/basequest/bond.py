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

from ._checks import check_integer, check_nonnegative, check_positive
from .errors import IncompleteTransitionError, InvalidParameterError

# CODATA 2018
HBAR = 1.054571817e-34       # J*s
BOLTZMANN = 1.380649e-23     # J/K (exact)

# Allowed deviation of gap*duration from pi/2 for a half cycle.
HALF_CYCLE_ATOL = 1e-9

_PHASE_BY_STEP = {0: 1.0 + 0.0j, 1: -1.0j, 2: -1.0 + 0.0j, 3: 1.0j}


def half_rabi_phase(energy_gap: float, duration: float) -> complex:
    """Transition amplitude picked up over one half Rabi cycle.

    Requires energy_gap * duration = pi/2 within 1e-9; anything else is not
    a complete transition (a full cycle, for instance, returns the system
    to the start with an overall sign and transfers nothing). The returned
    factor is -1j up to the same tolerance.
    """
    x = (check_positive(energy_gap, "energy gap")
         * check_nonnegative(duration, "duration"))
    if abs(x - math.pi / 2.0) > HALF_CYCLE_ATOL:
        raise IncompleteTransitionError(
            f"gap*duration = {x!r} is not a half cycle (pi/2 within "
            f"{HALF_CYCLE_ATOL}); the transition amplitude is not a pure phase")
    # the no-transition state (1, 0) lands on the first column of
    # exp(-i H duration) = cos(x) 1 - i sin(x) swap
    return -1j * math.sin(x)


def cascade_phase(steps: int) -> complex:
    """Accumulated factor (-1j)**steps after `steps` chained half cycles.

    Evaluated by residue mod 4 so the value is exact: two steps give -1
    (the sign a search query imprints on the marked amplitude), four give
    +1.
    """
    return _PHASE_BY_STEP[check_integer(steps, "steps", 1) % 4]


def boltzmann_error_rate(gap_over_kt: float) -> float:
    """Thermal occupation error exp(-gap/kT) for a gap of gap_over_kt kT."""
    return math.exp(-check_positive(gap_over_kt, "gap_over_kt"))


def bond_time(gap_over_kt: float, temperature: float) -> float:
    """Characteristic transition timescale hbar/(gap) in seconds for a gap
    of gap_over_kt * k_B * temperature."""
    gap = (check_positive(gap_over_kt, "gap_over_kt") * BOLTZMANN
           * check_positive(temperature, "temperature"))
    if gap == 0.0:
        raise InvalidParameterError(
            f"gap_over_kt * temperature = {gap_over_kt!r} * {temperature!r} is "
            "too small: the gap energy gap_over_kt*BOLTZMANN*temperature "
            "underflows to 0 J")
    return HBAR / gap

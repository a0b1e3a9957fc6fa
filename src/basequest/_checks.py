"""Input checks shared by every public entry point.

Each check raises a SimulationError subclass whose message names the
parameter; the count and real-valued checks take that name as an argument.
Counts, indices and seeds must be integers: bool is refused and numpy's
integer scalars are accepted. Times and scales must be finite reals.
"""

from __future__ import annotations

import math
import numbers

from .errors import InvalidParameterError, InvalidTargetError


def _is_integer(value) -> bool:
    # bool subclasses int, but True is no dimension, index or count; numpy
    # registers its integer scalars as Integral. The exact-int test first
    # skips the slower abstract-class check for the common case.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_integer(value, name: str, low: int, error=InvalidParameterError) -> None:
    """value is an integer >= low; error is the class raised otherwise."""
    if not _is_integer(value) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def check_target(target, size: int) -> None:
    """target is an index into size objects: an integer in [0, size)."""
    if not _is_integer(target) or not 0 <= target < size:
        raise InvalidTargetError(
            f"target must be an integer in [0, {size}), got {target!r}")


def check_seed(seed) -> None:
    """seed is None (fresh entropy) or an integer >= 0."""
    # SeedSequence would raise its own ValueError (or TypeError) deeper in
    if seed is not None and (not _is_integer(seed) or seed < 0):
        raise InvalidParameterError(
            f"seed must be None or an integer >= 0, got {seed!r}")


def check_positive(value, name: str) -> None:
    """value is finite and > 0 (NaN fails)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


def check_nonnegative(value, name: str) -> None:
    """value is finite and >= 0 (NaN and None fail)."""
    if value is None or not 0 <= value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")

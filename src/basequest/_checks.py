"""Input checks shared by every public entry point.

Each check raises a SimulationError subclass whose message names the
parameter; the count and real-valued checks take that name as an argument.
Counts, indices and seeds must be integers: bool is refused and numpy's
integer scalars are accepted. Times and scales must be finite reals.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import InvalidParameterError, InvalidTargetError

# Largest database size, dimension or query count: the closed forms work in
# floats, exact for integers up to 2**53 (and overflowing far above it).
MAX_COUNT = 2 ** 53
# Largest dimension of a state the package allocates: 2**27 complex128
# amplitudes are 2 GiB (a joint state holds two per object).
MAX_STATE_DIM = 2 ** 27
# Largest dim of a dense density matrix (damped_oscillation,
# DensityMatrix.from_pure): its (2*dim)**2 complex128 entries are 256 MiB
# at 2**11, and building and checking one peaks at about four times that
# (256 MiB measured at dim 1024; the peak grows as dim**2).
MAX_DENSITY_DIM = 2 ** 11
# Most draws one call makes (classical trials, scenario samples): a 2**27
# int64 result array is 1 GiB. Checked before any stream is spawned.
MAX_DRAWS = 2 ** 27


def _is_integer(value) -> bool:
    # bool subclasses int, but True is no dimension, index or count; numpy
    # registers its integer scalars as Integral. The exact-int test first
    # skips the slower abstract-class check for the common case.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_integer(value, name: str, low: int, error=InvalidParameterError,
                  high: int | None = None) -> None:
    """value is an integer >= low, and <= high unless high is None; error is
    the class raised otherwise."""
    if not _is_integer(value) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")


def check_count(value, name: str, low: int, error=InvalidParameterError) -> None:
    """check_integer up to MAX_COUNT: a database size, dimension or query count."""
    check_integer(value, name, low, error, MAX_COUNT)


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


def check_positive(value, name: str, *, infinite_ok: bool = False) -> None:
    """value is a real > 0, finite unless infinite_ok (NaN and non-numbers
    fail)."""
    try:
        if 0 < value < math.inf or (infinite_ok and value == math.inf):
            return
    except TypeError:  # None, a str or a complex has no order
        pass
    bound = "> 0" if infinite_ok else "finite and > 0"
    raise InvalidParameterError(f"{name} must be {bound}, got {value!r}")


def check_nonnegative(value, name: str) -> None:
    """value is a finite real >= 0 (NaN and non-numbers fail)."""
    try:
        if 0 <= value < math.inf:
            return
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


def check_normal(value, name: str) -> None:
    """check_positive, and value is no subnormal float."""
    check_positive(value, name)
    if value < sys.float_info.min:
        raise InvalidParameterError(
            f"{name} must be at least the smallest normal float "
            f"{sys.float_info.min!r}, got {value!r}")

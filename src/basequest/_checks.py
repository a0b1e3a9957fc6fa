"""Input checks shared by every public entry point.

Each check raises a SimulationError subclass whose message names the
parameter; all but the target and seed checks take that name as an argument.
Counts, indices and seeds must be integers (bool refused, numpy's integer
scalars accepted), and a count or index check returns int(value). Times and
scales must be reals (numbers.Real, as numpy's floats and Fraction are)
whose float() is finite, which a real check returns; a Decimal, or an int
beyond float range, is refused by name. A value whose type is exactly int
(for a count or index in range) or float (for a real) is accepted after one
type test and returned as it is; every other kind takes the abstract-class
path. The model computes only on what the checks return, while a message
shows the value as the caller passed it.
The size bounds live here (MAX_COUNT, MAX_STATE_DIM, MAX_DRAWS,
MAX_SWEEP_STEPS), and so does the draw contract: BLOCK_SIZE and seed_blocks.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import InvalidParameterError, InvalidTargetError

# Largest database size, dimension or query count: the closed forms work in
# floats, exact for integers up to 2**53 (and overflowing far above it).
MAX_COUNT = 2 ** 53
# Largest dimension of a state array the package builds: 2**27 complex128
# amplitudes are 2 GiB (a joint state's array holds two per object). It caps
# only the arrays built when a caller reads them; the runs themselves keep
# a few numbers per state and accept dimensions up to MAX_COUNT.
MAX_STATE_DIM = 2 ** 27
# Most draws one call makes (classical trials, scenario samples), checked
# before any stream is spawned. A call holds at most 16 B a draw, 2 GiB at
# 2**27: simulate_search its int64 samples and the float64 temporary of std,
# run_scenario one int64 count per sample (8 B).
MAX_DRAWS = 2 ** 27
# Longest series the package builds, in steps: success_series and
# evolve_two_term_hamiltonian, the scenario's entropy grid and the CLI's
# table. The sweep's public tuples take about 100 B a step, so the bound
# keeps one near 100 MB; the CLI streams the table and the sweep a chunk at
# a time and holds neither, and keeps the bound to accept what the
# functions accept.
MAX_SWEEP_STEPS = 10 ** 6
# Draws per seed block. Fixed constant: changing it changes the sampled
# streams, so it is part of the documented determinism contract.
BLOCK_SIZE = 4096


def _is_integer(value) -> bool:
    # bool subclasses int, but True is no dimension, index or count; numpy
    # registers its integer scalars as Integral. The exact-int test first
    # skips the slower abstract-class check for the common case.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_integer(value, name: str, low: int, error=InvalidParameterError,
                  high: int | None = None) -> int:
    """int(value), for an integer >= low, and <= high unless high is None;
    error is the class raised otherwise."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    if not _is_integer(value) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def check_count(value, name: str, low: int, error=InvalidParameterError) -> int:
    """check_integer up to MAX_COUNT: a database size, dimension or query count."""
    return check_integer(value, name, low, error, MAX_COUNT)


def check_target(target, size: int) -> int:
    """int(target), for an index into size objects: an integer in [0, size)."""
    if type(target) is int and 0 <= target < size:
        return target
    if not _is_integer(target) or not 0 <= target < size:
        raise InvalidTargetError(
            f"target must be an integer in [0, {size}), got {target!r}")
    return int(target)


def check_seed(seed) -> None:
    """seed is None (fresh entropy) or an integer >= 0."""
    # SeedSequence would raise its own ValueError (or TypeError) deeper in
    if seed is not None and (not _is_integer(seed) or seed < 0):
        raise InvalidParameterError(
            f"seed must be None or an integer >= 0, got {seed!r}")


def check_enum(value, name: str, enum):
    """The member of enum that value is or whose value it is."""
    try:
        return enum(value)
    except ValueError:
        choices = tuple(member.value for member in enum)
        raise InvalidParameterError(
            f"{name} must be one of {choices}, got {value!r}") from None


def seed_blocks(seed, count: int):
    """(start, stop, generator) per block of BLOCK_SIZE of count draws: block
    k draws from SeedSequence child k of seed through PCG64, so no block
    depends on how many follow it or on the order the blocks are drawn in."""
    import numpy as np

    streams = np.random.SeedSequence(seed).spawn(-(-count // BLOCK_SIZE))
    for k, stream in enumerate(streams):
        yield (k * BLOCK_SIZE, min(count, (k + 1) * BLOCK_SIZE),
               np.random.Generator(np.random.PCG64(stream)))


def _real(value) -> float:
    """float(value) for a numbers.Real within float range, else NaN, which
    fails every bound: a Decimal (no Real), a str, a complex or None, and an
    int or Fraction whose float() would overflow."""
    # the exact-float test skips the abstract-class check for the common case
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def check_positive(value, name: str, *, infinite_ok: bool = False) -> float:
    """float(value), for a real > 0 (as a float), finite unless infinite_ok."""
    x = _real(value)
    if not (0 < x < math.inf or (infinite_ok and x == math.inf)):
        bound = "> 0" if infinite_ok else "finite and > 0"
        raise InvalidParameterError(f"{name} must be {bound}, got {value!r}")
    return x


def check_nonnegative(value, name: str) -> float:
    """float(value), for a real >= 0 whose float is finite."""
    if not 0 <= (x := _real(value)) < math.inf:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return x


def check_normal(value, name: str) -> float:
    """check_positive, for a value that is no subnormal float."""
    x = check_positive(value, name)
    if x < sys.float_info.min:
        raise InvalidParameterError(
            f"{name} must be at least the smallest normal float "
            f"{sys.float_info.min!r}, got {value!r}")
    return x

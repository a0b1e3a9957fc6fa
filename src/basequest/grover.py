"""Unsorted-database search dynamics on an N-level state space.

The state space is a single N-dimensional complex Hilbert space whose basis
states label the N database objects (no qubit tensor structure is assumed).
One query is the reflection about the marked object's axis; amplification is
the reflection about the start state. Success probability after an integer
number of queries follows sin**2((2*queries + 1) * theta) with
theta = arcsin(1/sqrt(N)), which every simulation routine here is required
to reproduce to tight tolerance.

Also provides the continuous-time counterpart: evolution under the two-term
Hamiltonian (marked-state projector plus start-state projector), both exact
and via split-operator alternation.

Both dynamics stay in the plane of the target basis state and the start
state. A search run is a rotation there by (2*queries + 1) * theta, taken in
closed form with theta held in fixed point, so its cost depends on neither
N nor the query count. It returns its state as the pair of plane
amplitudes: its dim and success probabilities are read off the pair, and
the full amplitude array is built only when a caller reads it. A
split-operator step is a fixed rotation of the plane too, so each point of
the split series is taken in closed form as well. numpy is imported only
by the routines that build or take arrays.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from ._checks import (MAX_COUNT, MAX_STATE_DIM, MAX_SWEEP_STEPS, _real,
                      check_count, check_integer, check_positive, check_seed,
                      check_target)
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    InvalidPhaseError,
)

if TYPE_CHECKING:
    import numpy as np

PHASE_ATOL = 1e-12

# Elements per block of the phase check: its one float64 scratch buffer
# (128 KiB) stays in cache, so the check adds nothing N-sized to the
# phases it inspects.
CHECK_BLOCK = 1 << 14


def _blocks(values: np.ndarray):
    """(block, scratch) for each CHECK_BLOCK-element slice of the 1-D array
    values, scratch a float64 buffer of the block's length that every block
    reuses, so a check keeps nothing of it."""
    import numpy as np

    scratch = np.empty(min(values.size, CHECK_BLOCK))
    for start in range(0, values.size, CHECK_BLOCK):
        block = values[start:start + CHECK_BLOCK]
        yield block, scratch[:block.size]


class StateVector:
    """Normalized pure state over the database basis, as a search run
    returns it: its amplitudes on the plane of |target> and the uniform
    state over the other objects, on_target on the target and rest on every
    other object, each times its factor in phases unless phases is None.

    dim, repr and success_probability are read off these numbers. The
    amplitudes array is built on first read, refused above MAX_STATE_DIM,
    made read-only and kept; it makes no norm pass, as its entries are
    exact plane amplitudes times phases _check_phases accepted. phases is
    kept by reference and read when the array is built, so the caller must
    not write to it before then.
    """

    _built = None  # the amplitudes array, once read

    def __init__(self, dim: int, target: int, on_target: float, rest: float,
                 phases: np.ndarray | None):
        self._dim = dim
        self._target = target
        self._on_target = on_target
        self._rest = rest
        self._phases = phases

    @property
    def amplitudes(self) -> np.ndarray:
        if self._built is not None:
            return self._built
        import numpy as np

        check_integer(self._dim, "dimension", 2, InvalidDimensionError,
                      MAX_STATE_DIM)
        amps = np.full(self._dim, self._rest, dtype=np.complex128)
        amps[self._target] = self._on_target
        if self._phases is not None:
            # The decoration D is diagonal, so it commutes with the oracle and
            # the decorated run is D applied to the plain one.
            amps *= self._phases
        amps.setflags(write=False)
        self._built = amps
        return amps

    @property
    def dim(self) -> int:
        return self._dim

    def success_probability(self, target: int) -> float:
        """|<target|self>|**2."""
        return float(abs(self._amplitude(check_target(target, self._dim))) ** 2)

    def _amplitude(self, index: int) -> float | np.complex128:
        # the entry amplitudes holds, computed by the same complex128 product;
        # a plain float when undecorated, so a plain run needs no numpy
        amp = self._on_target if index == self._target else self._rest
        return amp if self._phases is None else amp * self._phases[index]

    def __repr__(self) -> str:
        return (f"StateVector(dim={self._dim}, target={self._target}, "
                f"on_target={self._on_target!r}, rest={self._rest!r}, "
                f"phased={self._phases is not None})")


class SearchSolution(NamedTuple):
    """A (queries, database size, success probability) triple.

    database_size is real-valued when solved from a query count; the exact
    integral solution is queries=1, size=4.
    """

    queries: int
    database_size: float
    success_probability: float


# Search angles in fixed point, as integers in units of 2**-_BITS. A query
# count of up to 2**53 multiplies theta's error by up to 2**54, which leaves
# each reduced angle good to 2**-135, far below the last bit of a float.
# round(pi * 2**_BITS), from pi's hexadecimal expansion:
_BITS = 192
_PI = 0x3_243F6A88_85A308D3_13198A2E_03707344_A4093822_299F31D0
_HALF_PI, _QUARTER_PI = _PI >> 1, _PI >> 2
_SCALE = 2.0 ** -_BITS
# Reduced angles within the accumulated error are exact zeros: for dims in
# [2, 2**53] only dim 4 has them (theta = pi/6, on odd turns).
_ZERO = 1 << 57


@lru_cache(maxsize=256)
def _theta(dim: int, scale: int = 1) -> int:
    """asin(sqrt(scale/dim)) * 2**_BITS, to within one unit (scale 1 or 2).

    theta = 2*atan(u) with u = 1/(sqrt(d - 1) + sqrt(d)), d = dim/scale. The
    angle is halved until u < 1/32, so the atan series needs at most 21
    terms at the working precision of 16 guard bits.
    """
    work = _BITS + 16
    one = 1 << work
    u = one * one // (math.isqrt(((dim - scale) << 2 * work) // scale)
                      + math.isqrt((dim << 2 * work) // scale))
    doublings = 1
    while u >= one >> 5:
        u = u * one // (one + math.isqrt(one * one + u * u))
        doublings += 1
    square = u * u >> work
    power, total, k = u, u, 1
    while power:
        power = power * square >> work
        k += 2
        total += power // k if k & 2 == 0 else -(power // k)
    return ((total << doublings) + (1 << 15)) >> 16


def _search_angle(dim: int, rounds: int):
    """(theta, turn, residue) with (2*rounds + 1) * theta = turn * pi/2 +
    residue, exactly in integers, -pi/4 <= residue < pi/4 and theta =
    _theta(dim), for a checked dim and count."""
    theta = _theta(dim)
    turn, residue = divmod((2 * rounds + 1) * theta + _QUARTER_PI, _HALF_PI)
    return theta, turn, residue - _QUARTER_PI


def run_grover(dim: int, target: int, queries: int) -> tuple[StateVector, float]:
    """Run `queries` amplification rounds from the uniform start state.

    Returns the final state and its success probability on the target.
    """
    return run_grover_with_phases(dim, target, queries, None)


def success_series(dim: int, target: int, queries: int) -> list[float]:
    """Success probability after 0, 1, ..., queries amplification rounds,
    as a list of queries + 1 floats.

    A phase decoration (as in run_grover_with_phases) leaves it unchanged.
    queries may not exceed MAX_SWEEP_STEPS = 10**6, for the reason
    evolve_two_term_hamiltonian gives.
    """
    dim = check_count(dim, "dimension", 2, InvalidDimensionError)
    check_target(target, dim)
    count = check_count(queries, "query count", 0)
    if count > MAX_SWEEP_STEPS:
        raise InvalidParameterError(
            f"query count must be at most {MAX_SWEEP_STEPS} for a series, "
            f"got {queries!r}")
    theta, turn, residue = _search_angle(dim, 0)
    # Each round adds 2*theta to the angle of 0 rounds, kept reduced
    # exactly, so point q has the bits run_grover gives for q. The target
    # amplitude is +-sin r on even turns and +-cos r on odd ones; the exact
    # zeros run_grover snaps fall on cos(a), never on this amplitude.
    ampl, other = (math.cos, math.sin) if turn & 1 else (math.sin, math.cos)
    step, half, quarter, scale = 2 * theta, _HALF_PI, _QUARTER_PI, _SCALE
    series = []
    for _ in range(count + 1):
        series.append(ampl(float(residue) * scale) ** 2)
        residue += step
        while residue >= quarter:
            residue -= half
            ampl, other = other, ampl
    return series


def closed_form_success(database_size: float, queries: int) -> float:
    """sin**2((2*queries + 1) * arcsin(1/sqrt(size))).

    Accepts real-valued sizes in [1, 2**53] so table rows solved from a
    query count can be evaluated directly.
    """
    queries = check_count(queries, "query count", 0)
    size = _real(database_size)
    # the upper bound is exact: float(MAX_COUNT + 1) is MAX_COUNT
    if (isinstance(database_size, bool) or not 1.0 <= size
            or database_size > MAX_COUNT):
        raise InvalidDimensionError(
            f"database size must be in [1, {MAX_COUNT}], got {database_size!r}")
    return _closed_form(size, queries)


def _closed_form(size: float, queries: int) -> float:
    return math.sin((2 * queries + 1) * math.asin(1.0 / math.sqrt(size))) ** 2


def optimal_queries(database_size: int) -> SearchSolution:
    """Integer query count maximizing the closed-form success probability.

    The maximum is taken over the first rise of the success oscillation
    (queries beyond the first peak only lose ground to extra work); ties go
    to the smaller count, which makes it the largest q with 4*q*theta < pi,
    decided exactly on the fixed-point theta. The only tie is size 2.
    """
    size = check_count(database_size, "database size", 1, InvalidDimensionError)
    best = (_PI - 1) // (4 * _theta(size))
    return SearchSolution(
        queries=best,
        database_size=float(size),
        success_probability=_closed_form(size, best),
    )


def _table_row(queries: int) -> tuple[float, int, float]:
    """(size, nearest, success) for a checked query count: _solved_size,
    the integer nearest the exact size and _closed_form there. Its optimal
    count is queries: pi/(4 theta) is within pi/(16 sqrt(nearest)) of
    queries + 1/2."""
    size = _solved_size(queries)
    low = math.floor(size)
    above = size - low - 0.5  # exact; ties round up, as floor(size + 0.5)
    # size is within 4.9 ulp; near n + 1/2, the exact size lies above it
    # just when 2*(2*queries + 1) * asin(sqrt(2/(2n + 1))) exceeds pi
    if abs(above) <= 16 * math.ulp(size):
        above = 2 * (2 * queries + 1) * _theta(2 * low + 1, 2) - _PI
    nearest = low + (above >= 0)
    return size, nearest, _closed_form(nearest, queries)


def solve_database_size(queries: int) -> SearchSolution:
    """Database size searched exhaustively by `queries` queries.

    Inverts the success condition (2*queries + 1) * arcsin(1/sqrt(size)) =
    pi/2, giving size = 1/sin**2(pi/(2*(2*queries + 1))). The result is real
    valued, and past closed_form_success's bound of 2**53 from about 7.5e7
    queries; queries=1 gives exactly 4.
    """
    queries = check_count(queries, "query count", 0)
    size = _solved_size(queries)
    return SearchSolution(
        queries=queries,
        database_size=size,
        success_probability=_closed_form(size, queries),
    )


def _solved_size(queries: int) -> float:
    """solve_database_size(queries).database_size, for a checked count."""
    return 1.0 / math.sin(math.pi / (2.0 * (2 * queries + 1))) ** 2


def random_unit_phases(dim: int, seed: int | None = None) -> np.ndarray:
    """dim unit-modulus complex factors with uniformly random arguments.

    Deterministic for a fixed seed (PCG64); seed is None or an integer >= 0.
    """
    import numpy as np

    dim = check_integer(dim, "dimension", 2, InvalidDimensionError, MAX_STATE_DIM)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return np.exp(2j * math.pi * rng.random(dim))


def _check_phases(phases: np.ndarray, dim: int) -> np.ndarray:
    import numpy as np

    try:
        phases = np.asarray(phases, dtype=np.complex128)
    except (TypeError, ValueError) as exc:  # a str, a dict, a ragged list
        raise InvalidPhaseError(
            f"phases must be an array of numbers: {exc}") from None
    if phases.shape != (dim,):
        raise InvalidPhaseError(
            f"need {dim} phase factors, got shape {phases.shape}")
    # fl(m - 1) is monotone in m, so this is max |m - 1| over the moduli m
    drift = 0.0
    for block, scratch in _blocks(phases):
        moduli = np.abs(block, out=scratch)
        # a NaN modulus makes min and max NaN, which max() keeps when first
        drift = max(float(moduli.max()) - 1.0, 1.0 - float(moduli.min()), drift)
        if math.isnan(drift):
            break
    if not drift <= PHASE_ATOL:
        raise InvalidPhaseError(
            f"phase moduli deviate from 1 by up to {drift!r}")
    return phases


def run_grover_with_phases(dim: int, target: int, queries: int,
                           phases: np.ndarray | None) -> tuple[StateVector, float]:
    """Search from a phase-decorated start state.

    The start state carries one arbitrary unit-modulus factor per component
    and the amplification reflects about that same decorated state. The
    success probability is provably identical to the undecorated run; this
    routine exists to exhibit that invariance numerically. phases=None is
    the undecorated run.

    The state is returned as its two plane amplitudes, so dim may go up to
    2**53; reading its amplitudes builds the array, which raises
    InvalidDimensionError above MAX_STATE_DIM.
    """
    dim = check_count(dim, "dimension", 2, InvalidDimensionError)
    target = check_target(target, dim)
    _, turn, residue = _search_angle(dim, check_count(queries, "query count", 0))
    if phases is not None:
        phases = _check_phases(phases, dim)
    r = float(residue) * _SCALE if abs(residue) > _ZERO else 0.0
    on_target, rest = math.sin(r), math.cos(r)
    if turn & 1:
        on_target, rest = rest, -on_target
    if turn & 2:
        on_target, rest = -on_target, -rest
    state = StateVector(dim, target, on_target, rest / math.sqrt(dim - 1), phases)
    # the expression success_probability(target) evaluates, without its
    # second target check
    if phases is None:
        return state, on_target ** 2
    return state, float(abs(on_target * phases[target]) ** 2)


# --- continuous-time counterpart ---------------------------------------


class HamiltonianSweep(NamedTuple):
    """Success-probability series for exact and split-operator evolution,
    each a tuple of floats on the same time grid."""

    times: tuple[float, ...]
    exact_success: tuple[float, ...]
    trotter_success: tuple[float, ...]

    def max_deviation(self) -> float:
        return max(map(abs, map(operator.sub, self.exact_success,
                                self.trotter_success)))

    def peak_success(self) -> float:
        return max(self.exact_success)


def evolve_two_term_hamiltonian(
    dim: int,
    target: int,
    total_time: float,
    time_step: float,
    *,
    symmetric: bool = True,
) -> HamiltonianSweep:
    """Evolve the uniform start under the two-term Hamiltonian.

    Produces success-probability series on the grid k*time_step for
    k = 0..round(total_time/time_step): one series from exact evolution,
    one from split-operator alternation of the two projector
    exponentials. With symmetric=True (default) the alternation is the
    symmetric split (half target-phase, full start-phase, half
    target-phase), whose deviation from the exact series shrinks
    quadratically in time_step; symmetric=False gives the plain product,
    which converges only linearly. Each point of either series is taken
    in closed form, so its cost and its error do not grow with k.

    total_time/time_step may not exceed MAX_SWEEP_STEPS = 10**6; a finer
    grid is refused before anything is allocated. The returned tuples take
    about 100 bytes a step, so the bound keeps a sweep near 100 MB, where
    an unbounded grid ends in a MemoryError. The CLI streams the same
    series a chunk at a time and holds none of them; it keeps the bound so
    that it accepts what this function accepts. The bound still covers the
    first peak at dim 10**9 with time_step 0.05.

    The exact series reaches success >= 1 - 1/dim provided total_time
    covers the first peak at pi*sqrt(dim)/2.
    """
    steps, time_step = _sweep_steps(dim, target, total_time, time_step)
    times, exact, trotter = _split_series(dim, time_step, symmetric, 0, steps + 1)
    return HamiltonianSweep(times=tuple(times), exact_success=tuple(exact),
                            trotter_success=tuple(trotter))


def _sweep_steps(dim: int, target: int, total_time: float,
                 time_step: float) -> tuple[int, float]:
    """(steps, time_step): the step count of evolve_two_term_hamiltonian's
    grid and its time step as a float, once its arguments are checked."""
    check_count(dim, "dimension", 2, InvalidDimensionError)
    check_target(target, dim)
    total = check_positive(total_time, "total_time")
    step = check_positive(time_step, "time_step")
    if step > total:
        raise InvalidParameterError(
            f"time_step must be in (0, total_time], got {time_step!r}")
    if not total / step <= MAX_SWEEP_STEPS:
        raise InvalidParameterError(
            f"time_step {time_step!r} makes more than {MAX_SWEEP_STEPS} steps "
            f"of total_time {total_time!r}")
    return max(1, int(round(total / step))), step


def _split_series(dim: int, time_step: float, symmetric: bool, lo: int,
                  hi: int) -> tuple[list[float], list[float], list[float]]:
    """(times, exact, trotter): the points k in [lo, hi) of
    evolve_two_term_hamiltonian's three series, as lists, for checked
    arguments."""
    x, y = 1.0 / math.sqrt(dim), math.sqrt((dim - 1) / dim)
    cos, sin = math.cos, math.sin
    ks = range(lo, hi)
    times = [k * time_step for k in ks]
    # On the plane H = 1 + x*K, where K = [[x, y], [y, -x]] is the reflection
    # swapping |target> and |start>. K**2 = 1 gives exp(-iHt) = exp(-it) *
    # (cos(xt) - i sin(xt) K), whose target amplitude from the start is
    # exp(-it) * (x cos(xt) - i sin(xt)).
    floor, swing = x * x, 1.0 - x * x
    exact = [floor + swing * sin(x * t) ** 2 for t in times]

    # Up to a global phase, a 2x2 unitary is a unit quaternion (w, v), for
    # w - i v.sigma, and exp(-iPt) for the projector onto a state of Bloch
    # vector n is (cos t/2, sin t/2 n). So the target phase T(tau) is
    # (cos tau/2, 0, 0, sin tau/2) and the start phase S(dt) is (c, s n),
    # with c, s = cos, sin of dt/2 and n = (2xy, 0, x**2 - y**2). The step,
    # T S T with tau = dt/2 or T S with tau = dt, multiplies out to
    # w = c**2 - s**2 (x**2 - y**2) and v = s (vx, vy, 2c x**2), where
    # (vx, vy) is (2xy, 0) or (2cxy, 2sxy) and x**2 - y**2 + 1 is taken as
    # 2x**2. So the step is cos phi - i sin phi m.sigma, with
    # phi = atan2(|v|, w) and m = v/|v|, and its k-th power takes the start
    # (x, y) to the target amplitude
    # x cos k phi - m_y y sin k phi - i (m_z x + m_x y) sin k phi.
    # m is read off the bracket, which never underflows: a step too small
    # to turn the plane gives phi = 0 and a flat series.
    c, s = cos(time_step / 2.0), sin(time_step / 2.0)
    vx, vy = (2.0 * x * y, 0.0) if symmetric else (2.0 * c * x * y,
                                                    2.0 * s * x * y)
    vz = 2.0 * c * x * x
    norm = math.hypot(vx, vy, vz)
    phi = math.atan2(s * norm, c * c - s * s * (x * x - y * y))
    turned, tilted = (vz * x + vx * y) / norm, vy / norm * y
    trotter = []
    append = trotter.append
    for k in ks:
        angle = k * phi
        sine = sin(angle)
        real, imag = x * cos(angle) - tilted * sine, turned * sine
        append(real * real + imag * imag)
    return times, exact, trotter

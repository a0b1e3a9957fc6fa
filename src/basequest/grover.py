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
state, so runs step a pair of amplitudes there, in plain Python floats and
complex numbers. A search run returns its state as that pair too: its dim
and success probabilities are read off the pair, and the full amplitude
array is built only when a caller reads it, so a run at N = 10**12 costs
what one at N = 4 does. numpy is imported only by the routines that build
or take arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ._checks import (MAX_COUNT, MAX_STATE_DIM, check_count, check_integer,
                      check_positive, check_seed, check_target)
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidPhaseError,
)

if TYPE_CHECKING:
    import numpy as np

# Norm drift allowed on construction. grover_step iterated to the optimal
# count drifts past it from 2**17 components; run_grover does not iterate it.
NORM_ATOL = 1e-12

PHASE_ATOL = 1e-12

# Elements per block of the norm and phase checks: their one float64
# scratch buffer (128 KiB) stays in cache, so a check adds nothing N-sized
# to the state it inspects.
CHECK_BLOCK = 1 << 14


def _blockwise(values: np.ndarray, fold) -> list:
    """fold(block, scratch) for each CHECK_BLOCK-element slice of the 1-D
    array values, scratch a float64 buffer of the block's length (reused,
    so fold keeps nothing of it); returns the results in order."""
    import numpy as np

    scratch = np.empty(min(values.size, CHECK_BLOCK))
    results = []
    for start in range(0, values.size, CHECK_BLOCK):
        block = values[start:start + CHECK_BLOCK]
        results.append(fold(block, scratch[:block.size]))
    return results


def _square_sum(block: np.ndarray, scratch: np.ndarray) -> float:
    import numpy as np

    return float(np.multiply(block, block, out=scratch).sum())


def _normalized(amps: np.ndarray, label: str) -> np.ndarray:
    """amps itself, made read-only, once its norm is within NORM_ATOL of 1;
    otherwise InvalidParameterError, the message starting with label.

    The squares of the real and imaginary parts are summed pairwise within
    each block and exactly (math.fsum) across blocks, so the error stays
    O(eps) at any dimension, unlike the BLAS norm, whose drift grows with
    the vector length.
    """
    import numpy as np

    parts = amps.ravel(order="K").view(np.float64)
    norm = math.sqrt(math.fsum(_blockwise(parts, _square_sum)))
    if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
        raise InvalidParameterError(
            f"{label} norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
    amps.setflags(write=False)
    return amps


class _Amplitudes:
    """Base of the frozen dataclasses that hold one normalized, read-only
    complex128 array in their amplitudes field. A subclass names itself in
    _LABEL and checks the array's shape in _check_shape."""

    _LABEL = "state"

    def __post_init__(self):
        import numpy as np

        self._own(np.array(self.amplitudes, dtype=np.complex128))

    @classmethod
    def _adopt(cls, amps: np.ndarray):
        """An instance holding amps itself, not a copy: for complex128
        arrays the package has just built and keeps no other reference to.
        Validated like user input and made read-only all the same."""
        state = object.__new__(cls)
        state._own(amps)
        return state

    def _own(self, amps: np.ndarray) -> None:
        self._check_shape(amps)
        object.__setattr__(self, "amplitudes", _normalized(amps, self._LABEL))


@dataclass(frozen=True, eq=False)
class StateVector(_Amplitudes):
    """Normalized pure state over the database basis.

    amplitudes is stored as a read-only complex128 array; operations return
    new instances instead of mutating.
    """

    amplitudes: np.ndarray

    @staticmethod
    def _check_shape(amps: np.ndarray) -> None:
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidDimensionError(
                f"state needs at least 2 amplitudes, got shape {amps.shape}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        import numpy as np

        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"dimensions differ: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def success_probability(self, target: int) -> float:
        """|<target|self>|**2."""
        check_target(target, self.dim)
        return float(abs(self._amplitude(target)) ** 2)

    def _amplitude(self, index: int) -> np.complex128:
        return self.amplitudes[index]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class _PlaneState(StateVector):
    """A search result held as its amplitudes on the plane of |target> and
    the uniform state over the other objects: on_target on the target and
    rest on every other object, each times its factor in phases unless
    phases is None.

    dim, repr and success_probability are read off these numbers. The
    amplitudes array is built on first read, refused above MAX_STATE_DIM,
    checked like any returned state and kept. phases is kept by reference
    and read when the array is built, so the caller must not write to it
    before then.
    """

    def __init__(self, dim: int, target: int, on_target: float, rest: float,
                 phases: np.ndarray | None):
        # set past the frozen __setattr__, as _adopt does
        for name, value in (("_dim", dim), ("_target", target),
                            ("_on_target", on_target), ("_rest", rest),
                            ("_phases", phases)):
            object.__setattr__(self, name, value)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        import numpy as np

        check_integer(self._dim, "dimension", 2, InvalidDimensionError,
                      MAX_STATE_DIM)
        amps = np.full(self._dim, self._rest, dtype=np.complex128)
        amps[self._target] = self._on_target
        if self._phases is not None:
            # The decoration D is diagonal, so it commutes with the oracle and
            # the decorated run is D applied to the plain one.
            amps *= self._phases
        return _normalized(amps, self._LABEL)

    @property
    def dim(self) -> int:
        return self._dim

    def _amplitude(self, index: int) -> np.complex128:
        # the entry amplitudes holds, computed by the same complex128 product
        import numpy as np

        amp = np.complex128(self._on_target if index == self._target
                            else self._rest)
        return amp if self._phases is None else amp * self._phases[index]

    def __repr__(self) -> str:
        return (f"StateVector(dim={self._dim}, target={self._target}, "
                f"on_target={self._on_target!r}, rest={self._rest!r}, "
                f"phased={self._phases is not None})")


@dataclass(frozen=True)
class SearchSolution:
    """A (queries, database size, success probability) triple.

    database_size is real-valued when solved from a query count; the exact
    integral solution is queries=1, size=4.
    """

    queries: int
    database_size: float
    success_probability: float


def uniform_state(dim: int) -> StateVector:
    """Equal-amplitude start state (1/sqrt(dim), ..., 1/sqrt(dim))."""
    import numpy as np

    check_integer(dim, "dimension", 2, InvalidDimensionError, MAX_STATE_DIM)
    return StateVector._adopt(
        np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def apply_oracle(state: StateVector, target: int) -> StateVector:
    """Binary query: flip the sign of the target amplitude.

    Implements 1 - 2|target><target| acting on state.
    """
    check_target(target, state.dim)
    amps = state.amplitudes.copy()
    amps[target] = -amps[target]
    return StateVector._adopt(amps)


def apply_diffusion(state: StateVector, reference: StateVector) -> StateVector:
    """Reflection 1 - 2|reference><reference| applied to state."""
    import numpy as np

    if reference.dim != state.dim:
        raise DimensionMismatchError(
            f"dimensions differ: state {state.dim}, reference {reference.dim}")
    ov = np.vdot(reference.amplitudes, state.amplitudes)
    return StateVector._adopt(state.amplitudes - 2.0 * ov * reference.amplitudes)


def grover_step(state: StateVector, target: int,
                reference: StateVector | None = None) -> StateVector:
    """One amplification round: apply_oracle, then apply_diffusion about the
    reference (uniform start state unless one is supplied), then a sign flip."""
    queried = apply_oracle(state, target)
    if reference is None:
        reference = uniform_state(state.dim)
    return StateVector._adopt(-apply_diffusion(queried, reference).amplitudes)


def _plane_orbit(step, start, count: int):
    """Yield the amplitudes on (|target>, |rest>) of step**k @ start for
    k = 0..count, |rest> the normalized uniform state over the other objects.
    A search round and both Hamiltonian steps are fixed 2x2 matrices on this
    plane, given as a pair of rows of Python numbers; start is a pair too.
    Pairs are yielded, not stored, so keeping the last is O(1) memory.
    """
    (m00, m01), (m10, m11) = step
    a, b = start
    yield a, b
    for _ in range(count):
        a, b = m00 * a + m01 * b, m10 * a + m11 * b
        yield a, b


def _search_orbit(dim: int, target: int, queries: int):
    """grover_step on the plane, iterated from the uniform start.

    The arguments are checked here, before the returned orbit is run. The
    rounded step is a rotation scaled by 1 + O(eps): a pair's length drifts
    with the round count while its angle stays accurate, so callers divide
    each pair by its length.
    """
    check_count(dim, "dimension", 2, InvalidDimensionError)
    check_target(target, dim)
    check_count(queries, "query count", 0)
    x, y = 1.0 / math.sqrt(dim), math.sqrt((dim - 1) / dim)
    # (2|start><start| - 1) diag(-1, 1), start = (x, y) on the plane
    step = ((1.0 - 2.0 * (x * x), 2.0 * (x * y)),
            (-2.0 * (y * x), 2.0 * (y * y) - 1.0))
    return _plane_orbit(step, (x, y), queries)


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
    orbit = _search_orbit(dim, target, queries)
    if queries > MAX_SWEEP_STEPS:
        raise InvalidParameterError(
            f"query count must be at most {MAX_SWEEP_STEPS} for a series, "
            f"got {queries!r}")
    return [p * p for p in (a / math.hypot(a, b) for a, b in orbit)]


def closed_form_success(database_size: float, queries: int) -> float:
    """sin**2((2*queries + 1) * arcsin(1/sqrt(size))).

    Accepts real-valued sizes in [1, 2**53] so table rows solved from a
    query count can be evaluated directly.
    """
    check_count(queries, "query count", 0)
    try:
        valid = (not isinstance(database_size, bool)
                 and 1.0 <= database_size <= MAX_COUNT)
    except TypeError:  # None, a str or a complex has no order
        valid = False
    if not valid:
        raise InvalidDimensionError(
            f"database size must be in [1, {MAX_COUNT}], got {database_size!r}")
    return _closed_form(database_size, queries)


def _closed_form(size: float, queries: int) -> float:
    return math.sin((2 * queries + 1) * math.asin(1.0 / math.sqrt(size))) ** 2


def optimal_queries(database_size: int) -> SearchSolution:
    """Integer query count maximizing the closed-form success probability.

    The maximum is taken over the first rise of the success oscillation
    (queries beyond the first peak only lose ground to extra work); ties go
    to the smaller count.
    """
    check_count(database_size, "database size", 1, InvalidDimensionError)
    theta = math.asin(1.0 / math.sqrt(database_size))
    # Real-valued peak of sin((2q+1)theta) at q = (pi/(2 theta) - 1)/2.
    peak = (math.pi / (2.0 * theta) - 1.0) / 2.0
    low = max(0, math.floor(peak))
    high = max(0, math.ceil(peak))
    best = low
    # Exact ties (possible by trig symmetry, e.g. size 2) must go to the
    # smaller count, so demand a margin beyond rounding noise.
    if (_closed_form(database_size, high)
            > _closed_form(database_size, low) + 1e-12):
        best = high
    return SearchSolution(
        queries=best,
        database_size=float(database_size),
        success_probability=_closed_form(database_size, best),
    )


def solve_database_size(queries: int) -> SearchSolution:
    """Database size searched exhaustively by `queries` queries.

    Inverts the success condition (2*queries + 1) * arcsin(1/sqrt(size)) =
    pi/2, giving size = 1/sin**2(pi/(2*(2*queries + 1))). The result is real
    valued, and past closed_form_success's bound of 2**53 from about 7.5e7
    queries; queries=1 gives exactly 4.
    """
    check_count(queries, "query count", 0)
    size = 1.0 / math.sin(math.pi / (2.0 * (2 * queries + 1))) ** 2
    return SearchSolution(
        queries=int(queries),
        database_size=size,
        success_probability=_closed_form(size, queries),
    )


def random_unit_phases(dim: int, seed: int | None = None) -> np.ndarray:
    """dim unit-modulus complex factors with uniformly random arguments.

    Deterministic for a fixed seed (PCG64); seed is None or an integer >= 0.
    """
    import numpy as np

    check_integer(dim, "dimension", 2, InvalidDimensionError, MAX_STATE_DIM)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return np.exp(2j * math.pi * rng.random(dim))


def _modulus_drift(block: np.ndarray, scratch: np.ndarray) -> float:
    import numpy as np

    np.abs(block, out=scratch)
    np.subtract(scratch, 1.0, out=scratch)
    return float(np.abs(scratch, out=scratch).max())


def _check_phases(phases: np.ndarray, dim: int) -> np.ndarray:
    import numpy as np

    phases = np.asarray(phases, dtype=np.complex128)
    if phases.shape != (dim,):
        raise InvalidPhaseError(
            f"need {dim} phase factors, got shape {phases.shape}")
    drift = float(np.max(_blockwise(phases, _modulus_drift)))
    if not drift <= PHASE_ATOL:  # NaN moduli fail too
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
    orbit = _search_orbit(dim, target, queries)
    if phases is not None:
        phases = _check_phases(phases, dim)
    for on_target, rest in orbit:
        pass
    norm = math.hypot(on_target, rest)
    state = _PlaneState(dim, target, on_target / norm,
                        rest / norm / math.sqrt(dim - 1), phases)
    return state, state.success_probability(target)


# --- continuous-time counterpart ---------------------------------------

# Longest series success_series or evolve_two_term_hamiltonian builds, in
# steps (see the latter's docstring for why).
MAX_SWEEP_STEPS = 10 ** 6


@dataclass(frozen=True)
class HamiltonianSweep:
    """Success-probability series for exact and split-operator evolution,
    each a tuple of floats on the same time grid."""

    times: tuple[float, ...]
    exact_success: tuple[float, ...]
    trotter_success: tuple[float, ...]

    def max_deviation(self) -> float:
        return max(abs(exact - trotter) for exact, trotter
                   in zip(self.exact_success, self.trotter_success))

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
    which converges only linearly.

    total_time/time_step may not exceed MAX_SWEEP_STEPS = 10**6; a finer
    grid is refused before anything is allocated. The sweep keeps about
    100 bytes a step and the CLI report renders one record per step, about
    1 s and 60 MB per 10**5 steps, so the bound keeps the largest report
    near ten seconds and 600 MB, where an unbounded grid ends in a
    MemoryError. It still covers the first peak at dim 10**9 with
    time_step 0.05.

    The exact series reaches success >= 1 - 1/dim provided total_time
    covers the first peak at pi*sqrt(dim)/2.
    """
    check_count(dim, "dimension", 2, InvalidDimensionError)
    check_target(target, dim)
    check_positive(total_time, "total_time")
    check_positive(time_step, "time_step")
    if time_step > total_time:
        raise InvalidParameterError(
            f"time_step must be in (0, total_time], got {time_step!r}")
    if not total_time / time_step <= MAX_SWEEP_STEPS:
        raise InvalidParameterError(
            f"time_step {time_step!r} makes more than {MAX_SWEEP_STEPS} steps "
            f"of total_time {total_time!r}")

    steps = max(1, int(round(total_time / time_step)))
    x, y = 1.0 / math.sqrt(dim), math.sqrt((dim - 1) / dim)
    # On the plane H = 1 + x*K, where K = [[x, y], [y, -x]] is the reflection
    # swapping |target> and |start>; K**2 = 1 gives exp(-iH dt) in closed form.
    phase = cmath.exp(-1j * time_step)
    cos, isin = math.cos(x * time_step), 1j * math.sin(x * time_step)
    exact_step = ((phase * (cos - isin * x), phase * -(isin * y)),
                  (phase * -(isin * y), phase * (cos + isin * x)))

    # Projector exponentials exp(-iP tau) = 1 + (exp(-i tau) - 1) P; the
    # symmetric split puts half the target phase on each side.
    kick = cmath.exp(-1j * time_step) - 1.0
    start_phase = ((1.0 + kick * (x * x), kick * (x * y)),
                   (kick * (y * x), 1.0 + kick * (y * y)))
    tau = time_step / 2.0 if symmetric else time_step
    target_phase = ((cmath.exp(-1j * tau), 0.0), (0.0, 1.0))
    split_step = _product(target_phase, start_phase)
    if symmetric:
        split_step = _product(split_step, target_phase)

    def success(step):
        return tuple(m * m for m in (abs(a) for a, _ in
                                     _plane_orbit(step, (x, y), steps)))

    return HamiltonianSweep(times=tuple(k * time_step for k in range(steps + 1)),
                            exact_success=success(exact_step),
                            trotter_success=success(split_step))


def _product(left, right):
    """Product of two 2x2 matrices given as pairs of rows."""
    (a, b), (c, d) = left
    (e, f), (g, h) = right
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

"""Damped base-selection scenario on a joint (base x energy-quanta) space.

The joint register holds one amplitude per (base object, quanta label)
pair, quanta labels 0 and 2: column 0 of the (dim, 2) amplitude array is
the no-emission sector, column 1 the two-quanta sector. A selection round
is: relaxed uniform start, an entangling query that swaps the target's
quanta sector with a sign, one pendulum swing of amplification, then a
projective check for emitted quanta, restarting on failure.

The swing between the post-query state and its amplified image is modeled
two ways, differing only in the far endpoint of a great-circle arc:

* "joint" applies the amplification reflection to the base register of the
  full entangled state. Its endpoint stays entangled (the reflection is
  local to the base factor), so this reading feeds the reported
  entanglement-entropy series.
* "conditional" lets the base register follow the plain one-query search
  arc and keeps the quanta label slaved to whether the base is the target
  (a linear isometric lift of the base arc). At dim 4 its endpoint is
  exactly the fully emitted target state, which is what the emission
  statistics assume; this reading is the default for success probabilities.

Relaxation toward the uniform no-emission state is an exponential mix with
rate 2/relaxation_time applied to the pure swing state.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import (
    MAX_DENSITY_DIM,
    MAX_DRAWS,
    MAX_STATE_DIM,
    check_integer,
    check_nonnegative,
    check_normal,
    check_positive,
    check_seed,
    check_target,
)
from .errors import (
    DimensionMismatchError,
    DrawBudgetExceededError,
    InvalidDimensionError,
    InvalidParameterError,
)
from .grover import MAX_SWEEP_STEPS, _normalized

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Probability mass below which a measurement branch has no defined
# post-state.
BRANCH_ATOL = 1e-15

# Arc angles this close to 0 or pi fall back to a pure-phase path. acos
# rounding keeps sin(angle) above ~2e-8 for any overlap one ulp inside
# +-1, so the cutoff must clear that floor or exactly (anti)parallel
# endpoint pairs hit the slerp branch and cancel to a zero vector.
DEGENERATE_SIN = 1e-6

# Each timescale must exceed the faster one by at least this factor for
# the scenario separation of scales to hold.
MIN_TIMESCALE_RATIO = 10.0

TRAJECTORIES = ("conditional", "joint")


class EmissionPolicy(str, Enum):
    AT_EXTREMUM = "extremum"
    UNIFORM_RANDOM = "uniform"
    FIXED_TIME = "fixed"


class HierarchyWarning(UserWarning):
    """Scenario timescales are not cleanly separated."""


@dataclass(frozen=True)
class ScenarioParams:
    """Inputs for one selection-scenario run.

    bond_duration, oscillation_time and relaxation_time share one (unit
    free) time axis; oscillation_time is the time from the start of a
    swing to its far turning point, so one full period is twice that.
    relaxation_time may be math.inf for the undamped limit; the other times
    must be finite. seed is None (fresh entropy) or an integer >= 0.
    """

    dim: int
    target: int
    bond_duration: float
    oscillation_time: float
    relaxation_time: float
    emission: EmissionPolicy = EmissionPolicy.AT_EXTREMUM
    emission_time: float | None = None
    samples: int = 1000
    seed: int | None = None

    def __post_init__(self):
        check_integer(self.dim, "dim", 2, InvalidDimensionError, MAX_STATE_DIM)
        check_target(self.target, self.dim)
        check_positive(self.bond_duration, "bond_duration")
        check_positive(self.oscillation_time, "oscillation_time")
        check_positive(self.relaxation_time, "relaxation_time", infinite_ok=True)
        object.__setattr__(self, "emission", EmissionPolicy(self.emission))
        if self.emission is EmissionPolicy.FIXED_TIME:
            check_nonnegative(self.emission_time, "emission_time")
        check_integer(self.samples, "samples", 1, high=MAX_DRAWS)
        check_seed(self.seed)


def hierarchy_warnings(params: ScenarioParams) -> tuple[str, ...]:
    """Messages for every timescale ratio below MIN_TIMESCALE_RATIO."""
    notes = []
    ratio = params.oscillation_time / params.bond_duration
    if not ratio >= MIN_TIMESCALE_RATIO:
        notes.append(
            f"oscillation_time/bond_duration = {ratio:.3g} is below "
            f"{MIN_TIMESCALE_RATIO}; the kick is not fast against the swing")
    ratio = params.relaxation_time / params.oscillation_time
    if not ratio >= MIN_TIMESCALE_RATIO:
        notes.append(
            f"relaxation_time/oscillation_time = {ratio:.3g} is below "
            f"{MIN_TIMESCALE_RATIO}; damping competes with the swing")
    return tuple(notes)


@dataclass(frozen=True, eq=False)
class JointState:
    """Normalized pure state on the joint register.

    amplitudes has shape (dim, 2): column 0 is the quanta-0 sector,
    column 1 the quanta-2 sector. It is stored read-only: a complex128 copy
    of the caller's array, or the array a package routine has just built.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.amplitudes, dtype=np.complex128))

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> JointState:
        """An instance holding amps itself, not a copy: for complex128
        arrays the package has just built and keeps no other reference to.
        Validated like user input and made read-only all the same."""
        state = object.__new__(cls)
        state._own(amps)
        return state

    def _own(self, amps: np.ndarray) -> None:
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 2:
            raise InvalidDimensionError(
                f"joint state needs shape (dim >= 2, 2), got {amps.shape}")
        object.__setattr__(self, "amplitudes", _normalized(amps, "joint state"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def flat(self) -> np.ndarray:
        """Row-major flattening: joint index 2*base + quanta_column."""
        return self.amplitudes.ravel()


def relaxed_start(dim: int) -> JointState:
    """Uniform base amplitudes, all in the no-emission sector."""
    check_integer(dim, "dimension", 2, InvalidDimensionError, MAX_STATE_DIM)
    amps = np.zeros((dim, 2), dtype=np.complex128)
    amps[:, 0] = 1.0 / math.sqrt(dim)
    return JointState._adopt(amps)


def entangling_oracle(state: JointState, target: int) -> JointState:
    """Signed quanta swap on the target row; everything else untouched.

    Sends (target, 0) to -(target, 2) and (target, 2) to -(target, 0), so
    applying it twice is the identity.
    """
    check_target(target, state.dim)
    amps = state.amplitudes.copy()
    amps[target, 0], amps[target, 1] = -state.amplitudes[target, 1], \
        -state.amplitudes[target, 0]
    return JointState._adopt(amps)


def base_amplification(state: JointState) -> JointState:
    """Negated reflection about uniform, applied to the base register only.

    Column by column: each quanta sector maps to twice its mean minus
    itself. Local to the base factor, so it cannot change entanglement
    across the base/quanta cut.
    """
    amps = state.amplitudes
    return JointState._adopt(2.0 * amps.mean(axis=0, keepdims=True) - amps)


def conditional_lift(base_amplitudes: np.ndarray, target: int) -> JointState:
    """Embed a base-register state with the quanta label slaved to the
    base: target amplitude rides in the quanta-2 sector, the rest in the
    quanta-0 sector."""
    base = np.asarray(base_amplitudes, dtype=np.complex128)
    if base.ndim != 1 or base.size < 2:
        raise InvalidDimensionError(
            f"base state needs at least 2 amplitudes, got shape {base.shape}")
    check_target(target, base.size)
    amps = np.zeros((base.size, 2), dtype=np.complex128)
    amps[:, 0] = base
    amps[target, 1] = base[target]
    amps[target, 0] = 0.0
    return JointState._adopt(amps)


def _conditional_base(state: JointState, target: int) -> np.ndarray:
    """Inverse of conditional_lift; rejects states not in lifted form."""
    amps = state.amplitudes
    stray = max(
        float(abs(amps[target, 0])),
        float(np.max(np.abs(np.delete(amps[:, 1], target)))),
    )
    if stray > 1e-12:
        raise InvalidParameterError(
            "state is not conditionally lifted: off-pattern amplitude "
            f"{stray!r} exceeds 1e-12")
    base = amps[:, 0].copy()
    base[target] = amps[target, 1]
    return base


def swing_endpoint(state0: JointState, target: int,
                   trajectory: str = "conditional") -> JointState:
    """Far turning point of the amplification swing from state0."""
    if trajectory not in TRAJECTORIES:
        raise InvalidParameterError(
            f"trajectory must be one of {TRAJECTORIES}, got {trajectory!r}")
    check_target(target, state0.dim)
    if trajectory == "joint":
        return base_amplification(state0)
    base0 = _conditional_base(state0, target)
    base1 = 2.0 * base0.mean() - base0
    return conditional_lift(base1, target)


def oscillation_fraction(t: float, oscillation_time: float) -> float:
    """Pendulum progress along the arc: 0 at rest, 1 at the far turning
    point, back to 0 after a full period of twice oscillation_time."""
    check_nonnegative(t, "time")
    # a subnormal oscillation_time misplaces the turning point: pi*t is
    # rounded to a multiple of the smallest subnormal
    check_normal(oscillation_time, "oscillation_time")
    phase = math.pi * t / oscillation_time
    if phase == math.inf:
        raise InvalidParameterError(
            f"time = {t!r} is too large for oscillation_time = "
            f"{oscillation_time!r}: the swing phase pi*time/oscillation_time "
            "overflows")
    return (1.0 - math.cos(phase)) / 2.0


def _arc_angle(flat0: np.ndarray, flat1: np.ndarray) -> float:
    """Great-circle angle between two unit vectors.

    It comes from the real part of the overlap, which keeps the
    interpolant exactly normalized for any pair of unit vectors. Nearly
    parallel or antiparallel pairs get exactly 0 or pi, where
    sin(angle) < DEGENERATE_SIN selects the pure-phase path.
    """
    overlap = max(-1.0, min(1.0, float(np.real(np.vdot(flat0, flat1)))))
    angle = math.acos(overlap)
    if math.sin(angle) < DEGENERATE_SIN:
        # snap to an exact end of the range so the phase factor at
        # fraction 1 is +-1 up to one rounding, not up to acos noise
        angle = 0.0 if overlap > 0.0 else math.pi
    return angle


def _arc_point(angle: float, x0, x1, fraction: float):
    """The point at fraction of the great-circle arc of the given angle from
    x0 to x1 (pure phase at a degenerate angle, see _arc_angle), for whole
    flat vectors or one component of each alike: numpy works per component
    and divides a complex array by a real as the product with its reciprocal,
    so a component gets the same bits either way."""
    if math.sin(angle) < DEGENERATE_SIN:
        return cmath.exp(1j * angle * fraction) * x0
    return ((math.sin((1.0 - fraction) * angle) * x0
             + math.sin(fraction * angle) * x1) * (1.0 / math.sin(angle)))


def _swing_arc(state0: JointState, target: int, trajectory: str = "conditional"):
    """The swing from state0 as (angle, flat start, flat far turning point)."""
    flat0 = state0.flat()
    flat1 = swing_endpoint(state0, target, trajectory).flat()
    return _arc_angle(flat0, flat1), flat0, flat1


def _arc_state(arc, oscillation_time: float, t: float) -> JointState:
    """Pure swing state at time t on an arc from _swing_arc."""
    angle, flat0, flat1 = arc
    f = oscillation_fraction(t, oscillation_time)
    return JointState._adopt(_arc_point(angle, flat0, flat1, f).reshape(-1, 2))


def undamped_state(state0: JointState, target: int, oscillation_time: float,
                   t: float, trajectory: str = "conditional") -> JointState:
    """Pure swing state at time t (no relaxation)."""
    return _arc_state(_swing_arc(state0, target, trajectory), oscillation_time, t)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on the flattened joint register."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidDimensionError(
                f"density matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        herm, trace, low = self.diagnostics()
        if herm > HERMITICITY_ATOL:
            raise InvalidParameterError(
                f"hermiticity defect {herm!r} exceeds {HERMITICITY_ATOL}")
        if trace > TRACE_ATOL:
            raise InvalidParameterError(
                f"trace defect {trace!r} exceeds {TRACE_ATOL}")
        if low < EIGENVALUE_FLOOR:
            raise InvalidParameterError(
                f"minimum eigenvalue {low!r} is below {EIGENVALUE_FLOOR}")

    @classmethod
    def from_pure(cls, state: JointState) -> "DensityMatrix":
        """|state><state|; state.dim may not exceed MAX_DENSITY_DIM."""
        check_integer(state.dim, "density matrix dim", 2, InvalidDimensionError,
                      MAX_DENSITY_DIM)
        flat = state.flat()
        return cls(np.outer(flat, flat.conj()))

    def diagnostics(self) -> tuple[float, float, float]:
        """(hermiticity defect, trace defect, minimum eigenvalue)."""
        mat = self.matrix
        return (
            float(np.max(np.abs(mat - mat.conj().T))),
            float(abs(np.trace(mat) - 1.0)),
            float(np.linalg.eigvalsh(mat).min()),
        )


def damping_weight(t: float, relaxation_time: float) -> float:
    """Surviving pure-swing weight exp(-2 t / relaxation_time)."""
    check_nonnegative(t, "time")
    check_positive(relaxation_time, "relaxation_time", infinite_ok=True)
    return math.exp(-2.0 * t / relaxation_time)


def damped_oscillation(state0: JointState, params: ScenarioParams, t: float,
                       trajectory: str = "conditional") -> DensityMatrix:
    """Density operator of the damped swing at time t.

    Exponential mix of the pure swing state with the relaxed uniform
    no-emission state: weight exp(-2 t / relaxation_time) on the former.
    params.dim may not exceed MAX_DENSITY_DIM.
    """
    if state0.dim != params.dim:
        raise DimensionMismatchError(
            f"state dim {state0.dim} differs from params dim {params.dim}")
    check_integer(params.dim, "density matrix dim", 2, InvalidDimensionError,
                  MAX_DENSITY_DIM)
    psi = undamped_state(state0, params.target, params.oscillation_time, t,
                         trajectory).flat()
    weight = damping_weight(t, params.relaxation_time)
    eq = relaxed_start(params.dim).flat()
    rho = (weight * np.outer(psi, psi.conj())
           + (1.0 - weight) * np.outer(eq, eq.conj()))
    return DensityMatrix(rho)


@dataclass(frozen=True)
class EmissionResult:
    """Projective check for emitted quanta on the target row.

    post_success / post_failure are None when the corresponding branch has
    (numerically) no probability mass, leaving its post-state undefined.
    """

    success_probability: float
    post_success: DensityMatrix | None
    post_failure: DensityMatrix | None


def emission_measurement(rho: DensityMatrix, target: int) -> EmissionResult:
    """Measure the projector onto |target, quanta 2>."""
    side = rho.matrix.shape[0]
    if side % 2 != 0:
        raise InvalidDimensionError(
            f"expected a flattened (dim, 2) register, got side {side}")
    dim = side // 2
    check_target(target, dim)
    idx = 2 * target + 1
    p = float(np.real(rho.matrix[idx, idx]))
    p = min(1.0, max(0.0, p))

    post_success = None
    if p > BRANCH_ATOL:
        mat = np.zeros_like(rho.matrix)
        mat[idx, idx] = 1.0
        post_success = DensityMatrix(mat)

    post_failure = None
    if 1.0 - p > BRANCH_ATOL:
        mat = np.array(rho.matrix)
        mat[idx, :] = 0.0
        mat[:, idx] = 0.0
        post_failure = DensityMatrix(mat / (1.0 - p))

    return EmissionResult(success_probability=p, post_success=post_success,
                          post_failure=post_failure)


def entanglement_entropy(state: JointState) -> float:
    """Entropy (bits) of either reduced register of the pure joint state.

    Computed from the singular values of the (dim, 2) amplitude array; the
    base and quanta reductions share the same nonzero spectrum, so one
    number serves both sides of the cut.
    """
    lam = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


def success_probability_at(state0: JointState, params: ScenarioParams,
                           t: float, trajectory: str = "conditional") -> float:
    """Emission success probability of the damped state at time t.

    Uses the closed form: the relaxed component carries no emitted-quanta
    amplitude, so only the pure swing term contributes.
    """
    angle, flat0, flat1 = _swing_arc(state0, params.target, trajectory)
    emitted = 2 * params.target + 1
    amp = _arc_point(angle, complex(flat0[emitted]), complex(flat1[emitted]),
                     oscillation_fraction(t, params.oscillation_time))
    return damping_weight(t, params.relaxation_time) * float(abs(amp) ** 2)


@dataclass(frozen=True)
class ScenarioReport:
    """Outputs of run_scenario; entropy arrays follow the joint reading."""

    params: ScenarioParams
    mean_success: float
    extremum_success_undamped: float
    extremum_success_damped: float
    mean_attempts: float
    max_attempts_observed: int
    entropy_times: np.ndarray
    entropy_bits: np.ndarray
    entropy_at_extremum: float
    warnings: tuple[str, ...]


def run_scenario(params: ScenarioParams, *, entropy_points: int = 101,
                 attempt_cap: int = 100000) -> ScenarioReport:
    """Full selection scenario: kick, swing, emission checks with restarts.

    Per sample, emission times are drawn under the policy and the emitted
    quanta are checked; a failed check restarts the whole round (drawing a
    fresh time), and the number of attempts until first success is
    recorded. mean_success averages the analytic success probability over
    each sample's first drawn time; attempt counts come from Bernoulli
    draws. Sample k draws from SeedSequence child k of the master seed,
    made when the loop reaches it, so any parallel schedule over samples
    reproduces the serial results.

    The entropy series tracks the undamped joint-reading swing over one
    full period on an entropy_points grid.
    """
    check_integer(entropy_points, "entropy_points", 2, high=MAX_SWEEP_STEPS)
    check_integer(attempt_cap, "attempt_cap", 1)
    osc, emitted = params.oscillation_time, 2 * params.target + 1
    check_normal(osc, "oscillation_time")
    # the swing phase pi*t/osc must stay finite at every time the run
    # evaluates: up to a full period, and the fixed emission time
    if math.pi * (2.0 * osc) == math.inf:
        raise InvalidParameterError(
            f"oscillation_time = {osc!r} is too large: the swing phase "
            "pi*time/oscillation_time overflows within a full period")
    if (params.emission is EmissionPolicy.FIXED_TIME
            and math.pi * params.emission_time / osc == math.inf):
        raise InvalidParameterError(
            f"emission_time = {params.emission_time!r} is too large for "
            f"oscillation_time = {osc!r}: the swing phase "
            "pi*emission_time/oscillation_time overflows")
    notes = hierarchy_warnings(params)
    for note in notes:
        warnings.warn(note, HierarchyWarning, stacklevel=2)

    state0 = entangling_oracle(relaxed_start(params.dim), params.target)
    # the conditional arc on the target's emitted amplitude alone
    angle, flat0, flat1 = _swing_arc(state0, params.target)
    start, end = complex(flat0[emitted]), complex(flat1[emitted])

    def success(t):
        # success_probability_at, unchecked: params is valid and t a time
        # the run evaluates
        f = (1.0 - math.cos(math.pi * t / osc)) / 2.0
        return (math.exp(-2.0 * t / params.relaxation_time)
                * float(abs(_arc_point(angle, start, end, f)) ** 2))

    # the policy resolved once per run: uniform draws cover one full period,
    # and every attempt under the other two has the same success probability
    p_damped = success(osc)
    uniform = params.emission is EmissionPolicy.UNIFORM_RANDOM
    fixed = params.emission is EmissionPolicy.FIXED_TIME
    p_fixed = success(params.emission_time) if fixed else p_damped
    # the policy's time parameter, which a refusal names with relaxation_time
    name, policy_time = ("emission_time", params.emission_time) if fixed else (
        "oscillation_time", osc)
    rate = params.relaxation_time
    if not uniform and p_fixed == 0.0:
        # refused before any draw: no check could succeed
        raise InvalidParameterError(
            f"the success probability at {name} = {policy_time!r} is 0.0, so "
            f"no emission check can succeed: relaxation_time = {rate!r} damps it by "
            f"exp(-2*{name}/relaxation_time) = "
            f"{math.exp(-2.0 * policy_time / rate)!r}, "
            "or the swing has a node there")

    first_probs = np.empty(params.samples)
    attempts = np.empty(params.samples, dtype=np.int64)
    root = np.random.SeedSequence(params.seed)
    for k in range(params.samples):
        # child k as root.spawn makes it, without holding every child at once
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size)))
        count = 0
        while True:
            p = success(rng.random() * 2.0 * osc) if uniform else p_fixed
            if count == 0:
                first_probs[k] = p
            count += 1
            if rng.random() < p:
                break
            if count >= attempt_cap:
                raise DrawBudgetExceededError(
                    f"sample {k} exceeded {attempt_cap} emission attempts "
                    f"(success probability {p!r}) at {name} = {policy_time!r} "
                    f"and relaxation_time = {rate!r}")
        attempts[k] = count

    joint = _swing_arc(state0, params.target, "joint")
    times = np.linspace(0.0, 2.0 * osc, entropy_points)
    bits = np.array([entanglement_entropy(_arc_state(joint, osc, t)) for t in times])

    far = _arc_point(angle, start, end, oscillation_fraction(osc, osc))
    return ScenarioReport(
        params=params,
        mean_success=float(first_probs.mean()),
        extremum_success_undamped=float(abs(far) ** 2),
        extremum_success_damped=p_damped,
        mean_attempts=float(attempts.mean()),
        max_attempts_observed=int(attempts.max()),
        entropy_times=times,
        entropy_bits=bits,
        entropy_at_extremum=entanglement_entropy(_arc_state(joint, osc, osc)),
        warnings=notes,
    )

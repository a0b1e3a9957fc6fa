"""Damped base-selection scenario on a joint (base x energy-quanta) space.

The joint register holds one amplitude per (base object, quanta label)
pair, quanta labels 0 (no emission) and 2 (two quanta). A selection round
is: relaxed uniform start, an entangling query that swaps the target's
quanta sector with a sign, one pendulum swing of amplification, then a
projective check for emitted quanta, restarting on failure.

Every state a round makes lies in the span of |t,0>, |t,2>, |r,0> and |r,2>,
|r> the uniform state over the bases other than the target t, so each
routine computes on four numbers (see JointState) at any dim up to 2**53,
and a damped state's spectrum is that of a 2x2 matrix, taken in closed
form. numpy is imported only where an array is built (a state's
amplitudes) or drawn from (run_scenario), so importing this module, or
running the physics short of those, loads no numpy.

The swing turns the post-query state on a great circle to its far end,
the base reflection (twice the mean, minus itself) of its (target,
shared) pairs. Written mu*(1, 1) + delta*((dim - 1)/dim, -1/dim), a pair
keeps mu and negates delta under it. Every swing is about the base its
target marks, by the rule entangling_oracle and DensityMatrix use: a
state at dim 2, or uniform over the bases other than its own target, is
relabelled there, and any other target raises InvalidTargetError. The
two readings pick the pairs:

* "joint" reflects both quanta sectors of the full entangled state. Its
  endpoint stays entangled (the reflection is local to the base factor),
  so this reading feeds the reported entanglement-entropy series.
* "conditional" lets the base register follow the plain one-query search
  arc and keeps the quanta label slaved to whether the base is the target
  (a linear isometric lift of the base pair). At dim 4 its endpoint is
  exactly the fully emitted target state, which is what the emission
  statistics assume. From the kicked start its emitted amplitude is the
  search rotation stopped part-way, which run_scenario takes in closed form;
  at dim 2, where the ends are antipodal, the arc turns the same way.

Relaxation toward the uniform no-emission state is an exponential mix with
rate 2/relaxation_time applied to the pure swing state. Each input is
checked once, where a caller passes it (see JointState and DensityMatrix).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from ._checks import (
    MAX_COUNT,
    MAX_DRAWS,
    MAX_STATE_DIM,
    MAX_SWEEP_STEPS,
    _real,
    check_count,
    check_enum,
    check_integer,
    check_nonnegative,
    check_normal,
    check_positive,
    check_seed,
    check_target,
    seed_blocks,
)
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTargetError,
)
from .grover import _closed_form

if TYPE_CHECKING:
    import numpy as np

# Norm drift allowed in a caller's state (JointState).
NORM_ATOL = 1e-12

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
    must be finite, as must the swing phase pi*time/oscillation_time up to
    the period and at emission_time. Counts are kept as ints and times as
    floats; seed is None (fresh entropy) or an integer >= 0.
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
        keep = functools.partial(object.__setattr__, self)
        keep("dim", check_count(self.dim, "dim", 2, InvalidDimensionError))
        keep("target", check_target(self.target, self.dim))
        keep("bond_duration", check_positive(self.bond_duration, "bond_duration"))
        check_positive(self.oscillation_time, "oscillation_time")
        keep("relaxation_time", check_positive(self.relaxation_time,
                                               "relaxation_time", infinite_ok=True))
        keep("emission", check_enum(self.emission, "emission", EmissionPolicy))
        # the times a run evaluates: the fixed emission time and the period;
        # oscillation_time is replaced last, so refusals show it as passed
        osc = self.oscillation_time
        if self.emission is EmissionPolicy.FIXED_TIME:
            keep("emission_time", _check_swing_time(self.emission_time, osc,
                                                    "emission_time")[0])
        keep("oscillation_time",
             _check_swing_time(osc, osc, "oscillation_time", 2.0)[0])
        keep("samples", check_integer(self.samples, "samples", 1, high=MAX_DRAWS))
        check_seed(self.seed)


def _hierarchy_warnings(params: ScenarioParams) -> tuple[str, ...]:
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


class JointState:
    """Normalized pure state on the joint register, held as coefficients
    (a0, a2, b0, b2): the target's amplitudes in quanta sectors 0 and 2, then
    those every other base shares, their squared norm within NORM_ATOL of 1:
    checked on a caller's state, not on the images of the module's
    norm-keeping maps, which _of builds (roundoff could trip a second check).
    The (dim, 2) amplitudes array (column 0 the quanta-0 sector) is built on
    first read, refused above MAX_STATE_DIM, made read-only and kept.
    """

    _built = None  # the amplitudes array, once read

    def __init__(self, dim: int, target: int, coefficients: tuple):
        dim = check_count(dim, "dimension", 2, InvalidDimensionError)
        target = check_target(target, dim)
        try:  # the numbers are kept as given; _real refuses a Decimal's norm
            norm2 = _real(_total(dim, [abs(x) ** 2 for x in coefficients]))
        except (TypeError, ValueError, OverflowError):  # not four numbers, or too big
            norm2 = math.nan
        if type(coefficients) is not tuple or not abs(norm2 - 1.0) <= NORM_ATOL:
            raise InvalidParameterError(
                "coefficients must be a tuple of four numbers whose squared "
                f"norm is within {NORM_ATOL} of 1, got {coefficients!r}")
        self._dim, self._target, self._coefficients = dim, target, coefficients

    @classmethod
    def _of(cls, dim: int, target: int, coefficients: tuple) -> JointState:
        state = object.__new__(cls)
        state._dim, state._target, state._coefficients = dim, target, coefficients
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        if self._built is None:
            import numpy as np

            check_integer(self._dim, "dimension", 2, InvalidDimensionError,
                          MAX_STATE_DIM)
            amps = np.full((self._dim, 2), self._coefficients[2:], dtype=np.complex128)
            amps[self._target] = self._coefficients[:2]
            amps.setflags(write=False)
            self._built = amps
        return self._built

    @property
    def dim(self) -> int:
        return self._dim


def _check_state(state, name: str) -> None:
    """state is a JointState; InvalidParameterError names it otherwise."""
    if not isinstance(state, JointState):
        raise InvalidParameterError(f"{name} must be a JointState, got {state!r}")


def _marked(state: JointState, target: int) -> JointState:
    """state with target as its marked base, which needs its two rows equal
    (the relaxed start's) or dim 2; otherwise InvalidTargetError names both
    targets, as three different rows would leave the subspace."""
    if target == state._target:
        return state
    a, b = state._coefficients[:2], state._coefficients[2:]
    if a != b and state.dim != 2:
        raise InvalidTargetError(
            f"target {target!r} is not the state's target {state._target!r}, "
            "and the state is not uniform over the other bases")
    return JointState._of(state.dim, target, b + a)


def _total(dim: int, terms) -> complex:
    """t0 + t1 + (dim - 1)*(t2 + t3): a sum over the joint register."""
    t0, t1, t2, t3 = terms
    return t0 + t1 + (dim - 1) * (t2 + t3)


def relaxed_start(dim: int) -> JointState:
    """Uniform base amplitudes, all in the no-emission sector."""
    dim = check_count(dim, "dimension", 2, InvalidDimensionError)
    return JointState._of(dim, 0, (1.0 / math.sqrt(dim), 0.0) * 2)


def entangling_oracle(state: JointState, target: int) -> JointState:
    """Signed quanta swap on the target row; everything else untouched.

    Sends (target, 0) to -(target, 2) and (target, 2) to -(target, 0), so
    applying it twice is the identity.
    """
    _check_state(state, "state")
    target = check_target(target, state.dim)
    a0, a2, b0, b2 = _marked(state, target)._coefficients
    return JointState._of(state.dim, target, (-a2, -a0, b0, b2))


def _lifted(coefficients: tuple) -> tuple[complex, complex]:
    """(a2, b0) of a conditionally lifted state's coefficients: the target
    amplitude in quanta 2, the rest in quanta 0; rejects any other form."""
    a0, a2, b0, b2 = coefficients
    stray = max(abs(a0), abs(b2))
    if stray > 1e-12:
        raise InvalidParameterError(
            "state is not conditionally lifted: off-pattern amplitude "
            f"{stray!r} exceeds 1e-12")
    return a2, b0


def _conditional_base(state: JointState, target: int) -> np.ndarray:
    """The base-register state of a conditionally lifted state, as a (dim,)
    array: the quanta-0 column once the target's amplitude is moved there;
    rejects states not in lifted form."""
    a2, b0 = _lifted(_marked(state, target)._coefficients)
    return JointState._of(state.dim, target, (a2, 0.0, b0, 0.0)).amplitudes[:, 0]


def _swing_pairs(state0: JointState, target: int, trajectory: str):
    """(dim, target, pairs, means): the (target, shared) pairs of state0
    marked at target (see _marked) that the swing reflects, and their means.
    Under "joint" they are both quanta sectors, under "conditional" the
    lifted base pair."""
    _check_state(state0, "state0")
    if trajectory not in TRAJECTORIES:
        raise InvalidParameterError(
            f"trajectory must be one of {TRAJECTORIES}, got {trajectory!r}")
    target = check_target(target, state0.dim)
    coefficients = _marked(state0, target)._coefficients
    a0, a2, b0, b2 = coefficients
    pairs = ((a0, b0), (a2, b2)) if trajectory == "joint" else (_lifted(coefficients),)
    dim = state0.dim
    return dim, target, pairs, [(a + (dim - 1) * b) / dim for a, b in pairs]


def _of_pairs(dim: int, target: int, pairs) -> JointState:
    """The state of pairs laid out as _swing_pairs took them (see _lifted)."""
    (a0, b0), (a2, b2) = (pairs if len(pairs) == 2
                          else ((0.0, pairs[0][1]), (pairs[0][0], 0.0)))
    return JointState._of(dim, target, (a0, a2, b0, b2))


def swing_endpoint(state0: JointState, target: int,
                   trajectory: str = "conditional") -> JointState:
    """Far turning point of the amplification swing from state0."""
    dim, target, pairs, means = _swing_pairs(state0, target, trajectory)
    return _of_pairs(dim, target, [(2.0 * mean - a, 2.0 * mean - b)
                                   for (a, b), mean in zip(pairs, means)])


def _check_swing_time(t: float, oscillation_time: float, name: str = "time",
                      scale: float = 1.0) -> tuple[float, float]:
    """(t, oscillation_time) as floats, for a real t >= 0 and a normal
    float oscillation_time > 0 such that the swing phase
    pi*time/oscillation_time is finite up to time scale*t. A refusal names
    t as name and shows it as the caller passed it."""
    time = check_nonnegative(t, name)
    # a subnormal oscillation_time misplaces the turning point: pi*t is
    # rounded to a multiple of the smallest subnormal
    osc = check_normal(oscillation_time, "oscillation_time")
    if math.pi * (scale * time) / osc == math.inf:
        raise InvalidParameterError(
            f"{name} = {t!r} is too large for oscillation_time = "
            f"{oscillation_time!r}: the swing phase pi*time/oscillation_time "
            f"overflows by time {scale!r}*{name}")
    return time, osc


def _swing_arc(state0: JointState, target: int, trajectory: str):
    """The swing from state0 as (dim, target, h, terms). Over its pairs, mu
    weighs u = sqrt(dim)*|mu| and delta v = sqrt((dim - 1)/dim)*|delta|; the
    slerp point at angle g, from h = atan2(v, u) to -h, holds mu*cos(g)*n/u
    + delta*sin(g)*n/v, n = hypot(u, v). terms holds each pair's coefficients
    of cos(g) and sin(g), taken on unit directions, as n/u overflows at a
    subnormal u. Antipodal ends (u = 0) take mu = -delta/dim, the search
    rotation's way through the uniform state; a fixed point (v = 0) stays put."""
    dim, target, pairs, means = _swing_pairs(state0, target, trajectory)
    gaps = [a - b for a, b in pairs]
    mu, delta = math.hypot(*map(abs, means)), math.hypot(*map(abs, gaps))
    root = math.sqrt((dim - 1) / dim)
    u, v = math.sqrt(dim) * mu, root * delta
    n, h = math.hypot(u, v), math.atan2(v, u)
    if not mu:
        means, mu = [-gap / dim for gap in gaps], delta / dim
    along, across = n / math.sqrt(dim), n * root
    return dim, target, h, [
        (mean / mu * along, unit * across, -unit * across / (dim - 1))
        for mean, unit in zip(means, (gap / delta if delta else 0.0 for gap in gaps))]


def _arc_state(arc, oscillation_time: float, t: float) -> JointState:
    """Pure swing state at time t on an arc from _swing_arc, at g =
    h*cos(pi*t/oscillation_time). Unchecked: t is a valid swing time."""
    dim, target, h, terms = arc
    g = h * math.cos(math.pi * t / oscillation_time)
    c, s = math.cos(g), math.sin(g)
    return _of_pairs(dim, target, [(c * m + s * x, c * m + s * y) for m, x, y in terms])


def undamped_state(state0: JointState, target: int, oscillation_time: float,
                   t: float, trajectory: str = "conditional") -> JointState:
    """Pure swing state at time t (no relaxation)."""
    arc = _swing_arc(state0, target, trajectory)
    t, oscillation_time = _check_swing_time(t, oscillation_time)
    return _arc_state(arc, oscillation_time, t)


class DensityMatrix:
    """Density operator weight*|pure><pure| + (1 - weight)*|relaxed><relaxed|
    on the flattened joint register, relaxed marked at pure's target: rank
    at most 2 at any dim. The inputs are checked (weight a real in [0, 1],
    equal dims, relaxed markable), not the output: with checked norms the
    trace is within NORM_ATOL of 1 and K (diagnostics) is positive
    semidefinite.
    """

    def __init__(self, weight: float, pure: JointState, relaxed: JointState):
        self._weight = _real(weight)
        if not 0.0 <= self._weight <= 1.0:
            raise InvalidParameterError(
                f"weight must be a real in [0, 1], got {weight!r}")
        _check_state(pure, "pure")
        _check_state(relaxed, "relaxed")
        if pure.dim != relaxed.dim:
            raise DimensionMismatchError(
                f"pure state dim {pure.dim} differs from relaxed dim {relaxed.dim}")
        self._pure, self._relaxed = pure, _marked(relaxed, pure._target)

    def diagnostics(self) -> tuple[float, float, float]:
        """(hermiticity defect, trace defect, minimum eigenvalue).

        The matrix is V W V^H, with V the two states as columns and
        W = diag(weight, 1 - weight), so its nonzero spectrum is that of the
        2x2 matrix K = W^1/2 G W^1/2, G = V^H V their Gram matrix; each
        defect is read off K in closed form: max |K - K^H|, |tr K - 1| and
        the smaller root (k00 + k11 - hypot(k00 - k11, 2|k10|))/2, taken on
        the real diagonal and the lower entry as LAPACK's eigvalsh would.
        The other 2*dim - 2 > 0 eigenvalues are 0. The hermiticity defect is
        0 by construction (k01 and k10 are exact conjugates).
        """
        rows = (self._pure._coefficients, self._relaxed._coefficients)
        roots = (math.sqrt(self._weight), math.sqrt(1.0 - self._weight))
        (k00, k01), (k10, k11) = [[
            _total(self._pure.dim, (x.conjugate() * y for x, y in zip(a, b)))
            * (ra * rb) for b, rb in zip(rows, roots)] for a, ra in zip(rows, roots)]
        low = (k00.real + k11.real
               - math.hypot(k00.real - k11.real, 2.0 * abs(k10))) / 2.0
        herm = max(2.0 * abs(k00.imag), 2.0 * abs(k11.imag), abs(k01 - k10.conjugate()))
        return herm, abs(k00 + k11 - 1.0), min(0.0, low)


def damped_oscillation(state0: JointState, params: ScenarioParams, t: float,
                       trajectory: str = "conditional") -> DensityMatrix:
    """Density operator of the damped swing at time t.

    Exponential mix of the pure swing state with the relaxed uniform
    no-emission state: weight exp(-2 t / relaxation_time) on the former.
    """
    _check_state(state0, "state0")
    if state0.dim != params.dim:
        raise DimensionMismatchError(
            f"state dim {state0.dim} differs from params dim {params.dim}")
    arc = _swing_arc(state0, params.target, trajectory)
    t = _check_swing_time(t, params.oscillation_time)[0]
    psi = _arc_state(arc, params.oscillation_time, t)
    return DensityMatrix(math.exp(-2.0 * t / params.relaxation_time), psi,
                         relaxed_start(params.dim))


def entanglement_entropy(state: JointState) -> float:
    """Entropy (bits) of either reduced register of the pure joint state.

    The quanta reduction G = a* a^T + (dim - 1) b* b^T (a, b the target and
    shared rows) has the base reduction's nonzero spectrum; its eigenvalues
    come from tr G and det G = (dim - 1) |a0 b2 - a2 b0|**2, the small one
    as 2 det/(tr + sqrt(tr**2 - 4 det)), taken as fractions lam and 1 - lam
    of tr G, the second's term by log1p(-lam). A lam at most 2**-80, far
    below any 1/dim, is a product state's roundoff: its entropy is +0.0.
    """
    _check_state(state, "state")
    a0, a2, b0, b2 = state._coefficients
    trace = _total(state.dim, (abs(x) ** 2 for x in state._coefficients))
    det = (state.dim - 1) * abs(a0 * b2 - a2 * b0) ** 2
    lam = 2.0 * det / (trace + math.sqrt(max(0.0, trace * trace - 4.0 * det))) / trace
    return (-(lam * math.log2(lam) + (1.0 - lam) * math.log1p(-lam) / math.log(2.0))
            if lam > 2.0 ** -80 else 0.0)


def _success_at(dim: int, t: float, osc: float, rate: float) -> float:
    """Emission success at time t on the kicked start's conditional swing:
    exp(-2t/rate) times the search law at the fractional query count 2f - 1
    = -cos(pi t/osc), f the arc fraction. Unchecked: t is a valid swing time."""
    return math.exp(-2.0 * t / rate) * _closed_form(dim, -math.cos(math.pi * t / osc))


def _bessel_series(square: float, m: int, first: int) -> float:
    """The sum over k >= first (0 or 1) of (-square)**k m!/(k! (k + m)!),
    to a term 2**-60 of the sum: J_m(2x) is x**m/m! times it from 0, square
    = x*x, and 1 - J_0(2x), about 4e-16 at dim 2**53, minus it from 1."""
    k, term = first, -square / (m + 1) if first else 1.0
    total = term
    while abs(term) > 2.0 ** -60 * abs(total):
        k += 1
        term *= -square / (k * (k + m))
        total += term
    return total


def _uniform_mean(dim: int, osc: float, rate: float) -> float:
    """One-period mean of _success_at in closed form. In the swing phase x,
    kappa = 2*osc/(pi*rate), the success exp(-kappa x) sin**2((1 - 2 cos x)
    theta) expands by Jacobi-Anger in J_m(4 theta) cos(m x), weighed by cos
    2 theta for even m and sin 2 theta for odd; exp(-kappa x) cos(m x)
    averages to E_m = E_0/(1 + (m/kappa)**2), E_0 = -expm1(-2 pi kappa)/(2
    pi kappa), 1 at kappa 0. As 4 theta <= pi, each J_m comes from its power
    series, and the terms fall superexponentially in m."""
    decay = 4.0 * osc / rate  # 2 pi kappa
    mean0 = -math.expm1(-decay) / decay if decay else 1.0
    half = 2.0 * math.asin(1.0 / math.sqrt(dim))  # 4 theta, halved
    square, weights = half * half, (1.0 - 2.0 / dim, 2.0 * math.sqrt(dim - 1) / dim)
    one_less_j0 = -_bessel_series(square, 0, 1)
    terms = [mean0 * (one_less_j0 + 2.0 * (1.0 - one_less_j0) / dim) / 2.0]
    lead, m = 1.0, 0  # half**m/m!
    while decay:  # undamped, every E_m past E_0 is 0
        m += 1
        lead *= half / m
        ratio = 2.0 * math.pi * m / decay  # m/kappa
        bound = lead * mean0 / (1.0 + ratio * ratio)  # lead*E_m >= |term|, falling
        term = weights[m & 1] * _bessel_series(square, m, 0) * bound
        terms.append(term if m & 2 else -term)
        if bound <= 2.0 ** -60 * terms[0]:
            break
    return math.fsum(terms)


class ScenarioReport(NamedTuple):
    """Outputs of run_scenario; the entropy series follow the joint reading."""

    params: ScenarioParams
    mean_success: float
    extremum_success_undamped: float
    extremum_success_damped: float
    mean_attempts: float
    max_attempts_observed: int
    entropy_times: tuple[float, ...]
    entropy_bits: tuple[float, ...]
    entropy_at_extremum: float
    warnings: tuple[str, ...]


def run_scenario(params: ScenarioParams, *,
                 entropy_points: int = 101) -> ScenarioReport:
    """Full selection scenario: kick, swing, emission checks with restarts.

    A failed check restarts the round, and every check, the first as well
    as the retries, succeeds with the policy's chance p_bar: p at the
    policy's time, or p's one-period mean under uniform emission, both in
    closed form. So a sample's attempt count is Geometric(p_bar), one draw
    per sample from its seed block (_checks.seed_blocks), and mean_success
    is p_bar itself; a p_bar below 1/MAX_COUNT is refused before any draw.

    The entropy series tracks the undamped joint-reading swing over one
    full period on an entropy_points grid.
    """
    points = check_integer(entropy_points, "entropy_points", 2, high=MAX_SWEEP_STEPS)
    dim, osc, rate = params.dim, params.oscillation_time, params.relaxation_time
    notes = _hierarchy_warnings(params)
    for note in notes:
        warnings.warn(note, HierarchyWarning, stacklevel=2)

    # the policy's time parameter, which a refusal names with relaxation_time
    name, policy_time = (("emission_time", params.emission_time)
                         if params.emission is EmissionPolicy.FIXED_TIME
                         else ("oscillation_time", osc))
    # the policy's chance of one check: uniform times cover one full period
    p_bar = (_uniform_mean(dim, osc, rate)
             if params.emission is EmissionPolicy.UNIFORM_RANDOM
             else _success_at(dim, policy_time, osc, rate))
    if p_bar * MAX_COUNT < 1.0:
        # refused before any draw: the geometric counts would pass MAX_COUNT
        raise InvalidParameterError(
            f"the success probability of a retried emission check, {p_bar!r} at "
            f"{name} = {policy_time!r} and relaxation_time = {rate!r}, is below "
            f"1/{MAX_COUNT}: the damping exp(-2*{name}/relaxation_time) is "
            f"{math.exp(-2.0 * policy_time / rate)!r}, or the swing has a node there")

    import numpy as np

    attempts = np.empty(params.samples, dtype=np.int64)
    for lo, hi, rng in seed_blocks(params.seed, params.samples):
        attempts[lo:hi] = rng.geometric(p_bar, hi - lo)

    state0 = entangling_oracle(relaxed_start(dim), params.target)
    joint = _swing_arc(state0, params.target, "joint")
    # np.linspace(0.0, 2.0 * osc, entropy_points) in floats, bit for bit
    step = 2.0 * osc / (points - 1)
    times = (*(k * step for k in range(points - 1)), 2.0 * osc)

    return ScenarioReport(
        params=params,
        mean_success=p_bar,
        extremum_success_undamped=_success_at(dim, osc, osc, math.inf),
        extremum_success_damped=_success_at(dim, osc, osc, rate),
        mean_attempts=float(attempts.mean()),
        max_attempts_observed=int(attempts.max()),
        entropy_times=times,
        entropy_bits=tuple(entanglement_entropy(_arc_state(joint, osc, t))
                           for t in times),
        entropy_at_extremum=entanglement_entropy(_arc_state(joint, osc, osc)),
        warnings=notes,
    )

"""Independent computation routes used to check the package.

Everything here goes through dense matrices, full-length state vectors,
explicit partial traces, 60-digit decimal arithmetic or closed-form
trigonometry. None of it shares code with the package, which computes
search and Hamiltonian runs on a 2-D plane, except vector_scenario_draws:
it takes the far end of each swing from the package (swing_endpoint) and
builds the full swing state itself, which the scenario sampler does not,
in the retry loop the sampler ran before it drew counts from their law.
emission_success is the scenario's emission success in closed form, and
quad_period_mean integrates it with scipy's quad, to check the package's
Bessel-Laplace series for its period mean; decimal_emission_success
evaluates it to 40 digits.
Three routes keep former package code as references: eager_plane_state
builds a search state's array eagerly, to pin the lazily built states to
its bits; split_orbit_success steps the split-operator series on the plane
as the package did; blockwise_phase_drift is the former phase-check fold.
Two more keep the CLI's former record path: report_records builds a
subcommand's records as dicts from the package's public model functions,
as the CLI did before it streamed rows, and render_records encodes them
record by record through csv and json, as output.write_records once did. The
dense density routes are former package code too: DenseDensity holds and
checks a whole (2*dim, 2*dim) matrix, dense_density builds a DensityMatrix's
matrix as its matrix property did, dense_damped_matrix builds the damped
swing's matrix as damped_oscillation did, from the package's swing state
(undamped_state), and emission_measurement is the projective emission
check that no run used; theoretical_std is the classical query count's
spread. The dense joint-state routes are former package code as well:
DenseJointState holds a caller's (dim, 2) array, checked by _normalized,
the blockwise norm check a search state's amplitudes once made;
dense_swing and dense_undamped_state build the kicked state, the swing's
far ends and the swing state as whole arrays; svd_entropy takes the
entropy from the array's singular values.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext

import numpy as np
from scipy.linalg import expm

import basequest as bq
from basequest import (
    EmissionPolicy,
    entangling_oracle,
    relaxed_start,
    swing_endpoint,
)
from basequest.grover import _blocks
from basequest.replication import NORM_ATOL

# DenseDensity's tolerances. The package's DensityMatrix checks none of
# them: its hermiticity defect is 0 by construction, and its trace and
# spectrum follow from its checked inputs.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def dense_oracle(dim: int, target: int) -> np.ndarray:
    mat = np.eye(dim, dtype=complex)
    mat[target, target] = -1.0
    return mat


def dense_reflection(reference: np.ndarray) -> np.ndarray:
    """1 - 2|ref><ref| as a dense matrix."""
    reference = np.asarray(reference, dtype=complex)
    return np.eye(reference.size, dtype=complex) - 2.0 * np.outer(
        reference, reference.conj())


def dense_run(dim: int, target: int, queries: int) -> np.ndarray:
    """Matrix-power route to the post-search state from uniform."""
    start = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    step = -dense_reflection(start) @ dense_oracle(dim, target)
    return np.linalg.matrix_power(step, queries) @ start


def vector_search(dim: int, target: int, queries: int,
                  phases: np.ndarray | None = None) -> np.ndarray:
    """Full-vector search loop on plain arrays: sign flip on the target,
    then the negated reflection about the (phase-decorated) start."""
    start = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    if phases is not None:
        start = start * phases
    state = start.copy()
    for _ in range(queries):
        state[target] = -state[target]
        # np.sum sums pairwise; a BLAS dot drifts ~3e-12 here at 2**17
        state = 2.0 * np.sum(start.conj() * state) * start - state
    return state


def eager_plane_state(dim: int, target: int, on_target: float, rest: float,
                      phases: np.ndarray | None = None) -> np.ndarray:
    """The amplitude array of a search state as run_grover_with_phases
    built it when every run built its full state: on_target at the target
    and rest elsewhere, times phases unless that is None."""
    amps = np.full(dim, rest, dtype=np.complex128)
    amps[target] = on_target
    if phases is not None:
        # The decoration D is diagonal, so it commutes with the oracle and
        # the decorated run is D applied to the plain one.
        amps *= phases
    return amps


DIGITS = 60


def _decimal_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series for (sin x, cos x), |x| <= 4, summed until the terms
    fall below the context precision in absolute value."""
    sin, cos, term, k = Decimal(0), Decimal(1), Decimal(1), 0
    tiny = Decimal(10) ** -(getcontext().prec + 5)
    while abs(term) > tiny:
        k += 1
        term = term * x / k
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
    return sin, cos


def _decimal_pi() -> Decimal:
    """Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""
    def atan_inverse(n):
        total, power, k = Decimal(0), Decimal(1) / n, 1
        while True:
            term = power / k if k % 4 == 1 else -power / k
            if total + term == total:
                return total
            total, power, k = total + term, power / (n * n), k + 2
    return 16 * atan_inverse(5) - 4 * atan_inverse(239)


def _decimal_theta(dim: int) -> Decimal:
    """asin(1/sqrt(dim)) for dim >= 2, by Newton's method on
    sin(theta) = 1/sqrt(dim) from the float asin, at the context precision."""
    sine = 1 / Decimal(dim).sqrt()
    theta = Decimal(math.asin(1.0 / math.sqrt(dim)))
    for _ in range(4):  # 53 bits double to 424
        sin, cos = _decimal_sin_cos(theta)
        theta -= (sin - sine) / cos
    return theta


def decimal_optimal_queries(dim: int) -> int:
    """The query count maximizing sin**2((2q + 1) * asin(1/sqrt(dim))) on
    the first rise, ties to the smaller, for dim in [1, 2**53]: the better
    of the two integers around the real peak q = pi/(4 theta) - 1/2, each
    side's success taken to DIGITS digits. Successes within 1e-40 of each
    other tie, which happens at dim 1 (theta = pi/2) and 2 (pi/4) only."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pi = _decimal_pi()
        theta = pi / 2 if dim == 1 else _decimal_theta(dim)
        low = int(pi / (4 * theta) - Decimal("0.5"))  # floor: the peak is >= 0

        def success(q):
            return _decimal_sin_cos((2 * q + 1) * theta)[0] ** 2

        return low + 1 if success(low + 1) - success(low) > Decimal("1e-40") else low


def decimal_solved_size(queries: int) -> Decimal:
    """1/sin**2(pi/(2*(2*queries + 1))), the real size solve_database_size
    solves from a query count, to DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        sin, _ = _decimal_sin_cos(_decimal_pi() / (2 * (2 * queries + 1)))
        return 1 / (sin * sin)


def decimal_search_amplitudes(dim: int, queries: int) -> tuple[float, float, float]:
    """(on_target, rest, success) after `queries` search rounds at dim: the
    target amplitude sin(a), every other amplitude cos(a)/sqrt(dim - 1) and
    sin(a)**2, a = (2*queries + 1) * asin(1/sqrt(dim)), each evaluated to
    DIGITS digits and rounded once to a float. theta comes from Newton's
    method on sin(theta) = 1/sqrt(dim).

    Values below 1e-40, far under the 1e-44 residue of reducing a up to
    2**55 by 2*pi, are exact zeros: cos(a) vanishes at dim 4 (theta = pi/6)
    whenever 2*queries + 1 is a multiple of 3.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pi, theta = _decimal_pi(), _decimal_theta(dim)
        angle = (2 * queries + 1) * theta
        angle -= 2 * pi * (angle / (2 * pi)).to_integral_value()
        sin, cos = _decimal_sin_cos(angle)
        values = (sin, cos / Decimal(dim - 1).sqrt(), sin * sin)
        return tuple(0.0 if abs(v) < Decimal("1e-40") else float(v) for v in values)


def decimal_split_success(dim: int, total_time: float, time_step: float,
                          symmetric: bool = True) -> list[float]:
    """The split-operator success series stepped on the plane of |target>
    and the uniform state over the other objects, in DIGITS-digit complex
    arithmetic (pairs of Decimals) from the exact start (1/sqrt(dim),
    sqrt(1 - 1/dim)), each point rounded once to a float. time_step is
    taken at its exact binary value."""

    def times(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def phase(t):  # exp(-it)
        sin, cos = _decimal_sin_cos(t)
        return cos, -sin

    steps = max(1, int(round(total_time / time_step)))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        x = 1 / Decimal(dim).sqrt()
        y = (1 - x * x).sqrt()
        dt = Decimal(time_step)
        kick = phase(dt)
        kick = kick[0] - 1, kick[1]
        target = phase(dt / 2 if symmetric else dt)
        a, b = (x, Decimal(0)), (y, Decimal(0))
        series = [float(x * x)]
        for _ in range(steps):
            if symmetric:
                a = times(target, a)
            # exp(-iP dt) = 1 + (exp(-i dt) - 1) P, P the start projector
            proj = times(kick, (x * a[0] + y * b[0], x * a[1] + y * b[1]))
            a = times(target, (a[0] + x * proj[0], a[1] + x * proj[1]))
            b = b[0] + y * proj[0], b[1] + y * proj[1]
            series.append(float(a[0] * a[0] + a[1] * a[1]))
        return series


def vector_split_success(dim: int, target: int, total_time: float,
                         time_step: float, symmetric: bool = True) -> np.ndarray:
    """Split-operator success series stepped on full vectors, with each
    projector exponential applied as exp(-iPt) = 1 + (exp(-it) - 1) P."""

    def target_phase(vec, t):
        out = vec.copy()
        out[target] *= np.exp(-1j * t)
        return out

    def start_phase(vec, t):
        # the start projector acts as mean(vec) broadcast over all components
        return vec + (np.exp(-1j * t) - 1.0) * np.mean(vec)

    steps = max(1, int(round(total_time / time_step)))
    vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    series = [abs(vec[target]) ** 2]
    for _ in range(steps):
        if symmetric:
            vec = target_phase(vec, time_step / 2.0)
            vec = start_phase(vec, time_step)
            vec = target_phase(vec, time_step / 2.0)
        else:
            vec = target_phase(start_phase(vec, time_step), time_step)
        series.append(abs(vec[target]) ** 2)
    return np.array(series)


def split_orbit_success(dim: int, total_time: float, time_step: float,
                        symmetric: bool = True) -> list[float]:
    """The split-operator success series as evolve_two_term_hamiltonian
    stepped it on the plane of |target> and the uniform state over the
    other objects: one fixed 2x2 step applied k times from the start."""
    def product(left, right):
        (a, b), (c, d) = left
        (e, f), (g, h) = right
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    steps = max(1, int(round(total_time / time_step)))
    x, y = 1.0 / math.sqrt(dim), math.sqrt((dim - 1) / dim)
    kick = cmath.exp(-1j * time_step) - 1.0
    start_phase = ((1.0 + kick * (x * x), kick * (x * y)),
                   (kick * (y * x), 1.0 + kick * (y * y)))
    tau = time_step / 2.0 if symmetric else time_step
    target_phase = ((cmath.exp(-1j * tau), 0.0), (0.0, 1.0))
    step = product(target_phase, start_phase)
    if symmetric:
        step = product(step, target_phase)
    (m00, m01), (m10, m11) = step
    a, b = x, y
    series = [abs(a) * abs(a)]
    for _ in range(steps):
        a, b = m00 * a + m01 * b, m10 * a + m11 * b
        series.append(abs(a) * abs(a))
    return series


def blockwise_phase_drift(phases: np.ndarray, block: int) -> float:
    """max |abs(p) - 1| over the phase factors p, folded per block of
    `block` elements as the phase check did before it tracked min and max."""
    drifts = [float(np.abs(np.abs(phases[start:start + block]) - 1.0).max())
              for start in range(0, phases.size, block)]
    return float(np.max(drifts))


def analytic_two_term_success(dim: int, t: float) -> float:
    """Closed form for the exact two-projector evolution from uniform:
    1/dim + (1 - 1/dim) * sin(t/sqrt(dim))**2."""
    return 1.0 / dim + (1.0 - 1.0 / dim) * np.sin(t / np.sqrt(dim)) ** 2


def dense_two_term_state(dim: int, target: int, t: float) -> np.ndarray:
    start = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    ham = np.outer(start, start.conj())
    ham[target, target] += 1.0
    return expm(-1j * ham * t) @ start


def base_density(state) -> np.ndarray:
    """Reduced density matrix of the base register (quanta traced out)."""
    return state.amplitudes @ state.amplitudes.conj().T


def quanta_density(state) -> np.ndarray:
    """Reduced density matrix of the quanta register (base traced out)."""
    return state.amplitudes.T @ state.amplitudes.conj()


def entropies_by_partial_trace(amps: np.ndarray) -> tuple[float, float]:
    """(base entropy, quanta entropy) in bits via explicit reductions."""
    amps = np.asarray(amps, dtype=complex)

    def entropy(rho):
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-14]
        return float(-(lam * np.log2(lam)).sum())

    rho_base = np.einsum("iq,jq->ij", amps, amps.conj())
    rho_quanta = np.einsum("iq,ir->qr", amps, amps.conj())
    return entropy(rho_base), entropy(rho_quanta)


def dense_entangling_matrix(dim: int, target: int) -> np.ndarray:
    """The signed quanta swap as a dense operator on the flattened
    (dim, 2) register, joint index 2*base + quanta_column."""
    mat = np.eye(2 * dim, dtype=complex)
    i0, i2 = 2 * target, 2 * target + 1
    mat[i0, i0] = mat[i2, i2] = 0.0
    mat[i2, i0] = -1.0
    mat[i0, i2] = -1.0
    return mat


def random_joint_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    return amps / np.linalg.norm(amps)


def random_subspace_state(dim: int, target: int, rng: np.random.Generator):
    """A package JointState with random coefficients: a random target row
    and a random row shared by the other bases, normalized."""
    coefficients = rng.normal(size=4) + 1j * rng.normal(size=4)
    norm = math.sqrt(np.sum(np.abs(coefficients[:2]) ** 2)
                     + (dim - 1) * np.sum(np.abs(coefficients[2:]) ** 2))
    return bq.JointState(dim, target, tuple(complex(x / norm) for x in coefficients))


def _normalized(amps: np.ndarray, label: str) -> np.ndarray:
    """amps itself, made read-only, once its norm is within NORM_ATOL of 1;
    otherwise InvalidParameterError, the message starting with label.

    The squares of the real and imaginary parts are summed pairwise within
    each block and exactly (math.fsum) across blocks, so the error stays
    O(eps) at any dimension, unlike the BLAS norm, whose drift grows with
    the vector length.
    """
    parts = amps.ravel(order="K").view(np.float64)
    norm = math.sqrt(math.fsum(float(np.multiply(block, block, out=scratch).sum())
                               for block, scratch in _blocks(parts)))
    if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
        raise bq.InvalidParameterError(
            f"{label} norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class DenseJointState:
    """A joint state held as its (dim, 2) amplitude array, as JointState
    held it before it kept two rows: a read-only complex128 copy of the
    caller's array, or, from _adopt, the array itself; either way checked
    by the package's norm check."""

    amplitudes: np.ndarray

    def __post_init__(self):
        try:
            amps = np.array(self.amplitudes, dtype=np.complex128)
        except (TypeError, ValueError) as exc:  # a str, a dict, a ragged list
            raise bq.InvalidParameterError(
                f"amplitudes must be an array of numbers: {exc}") from None
        self._own(amps)

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> "DenseJointState":
        """An instance holding the complex128 array amps itself, not a copy,
        validated and made read-only all the same."""
        state = object.__new__(cls)
        state._own(amps)
        return state

    def _own(self, amps: np.ndarray) -> None:
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 2:
            raise bq.InvalidDimensionError(
                f"joint state needs shape (dim >= 2, 2), got {amps.shape}")
        object.__setattr__(self, "amplitudes", _normalized(amps, "joint state"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def dense_swing(dim: int, target: int,
                trajectory: str = "conditional") -> tuple[np.ndarray, np.ndarray]:
    """(kicked start, far turning point) of the swing as (dim, 2) arrays,
    built column by column as the package built them from whole arrays."""
    start = np.zeros((dim, 2), dtype=np.complex128)
    start[:, 0] = 1.0 / math.sqrt(dim)
    start[target] = -start[target, ::-1]
    if trajectory == "joint":
        return start, 2.0 * start.mean(axis=0, keepdims=True) - start
    base = start[:, 0].copy()
    base[target] = start[target, 1]
    base = 2.0 * base.mean() - base
    end = np.zeros_like(start)
    end[:, 0] = base
    end[target] = (0.0, base[target])
    return start, end


def dense_undamped_state(dim: int, target: int, oscillation_time: float,
                         t: float, trajectory: str = "conditional") -> np.ndarray:
    """The undamped swing state at time t as a (dim, 2) array."""
    start, end = dense_swing(dim, target, trajectory)
    fraction = (1.0 - math.cos(math.pi * t / oscillation_time)) / 2.0
    return great_circle_point(start.ravel(), end.ravel(), fraction).reshape(dim, 2)


def svd_entropy(amps: np.ndarray) -> float:
    """Entropy (bits) of the reduced registers of a (dim, 2) array, from
    its singular values."""
    lam = np.linalg.svd(amps, compute_uv=False) ** 2
    lam = lam[lam > 1e-15]
    return max(0.0, float(-(lam * np.log2(lam)).sum()))


def great_circle_point(flat0: np.ndarray, flat1: np.ndarray,
                       fraction: float) -> np.ndarray:
    """Slerp between two unit vectors on whole arrays, at the angle
    2*atan2(|flat1 - flat0|, |flat1 + flat0|); equal or nearly antiparallel
    ends take the pure-phase path from an exact 0 or pi."""
    angle = 2.0 * math.atan2(np.linalg.norm(flat1 - flat0),
                             np.linalg.norm(flat1 + flat0))
    if angle == 0.0 or math.pi - angle < 1e-6:
        angle = 0.0 if angle < 1.0 else math.pi
        return np.exp(1j * angle * fraction) * flat0
    return (math.sin((1.0 - fraction) * angle) * flat0
            + math.sin(fraction * angle) * flat1) / math.sin(angle)


def vector_emission_probability(state0, params, t: float,
                                trajectory: str = "conditional") -> float:
    """Damped emission success at time t, read off the full swing state."""
    end = swing_endpoint(state0, params.target, trajectory)
    fraction = (1.0 - math.cos(math.pi * t / params.oscillation_time)) / 2.0
    psi = great_circle_point(state0.amplitudes.ravel(), end.amplitudes.ravel(),
                             fraction)
    weight = math.exp(-2.0 * t / params.relaxation_time)
    return weight * float(abs(psi[2 * params.target + 1]) ** 2)


def vector_scenario_draws(params) -> tuple[list[float], list[int]]:
    """Emission checks with restarts, one loop of attempts per sample, as
    run_scenario made them before it drew attempt counts from their law.

    Each attempt draws its emission time under the policy, builds the full
    swing state there (vector_emission_probability) and makes a Bernoulli
    check; a failure restarts. All samples draw from one PCG64 stream seeded
    with params.seed. Returns each sample's first success probability and
    its attempt count.
    """
    state0 = entangling_oracle(relaxed_start(params.dim), params.target)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    first, counts = [], []
    for _ in range(params.samples):
        count = 0
        while True:
            if params.emission is EmissionPolicy.UNIFORM_RANDOM:
                t = float(rng.random() * 2.0 * params.oscillation_time)
            elif params.emission is EmissionPolicy.AT_EXTREMUM:
                t = params.oscillation_time
            else:
                t = params.emission_time
            p = vector_emission_probability(state0, params, t)
            if count == 0:
                first.append(p)
            count += 1
            if rng.random() < p:
                break
        counts.append(count)
    return first, counts


def bessel_period_mean(dim: int) -> float:
    """The undamped one-period mean of the emission success, in closed form.

    The success is sin^2((1 - 2 cos phi) theta), sin^2 theta = 1/dim, over a
    uniform swing phase phi, and the period average of cos(b cos phi) is
    J0(b), so the mean is sin^2 theta + cos(2 theta) (1 - J0(4 theta))/2.
    1 - J0 is summed from its power series: 1 - scipy.special.j0 cancels at
    small theta.
    """
    theta = math.asin(1.0 / math.sqrt(dim))
    terms, term = [], 1.0
    for k in range(1, 40):
        term *= -4.0 * theta * theta / (k * k)  # (-(4 theta/2)**2)**k/(k!)**2
        terms.append(-term)
    return 1.0 / dim + (1.0 - 2.0 / dim) * math.fsum(terms) / 2.0


def emission_success(dim: int, t: float, oscillation_time: float,
                     relaxation_time: float) -> float:
    """The damped emission success at time t of a swing from the kicked
    start, exp(-2t/relaxation_time) sin^2((1 - 2 cos x) theta), x = pi
    t/oscillation_time and sin^2 theta = 1/dim: the target amplitude turns
    from -sin theta (x = 0) to sin 3 theta (x = pi) in the search plane."""
    theta = math.asin(1.0 / math.sqrt(dim))
    x = math.pi * t / oscillation_time
    return (math.exp(-2.0 * t / relaxation_time)
            * math.sin((1.0 - 2.0 * math.cos(x)) * theta) ** 2)


def decimal_emission_success(dim: int, t: float, oscillation_time: float,
                             relaxation_time: float) -> float:
    """emission_success to 40 digits, rounded once to a float, given the
    float cosine c = cos(pi t/oscillation_time) that a float route computes
    (the arc fraction is f = (1 - c)/2): exp(-2t/relaxation_time)
    sin^2((1 - 2c) theta), the sine by its Taylor series (_decimal_sin_cos)
    and the exponential by Decimal.exp, on the exact binary values of c, t
    and relaxation_time."""
    cos = math.cos(math.pi * t / oscillation_time)
    with localcontext() as ctx:
        ctx.prec = 40
        sin, _ = _decimal_sin_cos((1 - 2 * Decimal(cos)) * _decimal_theta(dim))
        damping = (Decimal(1) if relaxation_time == math.inf
                   else (-2 * Decimal(t) / Decimal(relaxation_time)).exp())
        return float(damping * sin * sin)


def quad_period_mean(params) -> float:
    """The one-period mean of emission_success under uniform emission, by
    scipy's adaptive quad, broken at every power of two times
    relaxation_time below the period."""
    from scipy.integrate import quad

    dim, osc, rate = params.dim, params.oscillation_time, params.relaxation_time
    period = 2.0 * osc
    points = [p for p in (rate * 2.0 ** k for k in range(-1, 12)) if p < period]
    value, _ = quad(lambda t: emission_success(dim, t, osc, rate), 0.0, period,
                    points=points or None, limit=500, epsabs=0.0, epsrel=1e-13)
    return value / period


@dataclass(frozen=True, eq=False)
class DenseDensity:
    """Density operator held as its dense matrix, a read-only complex128
    copy, and checked like the package's DensityMatrix on numpy's full
    eigvalsh spectrum."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise bq.InvalidDimensionError(
                f"density matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        herm, trace, low = self.diagnostics()
        if herm > HERMITICITY_ATOL:
            raise bq.InvalidParameterError(
                f"hermiticity defect {herm!r} exceeds {HERMITICITY_ATOL}")
        if trace > TRACE_ATOL:
            raise bq.InvalidParameterError(
                f"trace defect {trace!r} exceeds {TRACE_ATOL}")
        if low < EIGENVALUE_FLOOR:
            raise bq.InvalidParameterError(
                f"minimum eigenvalue {low!r} is below {EIGENVALUE_FLOOR}")

    @classmethod
    def from_pure(cls, state) -> "DenseDensity":
        """|state><state| of a JointState."""
        flat = state.amplitudes.ravel()
        return cls(np.outer(flat, flat.conj()))

    def diagnostics(self) -> tuple[float, float, float]:
        """(hermiticity defect, trace defect, minimum eigenvalue)."""
        mat = self.matrix
        return (
            float(np.max(np.abs(mat - mat.conj().T))),
            float(abs(np.trace(mat) - 1.0)),
            float(np.linalg.eigvalsh(mat).min()),
        )


def dense_density(rho) -> np.ndarray:
    """The (2*dim, 2*dim) matrix weight*|pure><pure| + (1 - weight)*
    |relaxed><relaxed| of a package DensityMatrix, built as its matrix
    property built it before the package kept only the two states."""
    psi, eq = rho._pure.amplitudes.ravel(), rho._relaxed.amplitudes.ravel()
    return (rho._weight * np.outer(psi, psi.conj())
            + (1.0 - rho._weight) * np.outer(eq, eq.conj()))


def dense_damped_matrix(state0, params, t: float,
                        trajectory: str = "conditional") -> np.ndarray:
    """The damped swing's (2*dim, 2*dim) matrix at time t, built as
    damped_oscillation built it before it kept the two states."""
    psi = bq.undamped_state(state0, params.target, params.oscillation_time, t,
                            trajectory).amplitudes.ravel()
    weight = math.exp(-2.0 * t / params.relaxation_time)
    eq = relaxed_start(params.dim).amplitudes.ravel()
    return (weight * np.outer(psi, psi.conj())
            + (1.0 - weight) * np.outer(eq, eq.conj()))


# Probability mass below which a measurement branch has no defined
# post-state.
BRANCH_ATOL = 1e-15


@dataclass(frozen=True)
class EmissionResult:
    """Projective check for emitted quanta on the target row.

    post_success / post_failure are None when the corresponding branch has
    (numerically) no probability mass, leaving its post-state undefined.
    """

    success_probability: float
    post_success: DenseDensity | None
    post_failure: DenseDensity | None


def emission_measurement(rho, target: int) -> EmissionResult:
    """Measure the projector onto |target, quanta 2> on the dense matrix of
    rho, a DenseDensity or a DensityMatrix (through dense_density)."""
    matrix = rho.matrix if isinstance(rho, DenseDensity) else dense_density(rho)
    side = matrix.shape[0]
    if side % 2 != 0:
        raise bq.InvalidDimensionError(
            f"expected a flattened (dim, 2) register, got side {side}")
    if not 0 <= target < side // 2:
        raise bq.InvalidTargetError(
            f"target must be an integer in [0, {side // 2}), got {target!r}")
    idx = 2 * target + 1
    p = float(np.real(matrix[idx, idx]))
    p = min(1.0, max(0.0, p))

    post_success = None
    if p > BRANCH_ATOL:
        mat = np.zeros_like(matrix)
        mat[idx, idx] = 1.0
        post_success = DenseDensity(mat)

    post_failure = None
    if 1.0 - p > BRANCH_ATOL:
        mat = np.array(matrix)
        mat[idx, :] = 0.0
        mat[:, idx] = 0.0
        post_failure = DenseDensity(mat / (1.0 - p))

    return EmissionResult(success_probability=p, post_success=post_success,
                          post_failure=post_failure)


def theoretical_std(database_size: int, mode) -> float:
    """Population standard deviation of the classical query count."""
    if bq.SearchMode(mode) is bq.SearchMode.WITH_REPLACEMENT:
        # geometric law: var = (1-p)/p**2 with p = 1/size
        return math.sqrt(database_size**2 - database_size)
    # uniform on 1..size: var = (size**2 - 1)/12
    return math.sqrt((database_size**2 - 1) / 12.0)


def report_records(config: dict) -> list[dict]:
    """The records of one CLI call, as dicts, config record first: the
    model records of the subcommand config["command"], run with the option
    values its config record echoes."""
    o = config
    command = o["command"]
    records = [config]
    if command == "table":
        for queries in range(o["qmax"] + 1):
            solution = bq.solve_database_size(queries)
            nearest = math.floor(solution.database_size + 0.5)
            records.append({
                "record": "row", "queries": queries,
                "size_exact": solution.database_size, "size_nearest": nearest,
                "success_at_nearest": bq.closed_form_success(nearest, queries),
                "speedup_at_nearest": bq.speedup_ratio(nearest)})
    elif command == "grover":
        series = bq.success_series(o["n"], o["target"], o["iters"])
        records += [{"record": "step", "step": step, "success": success}
                    for step, success in enumerate(series)]
        closed = bq.closed_form_success(o["n"], o["iters"])
        records.append({"record": "summary", "queries": o["iters"],
                        "success": series[-1], "closed_form": closed,
                        "deviation": abs(series[-1] - closed)})
    elif command == "classical":
        mode = bq.SearchMode(o["mode"])
        stats = bq.simulate_search(o["n"], mode, o["trials"], o["seed"])
        expected = bq.expected_queries(o["n"], mode)
        records.append({"record": "summary", "expected_queries": expected,
                        "mean_queries": stats.mean_queries,
                        "std_error": stats.std_error,
                        "deviation": abs(stats.mean_queries - expected)})
    elif command == "bond":
        phase = bq.half_rabi_phase(1.0, math.pi / 2.0)
        cascade = bq.cascade_phase(o["cascade"])
        records.append({
            "record": "summary",
            "error_rate": bq.boltzmann_error_rate(o["delta_e_kt"]),
            "t_b": bq.bond_time(o["delta_e_kt"], o["temperature"]),
            "phase_real": phase.real, "phase_imag": phase.imag,
            "phase_squared": (phase * phase).real,
            "cascade_steps": o["cascade"], "cascade_phase_real": cascade.real,
            "cascade_phase_imag": cascade.imag})
    elif command == "scenario":
        report = bq.run_scenario(bq.ScenarioParams(
            dim=o["n"], target=o["target"], bond_duration=o["t_b"],
            oscillation_time=o["t_osc"], relaxation_time=o["t_r"],
            emission=o["emission"], emission_time=o["time"],
            samples=o["samples"], seed=o["seed"]))
        records.append({
            "record": "summary", "mean_success": report.mean_success,
            "extremum_success_undamped": report.extremum_success_undamped,
            "extremum_success_damped": report.extremum_success_damped,
            "mean_attempts": report.mean_attempts,
            "max_attempts_observed": report.max_attempts_observed,
            "entropy_at_extremum": report.entropy_at_extremum,
            "hierarchy_ok": not report.warnings,
            "hierarchy_notes": "; ".join(report.warnings)})
        records += [{"record": "entropy", "time": float(t), "bits": float(bits)}
                    for t, bits in zip(report.entropy_times, report.entropy_bits)]
    else:
        sweep = bq.evolve_two_term_hamiltonian(o["n"], o["target"], o["t_max"],
                                               o["dt"])
        records += [{"record": "step", "time": t, "exact_success": exact,
                     "trotter_success": trotter}
                    for t, exact, trotter in zip(sweep.times, sweep.exact_success,
                                                 sweep.trotter_success)]
        records.append({"record": "summary", "peak_success": sweep.peak_success(),
                        "success_floor": 1.0 - 1.0 / o["n"],
                        "max_deviation": sweep.max_deviation()})
    return records


def _plain_value(value):
    if type(value) in (float, int, str, type(None)):
        return value
    if isinstance(value, np.generic):
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"unsupported record value {value!r}")


def _csv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_records(records: list[dict], fmt: str) -> str:
    """records in CSV (header over the union of keys in first-seen order)
    or JSON lines, encoded record by record."""
    rows = [{key: _plain_value(value) for key, value in rec.items()}
            for rec in records]
    if fmt == "jsonl":
        return "\n".join(json.dumps(row, separators=(", ", ": "))
                         for row in rows) + "\n"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    # csv quotes a cell that holds a character of its line terminator: each
    # line is written with "\r\n", so that a "\r" is quoted, then ends in "\n"
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    lines = []
    for cells in [columns, *([_csv_text(row[key]) if key in row else ""
                              for key in columns] for row in rows)]:
        writer.writerow(cells)
        lines.append(sink.getvalue().removesuffix("\r\n") + "\n")
        sink.seek(0)
        sink.truncate()
    return "".join(lines)

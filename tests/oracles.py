"""Independent computation routes used to check the package.

Everything here goes through dense matrices, full-length state vectors,
explicit partial traces, 60-digit decimal arithmetic or closed-form
trigonometry. None of it shares code with the package, which computes
search and Hamiltonian runs on a 2-D plane, except vector_scenario_draws:
it takes the far end of each swing from the package (swing_endpoint) and
builds the full swing state itself, which the scenario sampler does not.
Three routes keep former package code as references: eager_plane_state
builds a search state's array eagerly, to pin the lazily built states to
its bits; split_orbit_success steps the split-operator series on the plane
as the package did; blockwise_phase_drift is the former phase-check fold.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
from scipy.linalg import expm

from basequest import (
    EmissionPolicy,
    entangling_oracle,
    relaxed_start,
    swing_endpoint,
)


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
        pi, sine = _decimal_pi(), 1 / Decimal(dim).sqrt()
        theta = Decimal(math.asin(1.0 / math.sqrt(dim)))
        for _ in range(4):  # 53 bits double to 424
            sin, cos = _decimal_sin_cos(theta)
            theta -= (sin - sine) / cos
        angle = (2 * queries + 1) * theta
        angle -= 2 * pi * (angle / (2 * pi)).to_integral_value()
        sin, cos = _decimal_sin_cos(angle)
        values = (sin, cos / Decimal(dim - 1).sqrt(), sin * sin)
        return tuple(0.0 if abs(v) < Decimal("1e-40") else float(v) for v in values)


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


def great_circle_point(flat0: np.ndarray, flat1: np.ndarray,
                       fraction: float) -> np.ndarray:
    """Slerp between two unit vectors on whole arrays; nearly parallel or
    antiparallel ends take the pure-phase path from an exact 0 or pi."""
    overlap = max(-1.0, min(1.0, float(np.real(np.vdot(flat0, flat1)))))
    angle = math.acos(overlap)
    if math.sin(angle) < 1e-6:
        angle = 0.0 if overlap > 0.0 else math.pi
        return np.exp(1j * angle * fraction) * flat0
    return (math.sin((1.0 - fraction) * angle) * flat0
            + math.sin(fraction * angle) * flat1) / math.sin(angle)


def vector_emission_probability(state0, params, t: float,
                                trajectory: str = "conditional") -> float:
    """Damped emission success at time t, read off the full swing state."""
    end = swing_endpoint(state0, params.target, trajectory)
    fraction = (1.0 - math.cos(math.pi * t / params.oscillation_time)) / 2.0
    psi = great_circle_point(state0.flat(), end.flat(), fraction)
    weight = math.exp(-2.0 * t / params.relaxation_time)
    return weight * float(abs(psi[2 * params.target + 1]) ** 2)


def vector_scenario_draws(params) -> tuple[float, float, int]:
    """run_scenario's emission checks with one full swing state per attempt.

    Same per-sample SeedSequence streams and draw order (emission time,
    then the Bernoulli check). Returns (mean_success, mean_attempts,
    max_attempts_observed).
    """
    state0 = entangling_oracle(relaxed_start(params.dim), params.target)
    first, counts = [], []
    for stream in np.random.SeedSequence(params.seed).spawn(params.samples):
        rng = np.random.Generator(np.random.PCG64(stream))
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
    return float(np.mean(first)), float(np.mean(counts)), max(counts)

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import basequest as bq
from basequest._checks import seed_blocks
from basequest.replication import (
    MIN_TIMESCALE_RATIO,
    NORM_ATOL,
    _arc_angle,
    _arc_point,
    _conditional_base,
    _hierarchy_warnings,
    _success_at,
    _uniform_mean,
)
from oracles import (
    EIGENVALUE_FLOOR,
    TRACE_ATOL,
    DenseDensity,
    DenseJointState,
    base_density,
    bessel_period_mean,
    dense_damped_matrix,
    dense_density,
    dense_entangling_matrix,
    dense_swing,
    dense_undamped_state,
    decimal_emission_success,
    emission_measurement,
    emission_success,
    entropies_by_partial_trace,
    quad_period_mean,
    quanta_density,
    random_joint_state,
    random_subspace_state,
    svd_entropy,
    vector_emission_probability,
    vector_scenario_draws,
)

POST_KICK_ENTROPY = 0.8112781244591329


def arc_interpolate(a, b, fraction):
    return _arc_point(_arc_angle(np.linalg.norm(b - a), np.linalg.norm(b + a)),
                      a, b, fraction)


def kicked_state(dim=4, target=1):
    return bq.entangling_oracle(bq.relaxed_start(dim), target)


def emitted_weight(rho):
    """A damped swing state's emission success: the pure swing state's
    weight times its target's quanta-2 probability (the relaxed start
    emits nothing)."""
    return rho._weight * abs(rho._pure._coefficients[1]) ** 2


def default_params(**overrides):
    base = dict(dim=4, target=1, bond_duration=1e-3, oscillation_time=1.0,
                relaxation_time=1e3, samples=100, seed=0)
    base.update(overrides)
    return bq.ScenarioParams(**base)


class TestJointState:
    def test_relaxed_start_layout(self):
        state = bq.relaxed_start(4)
        assert np.allclose(state.amplitudes[:, 0], 0.5)
        assert np.all(state.amplitudes[:, 1] == 0.0)

    def test_flat_index_convention(self):
        state = bq.JointState(3, 2, (0.0, 1.0, 0.0, 0.0))
        flat = state.amplitudes.ravel()
        assert flat[2 * 2 + 1] == 1.0
        assert np.sum(np.abs(flat)) == 1.0

    def test_rejects_bad_shapes(self):
        # the array constructor, now the dense oracle's
        with pytest.raises(bq.InvalidDimensionError):
            DenseJointState(np.ones(4) / 2.0)
        with pytest.raises(bq.InvalidDimensionError):
            DenseJointState(np.ones((4, 3)) / math.sqrt(12))

    @pytest.mark.parametrize("dim,target,coefficients,error,name", [
        (4, 9, (0.5,) * 4, bq.InvalidTargetError, "target"),
        (1, 0, (1.0, 0.0, 0.0, 0.0), bq.InvalidDimensionError, "dimension"),
        (4, 0, (1.0, 0.0), bq.InvalidParameterError, "coefficients"),
        (4, 0, (0.0,) * 4, bq.InvalidParameterError, "coefficients"),
        (4, 0, (math.nan, 0.5, 0.5, 0.5), bq.InvalidParameterError, "coefficients"),
        (4, 0, (1e200, 0.0, 0.0, 0.0), bq.InvalidParameterError, "coefficients"),
        (4, 0, ("a",) * 4, bq.InvalidParameterError, "coefficients"),
        (4, 0, (Decimal("0.5"),) * 4, bq.InvalidParameterError, "coefficients"),
        (4, 0, [0.5] * 4, bq.InvalidParameterError, "coefficients"),
        # an entangled pair scaled far from norm 1, then an unnormalized one
        (4, 0, (1e150, 0.0, 0.0, 1e150), bq.InvalidParameterError, "coefficients"),
        (4, 0, (1e-150, 0.0, 0.0, 1e-150), bq.InvalidParameterError, "coefficients"),
        (4, 0, (1.0, 0.0, 1.0, 0.0), bq.InvalidParameterError, "coefficients"),
    ], ids=["target_9_of_4", "dim_1", "two_coefficients", "all_zero", "nan",
            "norm_overflows", "str", "Decimal", "list", "scaled_up", "scaled_down",
            "unnormalized"])
    def test_constructor_refuses_by_name(self, dim, target, coefficients, error,
                                         name):
        with pytest.raises(error, match=name):
            bq.JointState(dim, target, coefficients)

    def test_constructor_keeps_the_callers_numbers(self):
        # squared norm 1/4 + 1/4 + 2*(1/4 + 0), exactly 1
        coefficients = (np.complex128(0.5), Fraction(1, 2), 0.5j, 0)
        state = bq.JointState(np.int64(3), 0, coefficients)
        assert state._coefficients is coefficients

    def test_rejects_unnormalized(self):
        # the norm check runs when the state is built, not when its array is
        with pytest.raises(bq.InvalidParameterError, match="norm"):
            bq.JointState(4, 0, (1.0, 0.0, 1.0, 0.0))

    @given(dim=st.integers(2, 2 ** 53), seed=st.integers(0, 2 ** 32 - 1),
           power=st.floats(-200.0, 200.0))
    @example(dim=4, seed=0, power=0.0)
    @example(dim=2 ** 53, seed=1, power=-1e-13)
    @example(dim=1024, seed=2, power=1e-13)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_scaled_coefficients_are_refused_or_kept_lawful(self, dim, seed, power):
        # 10**power near 1 keeps the squared norm within NORM_ATOL of 1;
        # far from it, the entropy once overflowed or read 0.0 bits
        target = dim // 2
        state = random_subspace_state(dim, target, np.random.default_rng(seed))
        coefficients = tuple(x * 10.0 ** power for x in state._coefficients)
        try:
            scaled = bq.JointState(dim, target, coefficients)
        except bq.InvalidParameterError as refusal:
            assert "coefficients" in str(refusal)
            return
        bits = bq.entanglement_entropy(scaled)
        assert 0.0 <= bits <= 1.0
        assert bits == pytest.approx(bq.entanglement_entropy(state), abs=1e-9)
        p = emitted_weight(bq.damped_oscillation(
            scaled, default_params(dim=dim, target=target), 0.35, "joint"))
        assert 0.0 <= p <= 1.0

    def test_holds_no_array_until_read(self):
        state = bq.undamped_state(kicked_state(64, 5), 5, 1.0, 0.3, "joint")
        assert state._built is None
        bq.entanglement_entropy(state)
        bq.damped_oscillation(state, default_params(dim=64, target=5), 0.2,
                              "joint").diagnostics()
        assert state._built is None
        assert state.amplitudes is state._built


# package-built states on both trajectories: the kicked start, both far
# ends, and swing states between and past them
SUBSPACE_DIMS = [2, 3, 4, 5, 64, 1024]
SWING_TIMES = [0.0, 0.35, 1.0, 1.3, 2.0, 2.7]


def package_states(dim, target, trajectory):
    state0 = kicked_state(dim, target)
    yield "start", state0, dense_swing(dim, target, trajectory)[0]
    yield "end", bq.swing_endpoint(state0, target, trajectory), \
        dense_swing(dim, target, trajectory)[1]
    for t in SWING_TIMES:
        yield t, bq.undamped_state(state0, target, 1.0, t, trajectory), \
            dense_undamped_state(dim, target, 1.0, t, trajectory)


class TestDenseRoute:
    """The four numbers a JointState keeps against the (dim, 2) arrays the
    package built before it computed in the subspace."""

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", SUBSPACE_DIMS)
    def test_amplitudes_match_dense_route(self, dim, trajectory):
        for target in sorted({0, dim // 2, dim - 1}):
            for label, state, dense in package_states(dim, target, trajectory):
                assert np.max(np.abs(state.amplitudes - dense)) <= 1e-12, \
                    (target, label)

    @staticmethod
    def oracle_entropies(amps):
        """The SVD entropy and, up to dim 64, where the base reduction's
        dense eigvalsh stays cheap, both partial-trace entropies."""
        traced = entropies_by_partial_trace(amps) if len(amps) <= 64 else ()
        return [svd_entropy(amps), *traced]

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", SUBSPACE_DIMS)
    def test_entropy_matches_svd_and_partial_trace(self, dim, trajectory):
        for target in sorted({0, dim // 2, dim - 1}):
            for label, state, dense in package_states(dim, target, trajectory):
                bits = bq.entanglement_entropy(state)
                for oracle_bits in self.oracle_entropies(dense):
                    assert abs(bits - oracle_bits) <= 1e-12, (target, label)

    @pytest.mark.parametrize("dim", SUBSPACE_DIMS)
    def test_random_subspace_entropy(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            state = random_subspace_state(dim, dim // 2, rng)
            bits = bq.entanglement_entropy(state)
            for oracle_bits in self.oracle_entropies(state.amplitudes):
                assert abs(bits - oracle_bits) <= 1e-12


class TestEntanglingKick:
    def test_kick_moves_target_to_emitted_sector(self):
        state = kicked_state()
        expected = np.array([[0.5, 0.0], [0.0, -0.5], [0.5, 0.0], [0.5, 0.0]])
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-15

    def test_double_kick_is_identity(self):
        rng = np.random.default_rng(5)
        state = random_subspace_state(6, 3, rng)
        twice = bq.entangling_oracle(bq.entangling_oracle(state, 3), 3)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("dim,target,seed", [(2, 0, 1), (4, 3, 2), (9, 5, 3)])
    def test_matches_dense_matrix(self, dim, target, seed):
        rng = np.random.default_rng(seed)
        state = random_subspace_state(dim, target, rng)
        expected = dense_entangling_matrix(dim, target) @ state.amplitudes.ravel()
        got = bq.entangling_oracle(state, target).amplitudes.ravel()
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_rejects_out_of_range_target(self):
        with pytest.raises(bq.InvalidTargetError):
            bq.entangling_oracle(bq.relaxed_start(4), 4)

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_relaxed_start_is_marked_anywhere(self, dim):
        for target in range(dim):
            got = bq.entangling_oracle(bq.relaxed_start(dim), target).amplitudes.ravel()
            expected = (dense_entangling_matrix(dim, target)
                        @ bq.relaxed_start(dim).amplitudes.ravel())
            assert np.max(np.abs(got - expected)) <= 1e-15

    def test_two_objects_are_marked_at_either_base(self):
        # at dim 2 the other base is the one shared row
        state = random_subspace_state(2, 0, np.random.default_rng(7))
        expected = dense_entangling_matrix(2, 1) @ state.amplitudes.ravel()
        got = bq.entangling_oracle(state, 1).amplitudes.ravel()
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_rejects_a_state_marked_elsewhere(self):
        # a second marked base would leave the four-dimensional subspace
        with pytest.raises(bq.InvalidTargetError) as refusal:
            bq.entangling_oracle(kicked_state(5, 1), 3)
        assert re.search(r"\b3\b.*\b1\b", str(refusal.value))


class TestEntropy:
    def test_product_state_has_zero_entropy(self):
        assert bq.entanglement_entropy(bq.relaxed_start(7)) == pytest.approx(
            0.0, abs=1e-12)

    def test_maximal_for_balanced_pair(self):
        r = 1.0 / math.sqrt(2)
        state = bq.JointState(2, 1, (0.0, r, r, 0.0))
        assert bq.entanglement_entropy(state) == pytest.approx(1.0)

    def test_post_kick_value(self):
        assert bq.entanglement_entropy(kicked_state()) == pytest.approx(
            POST_KICK_ENTROPY, abs=1e-12)

    def test_kick_entropy_from_spectrum(self):
        # both marginal spectra {3/4, 1/4} pinned independently
        state = kicked_state()
        for rho in (base_density(state), quanta_density(state)):
            top_two = np.sort(np.linalg.eigvalsh(rho))[-2:]
            assert top_two == pytest.approx([0.25, 0.75], abs=1e-12)

    @pytest.mark.parametrize("dim,seed", [(2, 0), (5, 1), (12, 2)])
    def test_matches_partial_trace_oracle(self, dim, seed):
        rng = np.random.default_rng(seed)
        state = random_subspace_state(dim, dim // 2, rng)
        base_bits, quanta_bits = entropies_by_partial_trace(state.amplitudes)
        svd_bits = bq.entanglement_entropy(state)
        assert svd_bits == pytest.approx(base_bits, abs=1e-10)
        assert svd_bits == pytest.approx(quanta_bits, abs=1e-10)

    def test_amplification_cannot_change_entropy(self):
        state = kicked_state(8, 2)
        before = bq.entanglement_entropy(state)
        after = bq.entanglement_entropy(bq.base_amplification(state))
        assert after == pytest.approx(before, abs=1e-12)

    def test_product_state_is_positive_zero(self):
        # the joint swing from dim 4, target 1 passes a product state at
        # t = 0.5, where the summed spectrum term rounds to -0.0
        swung = bq.undamped_state(kicked_state(), 1, 1.0, 0.5, "joint")
        for state in (bq.relaxed_start(4), swung):
            bits = bq.entanglement_entropy(state)
            assert bits == 0.0 and math.copysign(1.0, bits) == 1.0

    def test_series_never_negative(self):
        # product states on these swings rounded to -0.0 or to -6.4e-16
        for dim in [*range(2, 40), 64, 1024]:
            for target in {0, dim // 2, dim - 1}:
                report = bq.run_scenario(default_params(
                    dim=dim, target=target, samples=1))
                signs = [math.copysign(1.0, bits) for bits in
                         (*report.entropy_bits, report.entropy_at_extremum)]
                assert min(signs) == 1.0, (dim, target)


class TestSwingEndpoints:
    def test_joint_endpoint_amplitudes(self):
        endpoint = bq.swing_endpoint(kicked_state(), 1, "joint")
        expected = np.array([[0.25, -0.25], [0.75, 0.25],
                             [0.25, -0.25], [0.25, -0.25]])
        assert np.max(np.abs(endpoint.amplitudes - expected)) <= 1e-15

    def test_conditional_endpoint_is_emitted_target(self):
        endpoint = bq.swing_endpoint(kicked_state(), 1, "conditional")
        expected = np.zeros((4, 2))
        expected[1, 1] = 1.0
        assert np.max(np.abs(endpoint.amplitudes - expected)) <= 1e-12

    def test_conditional_base_tracks_amplified_search(self):
        for dim, target in [(4, 1), (16, 9), (50, 0)]:
            endpoint = bq.swing_endpoint(kicked_state(dim, target), target)
            base = _conditional_base(endpoint, target)
            reference, _ = bq.run_grover(dim, target, 1)
            assert np.max(np.abs(base - reference.amplitudes)) <= 1e-12

    def test_conditional_base_rejects_entangled_input(self):
        with pytest.raises(bq.InvalidParameterError):
            _conditional_base(bq.swing_endpoint(kicked_state(), 1, "joint"), 1)

    @pytest.mark.parametrize("row", [0, 3])
    def test_stray_amplitude_bound_is_inclusive(self, row):
        # a lifted state's off-pattern amplitudes (a0, b2) may reach 1e-12
        # exactly; one ulp above, the lift refuses the state
        kicked = kicked_state()._coefficients
        for stray, accepted in ((1e-12, True), (math.nextafter(1e-12, 1.0), False)):
            coefficients = list(kicked)
            coefficients[row] = stray
            state = bq.JointState(4, 1, tuple(coefficients))
            if accepted:
                assert bq.swing_endpoint(state, 1).dim == 4
                assert _conditional_base(state, 1).shape == (4,)
            else:
                with pytest.raises(bq.InvalidParameterError, match="1e-12"):
                    bq.swing_endpoint(state, 1)

    def test_rejects_unknown_trajectory(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.swing_endpoint(kicked_state(), 1, "diagonal")


class TestArcInterpolation:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_joint_state(6, rng).ravel()
            b = random_joint_state(6, rng).ravel()
            assert np.max(np.abs(arc_interpolate(a, b, 0.0) - a)) <= 1e-15
            assert np.max(np.abs(arc_interpolate(a, b, 1.0) - b)) <= 1e-15

    def test_norm_preserved_along_path(self):
        rng = np.random.default_rng(23)
        a = random_joint_state(8, rng).ravel()
        b = random_joint_state(8, rng).ravel()
        for f in np.linspace(0.0, 1.0, 17):
            point = arc_interpolate(a, b, float(f))
            assert abs(np.linalg.norm(point) - 1.0) <= 1e-12

    def test_angle_grows_linearly(self):
        rng = np.random.default_rng(29)
        a = random_joint_state(5, rng).ravel()
        b = random_joint_state(5, rng).ravel()
        omega = math.acos(float(np.real(np.vdot(a, b))))
        for f in (0.25, 0.5, 0.75):
            point = arc_interpolate(a, b, f)
            travelled = math.acos(
                max(-1.0, min(1.0, float(np.real(np.vdot(a, point))))))
            assert travelled == pytest.approx(f * omega, abs=1e-10)

    def test_antiparallel_pair_uses_phase_path(self):
        a = np.zeros(4, dtype=complex)
        a[1] = 1.0
        halfway = arc_interpolate(a, -a, 0.5)
        assert abs(np.linalg.norm(halfway) - 1.0) <= 1e-12
        assert np.max(np.abs(arc_interpolate(a, -a, 1.0) + a)) <= 1e-12

    def test_two_object_conditional_swing_is_antipodal(self):
        # the only case where the two arc endpoints are a global sign apart
        state0 = kicked_state(2, 0)
        endpoint = bq.swing_endpoint(state0, 0, "conditional")
        assert np.max(np.abs(endpoint.amplitudes + state0.amplitudes)) <= 1e-12
        mid = bq.undamped_state(state0, 0, 1.0, 0.5, "conditional")
        assert abs(np.linalg.norm(mid.amplitudes) - 1.0) <= 1e-12


class TestUndampedSwing:
    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    def test_period_retrace(self, trajectory):
        state0 = kicked_state()
        swing = bq.undamped_state(state0, 1, 3.0, 6.0, trajectory)
        assert np.max(np.abs(swing.amplitudes - state0.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    def test_extremum_reaches_endpoint(self, trajectory):
        state0 = kicked_state()
        swing = bq.undamped_state(state0, 1, 3.0, 3.0, trajectory)
        endpoint = bq.swing_endpoint(state0, 1, trajectory)
        assert np.max(np.abs(swing.amplitudes - endpoint.amplitudes)) <= 1e-12

    def test_half_swing_symmetry(self):
        state0 = kicked_state()
        early = bq.undamped_state(state0, 1, 2.0, 1.0)
        late = bq.undamped_state(state0, 1, 2.0, 3.0)
        assert np.max(np.abs(early.amplitudes - late.amplitudes)) <= 1e-12


# (dim, target, relaxation_time, times): both turning points, points
# between, and a long-time state that has all but relaxed
DAMPED_GRID = [(2, 1, 5.0, [0.0, 0.35, 1.0, 40.0]),
               (3, 0, 5.0, [0.0, 0.5, 1.7, 40.0]),
               (4, 1, 5.0, [0.0, 0.35, 1.0, 1.7, 40.0]),
               (5, 2, 0.5, [0.0, 0.8, 2.0, 40.0]),
               (64, 21, 5.0, [0.0, 1.0, 40.0])]


class TestDensityMatrix:
    """damped_oscillation keeps its two states; the dense oracle, checked
    first, gives the matrix and the eigvalsh diagnostics to compare with."""

    def test_from_pure_diagnostics(self):
        rho = DenseDensity.from_pure(kicked_state())
        herm, trace, low = rho.diagnostics()
        assert herm <= 1e-12
        assert trace <= 1e-12
        assert low >= -1e-10

    def test_rejects_non_square(self):
        with pytest.raises(bq.InvalidDimensionError):
            DenseDensity(np.ones((2, 3)) / 6.0)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(bq.InvalidParameterError):
            DenseDensity(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(bq.InvalidParameterError):
            DenseDensity(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[1.1, 0.0], [0.0, -0.1]])
        with pytest.raises(bq.InvalidParameterError):
            DenseDensity(mat)

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim,target,rate,times", DAMPED_GRID,
                             ids=[str(row[0]) for row in DAMPED_GRID])
    def test_matrix_equals_dense_build(self, dim, target, rate, times,
                                       trajectory):
        state0 = kicked_state(dim, target)
        params = default_params(dim=dim, target=target, relaxation_time=rate)
        for t in times:
            rho = bq.damped_oscillation(state0, params, t, trajectory)
            assert np.array_equal(
                dense_density(rho), dense_damped_matrix(state0, params, t, trajectory))

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 64, 256])
    def test_diagnostics_match_dense_spectrum(self, dim, trajectory):
        target = dim // 3
        state0 = kicked_state(dim, target)
        params = default_params(dim=dim, target=target, relaxation_time=5.0)
        for t in (0.35, 1.0, 40.0):
            rho = bq.damped_oscillation(state0, params, t, trajectory)
            dense = DenseDensity(dense_density(rho)).diagnostics()
            assert rho.diagnostics() == pytest.approx(dense, abs=1e-12)

    def test_large_dim_stays_two_vectors(self):
        # one dense matrix at dim 2**16 would be 256 GiB; the diagnostics
        # read two states of four numbers each, so every dim up to 2**53
        # costs the same and the Gram matrix is exactly hermitian
        for dim in (2 ** 16, 10 ** 12, 2 ** 53):
            state0 = kicked_state(dim, 7)
            params = default_params(dim=dim, target=7, relaxation_time=5.0)
            osc = params.oscillation_time
            for trajectory in ("conditional", "joint"):
                for t in (0.0, 0.35, 0.5 * osc, osc, 40.0 * osc):
                    tracemalloc.start()
                    try:
                        rho = bq.damped_oscillation(state0, params, t, trajectory)
                        herm, trace, low = rho.diagnostics()
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    case = (dim, trajectory, t)
                    assert peak < 64 * 2 ** 10, case
                    assert herm == 0.0 and trace <= 1e-14, case
                    assert EIGENVALUE_FLOOR <= low <= 0.0, case

    @pytest.mark.parametrize("weight", [2.0, -0.5, math.nan, "x", None])
    def test_refuses_a_weight_outside_the_unit_interval(self, weight):
        with pytest.raises(bq.InvalidParameterError, match="weight"):
            bq.DensityMatrix(weight, kicked_state(), bq.relaxed_start(4))

    def test_refuses_states_of_different_dims(self):
        with pytest.raises(bq.DimensionMismatchError, match="dim"):
            bq.DensityMatrix(0.5, kicked_state(4, 1), bq.relaxed_start(8))

    def test_refuses_a_relaxed_state_marked_elsewhere(self):
        # both rows of each differ, so their Gram matrix would pair rows of
        # different bases
        with pytest.raises(bq.InvalidTargetError, match="target"):
            bq.DensityMatrix(0.5, kicked_state(4, 1), kicked_state(4, 0))

    @given(dim=st.integers(2, 2 ** 53), data=st.data(),
           seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
           deviations=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_checked_inputs_imply_trace_and_spectrum(self, dim, data, seeds,
                                                     deviations, weight):
        # DensityMatrix makes no trace or eigenvalue check: any two accepted
        # states marked at one target, their squared norms anywhere within
        # NORM_ATOL of 1, and a weight in [0, 1] meet both
        target = data.draw(st.integers(0, dim - 1), label="target")

        def scaled(seed, deviation):
            state = random_subspace_state(dim, target, np.random.default_rng(seed))
            scale = math.sqrt(1.0 + deviation * NORM_ATOL)
            try:
                return bq.JointState(dim, target, tuple(
                    x * scale for x in state._coefficients))
            except bq.InvalidParameterError:  # past the edge by roundoff
                assume(False)

        pure, relaxed = map(scaled, seeds, deviations)
        herm, trace, low = bq.DensityMatrix(weight, pure, relaxed).diagnostics()
        assert herm == 0.0
        assert trace <= NORM_ATOL + 1e-15
        assert low >= EIGENVALUE_FLOOR


class TestDampedSwing:
    @staticmethod
    def weight(t, relaxation_time):
        """The pure swing's weight in the damped state at time t."""
        return bq.damped_oscillation(
            kicked_state(), default_params(relaxation_time=relaxation_time), t)._weight

    def test_weight_boundaries(self):
        assert self.weight(0.0, 5.0) == 1.0
        assert self.weight(1.0, 1000.0) == pytest.approx(
            0.9980019986673331, abs=1e-15)
        assert self.weight(1.0, math.inf) == 1.0

    def test_weight_rejects_bad_inputs(self):
        with pytest.raises(bq.InvalidParameterError, match="time"):
            self.weight(-1.0, 5.0)
        with pytest.raises(bq.InvalidParameterError, match="relaxation_time"):
            self.weight(1.0, 0.0)

    def test_zero_time_is_pure_start(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 0.0)
        pure = DenseDensity.from_pure(state0)
        assert np.max(np.abs(dense_density(rho) - pure.matrix)) <= 1e-12

    def test_long_time_limit_is_relaxed_state(self):
        # warnings about the sloppy hierarchy fire in run_scenario only;
        # the raw propagator stays silent
        params = default_params(relaxation_time=0.5)
        rho = bq.damped_oscillation(kicked_state(), params, 40.0)
        eq = DenseDensity.from_pure(bq.relaxed_start(4))
        assert np.max(np.abs(dense_density(rho) - eq.matrix)) <= 1e-10

    def test_undamped_limit_keeps_conditional_fidelity(self):
        params = default_params(relaxation_time=math.inf)
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, params, 1.0)
        endpoint = bq.swing_endpoint(state0, 1, "conditional").amplitudes.ravel()
        fidelity = float(np.real(endpoint.conj() @ dense_density(rho) @ endpoint))
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_joint_endpoint_fidelity_is_partial(self):
        params = default_params(relaxation_time=math.inf)
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, params, 1.0, "joint")
        emitted = np.zeros(8, dtype=complex)
        emitted[2 * 1 + 1] = 1.0
        fidelity = float(np.real(emitted.conj() @ dense_density(rho) @ emitted))
        assert fidelity == pytest.approx(0.0625, abs=1e-12)

    def test_return_fidelity_decays_monotonically(self):
        params = default_params(relaxation_time=30.0)
        state0 = kicked_state()
        flat0 = state0.amplitudes.ravel()
        fidelities = []
        for k in range(5):
            rho = bq.damped_oscillation(state0, params, 2.0 * k)
            fidelities.append(float(np.real(flat0.conj() @ dense_density(rho) @ flat0)))
        assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(fidelities, fidelities[1:]))

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 64, 1024, 10 ** 12, 2 ** 53])
    def test_accepted_states_pass_the_trace_check(self, dim, trajectory):
        # kicked states whose squared norm is 0.99*NORM_ATOL from 1, which
        # the constructor accepts: their damped states pass TRACE_ATOL
        for target in sorted({0, dim // 2, dim - 1}):
            params = default_params(dim=dim, target=target)
            osc = params.oscillation_time
            for deviation in (0.99 * NORM_ATOL, -0.99 * NORM_ATOL):
                scale = math.sqrt(1.0 + deviation)
                state0 = bq.JointState(dim, target, tuple(
                    x * scale for x in kicked_state(dim, target)._coefficients))
                for t in (0.0, 0.35, osc / 2.0, osc, 2.0 * osc, 40.0 * osc):
                    rho = bq.damped_oscillation(state0, params, t, trajectory)
                    trace = rho.diagnostics()[1]
                    case = (target, deviation, t)
                    assert trace <= TRACE_ATOL, case
                    if t == 0.0:  # the pure start: the scaled norm shows
                        assert trace >= 0.9 * NORM_ATOL, case

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 64, 1024, 2 ** 20, 10 ** 12,
                                     2 ** 53])
    def test_states_at_the_norm_edge_keep_their_swing(self, dim, trajectory):
        # kicked states whose squared norm is within 1e-16 of the NORM_ATOL
        # edge: roundoff alone carries their swing states past it, so a
        # second norm check would refuse coefficients the caller never passed
        for target in sorted({0, dim // 2, dim - 1}):
            params = default_params(dim=dim, target=target)
            kicked = kicked_state(dim, target)._coefficients
            for deviation in (0.9999e-12, -0.9999e-12, 0.99999e-12, -0.99999e-12):
                scale = math.sqrt(1.0 + deviation)
                try:
                    state0 = bq.JointState(dim, target,
                                           tuple(x * scale for x in kicked))
                except bq.InvalidParameterError as refusal:
                    assert "coefficients" in str(refusal)
                    continue
                for t in (0.0, 0.35, 0.5, 1.0, 1.7):
                    case = (target, deviation, t)
                    state = bq.undamped_state(state0, target, 1.0, t, trajectory)
                    assert 0.0 <= bq.entanglement_entropy(state) <= 1.0, case
                    rho = bq.damped_oscillation(state0, params, t, trajectory)
                    assert rho.diagnostics()[1] <= NORM_ATOL + 1e-15, case
                    assert 0.0 <= emitted_weight(rho) <= 1.0, case

    def test_dimension_mismatch(self):
        with pytest.raises(bq.DimensionMismatchError):
            bq.damped_oscillation(kicked_state(5, 1), default_params(), 0.5)

    @pytest.mark.parametrize("target", range(4))
    def test_success_probability_stays_at_most_one(self, target):
        # (oscillation_time, t, p) at dim 4, undamped; near the far turning
        # point the arc's rounding gave 1.0000000000000004 at (0.5, 0.49999999)
        # and (0.5, 0.500000003), which a clamp cut to 1; the search law a
        # run takes is a squared sine, at most 1 unclamped
        pairs = [(1.0, 0.25, 0.04630477348118096), (1.0, 1.0, 1.0),
                 (0.5, 0.49999999, 1.0), (0.5, 0.500000003, 1.0), (2.0, 2.0, 1.0),
                 (3.0, 2.9999999999999996, 1.0), (7.0, 7.000000001, 1.0),
                 (0.1, 0.15, 0.25)]
        for osc, t, expected in pairs:
            params = default_params(target=target, oscillation_time=osc,
                                    relaxation_time=math.inf, emission="fixed",
                                    emission_time=t)
            p = bq.run_scenario(params, entropy_points=2).mean_success
            assert p <= 1.0
            assert p == pytest.approx(expected, rel=1e-14)


class TestEmissionMeasurement:
    """The dense projective check, an oracle for the emission success."""

    def test_certain_success(self):
        endpoint = bq.swing_endpoint(kicked_state(), 1, "conditional")
        result = emission_measurement(DenseDensity.from_pure(endpoint), 1)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.post_failure is None
        assert result.post_success is not None
        assert result.post_success.matrix[3, 3] == pytest.approx(1.0)

    def test_certain_failure(self):
        rho = DenseDensity.from_pure(bq.relaxed_start(4))
        result = emission_measurement(rho, 1)
        assert result.success_probability == 0.0
        assert result.post_success is None
        assert np.max(np.abs(result.post_failure.matrix - rho.matrix)) <= 1e-12

    def test_damped_extremum_probability(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 1.0)
        result = emission_measurement(rho, 1)
        assert result.success_probability == pytest.approx(
            0.9980019986673331, abs=1e-12)

    def test_branches_are_idempotent(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 0.35)
        result = emission_measurement(rho, 1)
        again = emission_measurement(result.post_success, 1)
        assert again.success_probability == pytest.approx(1.0, abs=1e-12)
        assert again.post_failure is None
        rerun = emission_measurement(result.post_failure, 1)
        assert rerun.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_probability_matches_closed_form(self):
        state0 = kicked_state()
        params = default_params()
        for t in (0.0, 0.35, 1.0, 1.7):
            rho = bq.damped_oscillation(state0, params, t)
            measured = emission_measurement(rho, 1).success_probability
            assert measured == pytest.approx(
                emission_success(4, t, 1.0, params.relaxation_time), abs=1e-12)

    def test_rejects_odd_side(self):
        with pytest.raises(bq.InvalidDimensionError):
            emission_measurement(DenseDensity(np.eye(3) / 3.0), 0)

    def test_rejects_bad_target(self):
        rho = DenseDensity.from_pure(bq.relaxed_start(4))
        with pytest.raises(bq.InvalidTargetError):
            emission_measurement(rho, 4)


class TestEmissionTimes:
    """Each policy's emission time, read off run_scenario's mean_success:
    the chance of one check at that time, or its mean over a full period
    under uniform emission."""

    def test_extremum_policy(self):
        params = default_params(oscillation_time=2.5, samples=8)
        report = bq.run_scenario(params, entropy_points=2)
        # the search law after one query, damped over the swing
        assert report.mean_success == (math.exp(-2.0 * 2.5 / params.relaxation_time)
                                       * bq.closed_form_success(4, 1))
        assert report.mean_success == report.extremum_success_damped

    def test_uniform_policy_covers_full_period(self):
        # strong damping sets the mean of p(t) over [0, end] apart for half
        # a period (end 1), the full period (2) and two periods (4): 0.127,
        # 0.083 and 0.042 by midpoint quadrature
        params = default_params(relaxation_time=1.0, emission="uniform",
                                samples=4000, seed=1)
        with pytest.warns(bq.HierarchyWarning):
            report = bq.run_scenario(params, entropy_points=2)
        def mean_until(end):
            times = (np.arange(4000) + 0.5) * (end / 4000)
            return np.mean([emission_success(4, float(t), 1.0, 1.0) for t in times])

        assert mean_until(1.0) - mean_until(2.0) > 0.04
        assert mean_until(2.0) - mean_until(4.0) > 0.04
        assert report.mean_success == pytest.approx(mean_until(2.0), abs=0.005)

    def test_fixed_policy(self):
        params = default_params(emission="fixed", emission_time=0.7, samples=8)
        report = bq.run_scenario(params, entropy_points=2)
        assert report.mean_success == pytest.approx(
            decimal_emission_success(4, 0.7, 1.0, params.relaxation_time),
            rel=2e-15, abs=0.0)
        with pytest.raises(bq.InvalidParameterError, match="emission_time"):
            default_params(emission="fixed")

    def test_turning_points_dominate_dwell_time(self):
        # uniform times pile up where the swing moves slowest: both ends
        rng = np.random.default_rng(3)
        times = rng.random(100_000) * 2.0
        fractions = (1.0 - np.cos(np.pi * times)) / 2.0
        counts, _ = np.histogram(fractions, bins=20, range=(0.0, 1.0))
        interior = counts[1:-1]
        assert counts[0] > interior.max()
        assert counts[-1] > interior.max()


class TestHierarchy:
    def test_clean_separation_passes(self):
        assert _hierarchy_warnings(default_params()) == ()

    def test_both_ratios_flagged(self):
        params = default_params(bond_duration=0.5, relaxation_time=2.0)
        notes = _hierarchy_warnings(params)
        assert len(notes) == 2

    def test_ratios_at_the_bound_pass(self):
        # each ratio exactly MIN_TIMESCALE_RATIO passes; one ulp below it,
        # that ratio alone is noted
        times = dict(bond_duration=0.125, oscillation_time=1.25, relaxation_time=12.5)
        assert 1.25 / 0.125 == 12.5 / 1.25 == MIN_TIMESCALE_RATIO
        assert _hierarchy_warnings(default_params(**times)) == ()
        below = math.nextafter(MIN_TIMESCALE_RATIO, 0.0)
        kick = default_params(**{**times, "oscillation_time": math.nextafter(1.25, 0.0)})
        damping = default_params(**{**times, "relaxation_time": math.nextafter(12.5, 0.0)})
        assert kick.oscillation_time / kick.bond_duration == below
        assert damping.relaxation_time / damping.oscillation_time == below
        [note] = _hierarchy_warnings(kick)
        assert note.startswith("oscillation_time/bond_duration")
        [note] = _hierarchy_warnings(damping)
        assert note.startswith("relaxation_time/oscillation_time")

    def test_run_scenario_warns(self):
        params = default_params(relaxation_time=3.0, samples=10)
        with pytest.warns(bq.HierarchyWarning):
            bq.run_scenario(params, entropy_points=5)


class TestScenarioParams:
    def test_fixed_time_requires_emission_time(self):
        with pytest.raises(bq.InvalidParameterError):
            default_params(emission="fixed")

    def test_accepts_policy_string(self):
        params = default_params(emission="uniform")
        assert params.emission is bq.EmissionPolicy.UNIFORM_RANDOM

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            default_params(emission="whenever")

    @pytest.mark.parametrize("kwargs", [
        {"dim": 1}, {"target": 4}, {"target": -1}, {"bond_duration": 0.0},
        {"oscillation_time": -1.0}, {"relaxation_time": 0.0}, {"samples": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(bq.SimulationError):
            default_params(**kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        ({"target": True}, "target"),
        ({"samples": True}, "samples"),
        ({"bond_duration": math.inf}, "bond_duration"),
        ({"oscillation_time": math.inf}, "oscillation_time"),
        ({"emission": "fixed", "emission_time": math.inf}, "emission_time"),
    ])
    def test_rejects_bool_counts_and_infinite_times(self, kwargs, name):
        with pytest.raises(bq.SimulationError, match=name):
            default_params(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(bq.InvalidParameterError, match="seed"):
            default_params(seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(3), 2**70])
    def test_accepts_seed_domain(self, seed):
        assert default_params(seed=seed).seed == seed

    def test_infinite_relaxation_allowed(self):
        assert default_params(relaxation_time=math.inf).relaxation_time == math.inf

    def test_accepts_numpy_integers(self):
        params = default_params(dim=np.int64(4), target=np.int32(1),
                                samples=np.int64(20))
        assert (params.dim, params.target, params.samples) == (4, 1, 20)
        assert bq.run_scenario(params).params.samples == 20


class TestRunScenario:
    def test_extremum_report_values(self):
        report = bq.run_scenario(default_params(samples=200), entropy_points=21)
        assert report.extremum_success_undamped == pytest.approx(1.0, abs=1e-12)
        assert report.extremum_success_damped == pytest.approx(
            0.9980019986673331, abs=1e-12)
        assert report.mean_success == pytest.approx(0.9980019986673331,
                                                    abs=1e-12)
        assert report.mean_attempts < 1.1
        assert report.warnings == ()

    def test_deterministic_for_fixed_seed(self):
        first = bq.run_scenario(default_params(emission="uniform", samples=300))
        second = bq.run_scenario(default_params(emission="uniform", samples=300))
        assert first.mean_success == second.mean_success
        assert first.mean_attempts == second.mean_attempts
        assert np.array_equal(first.entropy_bits, second.entropy_bits)

    def test_uniform_mean_matches_quadrature(self):
        # time-average of the undamped success chance over one full period,
        # frozen from an independent numerical integration
        params = default_params(emission="uniform", samples=4000,
                                relaxation_time=math.inf, seed=9)
        report = bq.run_scenario(params, entropy_points=5)
        assert report.mean_success == pytest.approx(0.45755154454474817,
                                                    abs=0.03)

    def test_uniform_sits_below_extremum(self):
        uniform = bq.run_scenario(default_params(emission="uniform",
                                                 samples=800, seed=2))
        extremum = bq.run_scenario(default_params(samples=800, seed=2))
        assert uniform.mean_success < extremum.mean_success

    def test_entropy_series_shape_and_values(self):
        report = bq.run_scenario(default_params(samples=20), entropy_points=41)
        assert len(report.entropy_times) == len(report.entropy_bits) == 41
        assert report.entropy_times[0] == 0.0
        assert report.entropy_times[-1] == pytest.approx(2.0)
        assert report.entropy_bits[0] == pytest.approx(POST_KICK_ENTROPY,
                                                       abs=1e-12)
        assert report.entropy_bits[-1] == pytest.approx(POST_KICK_ENTROPY,
                                                        abs=1e-9)
        assert min(report.entropy_bits) >= -1e-12
        assert max(report.entropy_bits) <= 1.0 + 1e-12
        assert report.entropy_at_extremum == pytest.approx(POST_KICK_ENTROPY,
                                                           abs=1e-12)

    def test_fixed_time_at_success_node_exhausts_attempts(self):
        # at one third of the swing the target's emitted amplitude crosses
        # zero, so emission checks can never succeed: the attempt counts
        # would pass MAX_COUNT, and the run refuses before drawing them
        params = default_params(emission="fixed", emission_time=1.0 / 3.0,
                                samples=1, relaxation_time=math.inf)
        assert decimal_emission_success(4, 1.0 / 3.0, 1.0, math.inf) <= 1e-30
        with pytest.raises(bq.InvalidParameterError, match="emission_time"):
            bq.run_scenario(params, entropy_points=2)

    @pytest.mark.parametrize("overrides,name", [
        ({"relaxation_time": 0.01}, "oscillation_time"),
        ({"emission": "uniform", "relaxation_time": 1e-20}, "oscillation_time"),
        ({"emission": "fixed", "emission_time": 1.0 / 3.0,
          "relaxation_time": math.inf}, "emission_time"),
    ], ids=["extremum", "uniform", "fixed"])
    def test_exhausted_attempts_name_the_policy_time(self, overrides, name):
        # heavy damping (exp(-200) at the far turning point; over a period,
        # about 1e-20/16) or the swing's node leave a retried check a
        # success probability far below 1e-16, tiny but not 0.0: refused
        # like 0.0, as the attempt counts would pass MAX_COUNT
        params = default_params(samples=1, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bq.HierarchyWarning)
            with pytest.raises(bq.InvalidParameterError) as exhausted:
                bq.run_scenario(params, entropy_points=2)
        for word in (name, "relaxation_time"):
            assert re.search(rf"\b{word}\b", str(exhausted.value))

    @pytest.mark.parametrize("overrides,name", [
        ({"relaxation_time": 5e-324}, "oscillation_time"),
        ({"emission": "fixed", "emission_time": 1e300, "oscillation_time": 1e300},
         "emission_time"),
        ({"emission": "uniform", "relaxation_time": 5e-324}, "oscillation_time"),
        ({"emission": "uniform", "oscillation_time": 1e300,
          "relaxation_time": 5e-324}, "oscillation_time"),
    ], ids=["extremum", "fixed", "uniform", "uniform_damping_overflows"])
    def test_zero_success_probability_is_refused_before_drawing(
            self, monkeypatch, overrides, name):
        # the damping underflows to 0.0 at every time but 0, or at the fixed
        # time: no retried check can succeed. In the last row the damping
        # rate over a period, 4*oscillation_time/relaxation_time, overflows
        from basequest import replication

        def draws(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(replication, "seed_blocks", draws)
        params = default_params(samples=1, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bq.HierarchyWarning)
            with pytest.raises(bq.InvalidParameterError) as refusal:
                bq.run_scenario(params, entropy_points=2)
        for word in (name, "relaxation_time"):
            assert re.search(rf"\b{word}\b", str(refusal.value))

    @pytest.mark.parametrize("overrides,name", [
        ({"oscillation_time": 5e307}, "oscillation_time"),
        ({"oscillation_time": 1e308}, "oscillation_time"),
        ({"oscillation_time": 1.7e308}, "oscillation_time"),
        ({"emission": "fixed", "emission_time": 1e308}, "emission_time"),
        ({"emission": "fixed", "emission_time": 1e300, "oscillation_time": 1e-10},
         "emission_time"),
    ], ids=["period_5e307", "period_1e308", "period_1.7e308", "fixed_1e308",
            "fixed_ratio"])
    def test_overflowing_swing_phase_shows_the_value_passed(self, overrides, name):
        # pi*time/oscillation_time overflows within the period or at the
        # fixed time; the refusal shows the caller's value, not a time
        # derived from it such as the period 2*oscillation_time
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bq.HierarchyWarning)
            with pytest.raises(bq.InvalidParameterError) as refusal:
                params = default_params(samples=1, **overrides)
                bq.run_scenario(params, entropy_points=2)
        assert f"{name} = {overrides[name]!r} " in str(refusal.value)

    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    def test_times_are_checked_once_in_params(self, monkeypatch, policy):
        # ScenarioParams checks every swing time the run evaluates, so the
        # run checks none again
        from basequest import replication

        params = default_params(emission=policy, emission_time=0.7, samples=5)

        def checked(*args, **kwargs):
            raise AssertionError("run_scenario re-checked a swing time")

        monkeypatch.setattr(replication, "_check_swing_time", checked)
        assert bq.run_scenario(params) == bq.run_scenario(params)

    def test_streams_are_made_on_demand(self):
        # samples draw in seed blocks, O(1) each whatever the dim: spawning
        # a stream per sample up front held about 1.9 MiB, and the per-attempt
        # loop ran into its cap at dim 10**12 (about 3e11 attempts a sample)
        for dim in (4, 10 ** 12):
            bq.run_scenario(default_params(dim=dim, emission="uniform", samples=1))
            tracemalloc.start()  # after the first call's imports and caches
            try:
                report = bq.run_scenario(default_params(
                    dim=dim, emission="uniform", samples=5000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
            assert report.mean_attempts > 1.0

    def test_rejects_thin_entropy_grid(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_scenario(default_params(samples=1), entropy_points=1)

    @pytest.mark.parametrize("kwargs,name", [
        ({"entropy_points": 2.5}, "entropy_points"),
        ({"entropy_points": True}, "entropy_points"),
    ])
    def test_rejects_bad_keyword_counts(self, kwargs, name):
        with pytest.raises(bq.InvalidParameterError, match=name):
            bq.run_scenario(default_params(samples=1), **kwargs)


class TestAnyDim:
    """Every scenario routine computes on four numbers, so none allocates
    anything dim-sized, even at a dim whose array would be 32 TB."""

    DIM = 10 ** 12

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    def test_state_routines_stay_small(self, trajectory):
        target = self.DIM // 3
        params = default_params(dim=self.DIM, target=target, relaxation_time=5.0)

        def run():
            state0 = kicked_state(self.DIM, target)
            state = bq.undamped_state(state0, target, 1.0, 0.7, trajectory)
            bq.entanglement_entropy(state)
            bq.damped_oscillation(state0, params, 0.7, trajectory).diagnostics()

        run()  # first-call caches
        assert self.traced_peak(run) < 2 ** 20

    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    @pytest.mark.parametrize("dim", [DIM, 2 ** 53])
    def test_attempts_follow_their_law(self, dim, policy):
        # a retried check succeeds with p_bar, about 9/dim at the far
        # turning point and 3/dim over a period, so the mean count is
        # 1/p_bar (after a first check whose mean chance is p_bar as well),
        # with a standard deviation of about 1/p_bar
        params = default_params(dim=dim, target=7, emission=policy,
                                emission_time=0.85, relaxation_time=math.inf,
                                samples=4000)
        t = {"extremum": 1.0, "fixed": 0.85}.get(policy)
        p_bar = (bessel_period_mean(dim) if t is None
                 else emission_success(dim, t, 1.0, math.inf))
        report = bq.run_scenario(params, entropy_points=2)
        assert abs(report.mean_attempts * p_bar - 1.0) <= 5.0 / math.sqrt(4000)
        assert report.max_attempts_observed * p_bar > 1.0

    def test_run_scenario_reaches_the_attempt_cap(self):
        # the success probability at the far turning point is about 9/dim,
        # so a sample's attempt count, about dim/9, runs far past a loop's
        # reach yet stays under the cap MAX_COUNT; damped by exp(-200) its
        # counts would pass the cap, and the run refuses before drawing
        from basequest._checks import MAX_COUNT

        params = default_params(dim=self.DIM, target=7, samples=1)
        damped = default_params(dim=self.DIM, target=7, samples=1,
                                relaxation_time=0.01)
        reports = []

        def run():
            reports.append(bq.run_scenario(params, entropy_points=2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", bq.HierarchyWarning)
                with pytest.raises(bq.InvalidParameterError,
                                   match="oscillation_time"):
                    bq.run_scenario(damped, entropy_points=2)

        run()
        assert self.traced_peak(run) < 2 ** 20
        for report in reports:
            assert 50 < report.max_attempts_observed <= MAX_COUNT

    @pytest.mark.parametrize("dim", [DIM, 10 ** 15, 2 ** 53])
    def test_values_at_large_dim(self, dim):
        # the swing moves the kicked target amplitude -1/sqrt(dim) to
        # (3 - 4/dim)/sqrt(dim), the one-query search amplitude, so the far
        # turning point emits with about 9/dim. The kicked state's entropy
        # tends to 0 as the target's weight 1/dim does
        state0 = kicked_state(dim, 7)
        params = default_params(dim=dim, target=7, relaxation_time=math.inf)
        success = bq.run_scenario(params, entropy_points=2).extremum_success_undamped
        assert success * dim == pytest.approx(9.0, rel=1e-9)
        bits = bq.entanglement_entropy(state0)
        assert 0.0 < bits < 1e-9


def agree(run, oracle):
    """The means of two samples of one law differ by at most 5 standard
    errors of the difference, taken on the spread of both samples together
    (a bin that the few loop samples leave empty still has its share in the
    other); 1e-12 relative allows the rounding of equal values' means."""
    run, oracle = np.asarray(run, dtype=float), np.asarray(oracle, dtype=float)
    spread = np.concatenate([run, oracle]).std(ddof=1)
    error = spread * math.sqrt(1.0 / run.size + 1.0 / oracle.size)
    return abs(run.mean() - oracle.mean()) <= 5.0 * error + 1e-12 * abs(oracle.mean())


class TestScalarSampler:
    """A sample's attempt count comes from its law; the full-vector route, a
    loop of Bernoulli checks on whole swing states, must give the same
    attempt law, and the same p(t) bits as the damped swing states."""

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    @pytest.mark.parametrize("dim", [4, 5, 64, 1024])
    def test_run_matches_vector_route(self, dim, policy, seed):
        # each single-sample run's report holds one draw of the attempt
        # law, and every report the same exact chance p_bar, which the
        # loop's first checks sample; the loop's samples are capped by its
        # cost, about 35 us an attempt at dim 1024
        loops = {4: 1000, 5: 1000, 64: 150, 1024: 20}[dim]
        params = default_params(
            dim=dim, target=dim // 3, emission=policy,
            emission_time=0.85 if policy == "fixed" else None,
            relaxation_time=200.0, samples=loops, seed=seed)
        first, counts = vector_scenario_draws(params)
        reports = [bq.run_scenario(dataclasses.replace(
            params, samples=1, seed=1000 * seed + k), entropy_points=2)
            for k in range(300)]
        p_bar, first = reports[0].mean_success, np.asarray(first)
        # 5 standard errors of first, and 1e-12 relative for the rounding of
        # a mean of equal values
        assert abs(first.mean() - p_bar) <= (
            5.0 * first.std(ddof=1) / math.sqrt(first.size) + 1e-12 * p_bar)
        runs = [r.max_attempts_observed for r in reports]
        assert agree(runs, counts)
        # the attempt histogram, binned 2**j <= count < 2**(j + 1)
        for j in range(max(runs + counts).bit_length()):
            assert agree([n.bit_length() == j + 1 for n in runs],
                         [n.bit_length() == j + 1 for n in counts]), j

    @pytest.mark.parametrize("trajectory", ["conditional", "joint"])
    @pytest.mark.parametrize("dim", [2, 4, 5, 64, 1024])
    def test_probability_matches_vector_route(self, dim, trajectory):
        # dim 2 swings between antipodal states: the pure-phase branch
        params = default_params(dim=dim, target=dim - 1, oscillation_time=1.3,
                                relaxation_time=40.0)
        state0 = kicked_state(dim, dim - 1)
        # both turning points (0 and 1.3), the end of the period and beyond
        times = [0.0, 1.3, 2.6, 3.9, *np.linspace(0.0, 2.6, 27)[1:-1]]
        for t in map(float, times):
            rho = bq.damped_oscillation(state0, params, t, trajectory)
            assert emitted_weight(rho) == \
                vector_emission_probability(state0, params, t, trajectory)


class TestRetryChance:
    """p_bar, the success chance of a retried check under uniform emission,
    is the one-period mean of p(t), by a Bessel-Laplace series in the damping
    kappa = 2*oscillation_time/(pi*relaxation_time)."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 64, 1024, 2**20, 10**12, 2**53])
    def test_undamped_mean_matches_bessel_form(self, dim):
        for target in {0, dim // 3, dim - 1}:
            params = default_params(dim=dim, target=target, emission="uniform",
                                    oscillation_time=1.3, relaxation_time=math.inf,
                                    samples=1)
            assert bq.run_scenario(params, entropy_points=2).mean_success == \
                pytest.approx(bessel_period_mean(dim), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 10.0, 1e3])
    @pytest.mark.parametrize("dim", [3, 4, 1024, 10**12, 2**53])
    def test_damped_mean_matches_adaptive_quadrature(self, dim, ratio):
        # relaxation_time/oscillation_time from far below to far above 1:
        # at 1e-6 the damping leaves all but the first 1e-5 of the period;
        # the run refuses the smallest of these chances, so the series is
        # read directly
        params = default_params(dim=dim, target=dim // 3, oscillation_time=1.3,
                                relaxation_time=1.3 * ratio)
        assert _uniform_mean(dim, 1.3, 1.3 * ratio) == pytest.approx(
            quad_period_mean(params), rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("ignore::basequest.HierarchyWarning")
    @pytest.mark.parametrize("osc,rate", [(1e-300, 1e300), (1e-300, 1e10)],
                             ids=["underflow", "subnormal"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 1024, 10**12, 2**53])
    def test_vanishing_damping_gives_the_undamped_mean(self, dim, osc, rate):
        # kappa underflows to 0 (2e-600), as at relaxation_time inf above,
        # or is the subnormal 1.3e-310, where m/kappa overflows: either way
        # E_0 is 1 and every later E_m is 0
        params = default_params(dim=dim, target=dim - 1, emission="uniform",
                                bond_duration=osc / 100.0, oscillation_time=osc,
                                relaxation_time=rate, samples=3)
        report = bq.run_scenario(params, entropy_points=2)
        assert report.mean_success == pytest.approx(bessel_period_mean(dim),
                                                    rel=1e-13, abs=0.0)
        assert report.mean_attempts >= 1.0

    @pytest.mark.parametrize("osc,rate", [(1.3, 1.3e-12), (1.0, 1e-200)],
                             ids=["large", "huge"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 1024, 10**12, 2**53])
    def test_overwhelming_damping_keeps_the_start(self, dim, osc, rate):
        # kappa about 6.4e11 or 6.4e199: the damping leaves only the start,
        # where p is 1/dim, so p_bar is (1/dim)*rate/(4*osc) up to 1/kappa**2
        expected = rate / (4.0 * osc) / dim
        assert _uniform_mean(dim, osc, rate) == pytest.approx(expected, rel=1e-13,
                                                              abs=0.0)


class TestSearchLaw:
    """p(t), the chance of one check at time t, is the one-query search law
    stopped part-way, at every dim: within 2e-15 of a 40-digit reference at
    each policy's time, wherever p is above 1e-6 of the swing's peak (nearer
    a node, the rounding of the float cosine, which the reference shares,
    outweighs the rest)."""

    TIMES = [0.0, 0.05, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0, 1.3, 1.7, 1.95, 2.0]

    @pytest.mark.parametrize("rate", [math.inf, 40.0])
    @pytest.mark.parametrize("dim", [3, 4, 5, 64, 1024, 10**6, 10**12, 2**53])
    def test_chances_match_decimal_reference(self, dim, rate):
        from basequest._checks import MAX_COUNT

        params = default_params(dim=dim, target=dim // 3, relaxation_time=rate,
                                samples=1)
        report = bq.run_scenario(params, entropy_points=2)
        peak = decimal_emission_success(dim, 1.0, 1.0, math.inf)
        assert report.extremum_success_undamped == pytest.approx(peak, rel=2e-15,
                                                                  abs=0.0)
        for got in (report.extremum_success_damped, report.mean_success):
            assert got == pytest.approx(decimal_emission_success(dim, 1.0, 1.0, rate),
                                        rel=2e-15, abs=0.0)
        for t in self.TIMES:
            expected = decimal_emission_success(dim, t, 1.0, rate)
            # the run refuses a chance below 1/MAX_COUNT before drawing
            if expected <= 1e-6 * peak or expected * MAX_COUNT < 2.0:
                continue
            fixed = dataclasses.replace(params, emission="fixed", emission_time=t)
            got = bq.run_scenario(fixed, entropy_points=2).mean_success
            assert got == pytest.approx(expected, rel=2e-15, abs=0.0), t

    def test_two_objects_follow_the_search_rotation(self):
        # at dim 2 the conditional arc's ends are antipodal, where the slerp
        # keeps p at 1/2 throughout; the search law, the limit of every dim
        # above 2, turns through 0 at f = 1/4 and 1 at f = 3/4 (a third and
        # two thirds of oscillation_time), and damping weighs the two apart
        undamped = default_params(dim=2, target=1, relaxation_time=math.inf,
                                  emission="fixed", emission_time=1.0 / 3.0,
                                  samples=1)
        with pytest.raises(bq.InvalidParameterError, match="emission_time"):
            bq.run_scenario(undamped, entropy_points=2)
        peak = dataclasses.replace(undamped, emission_time=2.0 / 3.0)
        assert bq.run_scenario(peak, entropy_points=2).mean_success == \
            pytest.approx(1.0, rel=1e-15)
        uniform = dataclasses.replace(undamped, emission="uniform",
                                      relaxation_time=10.0)
        report = bq.run_scenario(uniform, entropy_points=2)
        assert report.mean_success == pytest.approx(quad_period_mean(uniform),
                                                    rel=1e-12, abs=0.0)
        assert round(report.mean_success, 5) == 0.41127


class TestDrawnLaw:
    """Every emission check of a run, the first as well as the retries,
    succeeds with the policy's chance p_bar, so run_scenario reports p_bar
    as mean_success, bit for bit, and draws each sample's attempt count as
    one Geometric(p_bar) draw from its seed block."""

    @staticmethod
    def chance(params):
        """p_bar of params, from the package's closed forms."""
        osc, rate = params.oscillation_time, params.relaxation_time
        if params.emission is bq.EmissionPolicy.UNIFORM_RANDOM:
            return _uniform_mean(params.dim, osc, rate)
        t = (params.emission_time if params.emission is bq.EmissionPolicy.FIXED_TIME
             else osc)
        return _success_at(params.dim, t, osc, rate)

    @pytest.mark.parametrize("samples", [10 ** 3, 10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("dim", [3, 4, 5, 64, 1024, 10 ** 6, 10 ** 9, 10 ** 12])
    def test_mean_success_is_the_policy_chance(self, dim, samples):
        extremum = default_params(dim=dim, target=dim // 3, samples=samples)
        report = bq.run_scenario(extremum, entropy_points=2)
        assert report.mean_success.hex() == report.extremum_success_damped.hex()
        assert report.mean_success.hex() == self.chance(extremum).hex()
        fixed = dataclasses.replace(extremum, emission="fixed", emission_time=0.85)
        report = bq.run_scenario(fixed, entropy_points=2)
        assert report.mean_success.hex() == self.chance(fixed).hex()

    @pytest.mark.parametrize("dim", [2, 4, 64, 10 ** 12])
    def test_uniform_mean_success_is_the_period_mean(self, dim):
        params = default_params(dim=dim, target=dim // 3, emission="uniform",
                                samples=1000)
        expected = self.chance(params).hex()
        for seed in (0, 1, 5, 2 ** 70, None):
            report = bq.run_scenario(dataclasses.replace(params, seed=seed),
                                     entropy_points=2)
            assert report.mean_success.hex() == expected

    @pytest.mark.parametrize("samples", [4097, 10000])
    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    def test_counts_are_one_geometric_draw_per_sample(self, policy, samples):
        params = default_params(dim=64, target=21, emission=policy,
                                emission_time=0.85 if policy == "fixed" else None,
                                relaxation_time=200.0, samples=samples, seed=7)
        p_bar = self.chance(params)
        counts = np.concatenate([rng.geometric(p_bar, hi - lo)
                                 for lo, hi, rng in seed_blocks(7, samples)])
        report = bq.run_scenario(params, entropy_points=2)
        assert report.mean_attempts.hex() == float(counts.mean()).hex()
        assert report.max_attempts_observed == int(counts.max())


class TestArcsBuiltOnce:
    """run_scenario builds the joint swing arc once and reads the entropy
    fields off it, where the per-point undamped_state route must give the
    same bits; its extremum fields are the search law after one query."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 64, 1024])
    def test_report_matches_per_point_route(self, dim):
        target = dim // 3
        params = default_params(dim=dim, target=target, oscillation_time=1.3,
                                relaxation_time=40.0, samples=5)
        report = bq.run_scenario(params, entropy_points=33)
        state0 = kicked_state(dim, target)

        def swing(t, trajectory):
            return bq.undamped_state(state0, target, 1.3, t, trajectory)

        bits = [bq.entanglement_entropy(swing(t, "joint"))
                for t in report.entropy_times]
        undamped = bq.closed_form_success(dim, 1)
        assert [float(b).hex() for b in report.entropy_bits] == [b.hex() for b in bits]
        assert report.entropy_at_extremum.hex() == \
            bq.entanglement_entropy(swing(1.3, "joint")).hex()
        assert report.extremum_success_undamped.hex() == undamped.hex()
        assert report.extremum_success_damped.hex() == \
            (math.exp(-2.0 * 1.3 / 40.0) * undamped).hex()

    @pytest.mark.parametrize("policy", ["extremum", "uniform"])
    def test_each_endpoint_built_once(self, monkeypatch, policy):
        from basequest import replication

        built = {"conditional": 0, "joint": 0, "base_amplification": 0}
        swing_endpoint = replication.swing_endpoint
        base_amplification = replication.base_amplification

        def counted_endpoint(state0, target, trajectory="conditional"):
            built[trajectory] += 1
            return swing_endpoint(state0, target, trajectory)

        def counted_amplification(state):
            built["base_amplification"] += 1
            return base_amplification(state)

        monkeypatch.setattr(replication, "swing_endpoint", counted_endpoint)
        monkeypatch.setattr(replication, "base_amplification", counted_amplification)
        bq.run_scenario(default_params(dim=64, emission=policy, samples=30))
        assert built == {"conditional": 0, "joint": 1, "base_amplification": 1}


class TestReportIsARecord:
    """run_scenario checks each time once, up front, and returns plain data:
    the entropy series are tuples of floats, so a report hashes and compares
    as the named tuple it is."""

    @pytest.mark.parametrize("dim", [4, 64, 10**12])
    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    def test_equal_runs_give_equal_records(self, policy, dim):
        params = default_params(dim=dim, target=dim // 3, emission=policy,
                                emission_time=0.85 if policy == "fixed" else None,
                                samples=50, seed=3)
        first, second = bq.run_scenario(params), bq.run_scenario(params)
        assert first == second and hash(first) == hash(second)
        assert first == tuple(second)
        for series in (first.entropy_times, first.entropy_bits):
            assert type(series) is tuple and len(series) == 101
            assert all(type(x) is float for x in series)

    @pytest.mark.parametrize("policy,checks", [("extremum", 1), ("uniform", 1),
                                               ("fixed", 2)])
    def test_grid_times_are_not_rechecked(self, monkeypatch, policy, checks):
        from basequest import replication

        calls = []
        check = replication._check_swing_time

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(replication, "_check_swing_time", counted)
        bq.run_scenario(default_params(
            emission=policy, emission_time=0.85 if policy == "fixed" else None),
            entropy_points=1001)
        assert len(calls) == checks

    @pytest.mark.filterwarnings("ignore::basequest.HierarchyWarning")
    @pytest.mark.parametrize("points", [2, 3, 41, 101, 4097])
    @pytest.mark.parametrize("osc", [1e-300, 1.0, 1.3, 1e300])
    def test_times_are_linspace_bits(self, osc, points):
        params = default_params(bond_duration=osc / 100.0, oscillation_time=osc,
                                relaxation_time=math.inf, samples=1)
        times = bq.run_scenario(params, entropy_points=points).entropy_times
        assert [t.hex() for t in times] == \
            [t.hex() for t in np.linspace(0.0, 2.0 * osc, points).tolist()]

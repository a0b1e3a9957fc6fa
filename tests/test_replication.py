from __future__ import annotations

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import basequest as bq
from basequest.replication import (
    _arc_angle,
    _arc_point,
    _conditional_base,
    oscillation_fraction,
)
from oracles import (
    base_density,
    dense_entangling_matrix,
    entropies_by_partial_trace,
    quanta_density,
    random_joint_state,
    vector_emission_probability,
    vector_scenario_draws,
)

POST_KICK_ENTROPY = 0.8112781244591329


def arc_interpolate(a, b, fraction):
    return _arc_point(_arc_angle(a, b), a, b, fraction)


def kicked_state(dim=4, target=1):
    return bq.entangling_oracle(bq.relaxed_start(dim), target)


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
        amps = np.zeros((3, 2))
        amps[2, 1] = 1.0
        state = bq.JointState(amps)
        flat = state.flat()
        assert flat[2 * 2 + 1] == 1.0
        assert np.sum(np.abs(flat)) == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(bq.InvalidDimensionError):
            bq.JointState(np.ones(4) / 2.0)
        with pytest.raises(bq.InvalidDimensionError):
            bq.JointState(np.ones((4, 3)) / math.sqrt(12))

    def test_rejects_unnormalized(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.JointState(np.ones((4, 2)))


class TestEntanglingKick:
    def test_kick_moves_target_to_emitted_sector(self):
        state = kicked_state()
        expected = np.array([[0.5, 0.0], [0.0, -0.5], [0.5, 0.0], [0.5, 0.0]])
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-15

    def test_double_kick_is_identity(self):
        rng = np.random.default_rng(5)
        state = bq.JointState(random_joint_state(6, rng))
        twice = bq.entangling_oracle(bq.entangling_oracle(state, 3), 3)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("dim,target,seed", [(2, 0, 1), (4, 3, 2), (9, 5, 3)])
    def test_matches_dense_matrix(self, dim, target, seed):
        rng = np.random.default_rng(seed)
        state = bq.JointState(random_joint_state(dim, rng))
        expected = dense_entangling_matrix(dim, target) @ state.flat()
        got = bq.entangling_oracle(state, target).flat()
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_rejects_out_of_range_target(self):
        with pytest.raises(bq.InvalidTargetError):
            bq.entangling_oracle(bq.relaxed_start(4), 4)


class TestEntropy:
    def test_product_state_has_zero_entropy(self):
        assert bq.entanglement_entropy(bq.relaxed_start(7)) == pytest.approx(
            0.0, abs=1e-12)

    def test_maximal_for_balanced_pair(self):
        amps = np.zeros((2, 2))
        amps[0, 0] = amps[1, 1] = 1.0 / math.sqrt(2)
        assert bq.entanglement_entropy(bq.JointState(amps)) == pytest.approx(1.0)

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
        amps = random_joint_state(dim, rng)
        base_bits, quanta_bits = entropies_by_partial_trace(amps)
        svd_bits = bq.entanglement_entropy(bq.JointState(amps))
        assert svd_bits == pytest.approx(base_bits, abs=1e-10)
        assert svd_bits == pytest.approx(quanta_bits, abs=1e-10)

    def test_amplification_cannot_change_entropy(self):
        state = kicked_state(8, 2)
        before = bq.entanglement_entropy(state)
        after = bq.entanglement_entropy(bq.base_amplification(state))
        assert after == pytest.approx(before, abs=1e-12)


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
        assert np.max(np.abs(endpoint.flat() + state0.flat())) <= 1e-12
        mid = bq.undamped_state(state0, 0, 1.0, 0.5, "conditional")
        assert abs(np.linalg.norm(mid.flat()) - 1.0) <= 1e-12


class TestUndampedSwing:
    def test_fraction_boundaries(self):
        assert oscillation_fraction(0.0, 2.0) == 0.0
        assert oscillation_fraction(2.0, 2.0) == pytest.approx(1.0)
        assert oscillation_fraction(4.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert oscillation_fraction(1.0, 2.0) == pytest.approx(0.5)

    def test_fraction_rejects_negative_time(self):
        with pytest.raises(bq.InvalidParameterError):
            oscillation_fraction(-0.5, 1.0)

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


class TestDensityMatrix:
    def test_from_pure_diagnostics(self):
        rho = bq.DensityMatrix.from_pure(kicked_state())
        herm, trace, low = rho.diagnostics()
        assert herm <= 1e-12
        assert trace <= 1e-12
        assert low >= -1e-10

    def test_rejects_non_square(self):
        with pytest.raises(bq.InvalidDimensionError):
            bq.DensityMatrix(np.ones((2, 3)) / 6.0)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(bq.InvalidParameterError):
            bq.DensityMatrix(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[1.1, 0.0], [0.0, -0.1]])
        with pytest.raises(bq.InvalidParameterError):
            bq.DensityMatrix(mat)

    def test_matrix_read_only(self):
        rho = bq.DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestDampedSwing:
    def test_weight_boundaries(self):
        assert bq.damping_weight(0.0, 5.0) == 1.0
        assert bq.damping_weight(1.0, 1000.0) == pytest.approx(
            0.9980019986673331, abs=1e-15)
        assert bq.damping_weight(1.0, math.inf) == 1.0

    def test_weight_rejects_bad_inputs(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.damping_weight(-1.0, 5.0)
        with pytest.raises(bq.InvalidParameterError):
            bq.damping_weight(1.0, 0.0)

    def test_zero_time_is_pure_start(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 0.0)
        pure = bq.DensityMatrix.from_pure(state0)
        assert np.max(np.abs(rho.matrix - pure.matrix)) <= 1e-12

    def test_long_time_limit_is_relaxed_state(self):
        # warnings about the sloppy hierarchy fire in run_scenario only;
        # the raw propagator stays silent
        params = default_params(relaxation_time=0.5)
        rho = bq.damped_oscillation(kicked_state(), params, 40.0)
        eq = bq.DensityMatrix.from_pure(bq.relaxed_start(4))
        assert np.max(np.abs(rho.matrix - eq.matrix)) <= 1e-10

    def test_undamped_limit_keeps_conditional_fidelity(self):
        params = default_params(relaxation_time=math.inf)
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, params, 1.0)
        endpoint = bq.swing_endpoint(state0, 1, "conditional").flat()
        fidelity = float(np.real(endpoint.conj() @ rho.matrix @ endpoint))
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_joint_endpoint_fidelity_is_partial(self):
        params = default_params(relaxation_time=math.inf)
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, params, 1.0, "joint")
        emitted = np.zeros(8, dtype=complex)
        emitted[2 * 1 + 1] = 1.0
        fidelity = float(np.real(emitted.conj() @ rho.matrix @ emitted))
        assert fidelity == pytest.approx(0.0625, abs=1e-12)

    def test_return_fidelity_decays_monotonically(self):
        params = default_params(relaxation_time=30.0)
        state0 = kicked_state()
        flat0 = state0.flat()
        fidelities = []
        for k in range(5):
            rho = bq.damped_oscillation(state0, params, 2.0 * k)
            fidelities.append(float(np.real(flat0.conj() @ rho.matrix @ flat0)))
        assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(fidelities, fidelities[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(bq.DimensionMismatchError):
            bq.damped_oscillation(kicked_state(5, 1), default_params(), 0.5)


class TestEmissionMeasurement:
    def test_certain_success(self):
        endpoint = bq.swing_endpoint(kicked_state(), 1, "conditional")
        result = bq.emission_measurement(bq.DensityMatrix.from_pure(endpoint), 1)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.post_failure is None
        assert result.post_success is not None
        assert result.post_success.matrix[3, 3] == pytest.approx(1.0)

    def test_certain_failure(self):
        rho = bq.DensityMatrix.from_pure(bq.relaxed_start(4))
        result = bq.emission_measurement(rho, 1)
        assert result.success_probability == 0.0
        assert result.post_success is None
        assert np.max(np.abs(result.post_failure.matrix - rho.matrix)) <= 1e-12

    def test_damped_extremum_probability(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 1.0)
        result = bq.emission_measurement(rho, 1)
        assert result.success_probability == pytest.approx(
            0.9980019986673331, abs=1e-12)

    def test_branches_are_idempotent(self):
        state0 = kicked_state()
        rho = bq.damped_oscillation(state0, default_params(), 0.35)
        result = bq.emission_measurement(rho, 1)
        again = bq.emission_measurement(result.post_success, 1)
        assert again.success_probability == pytest.approx(1.0, abs=1e-12)
        assert again.post_failure is None
        rerun = bq.emission_measurement(result.post_failure, 1)
        assert rerun.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_probability_matches_closed_form(self):
        state0 = kicked_state()
        params = default_params()
        for t in (0.0, 0.35, 1.0, 1.7):
            rho = bq.damped_oscillation(state0, params, t)
            measured = bq.emission_measurement(rho, 1).success_probability
            assert measured == pytest.approx(
                bq.success_probability_at(state0, params, t), abs=1e-12)

    def test_rejects_odd_side(self):
        with pytest.raises(bq.InvalidDimensionError):
            bq.emission_measurement(bq.DensityMatrix(np.eye(3) / 3.0), 0)

    def test_rejects_bad_target(self):
        rho = bq.DensityMatrix.from_pure(bq.relaxed_start(4))
        with pytest.raises(bq.InvalidTargetError):
            bq.emission_measurement(rho, 4)


class TestEmissionTimes:
    """Each policy's emission time, read off run_scenario's first checks
    (eight equal first-check probabilities average to exactly their value)."""

    def test_extremum_policy(self):
        params = default_params(oscillation_time=2.5, samples=8)
        report = bq.run_scenario(params, entropy_points=2)
        assert report.mean_success == \
            bq.success_probability_at(kicked_state(), params, 2.5)
        assert report.mean_success == report.extremum_success_damped

    def test_uniform_policy_covers_full_period(self):
        # strong damping sets the mean of p(t) over [0, end] apart for half
        # a period (end 1), the full period (2) and two periods (4): 0.127,
        # 0.083 and 0.042 by midpoint quadrature
        params = default_params(relaxation_time=1.0, emission="uniform",
                                samples=4000, seed=1)
        with pytest.warns(bq.HierarchyWarning):
            report = bq.run_scenario(params, entropy_points=2)
        state0 = kicked_state()

        def mean_until(end):
            times = (np.arange(4000) + 0.5) * (end / 4000)
            return np.mean([bq.success_probability_at(state0, params, float(t))
                            for t in times])

        assert mean_until(1.0) - mean_until(2.0) > 0.04
        assert mean_until(2.0) - mean_until(4.0) > 0.04
        assert report.mean_success == pytest.approx(mean_until(2.0), abs=0.005)

    def test_fixed_policy(self):
        params = default_params(emission="fixed", emission_time=0.7, samples=8)
        report = bq.run_scenario(params, entropy_points=2)
        assert report.mean_success == \
            bq.success_probability_at(kicked_state(), params, 0.7)
        with pytest.raises(bq.InvalidParameterError, match="emission_time"):
            default_params(emission="fixed")

    def test_turning_points_dominate_dwell_time(self):
        # uniform times pile up where the swing moves slowest: both ends
        rng = np.random.default_rng(3)
        times = rng.random(100_000) * 2.0
        fractions = np.array([oscillation_fraction(t, 1.0) for t in times])
        counts, _ = np.histogram(fractions, bins=20, range=(0.0, 1.0))
        interior = counts[1:-1]
        assert counts[0] > interior.max()
        assert counts[-1] > interior.max()


class TestHierarchy:
    def test_clean_separation_passes(self):
        assert bq.hierarchy_warnings(default_params()) == ()

    def test_both_ratios_flagged(self):
        params = default_params(bond_duration=0.5, relaxation_time=2.0)
        notes = bq.hierarchy_warnings(params)
        assert len(notes) == 2

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
        assert report.entropy_times.shape == (41,)
        assert report.entropy_times[0] == 0.0
        assert report.entropy_times[-1] == pytest.approx(2.0)
        assert report.entropy_bits[0] == pytest.approx(POST_KICK_ENTROPY,
                                                       abs=1e-12)
        assert report.entropy_bits[-1] == pytest.approx(POST_KICK_ENTROPY,
                                                        abs=1e-9)
        assert np.all(report.entropy_bits >= -1e-12)
        assert np.all(report.entropy_bits <= 1.0 + 1e-12)
        assert report.entropy_at_extremum == pytest.approx(POST_KICK_ENTROPY,
                                                           abs=1e-12)

    def test_fixed_time_at_success_node_exhausts_attempts(self):
        # at one third of the swing the target's emitted amplitude crosses
        # zero, so emission checks can never succeed
        params = default_params(emission="fixed", emission_time=1.0 / 3.0,
                                samples=1, relaxation_time=math.inf)
        assert bq.success_probability_at(
            kicked_state(), params, 1.0 / 3.0) <= 1e-30
        with pytest.raises(bq.DrawBudgetExceededError):
            bq.run_scenario(params, attempt_cap=25, entropy_points=2)

    @pytest.mark.parametrize("overrides,name", [
        ({"relaxation_time": 5e-324}, "oscillation_time"),
        ({"emission": "fixed", "emission_time": 1e300, "oscillation_time": 1e300},
         "emission_time"),
    ], ids=["extremum", "fixed"])
    def test_zero_success_probability_is_refused_before_drawing(self, overrides,
                                                               name):
        # drawing the 10**7 checks the cap allows would take seconds
        params = default_params(samples=1, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bq.HierarchyWarning)
            start = time.perf_counter()
            with pytest.raises(bq.InvalidParameterError) as refusal:
                bq.run_scenario(params, attempt_cap=10 ** 7, entropy_points=2)
        assert time.perf_counter() - start < 1.0
        for word in (name, "relaxation_time"):
            assert re.search(rf"\b{word}\b", str(refusal.value))

    def test_streams_are_made_on_demand(self):
        # spawning every sample's stream up front held about 1.9 MiB here
        bq.run_scenario(default_params(samples=1))  # first-call caches
        tracemalloc.start()
        try:
            bq.run_scenario(default_params(samples=5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_rejects_thin_entropy_grid(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_scenario(default_params(samples=1), entropy_points=1)

    @pytest.mark.parametrize("kwargs,name", [
        ({"entropy_points": 2.5}, "entropy_points"),
        ({"entropy_points": True}, "entropy_points"),
        ({"attempt_cap": 0}, "attempt_cap"),
        ({"attempt_cap": 1.5}, "attempt_cap"),
        ({"attempt_cap": True}, "attempt_cap"),
    ])
    def test_rejects_bad_keyword_counts(self, kwargs, name):
        # extremum emission succeeds on the first check, so a bad cap must
        # be refused up front, not after a draw
        with pytest.raises(bq.InvalidParameterError, match=name):
            bq.run_scenario(default_params(samples=1), **kwargs)


class TestScalarSampler:
    """p(t) comes from the arc's angle and two amplitudes; the full-vector
    route must give the same bits."""

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    @pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
    @pytest.mark.parametrize("dim", [4, 5, 64, 1024])
    def test_run_matches_vector_route(self, dim, policy, seed):
        params = default_params(
            dim=dim, target=dim // 3, emission=policy,
            emission_time=0.85 if policy == "fixed" else None,
            relaxation_time=200.0, samples=10 if dim == 1024 else 60,
            seed=seed)
        report = bq.run_scenario(params, entropy_points=2)
        assert (report.mean_success, report.mean_attempts,
                report.max_attempts_observed) == vector_scenario_draws(params)

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
            assert bq.success_probability_at(state0, params, t, trajectory) \
                == vector_emission_probability(state0, params, t, trajectory)


class TestArcsBuiltOnce:
    """run_scenario builds each swing arc once and reads every report field
    off it; the per-point undamped_state route must give the same bits."""

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
        undamped = float(abs(swing(1.3, "conditional").amplitudes[target, 1]) ** 2)
        assert [float(b).hex() for b in report.entropy_bits] == [b.hex() for b in bits]
        assert report.entropy_at_extremum.hex() == \
            bq.entanglement_entropy(swing(1.3, "joint")).hex()
        assert report.extremum_success_undamped.hex() == undamped.hex()
        assert report.extremum_success_damped.hex() == \
            (bq.damping_weight(1.3, 40.0) * undamped).hex()

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
        assert built == {"conditional": 1, "joint": 1, "base_amplification": 1}

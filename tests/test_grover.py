from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basequest as bq
from basequest.grover import MAX_SWEEP_STEPS, StateVector
from oracles import (
    analytic_two_term_success,
    dense_oracle,
    dense_reflection,
    dense_run,
    dense_two_term_state,
    eager_grover_state,
    vector_search,
    vector_split_success,
)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return bq.StateVector(amps / np.linalg.norm(amps))


class TestStateVector:
    def test_uniform_state(self):
        state = bq.uniform_state(4)
        assert np.allclose(state.amplitudes, 0.5)
        assert state.dim == 4

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_dimension_floor(self, dim):
        with pytest.raises(bq.InvalidDimensionError):
            bq.uniform_state(dim)

    def test_rejects_unnormalized(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.StateVector(np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        state = bq.uniform_state(4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(bq.DimensionMismatchError):
            bq.uniform_state(4).overlap(bq.uniform_state(5))

    def test_norm_preserved_at_large_dim(self):
        # one full amplification round at dim 2**20
        dim = 2 ** 20
        state = bq.grover_step(bq.uniform_state(dim), 12345)
        norm_sq = np.sum(np.abs(state.amplitudes) ** 2)
        assert abs(math.sqrt(norm_sq) - 1.0) <= 1e-12


class TestStateConstruction:
    """Returned states are built once, with checks that still bite at 2**20."""

    DIM = 2 ** 20

    def uniform(self, scale=1.0):
        return np.full(self.DIM, scale / math.sqrt(self.DIM), dtype=complex)

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("decorated", [False, True])
    def test_peak_allocation_is_one_state(self, decorated):
        phases = bq.random_unit_phases(self.DIM, 5) if decorated else None

        def run():
            if decorated:
                bq.run_grover_with_phases(self.DIM, 1, 16, phases)
            else:
                bq.run_grover(self.DIM, 1, 16)

        assert self.traced_peak(run) <= 1.1 * 16 * self.DIM

    @pytest.mark.parametrize("build", [bq.StateVector, StateVector._adopt])
    def test_norm_check_bites_at_large_dim(self, build):
        build(self.uniform(1.0 + 3e-13))
        with pytest.raises(bq.InvalidParameterError, match="norm"):
            build(self.uniform(1.0 + 3e-12))

    @pytest.mark.parametrize("build", [bq.StateVector, StateVector._adopt])
    def test_nan_state_is_rejected(self, build):
        amps = self.uniform()
        amps[-1] = np.nan
        with pytest.raises(bq.InvalidParameterError, match="norm"):
            build(amps)

    @pytest.mark.parametrize("bad", [1.0 + 2e-12, np.nan])
    def test_phase_check_bites_at_large_dim(self, bad):
        phases = np.ones(self.DIM, dtype=complex)
        phases[-1] = bad
        with pytest.raises(bq.InvalidPhaseError):
            bq.run_grover_with_phases(self.DIM, 1, 1, phases)

    def test_user_array_is_copied(self):
        amps = np.full(4, 0.5, dtype=complex)
        state = bq.StateVector(amps)
        amps[0] = -0.5
        assert np.all(state.amplitudes == 0.5)

    def test_adopted_array_is_not_copied(self):
        amps = np.full(4, 0.5, dtype=complex)
        assert StateVector._adopt(amps).amplitudes is amps

    @pytest.mark.parametrize("build", [
        lambda: bq.StateVector(np.full(4, 0.5)),
        lambda: bq.uniform_state(4),
        lambda: bq.apply_oracle(bq.uniform_state(4), 1),
        lambda: bq.apply_diffusion(bq.uniform_state(4), bq.uniform_state(4)),
        lambda: bq.grover_step(bq.uniform_state(4), 1),
        lambda: bq.run_grover(4, 1, 1)[0],
        lambda: bq.run_grover_with_phases(4, 1, 1, np.ones(4))[0],
        lambda: bq.JointState(np.full((2, 2), 0.5)),
        lambda: bq.relaxed_start(4),
        lambda: bq.entangling_oracle(bq.relaxed_start(4), 1),
        lambda: bq.conditional_lift(np.full(4, 0.5), 1),
        lambda: bq.undamped_state(bq.entangling_oracle(bq.relaxed_start(4), 1),
                                  1, 1.0, 0.3),
    ])
    def test_stored_amplitudes_are_read_only(self, build):
        assert not build().amplitudes.flags.writeable


class TestOracle:
    def test_flips_only_target(self):
        state = bq.apply_oracle(bq.uniform_state(4), 2)
        assert state.amplitudes[2] == -0.5
        assert np.all(state.amplitudes[[0, 1, 3]] == 0.5)

    @pytest.mark.parametrize("target", [-1, 4, 7])
    def test_target_range(self, target):
        with pytest.raises(bq.InvalidTargetError):
            bq.apply_oracle(bq.uniform_state(4), target)

    @pytest.mark.parametrize("dim,target,seed", [(2, 0, 1), (7, 3, 2), (64, 63, 3)])
    def test_matches_dense_matrix(self, dim, target, seed):
        state = random_state(dim, seed)
        expected = dense_oracle(dim, target) @ state.amplitudes
        got = bq.apply_oracle(state, target).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12

    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, dim, seed):
        state = random_state(dim, seed)
        target = seed % dim
        twice = bq.apply_oracle(bq.apply_oracle(state, target), target)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12


class TestDiffusion:
    def test_reference_maps_to_minus_itself(self):
        state = bq.uniform_state(6)
        out = bq.apply_diffusion(state, state)
        assert np.max(np.abs(out.amplitudes + state.amplitudes)) <= 1e-12

    def test_orthogonal_state_fixed(self):
        ref = bq.uniform_state(2)
        state = bq.StateVector(np.array([1.0, -1.0]) / math.sqrt(2))
        out = bq.apply_diffusion(state, ref)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-12

    def test_reflection_about_average(self):
        # negated diffusion about uniform acts as 2*mean - component
        vec = np.array([0.5, 0.5, -0.5, 0.5])
        state = bq.StateVector(vec)
        out = -bq.apply_diffusion(state, bq.uniform_state(4)).amplitudes
        assert np.max(np.abs(out - np.array([0.0, 0.0, 1.0, 0.0]))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(bq.DimensionMismatchError):
            bq.apply_diffusion(bq.uniform_state(4), bq.uniform_state(5))

    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_involution_and_norm(self, dim, seed):
        state = random_state(dim, seed)
        ref = random_state(dim, seed + 1)
        once = bq.apply_diffusion(state, ref)
        assert abs(np.linalg.norm(once.amplitudes) - 1.0) <= 1e-12
        twice = bq.apply_diffusion(once, ref)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("dim,seed", [(3, 10), (17, 11)])
    def test_matches_dense_matrix(self, dim, seed):
        state = random_state(dim, seed)
        ref = random_state(dim, seed + 100)
        expected = dense_reflection(ref.amplitudes) @ state.amplitudes
        got = bq.apply_diffusion(state, ref).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestGroverStep:
    def test_single_step_exact_at_four(self):
        state = bq.grover_step(bq.uniform_state(4), 0)
        assert np.max(np.abs(state.amplitudes - np.eye(4)[0])) <= 1e-12

    def test_single_step_at_two(self):
        state = bq.grover_step(bq.uniform_state(2), 0)
        assert state.success_probability(0) == pytest.approx(0.5, abs=1e-12)

    def test_step_from_target_state(self):
        basis = np.zeros(4)
        basis[1] = 1.0
        state = bq.grover_step(bq.StateVector(basis), 1)
        assert state.success_probability(1) == pytest.approx(0.25, abs=1e-12)

    def test_equals_negated_composition(self):
        for dim, target, seed in [(2, 1, 0), (9, 4, 1), (33, 20, 2)]:
            state = random_state(dim, seed)
            ref = random_state(dim, seed + 7)
            fused = bq.grover_step(state, target, ref)
            composed = -bq.apply_diffusion(
                bq.apply_oracle(state, target), ref).amplitudes
            assert np.max(np.abs(fused.amplitudes - composed)) <= 1e-12

    def test_plane_confinement(self):
        # iterates stay in span{start, target basis vector}
        dim, target = 37, 5
        start = bq.uniform_state(dim).amplitudes
        basis = np.eye(dim)[target]
        state = bq.uniform_state(dim)
        for _ in range(12):
            state = bq.grover_step(state, target)
            # orthonormal plane basis via Gram-Schmidt on (start, basis)
            u1 = start
            u2 = basis - (u1 @ basis) * u1
            u2 = u2 / np.linalg.norm(u2)
            residual = state.amplitudes - (np.vdot(u1, state.amplitudes) * u1
                                           + np.vdot(u2, state.amplitudes) * u2)
            assert np.max(np.abs(residual)) <= 1e-12

    def test_constant_rotation_per_step(self):
        dim, target = 50, 3
        theta = math.asin(1.0 / math.sqrt(dim))
        state = bq.uniform_state(dim)
        amp_angle = math.asin(abs(state.amplitudes[target]))
        steps = int((math.pi / 2 - theta) // (2 * theta))
        for _ in range(steps):
            state = bq.grover_step(state, target)
            new_angle = math.asin(abs(state.amplitudes[target]))
            assert new_angle - amp_angle == pytest.approx(2 * theta, abs=1e-10)
            amp_angle = new_angle


class TestRunGrover:
    @pytest.mark.parametrize("target", range(4))
    def test_four_objects_one_query(self, target):
        _, success = bq.run_grover(4, target, 1)
        assert abs(success - 1.0) <= 1e-12

    def test_twenty_objects_three_queries(self):
        _, success = bq.run_grover(20, 11, 3)
        # frozen from the dense matrix-power oracle
        assert success == pytest.approx(0.9999392, abs=1e-10)

    @pytest.mark.parametrize("dim,target,queries", [
        (2, 0, 1), (5, 2, 2), (16, 9, 3), (100, 42, 7), (128, 1, 8),
        (37, 36, 40), (256, 0, 12),
    ])
    def test_matches_dense_matrix_power(self, dim, target, queries):
        state, _ = bq.run_grover(dim, target, queries)
        expected = dense_run(dim, target, queries)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 17, 50, 256, 1024])
    def test_matches_closed_form(self, dim):
        for queries in range(0, int(3 * math.sqrt(dim)) + 1, 5):
            _, success = bq.run_grover(dim, dim // 2, queries)
            assert success == pytest.approx(
                bq.closed_form_success(dim, queries), abs=1e-10)

    @pytest.mark.parametrize("dim", [2 ** 18, 2 ** 20])
    def test_optimal_count_matches_closed_form_at_large_dim(self, dim):
        queries = bq.optimal_queries(dim).queries
        _, success = bq.run_grover(dim, 1, queries)
        assert abs(success - bq.closed_form_success(dim, queries)) <= 1e-12

    def test_matches_vector_loop_at_large_dim(self):
        dim, target, queries = 2 ** 17, 3, 284
        assert bq.optimal_queries(dim).queries == queries
        state, _ = bq.run_grover(dim, target, queries)
        expected = vector_search(dim, target, queries)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
        phases = bq.random_unit_phases(dim, 7)
        state, _ = bq.run_grover_with_phases(dim, target, queries, phases)
        expected = vector_search(dim, target, queries, phases)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12

    def test_zero_queries(self):
        _, success = bq.run_grover(10, 0, 0)
        assert success == pytest.approx(0.1, abs=1e-12)

    def test_rejects_negative_queries(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_grover(4, 0, -1)

    def test_rejects_bool_target(self):
        with pytest.raises(bq.InvalidTargetError):
            bq.run_grover(4, True, 1)

    def test_rejects_bool_query_count(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_grover(4, 0, True)


class TestPlaneState:
    """Search runs return their state as its two plane amplitudes and build
    the array, bit for bit the eager one, only when it is read."""

    @pytest.mark.parametrize("decorated", [False, True], ids=["plain", "phases"])
    @pytest.mark.parametrize("exponent", range(2, 21))
    def test_bit_identical_to_eager_build(self, exponent, decorated):
        dim = 2 ** exponent
        best = bq.optimal_queries(dim).queries
        rng = np.random.default_rng(exponent)
        phases = np.exp(2j * np.pi * rng.random(dim)) if decorated else None
        for queries in (0, 1, best, best + 7):
            for target in (0, dim // 3, dim - 1):
                state, success = bq.run_grover_with_phases(dim, target, queries,
                                                           phases)
                want, want_success = eager_grover_state(dim, target, queries, phases)
                assert success == want_success
                for index in (0, target, dim - 1):
                    assert (state.success_probability(index)
                            == want.success_probability(index))
                assert np.array_equal(state.amplitudes, want.amplitudes)
                assert state.amplitudes.tobytes() == want.amplitudes.tobytes()

    @given(dim=st.integers(2, 2 ** 12), target=st.integers(0, 2 ** 12 - 1),
           queries=st.integers(0, 100), decorated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_success_probability_reads_the_array_entry(self, dim, target, queries,
                                                      decorated, seed):
        target %= dim
        phases = bq.random_unit_phases(dim, seed) if decorated else None
        state, _ = bq.run_grover_with_phases(dim, target, queries, phases)
        lazy = [state.success_probability(i) for i in range(dim)]
        amps = state.amplitudes
        assert lazy == [abs(amps[i]) ** 2 for i in range(dim)]

    def test_amplitudes_are_built_once(self):
        state, _ = bq.run_grover(16, 3, 2)
        assert state.amplitudes is state.amplitudes
        assert state.dim == state.amplitudes.size == 16

    @pytest.mark.parametrize("dim", [2 ** 20, 10 ** 12], ids=["2**20", "10**12"])
    def test_unread_state_allocates_nothing(self, dim):
        def run():
            state, _ = bq.run_grover(dim, 0, bq.optimal_queries(dim).queries)
            assert state.dim == dim
            assert f"dim={dim}" in repr(state)
            for index in (0, 1, dim - 1):
                state.success_probability(index)

        assert TestStateConstruction.traced_peak(run) < 2 ** 20

    @pytest.mark.parametrize("dim", [10 ** 9, 10 ** 12], ids=["10**9", "10**12"])
    def test_optimal_count_matches_closed_form_past_state_bound(self, dim):
        queries = bq.optimal_queries(dim).queries
        _, success = bq.run_grover(dim, dim // 2, queries)
        assert abs(success - bq.closed_form_success(dim, queries)) <= 1e-12


class TestSolutions:
    def test_exact_integral_solution(self):
        solution = bq.solve_database_size(1)
        assert abs(solution.database_size - 4.0) <= 1e-12
        assert abs(solution.success_probability - 1.0) <= 1e-12

    def test_three_query_size(self):
        solution = bq.solve_database_size(3)
        assert solution.database_size == pytest.approx(20.195669358089223,
                                                       abs=1e-9)

    def test_two_query_size(self):
        solution = bq.solve_database_size(2)
        assert solution.database_size == pytest.approx(10.472135954999581,
                                                       abs=1e-9)

    def test_zero_query_size(self):
        assert bq.solve_database_size(0).database_size == pytest.approx(1.0)

    def test_solved_sizes_have_unit_success(self):
        for queries in range(0, 30):
            solution = bq.solve_database_size(queries)
            assert abs(solution.success_probability - 1.0) <= 1e-12

    def test_optimal_queries_examples(self):
        assert bq.optimal_queries(4).queries == 1
        assert bq.optimal_queries(100).queries == 7

    def test_optimal_queries_matches_scan(self):
        # scan the first swing toward the target only; later swings can
        # overshoot less and land higher, but cost strictly more queries
        for dim in (3, 10, 100, 1000):
            theta = math.asin(1.0 / math.sqrt(dim))
            first_arch = int((math.pi / (2.0 * theta) - 1.0) / 2.0) + 2
            best = max(range(first_arch),
                       key=lambda q: bq.closed_form_success(dim, q))
            assert bq.optimal_queries(dim).queries == best

    def test_optimal_queries_tie_goes_low(self):
        # size 2: zero and one query both give success 1/2 exactly
        assert bq.optimal_queries(2).queries == 0

    def test_asymptotic_count(self):
        assert bq.optimal_queries(10**6).queries in (785, 786)

    def test_rejects_bool_database_size(self):
        with pytest.raises(bq.InvalidDimensionError):
            bq.optimal_queries(True)
        with pytest.raises(bq.InvalidDimensionError):
            bq.speedup_ratio(True)
        with pytest.raises(bq.InvalidDimensionError):
            bq.closed_form_success(True, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.solve_database_size(-1)
        with pytest.raises(bq.InvalidDimensionError):
            bq.optimal_queries(0)
        with pytest.raises(bq.InvalidDimensionError):
            bq.closed_form_success(0.5, 1)


class TestPhaseDecoration:
    @pytest.mark.parametrize("dim,queries", [(4, 1), (20, 3), (64, 6)])
    def test_success_invariant_under_phases(self, dim, queries):
        target = dim // 3
        _, plain = bq.run_grover(dim, target, queries)
        for seed in range(5):
            phases = bq.random_unit_phases(dim, seed)
            _, decorated = bq.run_grover_with_phases(dim, target, queries, phases)
            assert abs(decorated - plain) < 1e-10

    def test_uniform_phases_reproduce_plain_run(self):
        ones = np.ones(8, dtype=complex)
        state, success = bq.run_grover_with_phases(8, 2, 2, ones)
        plain_state, plain = bq.run_grover(8, 2, 2)
        assert abs(success - plain) <= 1e-12
        assert np.max(np.abs(state.amplitudes - plain_state.amplitudes)) <= 1e-12

    def test_start_state_keeps_component_phases(self):
        phases = bq.random_unit_phases(6, 123)
        state, _ = bq.run_grover_with_phases(6, 0, 0, phases)
        assert np.max(np.abs(state.amplitudes - phases / math.sqrt(6))) <= 1e-12

    def test_success_series_is_a_list_of_floats(self):
        series = bq.success_series(20, 3, 6)
        assert type(series) is list and len(series) == 7
        assert all(type(p) is float for p in series)

    def test_success_series_refuses_long_series_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(bq.InvalidParameterError, match="query count"):
                bq.success_series(10**13, 0, MAX_SWEEP_STEPS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_random_phases_reject_bad_seeds(self, seed):
        with pytest.raises(bq.InvalidParameterError, match="seed"):
            bq.random_unit_phases(4, seed=seed)

    def test_success_series_tracks_decorated_runs(self):
        phases = bq.random_unit_phases(20, 4)
        series = bq.success_series(20, 3, 6)
        for queries in range(7):
            _, success = bq.run_grover_with_phases(20, 3, queries, phases)
            assert abs(series[queries] - success) <= 1e-12

    def test_rejects_non_unit_modulus(self):
        phases = np.ones(4, dtype=complex)
        phases[2] = 1.5
        with pytest.raises(bq.InvalidPhaseError):
            bq.run_grover_with_phases(4, 0, 1, phases)

    def test_rejects_wrong_length(self):
        with pytest.raises(bq.InvalidPhaseError):
            bq.run_grover_with_phases(4, 0, 1, np.ones(3, dtype=complex))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_phases_are_unit_modulus(self, seed):
        phases = bq.random_unit_phases(32, seed)
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-12


class TestTwoTermHamiltonian:
    def test_exact_series_matches_analytic_law(self):
        for dim in (4, 9, 1024):
            sweep = bq.evolve_two_term_hamiltonian(dim, 0, 6.0, 0.05)
            expected = np.array([analytic_two_term_success(dim, t)
                                 for t in sweep.times])
            assert np.max(np.abs(sweep.exact_success - expected)) <= 1e-10

    @pytest.mark.parametrize("dim", [4, 37, 256])
    def test_exact_series_matches_dense_expm(self, dim):
        target = dim // 3
        total = math.pi * math.sqrt(dim) / 2
        sweep = bq.evolve_two_term_hamiltonian(dim, target, total, total / 8)
        expected = [abs(dense_two_term_state(dim, target, t)[target]) ** 2
                    for t in sweep.times]
        assert np.max(np.abs(np.asarray(sweep.exact_success) - expected)) <= 1e-12

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("dim", [4, 37, 256])
    def test_split_series_matches_vector_loop(self, dim, symmetric):
        target = dim // 3
        total = math.pi * math.sqrt(dim) / 2
        sweep = bq.evolve_two_term_hamiltonian(dim, target, total, 0.05,
                                               symmetric=symmetric)
        expected = vector_split_success(dim, target, total, 0.05, symmetric)
        assert np.max(np.abs(sweep.trotter_success - expected)) <= 1e-12

    def test_series_are_tuples_of_floats(self):
        sweep = bq.evolve_two_term_hamiltonian(4, 0, 1.0, 0.25)
        for series in (sweep.times, sweep.exact_success, sweep.trotter_success):
            assert type(series) is tuple and len(series) == 5
            assert all(type(value) is float for value in series)

    def test_peak_reaches_success_floor(self):
        for dim in (4, 8, 16):
            total = math.pi * math.sqrt(dim) / 2 * 1.02
            sweep = bq.evolve_two_term_hamiltonian(dim, dim - 1, total, 0.02)
            assert sweep.peak_success() >= 1.0 - 1.0 / dim

    def test_symmetric_split_converges_quadratically(self):
        devs = [bq.evolve_two_term_hamiltonian(4, 0, math.pi, dt).max_deviation()
                for dt in (0.1, 0.05)]
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.25)

    def test_plain_split_converges_linearly(self):
        devs = [bq.evolve_two_term_hamiltonian(
                    4, 0, math.pi, dt, symmetric=False).max_deviation()
                for dt in (0.1, 0.05)]
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.25)

    def test_rejects_bad_steps(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.evolve_two_term_hamiltonian(4, 0, 1.0, 0.0)
        with pytest.raises(bq.InvalidParameterError):
            bq.evolve_two_term_hamiltonian(4, 0, 1.0, 2.0)
        with pytest.raises(bq.InvalidParameterError):
            bq.evolve_two_term_hamiltonian(4, 0, -1.0, 0.1)
        with pytest.raises(bq.InvalidParameterError):
            bq.evolve_two_term_hamiltonian(4, 0, math.inf, 0.1)

    @pytest.mark.parametrize("time_step", [
        1.0 / (2 * MAX_SWEEP_STEPS), 1e-300, 5e-324])
    def test_rejects_runaway_grids(self, time_step):
        with pytest.raises(bq.InvalidParameterError, match="time_step"):
            bq.evolve_two_term_hamiltonian(4, 0, 1.0, time_step)

from __future__ import annotations

import itertools
import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basequest as bq
from basequest.grover import (CHECK_BLOCK, MAX_SWEEP_STEPS, PHASE_ATOL, StateVector,
                              _check_phases)
from basequest.replication import JointState
from oracles import (
    DenseJointState,
    analytic_two_term_success,
    blockwise_phase_drift,
    decimal_search_amplitudes,
    dense_oracle,
    dense_reflection,
    dense_run,
    dense_two_term_state,
    eager_plane_state,
    random_subspace_state,
    split_orbit_success,
    vector_search,
    vector_split_success,
)


class TestStateVector:
    def test_uniform_state(self):
        # no query: the uniform start state
        state, _ = bq.run_grover(4, 1, 0)
        assert np.allclose(state.amplitudes, 0.5)
        assert state.dim == 4

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_dimension_floor(self, dim):
        with pytest.raises(bq.InvalidDimensionError):
            bq.run_grover(dim, 0, 0)

    @pytest.mark.parametrize("dim", [4, 20, 64, 1024, 2 ** 16])
    def test_accepted_phases_at_the_edge_read_their_amplitudes(self, dim):
        # phase moduli at 1 +- PHASE_ATOL and one ulp inside: the array's norm
        # can then pass NORM_ATOL, which a second norm pass used to refuse
        # ("state norm 0.9999999999989999 deviates from 1"), though the
        # caller's phases were accepted
        target = dim // 3
        moduli = [1.0 + PHASE_ATOL, np.nextafter(1.0 + PHASE_ATOL, 0.0),
                  1.0 - PHASE_ATOL, np.nextafter(1.0 - PHASE_ATOL, 2.0)]
        accepted = 0
        for modulus, queries in itertools.product(moduli, [0, 1, 3]):
            phases = np.full(dim, modulus, dtype=np.complex128)
            try:
                state, _ = bq.run_grover_with_phases(dim, target, queries, phases)
            except bq.InvalidPhaseError:
                continue
            accepted += 1
            amps = state.amplitudes
            for index in sorted({0, target, dim // 2, dim - 1}):
                assert amps[index] == state._amplitude(index), (modulus, queries)
        assert accepted == 9  # fl(1 + PHASE_ATOL) - 1 is past PHASE_ATOL

    def test_amplitudes_read_only(self):
        state, _ = bq.run_grover(4, 1, 1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0
        with pytest.raises(AttributeError):
            state.amplitudes = np.zeros(4)

    def test_norm_preserved_at_large_dim(self):
        # one full amplification round at dim 2**20
        state, _ = bq.run_grover(2 ** 20, 12345, 1)
        norm_sq = np.sum(np.abs(state.amplitudes) ** 2)
        assert abs(math.sqrt(norm_sq) - 1.0) <= 1e-12


class TestStateConstruction:
    """Returned states are built once, with checks that still bite at 2**20."""

    DIM = 2 ** 20

    # every norm-checked build, from DIM amplitudes: the dense oracle's
    # adopted array, and a joint state from its first row and its last, the
    # row every other base repeats
    BUILDS = pytest.mark.parametrize("build", [
        lambda amps: DenseJointState._adopt(amps.reshape(-1, 2)),
        lambda amps: JointState(amps.size // 2, 0, (*amps[:2], *amps[-2:])
                                ).amplitudes,
    ], ids=["_adopt", "JointState"])

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

    def run(self, decorated):
        if decorated:
            phases = bq.random_unit_phases(self.DIM, 5)
            return lambda: bq.run_grover_with_phases(self.DIM, 1, 16, phases)[0]
        return lambda: bq.run_grover(self.DIM, 1, 16)[0]

    @pytest.mark.parametrize("decorated", [False, True])
    def test_peak_allocation_is_one_state(self, decorated):
        run = self.run(decorated)
        assert self.traced_peak(lambda: run().amplitudes) <= 1.1 * 16 * self.DIM

    @pytest.mark.parametrize("decorated", [False, True])
    def test_unread_run_allocates_no_state(self, decorated):
        # the phase check's blockwise scratch is the largest allocation
        assert self.traced_peak(self.run(decorated)) < 256 * 2 ** 10

    @BUILDS
    def test_norm_check_bites_at_large_dim(self, build):
        build(self.uniform(1.0 + 3e-13))
        with pytest.raises(bq.InvalidParameterError, match="norm"):
            build(self.uniform(1.0 + 3e-12))

    @BUILDS
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
        amps = np.full((2, 2), 0.5, dtype=complex)
        state = DenseJointState(amps)
        amps[0] = -0.5
        assert np.all(state.amplitudes == 0.5)

    def test_adopted_array_is_not_copied(self):
        amps = np.full((2, 2), 0.5, dtype=complex)
        assert DenseJointState._adopt(amps).amplitudes is amps

    @pytest.mark.parametrize("build", [
        lambda: StateVector(4, 1, 0.5, 0.5, None),
        lambda: JointState(2, 0, (0.5,) * 4),
        lambda: bq.swing_endpoint(bq.entangling_oracle(bq.relaxed_start(4), 1), 1),
        lambda: bq.swing_endpoint(bq.entangling_oracle(bq.relaxed_start(4), 1), 1,
                                  "joint"),
        lambda: bq.base_amplification(bq.relaxed_start(4)),
        lambda: bq.run_grover(4, 1, 1)[0],
        lambda: bq.run_grover_with_phases(4, 1, 1, np.ones(4))[0],
        lambda: DenseJointState(np.full((2, 2), 0.5)),
        lambda: bq.relaxed_start(4),
        lambda: bq.entangling_oracle(bq.relaxed_start(4), 1),
        lambda: bq.undamped_state(bq.entangling_oracle(bq.relaxed_start(4), 1),
                                  1, 1.0, 0.3, "joint"),
        lambda: bq.undamped_state(bq.entangling_oracle(bq.relaxed_start(4), 1),
                                  1, 1.0, 0.3),
    ])
    def test_stored_amplitudes_are_read_only(self, build):
        assert not build().amplitudes.flags.writeable


class TestDiffusion:
    """The amplification reflection as the package keeps it:
    base_amplification, the negated reflection about the uniform state,
    applied to each quanta sector of a joint state."""

    def test_reference_maps_to_minus_itself(self):
        # so the negated reflection keeps the uniform state
        state = bq.relaxed_start(6)
        out = bq.base_amplification(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-12

    def test_orthogonal_state_fixed(self):
        # so the negated reflection flips its sign
        r = 1.0 / math.sqrt(2)
        state = JointState(2, 0, (0.0, r, 0.0, -r))
        out = bq.base_amplification(state)
        assert np.max(np.abs(out.amplitudes + state.amplitudes)) <= 1e-12

    def test_reflection_about_average(self):
        # each sector maps to twice its mean minus itself
        h = 0.5 / math.sqrt(2)
        out = bq.base_amplification(JointState(4, 2, (-h, -h, h, h)))
        want = np.array([0.0, 0.0, 1.0, 0.0]) / math.sqrt(2)
        assert np.max(np.abs(out.amplitudes - want[:, None])) <= 1e-12

    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_involution_and_norm(self, dim, seed):
        state = random_subspace_state(dim, seed % dim, np.random.default_rng(seed))
        once = bq.base_amplification(state)
        assert abs(np.linalg.norm(once.amplitudes) - 1.0) <= 1e-12
        twice = bq.base_amplification(once)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("dim,seed", [(3, 10), (17, 11)])
    def test_matches_dense_matrix(self, dim, seed):
        state = random_subspace_state(dim, dim // 2, np.random.default_rng(seed))
        # the flat index is 2*base + quanta: the reflection acts on the base
        uniform = np.full(dim, 1.0 / math.sqrt(dim))
        expected = (np.kron(-dense_reflection(uniform), np.eye(2))
                    @ state.amplitudes.ravel())
        got = bq.base_amplification(state).amplitudes.ravel()
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestGroverStep:
    """One query of a run: the query, then the negated reflection about the
    start state, a rotation by 2*theta in the plane."""

    def test_single_step_exact_at_four(self):
        state, _ = bq.run_grover(4, 0, 1)
        assert np.max(np.abs(state.amplitudes - np.eye(4)[0])) <= 1e-12

    def test_single_step_at_two(self):
        state, _ = bq.run_grover(2, 0, 1)
        assert state.success_probability(0) == pytest.approx(0.5, abs=1e-12)

    def test_equals_negated_composition(self):
        # each query of a decorated run reflects about the decorated start
        for dim, target, seed in [(2, 1, 0), (9, 4, 1), (33, 20, 2)]:
            phases = bq.random_unit_phases(dim, seed)
            start = phases / math.sqrt(dim)
            step = -dense_reflection(start) @ dense_oracle(dim, target)
            composed = start
            for queries in range(1, 4):
                composed = step @ composed
                state, _ = bq.run_grover_with_phases(dim, target, queries, phases)
                assert np.max(np.abs(state.amplitudes - composed)) <= 1e-12

    def test_plane_confinement(self):
        # runs stay in span{start, target basis vector}
        dim, target = 37, 5
        start = bq.run_grover(dim, target, 0)[0].amplitudes
        basis = np.eye(dim)[target]
        # orthonormal plane basis via Gram-Schmidt on (start, basis)
        u1 = start
        u2 = basis - (u1 @ basis) * u1
        u2 = u2 / np.linalg.norm(u2)
        for queries in range(1, 13):
            amps = bq.run_grover(dim, target, queries)[0].amplitudes
            residual = amps - (np.vdot(u1, amps) * u1 + np.vdot(u2, amps) * u2)
            assert np.max(np.abs(residual)) <= 1e-12

    def test_constant_rotation_per_step(self):
        dim, target = 50, 3
        theta = math.asin(1.0 / math.sqrt(dim))
        start, _ = bq.run_grover(dim, target, 0)
        amp_angle = math.asin(abs(start.amplitudes[target]))
        steps = int((math.pi / 2 - theta) // (2 * theta))
        for queries in range(1, steps + 1):
            state, _ = bq.run_grover(dim, target, queries)
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

    def test_accepts_numpy_integers(self):
        for dim, target, queries in [(2 ** 20, 1, 804), (2 ** 53, 5, 2 ** 53)]:
            numpy_args = (np.int64(dim), np.int64(target), np.uint64(queries))
            want = bq.run_grover(dim, target, queries)[1]
            assert bq.run_grover(*numpy_args)[1] == want
            assert bq.success_series(*numpy_args[:2], np.int64(3))[-1] == \
                bq.run_grover(dim, target, 3)[1]

    def test_rejects_negative_queries(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_grover(4, 0, -1)

    def test_rejects_bool_target(self):
        with pytest.raises(bq.InvalidTargetError):
            bq.run_grover(4, True, 1)

    def test_rejects_bool_query_count(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.run_grover(4, 0, True)


class TestClosedFormSearch:
    """A run is one rotation by (2q + 1) theta, with theta and the reduced
    angle carried in fixed point: accurate and O(1) at every accepted dim
    and query count."""

    DIMS = [2, 3, 4, 2 ** 20, 10 ** 12, 2 ** 53]
    QUERIES = {"0": 0, "1": 1, "10**6": 10 ** 6, "2**53": 2 ** 53}

    @staticmethod
    def within(value, want, ulps):
        return abs(value - want) <= ulps * math.ulp(want)

    @pytest.mark.parametrize("which", ["0", "1", "optimal", "10**6", "2**53"])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_decimal_oracle(self, dim, which):
        queries = (bq.optimal_queries(dim).queries if which == "optimal"
                   else self.QUERIES[which])
        on_target, rest, success = decimal_search_amplitudes(dim, queries)
        state, got = bq.run_grover(dim, dim // 3, queries)
        assert self.within(got, success, 2), (got, success)
        # the target amplitude and the amplitude on every other object
        for index, want in ((dim // 3, on_target), (dim - 1, rest)):
            amp = complex(state._amplitude(index)).real
            assert abs(amp - want) <= 2 * math.ulp(want) + 1e-300, (index, amp, want)

    @pytest.mark.parametrize("queries", [10 ** 3, 10 ** 6, 7 * 10 ** 7])
    def test_near_full_success_keeps_relative_accuracy(self, queries):
        # at the integer size nearest the one solved exactly, cos(a) is tiny
        # (1.7e-16 at the largest count), so the angle must carry far more
        # bits than a float for the other amplitudes to keep theirs
        dim = round(bq.solve_database_size(queries).database_size)
        on_target, rest, success = decimal_search_amplitudes(dim, queries)
        state, got = bq.run_grover(dim, 0, queries)
        assert self.within(got, success, 2)
        assert self.within(state._on_target, on_target, 2)
        assert self.within(state._rest, rest, 2), (state._rest, rest)

    def test_exact_zeros_at_four(self):
        # theta = pi/6, so every third round lands exactly on the target
        for queries in (1, 4, 10 ** 6, 2 ** 53 - 1):
            state, success = bq.run_grover(4, 2, queries)
            assert success == 1.0
            assert state.success_probability(0) == 0.0

    def test_huge_query_count_is_fast(self):
        _, success = bq.run_grover(2, 0, 2 ** 53)
        # warm, best of five, so that one preemption cannot fail it
        assert min(timeit.repeat(lambda: bq.run_grover(2, 0, 2 ** 53),
                                 number=1, repeat=5)) < 1e-3
        assert self.within(success, decimal_search_amplitudes(2, 2 ** 53)[2], 2)

    @pytest.mark.parametrize("dim", DIMS)
    def test_series_points_equal_runs(self, dim):
        for start in (0, 10 ** 6 - 40):
            series = bq.success_series(dim, 0, start + 40)
            assert series[start:] == [bq.run_grover(dim, 0, queries)[1]
                                      for queries in range(start, start + 41)]


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
                want = eager_plane_state(dim, target, state._on_target,
                                         state._rest, phases)
                assert success == float(abs(want[target]) ** 2)
                for index in (0, target, dim - 1):
                    assert (state.success_probability(index)
                            == float(abs(want[index]) ** 2))
                assert state.amplitudes.tobytes() == want.tobytes()

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

    # inputs numpy cannot read as a complex array
    @pytest.mark.parametrize("phases", ["abcd", [1, 1, 1, [1]], {}],
                             ids=["str", "ragged", "dict"])
    def test_rejects_malformed_phases(self, phases):
        with pytest.raises(bq.InvalidPhaseError, match="phases"):
            bq.run_grover_with_phases(4, 0, 1, phases)

    # the moduli 1 +- 1e-12, the extreme moduli within PHASE_ATOL = 1e-12 on
    # either side of 1 (4503 ulps above, 9007 half-size ulps below), the
    # moduli one ulp beyond those, and non-finite and zero moduli
    @pytest.mark.parametrize("bad", [
        1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 4503 * 2.0 ** -52, 1.0 + 4504 * 2.0 ** -52,
        1.0 - 9007 * 2.0 ** -53, 1.0 - 9008 * 2.0 ** -53, np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("block", [0, 1, 3])
    def test_phase_check_matches_blockwise_fold(self, bad, block):
        # four blocks, the last of 5 factors; bad is a modulus exactly, a
        # smaller drift sits in the other blocks, and a NaN in an earlier
        # block must survive the larger drift after it
        dim = 3 * CHECK_BLOCK + 5
        phases = np.exp(2j * np.pi * np.random.default_rng(block).random(dim))
        phases[block * CHECK_BLOCK + 3] = bad
        for other in {0, 1, 3} - {block}:
            phases[other * CHECK_BLOCK + 2] = 1.0 + 1e-13
        if block == 3:
            phases[CHECK_BLOCK] = np.nan
        want = blockwise_phase_drift(phases, CHECK_BLOCK)
        if want <= bq.grover.PHASE_ATOL:
            assert _check_phases(phases, dim) is phases
        else:
            with pytest.raises(bq.InvalidPhaseError) as refusal:
                _check_phases(phases, dim)
            assert str(refusal.value).endswith(f"by up to {want!r}")

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

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("dim", [4, 37, 1024])
    def test_split_series_matches_plane_orbit(self, dim, symmetric):
        total = math.pi * math.sqrt(dim) / 2
        sweep = bq.evolve_two_term_hamiltonian(dim, dim - 1, total, 0.01,
                                               symmetric=symmetric)
        expected = split_orbit_success(dim, total, 0.01, symmetric)
        assert len(sweep.trotter_success) == len(expected)
        assert np.max(np.abs(np.subtract(sweep.trotter_success, expected))) <= 1e-12

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

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

import basequest as bq
from basequest.bond import BOLTZMANN, HALF_CYCLE_ATOL, HBAR
from oracles import dense_oracle


class TestHalfRabiPhase:
    def test_unit_gap(self):
        phase = bq.half_rabi_phase(1.0, math.pi / 2.0)
        assert abs(phase + 1j) <= 1e-12

    def test_random_gap_duration_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            gap = float(rng.uniform(0.1, 50.0))
            phase = bq.half_rabi_phase(gap, math.pi / (2.0 * gap))
            assert abs(abs(phase) - 1.0) <= 1e-12
            assert abs(phase * phase + 1.0) <= 1e-12

    @pytest.mark.parametrize("gap", [0.5, 1.0, 2.0, 3.3])
    def test_matches_matrix_exponential(self, gap):
        # exp(-i H duration) with H = gap * swap, over one half cycle: the
        # no-transition state (1, 0) lands wholly on the second component
        duration = math.pi / (2.0 * gap)
        hamiltonian = np.array([[0.0, gap], [gap, 0.0]], dtype=complex)
        dense = expm(-1j * hamiltonian * duration)
        assert abs(dense[0, 0]) <= 1e-12
        assert abs(bq.half_rabi_phase(gap, duration) - dense[1, 0]) <= 1e-12

    def test_rejects_nonpositive_gap(self):
        # gap * duration is a half cycle, but the gap is no energy gap
        with pytest.raises(bq.InvalidParameterError, match="energy gap"):
            bq.half_rabi_phase(-1.0, -math.pi / 2.0)

    @pytest.mark.parametrize("duration", [1.0, math.pi, math.pi / 2 + 1e-6])
    def test_rejects_other_durations(self, duration):
        with pytest.raises(bq.IncompleteTransitionError):
            bq.half_rabi_phase(1.0, duration)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_half_cycle_tolerance_is_the_bound(self, side):
        # the floats of gap*duration nearest pi/2 +- HALF_CYCLE_ATOL on
        # either side: the last inside is accepted, the next one out
        # refused. x - pi/2 is exact there, a multiple of 2**-52, which
        # 1e-9 is not, so no float sits on the bound itself
        half = math.pi / 2.0
        inside = half + side * HALF_CYCLE_ATOL
        while abs(inside - half) > HALF_CYCLE_ATOL:
            inside = math.nextafter(inside, half)
        outside = math.nextafter(inside, side * math.inf)
        assert abs(inside - half) < HALF_CYCLE_ATOL < abs(outside - half)
        assert abs(outside - inside) <= 2.0 ** -52
        assert abs(bq.half_rabi_phase(inside, 1.0) + 1j) <= 1e-9
        with pytest.raises(bq.IncompleteTransitionError, match="half cycle"):
            bq.half_rabi_phase(outside, 1.0)


class TestCascade:
    @pytest.mark.parametrize("steps", range(1, 13))
    def test_matches_power_law(self, steps):
        assert bq.cascade_phase(steps) == (-1j) ** steps

    def test_exact_values(self):
        assert bq.cascade_phase(2) == -1.0
        assert bq.cascade_phase(4) == 1.0

    def test_two_steps_reproduce_oracle_sign(self):
        # chaining two half cycles imprints exactly the query operator's sign
        uniform = np.full(4, 0.5, dtype=complex)
        marked = dense_oracle(4, 1) @ uniform
        by_cascade = uniform.copy()
        by_cascade[1] *= bq.cascade_phase(2)
        assert np.max(np.abs(marked - by_cascade)) == 0.0

    @pytest.mark.parametrize("steps", [0, -1, 1.5, 2.0, True])
    def test_rejects_bad_step_counts(self, steps):
        with pytest.raises(bq.InvalidParameterError):
            bq.cascade_phase(steps)

    def test_accepts_numpy_integers(self):
        assert bq.cascade_phase(np.int64(2)) == -1.0


class TestThermalNumbers:
    def test_error_rate_at_seven(self):
        assert bq.boltzmann_error_rate(7.0) == pytest.approx(9.1188e-4,
                                                             abs=1e-8)

    def test_error_rate_decreases_with_gap(self):
        rates = [bq.boltzmann_error_rate(x) for x in (1.0, 3.0, 7.0, 20.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_bond_time_at_room_temperature(self):
        t = bq.bond_time(7.0, 300.0)
        assert t == pytest.approx(3.637253608370308e-15, rel=1e-12)
        assert t == pytest.approx(4e-15, rel=0.10)

    def test_bond_time_scales_inversely_with_temperature(self):
        assert bq.bond_time(7.0, 600.0) == pytest.approx(
            bq.bond_time(7.0, 300.0) / 2.0)

    def test_bond_time_formula(self):
        assert bq.bond_time(2.0, 100.0) == HBAR / (2.0 * BOLTZMANN * 100.0)

    @pytest.mark.parametrize("call", [
        lambda: bq.boltzmann_error_rate(0.0),
        lambda: bq.boltzmann_error_rate(-1.0),
        lambda: bq.bond_time(0.0, 300.0),
        lambda: bq.bond_time(7.0, 0.0),
        lambda: bq.boltzmann_error_rate(math.inf),
        lambda: bq.bond_time(math.inf, 300.0),
        lambda: bq.bond_time(7.0, math.inf),
        lambda: bq.bond_time(7.0, math.nan),
    ])
    def test_domain_errors(self, call):
        with pytest.raises(bq.InvalidParameterError):
            call()


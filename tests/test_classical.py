from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import basequest as bq
from basequest.classical import BLOCK_SIZE


class TestExpectations:
    @pytest.mark.parametrize("size", [1, 2, 7, 100])
    def test_with_replacement_mean(self, size):
        assert bq.expected_queries(size, bq.SearchMode.WITH_REPLACEMENT) == size

    @pytest.mark.parametrize("size,mean", [(1, 1.0), (4, 2.5), (99, 50.0)])
    def test_without_replacement_mean(self, size, mean):
        assert bq.expected_queries(size, bq.SearchMode.WITHOUT_REPLACEMENT) == mean

    def test_accepts_mode_strings(self):
        assert bq.expected_queries(10, "with") == 10.0
        assert bq.expected_queries(10, "without") == 5.5

    def test_theoretical_std(self):
        assert bq.theoretical_std(10, "with") == pytest.approx(math.sqrt(90))
        assert bq.theoretical_std(10, "without") == pytest.approx(math.sqrt(99 / 12))
        assert bq.theoretical_std(1, "with") == 0.0

    def test_rejects_bad_size(self):
        with pytest.raises(bq.InvalidDimensionError):
            bq.expected_queries(0, "with")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            bq.expected_queries(4, "sideways")


class TestSampling:
    @pytest.mark.parametrize("mode", ["with", "without"])
    @pytest.mark.parametrize("size", [4, 20])
    def test_mean_within_four_standard_errors(self, size, mode):
        stats = bq.simulate_search(size, mode, trials=10_000, seed=7)
        gap = abs(stats.mean_queries - bq.expected_queries(size, mode))
        assert gap <= 4.0 * stats.std_error

    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_deterministic_for_fixed_seed(self, mode):
        a = bq.sample_queries(12, mode, 2_000, seed=42)
        b = bq.sample_queries(12, mode, 2_000, seed=42)
        assert np.array_equal(a, b)

    # frozen sha256 digests of the samples as little-endian int64: the
    # seeded streams may not change
    @pytest.mark.parametrize("size,mode,trials,seed,digest", [
        (1, "with", 5, 0, "00026c99bfe39e6f"),
        (10, "with", 2 * BLOCK_SIZE + 3, 0, "c7bbcf0df75e2bcd"),
        (10, "without", 2 * BLOCK_SIZE + 3, 0, "73277404f8b58377"),
        (1000, "with", BLOCK_SIZE + 4, 7, "167a7b600a94af63"),
        (2 ** 40, "with", 300, 123, "9ebae56b4bc6d6da"),
    ])
    def test_streams_are_pinned(self, size, mode, trials, seed, digest):
        samples = bq.sample_queries(size, mode, trials, seed)
        got = hashlib.sha256(samples.astype("<i8").tobytes()).hexdigest()
        assert got[:16] == digest

    def test_seeds_give_distinct_streams(self):
        a = bq.sample_queries(12, "with", 2_000, seed=1)
        b = bq.sample_queries(12, "with", 2_000, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["with", "without"])
    def test_leading_block_stable_under_trial_count(self, mode):
        # per-block child streams: growing the run never rewrites old blocks
        short = bq.sample_queries(9, mode, BLOCK_SIZE + 1000, seed=5)
        long = bq.sample_queries(9, mode, 2 * BLOCK_SIZE, seed=5)
        assert np.array_equal(short[:BLOCK_SIZE], long[:BLOCK_SIZE])

    def test_geometric_tail_frequencies(self):
        size, trials = 10, 20_000
        samples = bq.sample_queries(size, "with", trials, seed=11)
        survival = 1.0 - 1.0 / size
        for k in (5, 10, 20):
            expected = survival ** k
            observed = float(np.mean(samples > k))
            sigma = math.sqrt(expected * (1 - expected) / trials)
            assert abs(observed - expected) <= 4.0 * sigma

    def test_without_replacement_is_bounded_and_uniform(self):
        size, trials = 5, 20_000
        samples = bq.sample_queries(size, "without", trials, seed=13)
        assert samples.min() >= 1
        assert samples.max() <= size
        counts = np.bincount(samples, minlength=size + 1)[1:]
        expected = trials / size
        sigma = math.sqrt(trials * (1 / size) * (1 - 1 / size))
        assert np.max(np.abs(counts - expected)) <= 5.0 * sigma

    def test_with_replacement_has_unbounded_support(self):
        samples = bq.sample_queries(4, "with", 20_000, seed=3)
        assert samples.max() > 4

    def test_single_trial(self):
        stats = bq.simulate_search(6, "with", trials=1, seed=0)
        assert stats.trials == 1
        assert stats.std_error == 0.0
        assert stats.mean_queries >= 1.0

    def test_std_error_formula(self):
        samples = bq.sample_queries(8, "without", 500, seed=21)
        stats = bq.simulate_search(8, "without", 500, seed=21)
        assert stats.mean_queries == pytest.approx(float(samples.mean()))
        assert stats.std_error == pytest.approx(
            float(samples.std(ddof=1)) / math.sqrt(500))

    def test_rejects_bad_trials(self):
        with pytest.raises(bq.InvalidParameterError):
            bq.sample_queries(4, "with", 0, seed=0)

    @pytest.mark.parametrize("call,name", [
        (lambda: bq.sample_queries(4, "with", True), "trials"),
        (lambda: bq.expected_queries(True, "with"), "database size"),
        (lambda: bq.simulate_search(True, "with", 10), "database size"),
    ], ids=["trials", "expected_size", "simulate_size"])
    def test_rejects_bool_counts(self, call, name):
        with pytest.raises(bq.SimulationError, match=name):
            call()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", [1, 2]])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(bq.InvalidParameterError, match="seed"):
            bq.sample_queries(4, "without", 10, seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(3), 2**70])
    def test_accepts_seed_domain(self, seed):
        assert bq.sample_queries(4, "without", 10, seed=seed).shape == (10,)

    def test_without_replacement_at_a_trillion(self):
        # one float key per (trial, object) would need 8 TB here
        size, trials = 10**12, 10**5
        samples = bq.sample_queries(size, "without", trials, seed=1)
        assert samples.min() >= 1
        assert samples.max() <= size
        std_error = bq.theoretical_std(size, "without") / math.sqrt(trials)
        assert abs(samples.mean() - (size + 1) / 2) <= 5.0 * std_error


class TestSpeedup:
    def test_four_object_ratio(self):
        assert bq.speedup_ratio(4) == pytest.approx(4.0)

    def test_large_ratio_scales_like_root_size(self):
        size = 10**6
        ratio = bq.speedup_ratio(size)
        # mean cost size versus ~ (pi/4) sqrt(size) queries
        assert ratio == pytest.approx(4.0 * math.sqrt(size) / math.pi, rel=0.01)

    def test_undefined_when_no_queries_needed(self):
        assert bq.speedup_ratio(2) is None

"""Classical query baselines for the unsorted-database search.

Two sampling disciplines: memoryless queries (with replacement, expected
cost = database size) and non-repeating queries (without replacement,
expected cost = (size + 1)/2). Monte-Carlo simulation draws in seed
blocks (_checks.seed_blocks): trials are grouped into fixed-size blocks,
each drawing from its own SeedSequence child stream through PCG64, so any
parallel schedule over blocks reproduces the serial results exactly.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from ._checks import (MAX_DRAWS, check_count, check_enum, check_integer,
                      check_seed, seed_blocks)
from .errors import InvalidDimensionError

if TYPE_CHECKING:
    import numpy as np


class SearchMode(str, Enum):
    WITH_REPLACEMENT = "with"
    WITHOUT_REPLACEMENT = "without"


class TrialStats(NamedTuple):
    """Monte-Carlo summary: mean queries and its standard error."""

    trials: int
    mean_queries: float
    std_error: float


def expected_queries(database_size: int, mode: SearchMode) -> float:
    """Exact expectation of the query count for the given discipline."""
    size = check_count(database_size, "database size", 1, InvalidDimensionError)
    mode = check_enum(mode, "mode", SearchMode)
    if mode is SearchMode.WITH_REPLACEMENT:
        return float(size)
    return (size + 1) / 2.0


def sample_queries(
    database_size: int,
    mode: SearchMode,
    trials: int,
    seed: int | None = None,
) -> np.ndarray:
    """Per-trial query counts, one entry per trial.

    Deterministic for a fixed seed, and the first k*BLOCK_SIZE entries
    (_checks.BLOCK_SIZE) do not depend on how many trials follow them.
    seed is None (fresh entropy) or an integer >= 0.
    """
    import numpy as np

    size = check_count(database_size, "database size", 1, InvalidDimensionError)
    mode = check_enum(mode, "mode", SearchMode)
    trials = check_integer(trials, "trials", 1, high=MAX_DRAWS)
    check_seed(seed)

    samples = np.empty(trials, dtype=np.int64)
    for lo, hi, rng in seed_blocks(seed, trials):
        # each count drawn from its law: memoryless queries hit the target
        # with chance 1/size each, so their count is geometric; a uniformly
        # random query order puts the target at a uniformly random rank
        if mode is SearchMode.WITH_REPLACEMENT:
            samples[lo:hi] = rng.geometric(1.0 / size, size=hi - lo)
        else:
            samples[lo:hi] = rng.integers(1, size, size=hi - lo, endpoint=True)
    return samples


def simulate_search(
    database_size: int,
    mode: SearchMode,
    trials: int,
    seed: int | None = None,
) -> TrialStats:
    """Monte-Carlo estimate of the classical query cost.

    Mean of sample_queries with its standard error (sample standard
    deviation over sqrt(trials); zero for a single trial).
    """
    samples = sample_queries(database_size, mode, trials, seed)
    mean = float(samples.mean())
    spread = float(samples.std(ddof=1)) if trials > 1 else 0.0
    return TrialStats(trials=int(trials), mean_queries=mean,
                      std_error=spread / math.sqrt(trials))


def speedup_ratio(database_size: int) -> float | None:
    """Classical with-replacement cost over the optimal amplified query count.

    None when the optimal count is zero (a two-object database already starts
    at its best success chance), where the ratio is undefined.
    """
    from .grover import optimal_queries

    return _speedup(database_size, optimal_queries(database_size).queries)


def _speedup(size: int, best: int) -> float | None:
    """speedup_ratio(size), for a checked size with optimal count best."""
    # the with-replacement expectation of a size is float(size)
    return None if best == 0 else float(size) / best

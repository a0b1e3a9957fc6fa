"""Classical query baselines for the unsorted-database search.

Two sampling disciplines: memoryless queries (with replacement, expected
cost = database size) and non-repeating queries (without replacement,
expected cost = (size + 1)/2). Monte-Carlo simulation uses the PCG64
generator; trials are grouped into fixed-size blocks, each block drawing
from its own SeedSequence child stream, so any parallel schedule over
blocks reproduces the serial results exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ._checks import MAX_DRAWS, check_count, check_integer, check_seed
from .errors import InvalidDimensionError

if TYPE_CHECKING:
    import numpy as np

# Trials per seed block. Fixed constant: changing it changes the sampled
# stream, so it is part of the documented determinism contract.
BLOCK_SIZE = 4096


class SearchMode(str, Enum):
    WITH_REPLACEMENT = "with"
    WITHOUT_REPLACEMENT = "without"


@dataclass(frozen=True)
class TrialStats:
    """Monte-Carlo summary: mean queries and its standard error."""

    trials: int
    mean_queries: float
    std_error: float


def expected_queries(database_size: int, mode: SearchMode) -> float:
    """Exact expectation of the query count for the given discipline."""
    check_count(database_size, "database size", 1, InvalidDimensionError)
    mode = SearchMode(mode)
    if mode is SearchMode.WITH_REPLACEMENT:
        return float(database_size)
    return (database_size + 1) / 2.0


def _with_replacement_block(rng: np.random.Generator, count: int,
                            database_size: int) -> np.ndarray:
    # Memoryless queries hit the target with chance 1/size each; the query
    # count is exactly geometric, so sample that law directly.
    return rng.geometric(1.0 / database_size, size=count)


def _without_replacement_block(rng: np.random.Generator, count: int,
                               database_size: int) -> np.ndarray:
    # A uniformly random query order puts the target at a uniformly random
    # rank, and the query count is that rank: sample the law directly.
    return rng.integers(1, database_size, size=count, endpoint=True)


def sample_queries(
    database_size: int,
    mode: SearchMode,
    trials: int,
    seed: int | None = None,
) -> np.ndarray:
    """Per-trial query counts, one entry per trial.

    Deterministic for a fixed seed, and the first k*BLOCK_SIZE entries do
    not depend on how many trials follow them. seed is None (fresh
    entropy) or an integer >= 0.
    """
    import numpy as np

    check_count(database_size, "database size", 1, InvalidDimensionError)
    mode = SearchMode(mode)
    check_integer(trials, "trials", 1, high=MAX_DRAWS)
    check_seed(seed)

    blocks = -(-trials // BLOCK_SIZE)
    streams = np.random.SeedSequence(seed).spawn(blocks)
    samples = np.empty(trials, dtype=np.int64)
    for k, stream in enumerate(streams):
        lo = k * BLOCK_SIZE
        hi = min(trials, lo + BLOCK_SIZE)
        rng = np.random.Generator(np.random.PCG64(stream))
        if mode is SearchMode.WITH_REPLACEMENT:
            samples[lo:hi] = _with_replacement_block(rng, hi - lo,
                                                     database_size)
        else:
            samples[lo:hi] = _without_replacement_block(rng, hi - lo,
                                                        database_size)
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


def theoretical_std(database_size: int, mode: SearchMode) -> float:
    """Population standard deviation of the query count."""
    check_count(database_size, "database size", 1, InvalidDimensionError)
    mode = SearchMode(mode)
    if mode is SearchMode.WITH_REPLACEMENT:
        # geometric law: var = (1-p)/p**2 with p = 1/size
        return math.sqrt(database_size**2 - database_size)
    # uniform on 1..size: var = (size**2 - 1)/12
    return math.sqrt((database_size**2 - 1) / 12.0)


def speedup_ratio(database_size: int) -> float | None:
    """Classical with-replacement cost over the optimal amplified query count.

    None when the optimal count is zero (a two-object database already starts
    at its best success chance), where the ratio is undefined.
    """
    from .grover import optimal_queries

    best = optimal_queries(database_size)
    if best.queries == 0:
        return None
    return expected_queries(database_size, SearchMode.WITH_REPLACEMENT) / best.queries

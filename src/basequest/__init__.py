"""Quantum unsorted-database search dynamics applied to molecular base
selection: exact-size solutions, level-space simulation, classical
baselines, single-bond two-level physics, and a damped selection scenario
with emission statistics."""

from .bond import (
    BondParams,
    TwoLevelState,
    bond_time,
    boltzmann_error_rate,
    cascade_phase,
    evolution_operator,
    evolve,
    half_rabi_phase,
    interaction_hamiltonian,
)
from .classical import (
    SearchMode,
    TrialStats,
    expected_queries,
    sample_queries,
    simulate_search,
    speedup_ratio,
    theoretical_std,
)
from .errors import (
    DimensionMismatchError,
    DrawBudgetExceededError,
    IncompleteTransitionError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidPhaseError,
    InvalidTargetError,
    SimulationError,
)
from .grover import (
    HamiltonianSweep,
    SearchSolution,
    StateVector,
    apply_diffusion,
    apply_oracle,
    closed_form_success,
    evolve_two_term_hamiltonian,
    grover_step,
    optimal_queries,
    random_unit_phases,
    run_grover,
    run_grover_with_phases,
    solve_database_size,
    success_series,
    uniform_state,
)
from .replication import (
    DensityMatrix,
    EmissionPolicy,
    EmissionResult,
    HierarchyWarning,
    JointState,
    ScenarioParams,
    ScenarioReport,
    base_amplification,
    conditional_lift,
    damped_oscillation,
    damping_weight,
    emission_measurement,
    entangling_oracle,
    entanglement_entropy,
    hierarchy_warnings,
    oscillation_fraction,
    relaxed_start,
    run_scenario,
    sample_emission_time,
    success_probability_at,
    swing_endpoint,
    undamped_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

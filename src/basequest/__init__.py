"""Quantum unsorted-database search dynamics applied to molecular base
selection: exact-size solutions, level-space simulation, classical
baselines, single-bond two-level physics, and a damped selection scenario
with emission statistics.

The public names below are loaded on first use (PEP 562), so importing
the package, or a submodule that needs no arrays, does not import numpy.
"""

# Each submodule with the public names it defines; _MODULE_OF inverts it.
_SOURCES = {
    "bond": "bond_time boltzmann_error_rate cascade_phase half_rabi_phase",
    "classical": "SearchMode TrialStats expected_queries sample_queries "
                 "simulate_search speedup_ratio",
    "errors": "DimensionMismatchError IncompleteTransitionError "
              "InvalidDimensionError InvalidParameterError InvalidPhaseError "
              "InvalidTargetError SimulationError",
    "grover": "HamiltonianSweep SearchSolution StateVector closed_form_success "
              "evolve_two_term_hamiltonian optimal_queries random_unit_phases "
              "run_grover run_grover_with_phases solve_database_size "
              "success_series",
    "replication": "DensityMatrix EmissionPolicy HierarchyWarning JointState "
                   "ScenarioParams ScenarioReport base_amplification "
                   "damped_oscillation entangling_oracle entanglement_entropy "
                   "oscillation_fraction relaxed_start run_scenario "
                   "success_probability_at swing_endpoint undamped_state",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names.split()}

__version__ = "0.1.0"

# The submodules are exported too, as they were when imported eagerly.
__all__ = sorted([*_MODULE_OF, *_SOURCES])


def __getattr__(name):
    module = name if name in _SOURCES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the interpreter's timed import path, so python -X
    # importtime still reports the submodule (importlib.import_module does
    # not); importing it binds it as an attribute of this package
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
        globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

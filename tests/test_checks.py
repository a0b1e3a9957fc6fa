"""Every integer or time parameter of every public entry point refuses
values outside its domain with a SimulationError that names it."""

from __future__ import annotations

import math

import numpy as np
import pytest

import basequest as bq


def scenario(**overrides):
    base = dict(dim=4, target=1, bond_duration=1e-3, oscillation_time=1.0,
                relaxation_time=1e3, samples=1, seed=0)
    return bq.ScenarioParams(**{**base, **overrides})


def kicked():
    return bq.entangling_oracle(bq.relaxed_start(4), 1)


def rho():
    return bq.DensityMatrix.from_pure(kicked())


# (entry point and parameter, call taking the bad value, name in the message)
INTEGER_PARAMETERS = [
    ("uniform_state.dim", lambda v: bq.uniform_state(v), "dimension"),
    ("success_probability.target",
     lambda v: bq.uniform_state(4).success_probability(v), "target"),
    ("apply_oracle.target", lambda v: bq.apply_oracle(bq.uniform_state(4), v), "target"),
    ("grover_step.target", lambda v: bq.grover_step(bq.uniform_state(4), v), "target"),
    ("run_grover.dim", lambda v: bq.run_grover(v, 0, 1), "dimension"),
    ("run_grover.target", lambda v: bq.run_grover(4, v, 1), "target"),
    ("run_grover.queries", lambda v: bq.run_grover(4, 0, v), "query count"),
    ("run_grover_with_phases.dim",
     lambda v: bq.run_grover_with_phases(v, 0, 1, None), "dimension"),
    ("run_grover_with_phases.target",
     lambda v: bq.run_grover_with_phases(4, v, 1, None), "target"),
    ("run_grover_with_phases.queries",
     lambda v: bq.run_grover_with_phases(4, 0, v, None), "query count"),
    ("success_series.dim", lambda v: bq.success_series(v, 0, 1), "dimension"),
    ("success_series.target", lambda v: bq.success_series(4, v, 1), "target"),
    ("success_series.queries", lambda v: bq.success_series(4, 0, v), "query count"),
    ("closed_form_success.queries", lambda v: bq.closed_form_success(4, v), "query count"),
    ("optimal_queries.database_size", lambda v: bq.optimal_queries(v), "database size"),
    ("solve_database_size.queries", lambda v: bq.solve_database_size(v), "query count"),
    ("random_unit_phases.dim", lambda v: bq.random_unit_phases(v, 0), "dimension"),
    ("random_unit_phases.seed", lambda v: bq.random_unit_phases(4, v), "seed"),
    ("evolve_two_term_hamiltonian.dim",
     lambda v: bq.evolve_two_term_hamiltonian(v, 0, 1.0, 0.5), "dimension"),
    ("evolve_two_term_hamiltonian.target",
     lambda v: bq.evolve_two_term_hamiltonian(4, v, 1.0, 0.5), "target"),
    ("expected_queries.database_size",
     lambda v: bq.expected_queries(v, "with"), "database size"),
    ("theoretical_std.database_size",
     lambda v: bq.theoretical_std(v, "with"), "database size"),
    ("speedup_ratio.database_size", lambda v: bq.speedup_ratio(v), "database size"),
    ("sample_queries.database_size",
     lambda v: bq.sample_queries(v, "with", 10), "database size"),
    ("sample_queries.trials", lambda v: bq.sample_queries(4, "with", v), "trials"),
    ("sample_queries.seed", lambda v: bq.sample_queries(4, "with", 10, v), "seed"),
    ("sample_queries.max_draws",
     lambda v: bq.sample_queries(4, "with", 10, max_draws=v), "draw budget"),
    ("simulate_search.database_size",
     lambda v: bq.simulate_search(v, "without", 10), "database size"),
    ("simulate_search.trials", lambda v: bq.simulate_search(4, "without", v), "trials"),
    ("simulate_search.seed", lambda v: bq.simulate_search(4, "without", 10, v), "seed"),
    ("BondParams.cascade_steps", lambda v: bq.BondParams(cascade_steps=v), "cascade_steps"),
    ("cascade_phase.steps", lambda v: bq.cascade_phase(v), "steps"),
    ("ScenarioParams.dim", lambda v: scenario(dim=v), "dim"),
    ("ScenarioParams.target", lambda v: scenario(target=v), "target"),
    ("ScenarioParams.samples", lambda v: scenario(samples=v), "samples"),
    ("ScenarioParams.seed", lambda v: scenario(seed=v), "seed"),
    ("relaxed_start.dim", lambda v: bq.relaxed_start(v), "dim"),
    ("entangling_oracle.target",
     lambda v: bq.entangling_oracle(bq.relaxed_start(4), v), "target"),
    ("conditional_lift.target",
     lambda v: bq.conditional_lift(np.full(4, 0.5), v), "target"),
    ("swing_endpoint.target", lambda v: bq.swing_endpoint(kicked(), v), "target"),
    ("emission_measurement.target",
     lambda v: bq.emission_measurement(rho(), v), "target"),
    ("run_scenario.entropy_points",
     lambda v: bq.run_scenario(scenario(), entropy_points=v), "entropy_points"),
    ("run_scenario.attempt_cap",
     lambda v: bq.run_scenario(scenario(), attempt_cap=v), "attempt_cap"),
]

TIME_PARAMETERS = [
    ("evolve_two_term_hamiltonian.total_time",
     lambda v: bq.evolve_two_term_hamiltonian(4, 0, v, 0.5), "total_time"),
    ("evolve_two_term_hamiltonian.time_step",
     lambda v: bq.evolve_two_term_hamiltonian(4, 0, 1.0, v), "time_step"),
    ("half_rabi_phase.duration", lambda v: bq.half_rabi_phase(1.0, v), "duration"),
    ("ScenarioParams.bond_duration", lambda v: scenario(bond_duration=v), "bond_duration"),
    ("ScenarioParams.oscillation_time",
     lambda v: scenario(oscillation_time=v), "oscillation_time"),
    ("ScenarioParams.emission_time",
     lambda v: scenario(emission="fixed", emission_time=v), "emission_time"),
    ("oscillation_fraction.t", lambda v: bq.oscillation_fraction(v, 1.0), "time"),
    ("oscillation_fraction.oscillation_time",
     lambda v: bq.oscillation_fraction(0.5, v), "oscillation_time"),
    ("damping_weight.t", lambda v: bq.damping_weight(v, 1.0), "time"),
    ("undamped_state.t", lambda v: bq.undamped_state(kicked(), 1, 1.0, v), "time"),
    ("undamped_state.oscillation_time",
     lambda v: bq.undamped_state(kicked(), 1, v, 0.5), "oscillation_time"),
    ("success_probability_at.t",
     lambda v: bq.success_probability_at(kicked(), scenario(), v), "time"),
    ("damped_oscillation.t",
     lambda v: bq.damped_oscillation(kicked(), scenario(), v), "time"),
    ("sample_emission_time.oscillation_time",
     lambda v: bq.sample_emission_time("uniform", v, np.random.default_rng(0)),
     "oscillation_time"),
    ("sample_emission_time.fixed_time",
     lambda v: bq.sample_emission_time("fixed", 1.0, np.random.default_rng(0), v),
     "fixed_time"),
]


def cases(parameters, values):
    return [pytest.param(call, value, name, id=f"{label}={value!r}")
            for label, call, name in parameters for value in values]


@pytest.mark.parametrize(
    "call,value,name",
    cases(INTEGER_PARAMETERS, [True, math.nan, math.inf, 1.5])
    + cases(TIME_PARAMETERS, [math.nan, math.inf]))
def test_bad_value_is_named(call, value, name):
    with pytest.raises(bq.SimulationError, match=name):
        call(value)


@pytest.mark.parametrize("target", [-1, 4, 9])
@pytest.mark.parametrize("call", [
    lambda v: bq.conditional_lift(np.full(4, 0.5), v),
    lambda v: bq.swing_endpoint(kicked(), v),
    lambda v: bq.swing_endpoint(kicked(), v, "joint"),
], ids=["conditional_lift", "swing_endpoint", "swing_endpoint_joint"])
def test_out_of_range_target(call, target):
    with pytest.raises(bq.InvalidTargetError, match="target"):
        call(target)


@pytest.mark.parametrize("oscillation_time", [0.0, -1.0])
@pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
def test_emission_time_needs_positive_oscillation_time(policy, oscillation_time):
    with pytest.raises(bq.InvalidParameterError, match="oscillation_time"):
        bq.sample_emission_time(policy, oscillation_time,
                                np.random.default_rng(0), 0.5)

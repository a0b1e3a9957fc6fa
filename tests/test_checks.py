"""Every integer or real parameter of every public entry point refuses
values outside its domain with a SimulationError that names it."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import basequest as bq
# loaded here, so that no tracemalloc window below counts a first import
import basequest.classical  # noqa: F401
import basequest.replication  # noqa: F401
from basequest._checks import (MAX_COUNT, MAX_DRAWS, MAX_STATE_DIM, MAX_SWEEP_STEPS,
                               check_count, check_integer, check_nonnegative,
                               check_target)
from oracles import DenseJointState


def scenario(**overrides):
    base = dict(dim=4, target=1, bond_duration=1e-3, oscillation_time=1.0,
                relaxation_time=1e3, samples=1, seed=0)
    return bq.ScenarioParams(**{**base, **overrides})


def kicked():
    return bq.entangling_oracle(bq.relaxed_start(4), 1)


# (entry point and parameter, call taking the bad value, name in the message)
INTEGER_PARAMETERS = [
    ("success_probability.target",
     lambda v: bq.run_grover(4, 0, 0)[0].success_probability(v), "target"),
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
    ("speedup_ratio.database_size", lambda v: bq.speedup_ratio(v), "database size"),
    ("sample_queries.database_size",
     lambda v: bq.sample_queries(v, "with", 10), "database size"),
    ("sample_queries.trials", lambda v: bq.sample_queries(4, "with", v), "trials"),
    ("sample_queries.seed", lambda v: bq.sample_queries(4, "with", 10, v), "seed"),
    ("simulate_search.database_size",
     lambda v: bq.simulate_search(v, "without", 10), "database size"),
    ("simulate_search.trials", lambda v: bq.simulate_search(4, "without", v), "trials"),
    ("simulate_search.seed", lambda v: bq.simulate_search(4, "without", 10, v), "seed"),
    ("cascade_phase.steps", lambda v: bq.cascade_phase(v), "steps"),
    ("ScenarioParams.dim", lambda v: scenario(dim=v), "dim"),
    ("ScenarioParams.target", lambda v: scenario(target=v), "target"),
    ("ScenarioParams.samples", lambda v: scenario(samples=v), "samples"),
    ("ScenarioParams.seed", lambda v: scenario(seed=v), "seed"),
    ("relaxed_start.dim", lambda v: bq.relaxed_start(v), "dimension"),
    ("entangling_oracle.target",
     lambda v: bq.entangling_oracle(bq.relaxed_start(4), v), "target"),
    ("swing_endpoint.target", lambda v: bq.swing_endpoint(kicked(), v), "target"),
    ("run_scenario.entropy_points",
     lambda v: bq.run_scenario(scenario(), entropy_points=v), "entropy_points"),
    ("JointState.dim", lambda v: bq.JointState(v, 0, (1.0, 0.0, 0.0, 0.0)), "dimension"),
    ("JointState.target", lambda v: bq.JointState(4, v, (1.0, 0.0, 0.0, 0.0)), "target"),
    ("undamped_state.target",
     lambda v: bq.undamped_state(kicked(), v, 1.0, 0.5), "target"),
]

# times, durations and scales: finite reals
REAL_PARAMETERS = [
    ("evolve_two_term_hamiltonian.total_time",
     lambda v: bq.evolve_two_term_hamiltonian(4, 0, v, 0.5), "total_time"),
    ("evolve_two_term_hamiltonian.time_step",
     lambda v: bq.evolve_two_term_hamiltonian(4, 0, 1.0, v), "time_step"),
    ("half_rabi_phase.duration", lambda v: bq.half_rabi_phase(1.0, v), "duration"),
    ("half_rabi_phase.energy_gap", lambda v: bq.half_rabi_phase(v, 1.0), "energy gap"),
    ("boltzmann_error_rate.gap_over_kt",
     lambda v: bq.boltzmann_error_rate(v), "gap_over_kt"),
    ("bond_time.gap_over_kt", lambda v: bq.bond_time(v, 300.0), "gap_over_kt"),
    ("bond_time.temperature", lambda v: bq.bond_time(7.0, v), "temperature"),
    ("ScenarioParams.bond_duration", lambda v: scenario(bond_duration=v), "bond_duration"),
    ("ScenarioParams.oscillation_time",
     lambda v: scenario(oscillation_time=v), "oscillation_time"),
    ("ScenarioParams.emission_time",
     lambda v: scenario(emission="fixed", emission_time=v), "emission_time"),
    ("undamped_state.t", lambda v: bq.undamped_state(kicked(), 1, 1.0, v), "time"),
    ("undamped_state.oscillation_time",
     lambda v: bq.undamped_state(kicked(), 1, v, 0.5), "oscillation_time"),
    ("damped_oscillation.t",
     lambda v: bq.damped_oscillation(kicked(), scenario(), v), "time"),
    ("DensityMatrix.weight",
     lambda v: bq.DensityMatrix(v, kicked(), bq.relaxed_start(4)), "weight"),
]


# the one real-valued size: at least 1, bounded like the integer sizes
CLOSED_FORM_SIZE = ("closed_form_success.database_size",
                    lambda v: bq.closed_form_success(v, 1), "database size")

# a choice among an enum's values
ENUM_PARAMETERS = [
    ("expected_queries.mode", lambda v: bq.expected_queries(4, v), "mode"),
    ("sample_queries.mode", lambda v: bq.sample_queries(4, v, 10), "mode"),
    ("simulate_search.mode", lambda v: bq.simulate_search(4, v, 10), "mode"),
    ("ScenarioParams.emission", lambda v: scenario(emission=v), "emission"),
]

# joint states: a JointState
STATE_PARAMETERS = [
    ("entangling_oracle.state", lambda v: bq.entangling_oracle(v, 1), "state"),
    ("swing_endpoint.joint.state0", lambda v: bq.swing_endpoint(v, 1, "joint"),
     "state0"),
    ("swing_endpoint.state0", lambda v: bq.swing_endpoint(v, 1), "state0"),
    ("undamped_state.state0", lambda v: bq.undamped_state(v, 1, 1.0, 0.5), "state0"),
    ("damped_oscillation.state0",
     lambda v: bq.damped_oscillation(v, scenario(), 0.5), "state0"),
    ("entanglement_entropy.state", lambda v: bq.entanglement_entropy(v), "state"),
    ("DensityMatrix.pure",
     lambda v: bq.DensityMatrix(0.5, v, bq.relaxed_start(4)), "pure"),
    ("DensityMatrix.relaxed", lambda v: bq.DensityMatrix(0.5, kicked(), v), "relaxed"),
]

# database sizes, dimensions and query counts, bounded by MAX_COUNT
COUNT_PARAMETERS = [
    parameter for parameter in INTEGER_PARAMETERS
    if parameter[0].endswith((".dim", ".database_size", ".queries"))
] + [CLOSED_FORM_SIZE]

# every entry point taking a count, called at the bound
AT_COUNT_BOUND = [
    ("optimal_queries", lambda n: bq.optimal_queries(n).success_probability),
    ("expected_queries", lambda n: bq.expected_queries(n, "with")),
    ("speedup_ratio", lambda n: bq.speedup_ratio(n)),
    ("success_series", lambda n: bq.success_series(n, 0, 3)[-1]),
    ("run_grover", lambda n: bq.run_grover(n, 0, 3)[1]),
    ("run_grover_with_phases", lambda n: bq.run_grover_with_phases(n, 0, 3, None)[1]),
    ("closed_form_success.database_size", lambda n: bq.closed_form_success(n, 3)),
    ("closed_form_success.queries", lambda n: bq.closed_form_success(4, n)),
    ("solve_database_size", lambda n: bq.solve_database_size(n).database_size),
    ("evolve_two_term_hamiltonian",
     lambda n: bq.evolve_two_term_hamiltonian(n, 0, 1.0, 0.5).peak_success()),
    ("simulate_search.with", lambda n: bq.simulate_search(n, "with", 10, 0).mean_queries),
    ("simulate_search.without",
     lambda n: bq.simulate_search(n, "without", 10, 0).mean_queries),
]

# builders of N-sized states, each refusing MAX_STATE_DIM + 1 before it
# allocates; a search run or a joint state builds its array when amplitudes
# is first read
STATE_BUILDERS = [
    ("run_grover", lambda v: bq.run_grover(v, 0, 1)[0].amplitudes),
    ("run_grover_with_phases",
     lambda v: bq.run_grover_with_phases(v, 0, 1, None)[0].amplitudes),
    ("random_unit_phases", lambda v: bq.random_unit_phases(v, 0)),
    ("relaxed_start", lambda v: bq.relaxed_start(v).amplitudes),
]

# draw counts, each refusing its bound + 1 before it spawns or allocates
DRAW_COUNTS = [
    ("sample_queries.trials", lambda v: bq.sample_queries(4, "with", v), "trials",
     MAX_DRAWS),
    ("simulate_search.trials", lambda v: bq.simulate_search(4, "without", v),
     "trials", MAX_DRAWS),
    ("ScenarioParams.samples", lambda v: scenario(samples=v), "samples", MAX_DRAWS),
    ("run_scenario.entropy_points",
     lambda v: bq.run_scenario(scenario(), entropy_points=v), "entropy_points",
     MAX_SWEEP_STEPS),
]

# reals > 0 that may be infinite
RATE_PARAMETERS = [
    ("ScenarioParams.relaxation_time",
     lambda v: scenario(relaxation_time=v), "relaxation_time"),
]

ALL_REAL_PARAMETERS = REAL_PARAMETERS + RATE_PARAMETERS


# Magnitudes from the smallest subnormal float to near the largest: products
# and quotients of two of them overflow or underflow inside the models.
EXTREMES = [5e-324, 1e-300, 1e-20, 1.0, 1e20, 1e300, 1.7e308]


def run(params):
    return bq.run_scenario(params, entropy_points=2)


# (entry point, call taking two times or scales, names one of which a
# refusal must give)
EXTREME_PAIRS = [
    ("undamped_state", lambda t, osc: bq.undamped_state(kicked(), 1, osc, t),
     ["time", "oscillation_time"]),
    ("damped_oscillation", lambda t, osc: bq.damped_oscillation(
        kicked(), scenario(oscillation_time=osc), t), ["time", "oscillation_time"]),
    ("damped_oscillation.relaxation_time", lambda t, rate: bq.damped_oscillation(
        kicked(), scenario(relaxation_time=rate), t), ["time", "relaxation_time"]),
    ("bond_time", lambda gap, temperature: bq.bond_time(gap, temperature),
     ["gap_over_kt", "temperature"]),
    ("evolve_two_term_hamiltonian",
     lambda total, step: bq.evolve_two_term_hamiltonian(4, 0, total, step),
     ["total_time", "time_step"]),
    ("run_scenario.oscillation_time", lambda osc, rate: run(
        scenario(oscillation_time=osc, relaxation_time=rate)),
     ["oscillation_time", "relaxation_time"]),
    ("run_scenario.uniform", lambda osc, rate: run(
        scenario(emission="uniform", oscillation_time=osc, relaxation_time=rate)),
     ["oscillation_time", "relaxation_time"]),
    ("run_scenario.emission_time", lambda t, osc: run(
        scenario(emission="fixed", emission_time=t, oscillation_time=osc)),
     ["emission_time", "oscillation_time"]),
]


def cases(parameters, values):
    """values is a list, or a dict from id text to value for long reprs."""
    if not isinstance(values, dict):
        values = {repr(value): value for value in values}
    return [pytest.param(call, value, name, id=f"{label}={text}")
            for label, call, name in parameters for text, value in values.items()]


@pytest.mark.parametrize(
    "call,value,name",
    cases(INTEGER_PARAMETERS, [True, math.nan, math.inf, 1.5])
    + cases(COUNT_PARAMETERS, {"2**53+1": MAX_COUNT + 1, "10**400": 10 ** 400})
    + cases(REAL_PARAMETERS, [math.nan, math.inf, "1", 1j, None])
    + cases(RATE_PARAMETERS, [math.nan, -math.inf, 0.0, "1", 1j, None])
    # no numbers.Real, and a real whose float() overflows
    + cases(ALL_REAL_PARAMETERS,
            {"Decimal('0.5')": Decimal("0.5"), "10**400": 10 ** 400})
    + cases([CLOSED_FORM_SIZE], [math.nan, 0.5, "4", 1j, None, Decimal("20.2"),
                                 np.array(20.2)])
    + cases(ENUM_PARAMETERS, ["maybe", None, 1])
    + cases(STATE_PARAMETERS, ["x", None, [0.5] * 4]))
def test_bad_value_is_named(call, value, name):
    with pytest.raises(bq.SimulationError, match=re.escape(name) + " must be"):
        call(value)


def plain(result) -> list:
    """The numbers result holds, in order, each as (type, value), read
    through tuples, records, states and arrays."""
    if isinstance(result, np.ndarray):
        return [(result.dtype, tuple(result.tolist()))]
    if isinstance(result, bq.StateVector):
        result = (result._dim, result._target, result._on_target, result._rest,
                  result._phases)
    elif isinstance(result, bq.JointState):
        result = (result._dim, result._target, result._coefficients)
    elif isinstance(result, bq.DensityMatrix):
        result = (result._weight, result._pure, result._relaxed)
    elif dataclasses.is_dataclass(result):
        result = tuple(getattr(result, field.name)
                       for field in dataclasses.fields(result))
    if isinstance(result, tuple):
        return [pair for item in result for pair in plain(item)]
    return [(type(result), result)]


def outcome(call, value):
    """call(value) as plain numbers, or the type of the model error it raises."""
    try:
        return plain(call(value))
    except bq.SimulationError as exc:
        return type(exc)


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), Fraction(1, 2), 1,
                                   np.float16(0.5)],
                         ids=["float64", "float32", "Fraction", "int", "float16"])
@pytest.mark.parametrize("call", [call for _, call, _ in ALL_REAL_PARAMETERS],
                         ids=[label for label, _, _ in ALL_REAL_PARAMETERS])
def test_real_kinds_are_accepted(call, value):
    # each kind gives what its float() gives: the same numbers, as Python
    # floats and ints, or the same model error
    assert outcome(call, value) == outcome(call, float(value))


@pytest.fixture
def seeded_fresh_entropy(monkeypatch):
    """Unseeded classical draws take seed 0, so two calls draw alike."""
    blocks = basequest.classical.seed_blocks
    monkeypatch.setattr(basequest.classical, "seed_blocks",
                        lambda seed, count: blocks(0 if seed is None else seed, count))


INTEGER_KINDS = [np.int8, np.int16, np.int32, np.uint8, np.uint64]


@pytest.mark.usefixtures("seeded_fresh_entropy")
@pytest.mark.parametrize("kind", INTEGER_KINDS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("call", [call for label, call, _ in INTEGER_PARAMETERS
                                  if not label.endswith(".seed")],
                         ids=[label for label, _, _ in INTEGER_PARAMETERS
                              if not label.endswith(".seed")])
def test_integer_kinds_are_accepted(call, kind):
    # a count, size or index of each kind gives what the int gives: the same
    # numbers, as Python ints and floats, or the same model error
    for value in (1, 2, 3):
        assert outcome(call, kind(value)) == outcome(call, value), value


# (entry point and parameter, call, error, message up to the value, the
# refused values below and above the range): each refusal shows the value
# as passed, a Python int or one of numpy's 64-bit integers alike
REFUSED_INTEGERS = [
    ("run_grover.dim", lambda v: bq.run_grover(v, 0, 1), bq.InvalidDimensionError,
     f"dimension must be an integer in [2, {MAX_COUNT}]", [1, MAX_COUNT + 1]),
    ("run_grover.target", lambda v: bq.run_grover(4, v, 1), bq.InvalidTargetError,
     "target must be an integer in [0, 4)", [-1, 4]),
    ("run_grover.queries", lambda v: bq.run_grover(4, 0, v), bq.InvalidParameterError,
     f"query count must be an integer in [0, {MAX_COUNT}]", [-1, MAX_COUNT + 1]),
    ("success_probability.target",
     lambda v: bq.run_grover(4, 0, 0)[0].success_probability(v), bq.InvalidTargetError,
     "target must be an integer in [0, 4)", [-1, 4]),
    ("cascade_phase.steps", lambda v: bq.cascade_phase(v), bq.InvalidParameterError,
     "steps must be an integer >= 1", [0, -1]),
]


@pytest.mark.parametrize("kind", [int, np.int64, np.uint64],
                         ids=["int", "int64", "uint64"])
@pytest.mark.parametrize("call,error,message,values",
                         [row[1:] for row in REFUSED_INTEGERS],
                         ids=[row[0] for row in REFUSED_INTEGERS])
def test_integer_refusals_show_the_value_passed(call, error, message, values, kind):
    # a bool is refused as the caller's bool, whatever the kind around it
    refused = [True, np.True_] + [kind(v) for v in values
                                  if kind is not np.uint64 or v >= 0]
    for value in refused:
        with pytest.raises(error) as raised:
            call(value)
        assert str(raised.value) == f"{message}, got {value!r}"


def scenario_at(oscillation_time):
    return bq.run_scenario(bq.ScenarioParams(
        dim=64, target=5, bond_duration=1e-3, oscillation_time=oscillation_time,
        relaxation_time=40.0, emission="uniform", samples=20, seed=0))


# numpy scalars that the checks accept, on which the model once computed as
# passed (overflowing, or in single or half precision): each call beside the
# same call on the Python numbers its checks return
NUMPY_KIND_CASES = {
    "success_series_int8": (lambda: bq.success_series(4, 0, np.int8(127)),
                            lambda: bq.success_series(4, 0, 127)),
    "solve_database_size_int8": (lambda: bq.solve_database_size(np.int8(100)),
                                 lambda: bq.solve_database_size(100)),
    "closed_form_success_int8": (lambda: bq.closed_form_success(20, np.int8(100)),
                                 lambda: bq.closed_form_success(20, 100)),
    "expected_queries_int32": (
        lambda: bq.expected_queries(np.int32(2 ** 31 - 1), "without"),
        lambda: bq.expected_queries(2 ** 31 - 1, "without")),
    "bond_time_float16": (lambda: bq.bond_time(np.float16(7), np.float16(300)),
                          lambda: bq.bond_time(7.0, 300.0)),
    "bond_time_float32": (lambda: bq.bond_time(np.float32(7), np.float32(300)),
                          lambda: bq.bond_time(7.0, 300.0)),
    "run_scenario_float32": (lambda: scenario_at(np.float32(1.3)),
                             lambda: scenario_at(float(np.float32(1.3)))),
    "evolve_two_term_hamiltonian_float32": (
        lambda: bq.evolve_two_term_hamiltonian(4, 0, np.float32(1.0), np.float32(0.05)),
        lambda: bq.evolve_two_term_hamiltonian(4, 0, 1.0, float(np.float32(0.05)))),
}


@pytest.mark.parametrize("numpy_call,python_call", NUMPY_KIND_CASES.values(),
                         ids=NUMPY_KIND_CASES.keys())
def test_numpy_kinds_compute_as_python_numbers(numpy_call, python_call):
    assert plain(numpy_call()) == plain(python_call())


def annotated_parameters() -> set:
    """'callable.parameter' for each int- or float-annotated parameter of a
    callable in basequest.__all__ or of a public method of one; result
    records (tuples) and the StateVector constructor, which only runs call,
    are left out."""
    labels = set()
    for name in bq.__all__:
        obj = getattr(bq, name)
        if inspect.ismodule(obj) or (isinstance(obj, type) and issubclass(
                obj, (tuple, BaseException))):
            continue
        callables = [(name, obj)] if obj is not bq.StateVector else []
        if isinstance(obj, type):
            callables += [(method, function) for method, function in vars(obj).items()
                          if inspect.isfunction(function) and not method.startswith("_")]
        for label, function in callables:
            labels.update(f"{label}.{parameter.name}" for parameter in
                          inspect.signature(function).parameters.values()
                          if parameter.annotation in ("int", "float", int, float))
    return labels


def test_every_number_parameter_has_a_kinds_row():
    rows = {label for label, _, _ in
            INTEGER_PARAMETERS + ALL_REAL_PARAMETERS + [CLOSED_FORM_SIZE]}
    assert annotated_parameters() - rows == set()


@pytest.mark.parametrize("size", [np.float64(20.2), Fraction(101, 5), 20],
                         ids=["float64", "Fraction", "int"])
def test_closed_form_size_kinds_are_accepted(size):
    assert bq.closed_form_success(size, 1) == bq.closed_form_success(float(size), 1)


@pytest.mark.parametrize("count", [MAX_COUNT - 1, MAX_COUNT])
@pytest.mark.parametrize("call", [call for _, call in AT_COUNT_BOUND],
                         ids=[label for label, _ in AT_COUNT_BOUND])
def test_closed_forms_carry_counts_up_to_bound(call, count):
    assert math.isfinite(call(count))


@pytest.mark.parametrize("dim", [MAX_STATE_DIM + 1, 10 ** 13])
@pytest.mark.parametrize("build", [build for _, build in STATE_BUILDERS],
                         ids=[label for label, _ in STATE_BUILDERS])
def test_oversized_state_refused_before_allocation(build, dim):
    tracemalloc.start()
    try:
        with pytest.raises(bq.InvalidDimensionError, match="dimension"):
            build(dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("over", ["bound+1", "10**30"])
@pytest.mark.parametrize("call,name,bound", [entry[1:] for entry in DRAW_COUNTS],
                         ids=[entry[0] for entry in DRAW_COUNTS])
def test_oversized_draw_count_refused_before_allocation(call, name, bound, over):
    value = bound + 1 if over == "bound+1" else 10 ** 30
    tracemalloc.start()
    try:
        with pytest.raises(bq.InvalidParameterError, match=name):
            call(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# (check, its arguments with the value first, its lowest and highest value)
INTEGER_CHECKS = {
    "check_integer": (check_integer, ("trials", 1, bq.InvalidParameterError, MAX_DRAWS),
                      1, MAX_DRAWS),
    "check_count": (check_count, ("dimension", 2, bq.InvalidDimensionError), 2, MAX_COUNT),
    "check_target": (check_target, (5,), 0, 4),
}


@pytest.mark.parametrize("end", ["lowest", "highest"])
@pytest.mark.parametrize("check, args, low, high", INTEGER_CHECKS.values(),
                         ids=INTEGER_CHECKS.keys())
def test_exact_int_at_either_end_takes_one_call(check, args, low, high, end):
    # an exact int in range is returned by the check's first line, so the
    # check is the only Python call made for it; one beyond is refused
    value, beyond = (low, low - 1) if end == "lowest" else (high, high + 1)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        returned = check(value, *args)
    finally:
        sys.setprofile(None)
    assert calls == [check.__name__]
    assert returned is value
    with pytest.raises(bq.SimulationError, match=re.escape(f"got {beyond}")):
        check(beyond, *args)


@pytest.mark.parametrize("value, accepted", [
    (0.0, True), (-5e-324, False), (sys.float_info.max, True), (math.inf, False)],
    ids=["zero", "below_zero", "largest", "infinite"])
def test_nonnegative_check_at_either_end(value, accepted):
    # its callers refuse an infinite time further on, with messages that
    # name it too, so the check's own bound is tested here
    if accepted:
        assert check_nonnegative(value, "t") == value
    else:
        with pytest.raises(bq.InvalidParameterError, match=re.escape(
                f"t must be finite and >= 0, got {value!r}")):
            check_nonnegative(value, "t")


@pytest.mark.parametrize("target", [-1, 4, 9])
@pytest.mark.parametrize("call", [
    lambda v: bq.swing_endpoint(kicked(), v),
    lambda v: bq.swing_endpoint(kicked(), v, "joint"),
], ids=["swing_endpoint", "swing_endpoint_joint"])
def test_out_of_range_target(call, target):
    with pytest.raises(bq.InvalidTargetError, match="target"):
        call(target)


# inputs numpy cannot read as a complex array, given to the dense oracle's
# array constructor, which JointState was before it kept two rows
MALFORMED_AMPLITUDES = {
    "str": "ab",
    "non_numeric_entry": [[1, 0], [0, "x"]],
    "ragged": [[1, 0], [0]],
    "dict": {},
}


@pytest.mark.parametrize("value", MALFORMED_AMPLITUDES.values(),
                         ids=MALFORMED_AMPLITUDES.keys())
def test_malformed_amplitudes_are_named(value):
    with pytest.raises(bq.InvalidParameterError, match="amplitudes"):
        DenseJointState(value)


@pytest.mark.parametrize("oscillation_time", [0.0, -1.0])
@pytest.mark.parametrize("policy", ["extremum", "uniform", "fixed"])
def test_emission_time_needs_positive_oscillation_time(policy, oscillation_time):
    with pytest.raises(bq.InvalidParameterError, match="oscillation_time"):
        scenario(emission=policy, emission_time=0.5,
                 oscillation_time=oscillation_time)


# every entry point that places a time on the swing, given an oscillation_time
SWING_TIMES = [
    ("undamped_state", lambda osc: bq.undamped_state(kicked(), 1, osc, osc)),
    ("damped_oscillation", lambda osc: bq.damped_oscillation(
        kicked(), scenario(oscillation_time=osc), osc)),
] + [(f"run_scenario.{policy}", lambda osc, policy=policy: run(scenario(
        emission=policy, emission_time=osc, oscillation_time=osc,
        relaxation_time=math.inf))) for policy in ("extremum", "uniform", "fixed")]


@pytest.mark.filterwarnings("ignore::basequest.HierarchyWarning")
@pytest.mark.parametrize("call", [call for _, call in SWING_TIMES],
                         ids=[label for label, _ in SWING_TIMES])
def test_subnormal_oscillation_time_is_named(call):
    # pi*t would round to a multiple of 5e-324 and misplace the turning point
    for osc in (5e-324, 1e-310, np.nextafter(sys.float_info.min, 0.0)):
        with pytest.raises(bq.InvalidParameterError, match="oscillation_time"):
            call(osc)
    call(sys.float_info.min)


@pytest.mark.filterwarnings("ignore::basequest.HierarchyWarning")
@pytest.mark.parametrize("call,names", [entry[1:] for entry in EXTREME_PAIRS],
                         ids=[entry[0] for entry in EXTREME_PAIRS])
def test_extreme_magnitudes_give_a_value_or_a_named_refusal(call, names):
    named = re.compile(rf"\b({'|'.join(names)})\b")
    for a, b in itertools.product(EXTREMES, repeat=2):
        try:
            call(a, b)
        except bq.SimulationError as exc:
            assert named.search(str(exc)), (a, b, str(exc))

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basequest
from basequest import cli
from basequest.cli import main

import oracles

# The package's exports by defining submodule, as they were when the
# package imported every submodule eagerly, less the full-vector search
# steps, the density measurement API, the scenario's attempt-cap error,
# BondParams, oscillation_fraction and success_probability_at since
# deleted, and the scenario's damping weight and hierarchy notes since made
# private.
EXPORTS = {
    "bond": ["bond_time", "boltzmann_error_rate", "cascade_phase", "half_rabi_phase"],
    "classical": ["SearchMode", "TrialStats", "expected_queries", "sample_queries",
                  "simulate_search", "speedup_ratio"],
    "errors": ["DimensionMismatchError", "IncompleteTransitionError",
               "InvalidDimensionError", "InvalidParameterError", "InvalidPhaseError",
               "InvalidTargetError", "SimulationError"],
    "grover": ["HamiltonianSweep", "SearchSolution", "StateVector",
               "closed_form_success", "evolve_two_term_hamiltonian",
               "optimal_queries", "random_unit_phases", "run_grover",
               "run_grover_with_phases", "solve_database_size", "success_series"],
    "replication": ["DensityMatrix", "EmissionPolicy", "HierarchyWarning",
                    "JointState", "ScenarioParams", "ScenarioReport",
                    "base_amplification", "damped_oscillation", "entangling_oracle",
                    "entanglement_entropy", "relaxed_start", "run_scenario",
                    "swing_endpoint", "undamped_state"],
}
EXPORTED = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


# (result type, keyword fields, repr, hash) of each result type. The hashes
# are those of the frozen dataclasses the types replace; the scenario's
# params hash their policy's name, which varies per process, so its report
# is pinned to the hash of its plain tuple, as the dataclass hashed too.
RESULT_TYPES = [
    ("SearchSolution",
     dict(queries=1, database_size=4.0, success_probability=1.0),
     "SearchSolution(queries=1, database_size=4.0, success_probability=1.0)",
     5056085941107833790),
    ("HamiltonianSweep",
     dict(times=(0.0, 0.5), exact_success=(0.25, 0.5),
          trotter_success=(0.25, 0.4375)),
     "HamiltonianSweep(times=(0.0, 0.5), exact_success=(0.25, 0.5), "
     "trotter_success=(0.25, 0.4375))",
     -2603607378536870141),
    ("TrialStats", dict(trials=100, mean_queries=50.5, std_error=2.5),
     "TrialStats(trials=100, mean_queries=50.5, std_error=2.5)",
     -2607658206083720502),
    ("ScenarioReport",
     dict(params=basequest.ScenarioParams(
              dim=4, target=1, bond_duration=0.01, oscillation_time=1.0,
              relaxation_time=math.inf, samples=5, seed=1),
          mean_success=0.5, extremum_success_undamped=1.0,
          extremum_success_damped=0.75, mean_attempts=2.0,
          max_attempts_observed=3, entropy_times=(0.0, 1.0),
          entropy_bits=(0.5, 0.25), entropy_at_extremum=0.125, warnings=("a",)),
     "ScenarioReport(params=ScenarioParams(dim=4, target=1, bond_duration=0.01, "
     "oscillation_time=1.0, relaxation_time=inf, emission=<EmissionPolicy."
     "AT_EXTREMUM: 'extremum'>, emission_time=None, samples=5, seed=1), "
     "mean_success=0.5, extremum_success_undamped=1.0, "
     "extremum_success_damped=0.75, mean_attempts=2.0, max_attempts_observed=3, "
     "entropy_times=(0.0, 1.0), entropy_bits=(0.5, 0.25), "
     "entropy_at_extremum=0.125, warnings=('a',))",
     None),
]

# A small call of each subcommand; classical and scenario draw from PCG64,
# so they alone load numpy.
CALLS = [
    ["table", "--qmax", "40"],
    ["bond", "--cascade", "3"],
    ["grover", "--n", "1024", "--target", "5", "--phases", "random"],
    ["hamiltonian", "--n", "64", "--target", "3", "--dt", "0.1"],
    ["classical", "--n", "50", "--trials", "100"],
    ["scenario", "--samples", "5"],
]
DRAWING = {"classical", "scenario"}
# The package submodules a call of each subcommand loads besides those that
# `import basequest.cli` loads (cli, errors and output).
CALL_MODULES = {
    "table": ["_checks", "classical", "grover"],
    "grover": ["_checks", "grover"],
    "classical": ["_checks", "classical"],
    "bond": ["_checks", "bond"],
    "scenario": ["_checks", "grover", "replication"],
    "hamiltonian": ["_checks", "grover"],
}


# Every submodule of the package, by name.
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(basequest.__path__))


class Result(NamedTuple):
    exit_code: int
    output: str
    stderr: str


def invoke(argv):
    """One in-process CLI call. main always ends in SystemExit, whose code
    is the exit code; any other exception propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as done:
            main(argv)
    return Result(done.value.code, out.getvalue(), err.getvalue())


def fresh_python(code):
    """Run code in a new interpreter that imports the package under test;
    returns its stdout, failing the test on a nonzero exit."""
    src = str(Path(basequest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def fresh_main(argv, then):
    """Run main(argv) in a new interpreter, expecting exit 0, then the code
    `then`; returns the interpreter's stdout."""
    return fresh_python("import sys\n"
                        "from basequest.cli import main\n"
                        "try:\n"
                        f"    main({argv!r})\n"
                        "except SystemExit as done:\n"
                        "    assert done.code == 0, done.code\n"
                        f"{then}\n")


def fresh_owned_main(argv, then, before=""):
    """Run main() with no argv, as the `basequest` script does, on
    sys.argv ['basequest', *argv], in a new interpreter: the code `before`,
    then the call, expecting exit 0, then the code `then`; returns the
    interpreter's stdout."""
    return fresh_python(f"{before}\n"
                        "import sys\n"
                        "from basequest.cli import main\n"
                        f"sys.argv = ['basequest', *{argv!r}]\n"
                        "try:\n"
                        "    main()\n"
                        "except SystemExit as done:\n"
                        "    assert done.code == 0, done.code\n"
                        f"{then}\n")


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines()]


def summary_of(text):
    return next(r for r in jsonl_records(text) if r["record"] == "summary")


class TestTable:
    def test_csv_shape_and_values(self):
        result = invoke(["table", "--qmax", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("record,command,qmax,format,output")
        assert len(lines) == 1 + 1 + 4  # header, config echo, rows 0..3
        assert "10.472135954999581" in result.output  # full double precision
        assert "20.195669358089223" in result.output

    def test_known_row_values(self):
        result = invoke(["table", "--qmax", "2", "--format", "jsonl"])
        rows = [r for r in jsonl_records(result.output) if r["record"] == "row"]
        zero, one, two = rows
        assert zero["size_nearest"] == 1
        assert zero["speedup_at_nearest"] is None
        assert one["size_exact"] == pytest.approx(4.0, abs=1e-12)
        assert one["size_nearest"] == 4
        assert one["success_at_nearest"] == pytest.approx(1.0, abs=1e-12)
        assert one["speedup_at_nearest"] == pytest.approx(4.0)
        assert two["size_nearest"] == 10

    def test_config_echo_first(self):
        result = invoke(["table", "--qmax", "1", "--format", "jsonl"])
        first = jsonl_records(result.output)[0]
        assert first["record"] == "config"
        assert first["command"] == "table"
        assert first["qmax"] == 1

    def test_rejects_negative_qmax(self):
        assert invoke(["table", "--qmax", "-2"]).exit_code == 2

    def test_rejects_qmax_above_series_bound(self):
        assert invoke(["table", "--qmax", "1000001"]).exit_code == 2

    def test_rejects_abbreviated_flag(self):
        assert invoke(["table", "--qm", "3"]).exit_code == 2


class TestGrover:
    def test_perfect_single_query(self):
        result = invoke([
            "grover", "--n", "4", "--target", "2", "--iters", "1",
            "--format", "jsonl"])
        assert result.exit_code == 0
        records = jsonl_records(result.output)
        steps = [r for r in records if r["record"] == "step"]
        assert [s["step"] for s in steps] == [0, 1]
        assert steps[0]["success"] == pytest.approx(0.25, abs=1e-12)
        summary = summary_of(result.output)
        assert summary["success"] == pytest.approx(1.0, abs=1e-12)
        assert summary["deviation"] <= 1e-12

    def test_default_iteration_count_is_optimal(self):
        result = invoke([
            "grover", "--n", "100", "--target", "0", "--format", "jsonl"])
        summary = summary_of(result.output)
        assert summary["queries"] == 7
        assert summary["success"] == pytest.approx(0.9953444003575992,
                                                   abs=1e-10)

    def test_random_phases_leave_success_alone(self):
        plain = invoke([
            "grover", "--n", "20", "--target", "3", "--iters", "3",
            "--format", "jsonl"])
        decorated = invoke([
            "grover", "--n", "20", "--target", "3", "--iters", "3",
            "--phases", "random", "--seed", "5", "--format", "jsonl"])
        assert summary_of(decorated.output)["success"] == pytest.approx(
            summary_of(plain.output)["success"], abs=1e-10)

    def test_out_of_range_target_is_model_error(self):
        result = invoke(["grover", "--n", "4", "--target", "9",
                         "--iters", "1"])
        assert result.exit_code == 3
        assert result.stderr == ("error: InvalidTargetError: target must be "
                                 "an integer in [0, 4), got 9\n")

    def test_missing_required_option(self):
        assert invoke(["grover", "--target", "0"]).exit_code == 2

    def test_zero_queries_is_the_start_state(self):
        result = invoke(["grover", "--n", "5", "--target", "2", "--iters", "0",
                         "--format", "jsonl"])
        assert result.exit_code == 0
        records = jsonl_records(result.output)
        assert [r["record"] for r in records] == ["config", "step", "summary"]
        assert records[1]["step"] == 0
        assert records[1]["success"] == pytest.approx(1 / 5, rel=1e-15)
        assert records[2]["queries"] == 0
        assert records[2]["success"] == records[1]["success"]

    def test_large_database_at_optimal_count(self):
        result = invoke([
            "grover", "--n", "262144", "--target", "1", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["queries"] == 402
        assert summary["deviation"] <= 1e-12


class TestClassical:
    def test_monte_carlo_agrees_with_expectation(self):
        result = invoke([
            "classical", "--n", "20", "--mode", "without",
            "--trials", "4000", "--seed", "3", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["expected_queries"] == 10.5
        assert summary["deviation"] <= 4.0 * summary["std_error"]

    def test_rejects_unknown_mode(self):
        result = invoke(["classical", "--n", "4",
                         "--mode", "sideways"])
        assert result.exit_code == 2

    def test_bad_size_is_model_error(self):
        assert invoke(["classical", "--n", "0"]).exit_code == 3


class TestBond:
    def test_default_summary_numbers(self):
        result = invoke(["bond", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["error_rate"] == pytest.approx(9.1188e-4, abs=1e-8)
        assert summary["t_b"] == pytest.approx(3.637253608370308e-15,
                                               rel=1e-12)
        assert summary["phase_real"] == pytest.approx(0.0, abs=1e-12)
        assert summary["phase_imag"] == pytest.approx(-1.0, abs=1e-12)
        assert summary["phase_squared"] == pytest.approx(-1.0, abs=1e-12)

    def test_cascade_of_two_flips_sign(self):
        result = invoke(["bond", "--cascade", "2",
                         "--format", "jsonl"])
        summary = summary_of(result.output)
        assert summary["cascade_phase_real"] == -1.0
        assert summary["cascade_phase_imag"] == 0.0

    def test_bad_temperature_is_model_error(self):
        result = invoke(["bond", "--temperature", "-10"])
        assert result.exit_code == 3


class TestScenario:
    def test_default_extremum_run(self):
        result = invoke([
            "scenario", "--samples", "50", "--seed", "1", "--format", "jsonl"])
        assert result.exit_code == 0
        records = jsonl_records(result.output)
        summary = summary_of(result.output)
        assert summary["extremum_success_undamped"] == pytest.approx(
            1.0, abs=1e-12)
        assert summary["extremum_success_damped"] == pytest.approx(
            0.9980019986673331, abs=1e-12)
        assert summary["hierarchy_ok"] is True
        entropy_rows = [r for r in records if r["record"] == "entropy"]
        assert len(entropy_rows) == 101
        assert entropy_rows[0]["bits"] == pytest.approx(0.8112781244591329,
                                                        abs=1e-12)

    def test_fixed_emission_needs_time(self):
        result = invoke(["scenario", "--emission", "fixed"])
        assert result.exit_code == 2

    def test_fixed_emission_with_time_runs(self):
        result = invoke([
            "scenario", "--emission", "fixed", "--time", "1.0",
            "--samples", "20", "--format", "jsonl"])
        assert result.exit_code == 0
        assert summary_of(result.output)["mean_success"] == pytest.approx(
            0.9980019986673331, abs=1e-12)

    def test_out_of_range_target_is_model_error(self):
        result = invoke(["scenario", "--n", "4", "--target", "7",
                         "--samples", "5"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("n,emission", [(2**27 + 1, "extremum"),
                                            (10**12, "uniform")])
    def test_runs_at_large_sizes(self, n, emission):
        # attempt counts are drawn from their law, O(1) a sample: a cap on
        # retried checks ended both calls with exit 3. The default 1000
        # samples' mean count is 1/p_bar within 5 standard errors, the
        # counts' spread being about 1/p_bar
        result = invoke(["scenario", "--n", str(n), "--emission", emission,
                         "--format", "jsonl"])
        assert result.exit_code == 0
        assert len(jsonl_records(result.output)) == 103
        params = basequest.ScenarioParams(
            dim=n, target=0, bond_duration=1e-3, oscillation_time=1.0,
            relaxation_time=1e3, emission=emission)
        p_bar = (oracles.quad_period_mean(params) if emission == "uniform"
                 else oracles.emission_success(n, 1.0, 1.0, 1e3))
        mean = summary_of(result.output)["mean_attempts"]
        assert abs(mean * p_bar - 1.0) <= 5.0 / math.sqrt(1000)


class TestHamiltonian:
    def test_split_operator_tracks_exact_curve(self):
        result = invoke([
            "hamiltonian", "--n", "4", "--dt", "0.1", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["success_floor"] == pytest.approx(0.75)
        assert summary["peak_success"] >= 0.99
        assert summary["max_deviation"] <= 5e-4

    def test_step_series_covers_grid(self):
        result = invoke([
            "hamiltonian", "--n", "4", "--t-max", "1.0", "--dt", "0.25",
            "--format", "jsonl"])
        steps = [r for r in jsonl_records(result.output)
                 if r["record"] == "step"]
        assert [round(s["time"], 10) for s in steps] == [0.0, 0.25, 0.5,
                                                         0.75, 1.0]

    def test_bad_step_is_model_error(self):
        result = invoke(["hamiltonian", "--dt", "-0.1"])
        assert result.exit_code == 3


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        ["grover", "--n", "-1", "--target", "0", "--iters", "1"],
        ["hamiltonian", "--n", "-1"],
        ["hamiltonian", "--n", "4", "--t-max", "inf"],
        ["hamiltonian", "--n", "4", "--dt", "1e-300", "--t-max", "1"],
        ["classical", "--n", "4", "--seed", "-1"],
        ["scenario", "--seed", "-1"],
        ["scenario", "--emission", "fixed", "--time", "inf"],
        ["scenario", "--t-osc", "inf"],
        ["scenario", "--t-b", "inf"],
        ["bond", "--delta-e-kt", "inf"],
        ["bond", "--delta-e-kt", "nan"],
        ["bond", "--temperature", "inf"],
        ["grover", "--n", "4", "--target", "0", "--iters", "1000001"],
        ["grover", "--n", "10000000000000", "--target", "0"],
        ["grover", "--n", "4", "--target", "0", "--seed", "-1"],
        ["grover", "--n", "1" + "0" * 400, "--target", "0"],
        ["grover", "--n", str(2**53 + 1), "--target", "0", "--iters", "1"],
        ["classical", "--n", "1" + "0" * 400],
        ["classical", "--n", str(2**53 + 1), "--mode", "without"],
        ["hamiltonian", "--n", "1" + "0" * 400],
        # an emission time at the swing's node: no check can succeed
        ["scenario", "--emission", "fixed", "--time", "0.3333333333333333"],
        # negative exponents and infinities are values, not option names
        ["scenario", "--t-r", "-1e3"],
        ["hamiltonian", "--t-max", "-inf"],
        ["bond", "--temperature", "-1e2"],
        ["hamiltonian", "--dt", "-1E-3"],
        # a time ratio that overflows, a gap energy that underflows
        ["scenario", "--n", "4", "--t-osc", "1e308", "--t-r", "1e308",
         "--samples", "3"],
        ["scenario", "--emission", "fixed", "--time", "1e308"],
        ["bond", "--delta-e-kt", "1e-20", "--temperature", "1e-300"],
        ["bond", "--cascade", "0"],
    ])
    def test_domain_errors_are_model_errors(self, argv):
        # the model error ends the call as an exit, not as a traceback:
        # invoke lets any other exception through
        result = invoke(argv)
        assert result.exit_code == 3
        # the error line names the exception's class: error: <class>: <message>
        assert result.stderr.startswith("error: ")
        name = result.stderr.split(": ")[1]
        assert issubclass(getattr(basequest, name), basequest.SimulationError)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_config_echoes_each_option_in_table_order(self, command):
        import numpy

        result = invoke([command, *BASE[command], "--format", "jsonl"])
        config = jsonl_records(result.output)[0]
        options = cli._COMMANDS[command][1] + cli._COMMON
        # then the provenance: the package version, and numpy's for the
        # subcommands that draw, though this process has loaded numpy
        drawing = command in DRAWING
        assert list(config) == ["record", "command", *(
            flag[2:].replace("-", "_") for flag, *_ in options if flag != "--config"),
            "version", *["numpy"] * drawing]
        assert (config["record"], config["command"]) == ("config", command)
        assert config["version"] == basequest.__version__
        assert config.get("numpy") == (numpy.__version__ if drawing else None)

    @pytest.mark.parametrize("argv,key,value", [
        (["grover", "--n", "100", "--target", "0"], "iters", 7),
        (["hamiltonian", "--n", "16"], "t_max", 2.0 * math.pi),
    ])
    def test_config_echoes_resolved_defaults(self, argv, key, value):
        config = jsonl_records(invoke([*argv, "--format", "jsonl"]).output)[0]
        assert config[key] == value

    def test_module_entry_point(self):
        import numpy  # noqa: F401

        src = str(Path(basequest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["table", "--qmax", "2"]
        done = subprocess.run([sys.executable, "-m", "basequest.cli", *argv],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # the same bytes from this process, which has loaded numpy
        assert done.stdout == invoke(argv).output
        assert "version" in done.stdout.split("\n")[0].split(",")
        assert "numpy" not in done.stdout.split("\n")[0].split(",")

    def test_in_process_calls_never_freeze(self, tmp_path, monkeypatch):
        # nor disable the collector, nor set the environment: the caller's
        # process goes on
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        frozen, environ = gc.get_freeze_count(), dict(os.environ)
        for argv in [*CALLS, ["table", "--qmax", "-1"], ["grover", "--n", "4",
                                                          "--target", "9"]]:
            invoke([*argv, "--output", str(tmp_path / "rows.csv")])
            assert gc.get_freeze_count() == frozen, argv
            assert gc.isenabled(), argv
            assert os.environ == environ, argv
        assert cli.main.main(["classical", "--n", "4", "--trials", "10"],
                             standalone_mode=False) == 0
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()
        assert os.environ == environ

    def test_main_without_argv_freezes_before_exit(self, tmp_path):
        frozen = fresh_owned_main(["bond", "--output", str(tmp_path / "b.csv")],
                                  "import gc\nprint(gc.get_freeze_count())")
        assert int(frozen) > 0

    def test_main_without_argv_runs_the_call_without_gc(self, tmp_path):
        enabled = fresh_owned_main(["bond", "--output", str(tmp_path / "b.csv")], "",
                                   before="import gc\n"
                                          "from basequest import cli\n"
                                          "run = cli._run\n"
                                          "def probe(argv, prog):\n"
                                          "    print(gc.isenabled())\n"
                                          "    return run(argv, prog)\n"
                                          "cli._run = probe")
        assert enabled == "False\n"

    def test_main_without_argv_runs_blas_on_one_thread(self, tmp_path):
        # the call loads numpy, whose OpenBLAS would start a worker thread
        # per core; /proc/self/task lists the process's threads on Linux
        report = json.loads(fresh_owned_main(
            ["classical", "--n", "4", "--trials", "10", "--output",
             str(tmp_path / "c.csv")],
            "import json, os\n"
            "assert 'numpy' in sys.modules\n"
            "tasks = '/proc/self/task'\n"
            "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'],\n"
            "                  len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))",
            before="import os\nos.environ.pop('OPENBLAS_NUM_THREADS', None)"))
        assert report[0] == "1"
        if sys.platform == "linux":
            assert report[1] == 1

    def test_main_without_argv_keeps_a_set_blas_thread_count(self, tmp_path):
        threads = fresh_owned_main(
            ["classical", "--n", "4", "--trials", "10", "--output",
             str(tmp_path / "c.csv")],
            "import os\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
            before="import os\nos.environ['OPENBLAS_NUM_THREADS'] = '2'")
        assert threads == "2\n"

    @pytest.mark.parametrize("argv", [
        ["classical", "--n", "50", "--mode", "without", "--trials", "1000",
         "--seed", "3"],
        ["scenario", "--n", "16", "--target", "3", "--t-r", "40",
         "--emission", "uniform"],
    ])
    def test_blas_thread_count_leaves_the_bytes_alone(self, tmp_path, argv):
        # the path is echoed in the config record, so both calls write it
        target, written = tmp_path / "rows.csv", []
        for setting in ("os.environ.pop('OPENBLAS_NUM_THREADS', None)",
                        "os.environ['OPENBLAS_NUM_THREADS'] = '2'"):
            fresh_owned_main([*argv, "--output", str(target)], "",
                             before=f"import os\n{setting}")
            written.append(target.read_bytes())
            target.unlink()
        assert written[0] == written[1]

    @pytest.mark.parametrize("command,argv", [
        ("hamiltonian", "['hamiltonian', '--n', '4', '--t-max', '1', '--dt', str(1 / k)]"),
        ("grover", "['grover', '--n', '4', '--target', '0', '--iters', str(k)]"),
        ("table", "['table', '--qmax', str(k)]"),
        ("scenario", "['scenario', '--emission', 'uniform', '--samples', str(k)]"),
    ])
    def test_streams_leave_no_more_cycles_as_they_grow(self, command, argv):
        # a CLI process runs its call with the collector disabled, so no
        # cycle may be made per record or per sample: a call leaves the
        # same unreachable objects at 10**3 and at 10**5 of them
        counts = fresh_python(
            "import gc, json, os\n"
            "from basequest.cli import main\n"
            "gc.disable()\n"
            "def unreachable(k, fmt):\n"
            "    gc.collect()\n"
            "    try:\n"
            f"        main([*{argv}, '--format', fmt, '--output', os.devnull])\n"
            "    except SystemExit as done:\n"
            "        assert done.code == 0, done.code\n"
            "    return gc.collect()\n"
            "unreachable(10, 'csv')  # first imports and caches\n"
            "print(json.dumps([[unreachable(k, fmt) for k in (10 ** 3, 10 ** 5)]\n"
            "                  for fmt in ('csv', 'jsonl')]))\n")
        for small, large in json.loads(counts):
            assert abs(large - small) <= 8, (command, small, large)

    def test_module_entry_point_writes_the_in_process_bytes(self, tmp_path):
        src = str(Path(basequest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # the path is echoed in the config record, so both calls write it
        target = tmp_path / "rows.csv"
        argv = ["table", "--qmax", "200000", "--output", str(target)]
        done = subprocess.run([sys.executable, "-m", "basequest.cli", *argv],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        fresh = target.read_bytes()
        target.unlink()
        assert invoke(argv).exit_code == 0
        assert target.read_bytes() == fresh

    @pytest.mark.parametrize("argv,loads_numpy", [
        *((argv, argv[0] in DRAWING) for argv in CALLS),
        *(([*argv, "--format", "jsonl"], argv[0] in DRAWING) for argv in CALLS),
        (None, False),
        (["--help"], False),
    ])
    def test_numpy_loads_only_for_drawing_subcommands(self, argv, loads_numpy):
        # the import graph of a fresh `import basequest.cli` (argv None) or
        # of one call: exactly the package's submodules that the call runs,
        # and json for JSON lines alone; never csv, decimal, scipy or click
        report = ("loaded = set(sys.modules)\n"
                  "import json\n"
                  "ours = sorted(m for m in loaded if m.startswith('basequest.'))\n"
                  "print(json.dumps([ours, [m in loaded for m in (\n"
                  "    'numpy', 'json', 'csv', 'dataclasses', 'inspect', 'decimal',\n"
                  "    'scipy', 'click')]]))")
        if argv is None:
            out = fresh_python(f"import sys, basequest.cli\n{report}")
        else:
            out = fresh_main(argv, report)
        modules, flags = json.loads(out.splitlines()[-1])
        command = argv[0] if argv else None
        wrote = command in cli._COMMANDS
        jsonl = wrote and "jsonl" in argv
        assert modules == sorted(f"basequest.{name}" for name in [
            "cli", "errors", "output", *CALL_MODULES.get(command, [])])
        # results are named tuples: only ScenarioParams is a dataclass, and
        # inspect comes with numpy alone
        assert flags == [loads_numpy, jsonl, False,
                         command == "scenario", loads_numpy, False, False, False]

    @pytest.mark.parametrize("module", SUBMODULES, ids=[
        "import" if module == "grover" else f"import-{module}" for module in SUBMODULES])
    def test_search_paths_load_neither_numpy_nor_decimal(self, module):
        # a bare import of each submodule: numpy is for the routines that
        # build or draw arrays; the CLI's search calls are rows of the table
        # above
        fresh_python(f"import sys, basequest.{module}\n"
                     "assert not {'numpy', 'decimal'} & {m.split('.')[0] "
                     "for m in sys.modules}, sorted(sys.modules)")

    def test_plain_search_calls_load_no_numpy(self):
        # an undecorated run squares its float target amplitude; numpy is
        # for the arrays and the phased product alone
        fresh_python("import sys\n"
                     "import basequest as bq\n"
                     "bq.run_grover(2 ** 20, 5, 3)\n"
                     "bq.optimal_queries(10 ** 6)\n"
                     "bq.closed_form_success(1000.5, 7)\n"
                     "bq.solve_database_size(12)\n"
                     "bq.success_series(64, 3, 20)\n"
                     "bq.evolve_two_term_hamiltonian(64, 3, 10.0, 0.5)\n"
                     "assert 'numpy' not in sys.modules, sorted(sys.modules)")

    def test_scenario_physics_loads_no_numpy(self):
        # every step of a selection round short of its arrays and draws, at
        # a dim no array could hold
        fresh_python("import sys\n"
                     "import basequest as bq\n"
                     "dim, target = 10 ** 12, 5\n"
                     "params = bq.ScenarioParams(dim, target, 1e-3, 1.0, 5.0)\n"
                     "state0 = bq.entangling_oracle(bq.relaxed_start(dim), target)\n"
                     "for way in ('conditional', 'joint'):\n"
                     "    swung = bq.undamped_state(state0, target, 1.0, 0.5, way)\n"
                     "    bq.entanglement_entropy(swung)\n"
                     "    bq.damped_oscillation(state0, params, 1.0, way).diagnostics()\n"
                     "bq.replication._hierarchy_warnings(params)\n"
                     "assert 'numpy' not in sys.modules, sorted(sys.modules)")

    def test_uniform_scenario_loads_no_numpy_polynomial(self):
        # the period mean is a Bessel series in plain floats: no quadrature
        # rule is loaded for it
        fresh_main(["scenario", "--emission", "uniform", "--samples", "5"],
                   "assert 'numpy.polynomial' not in sys.modules, "
                   "sorted(m for m in sys.modules if m.startswith('numpy.'))")

    def test_exports_match_eager_package(self):
        assert basequest.__all__ == EXPORTED
        for module, names in EXPORTS.items():
            source = importlib.import_module(f"basequest.{module}")
            assert getattr(basequest, module) is source
            for name in names:
                assert getattr(basequest, name) is getattr(source, name)
        # a fresh package: dir() and a star import see the same names
        code = ("import json, basequest\n"
                "star = {}\n"
                "exec('from basequest import *', star)\n"
                "print(json.dumps([[n for n in dir(basequest) if n[0] != '_'],\n"
                "                  sorted(n for n in star if n[0] != '_')]))")
        listed, starred = json.loads(fresh_python(code))
        assert listed == EXPORTED
        assert starred == EXPORTED

    @pytest.mark.parametrize("name,fields,text,hashed", RESULT_TYPES,
                             ids=[row[0] for row in RESULT_TYPES])
    def test_result_types_are_frozen_records(self, name, fields, text, hashed):
        # repr and hash as when the results were frozen dataclasses; as
        # named tuples they also unpack, index and equal their plain tuple
        result = getattr(basequest, name)(**fields)
        values = tuple(fields.values())
        assert repr(result) == text
        assert hash(result) == (hash(values) if hashed is None else hashed)
        assert result == values and tuple(result) == values
        assert result[0] == values[0]
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(result, field, None)

    def test_unknown_attribute_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            basequest.no_such_name

    def test_choices_match_enums(self):
        _, parsers = cli._parsers("basequest")

        def choices(command, flag):
            action = next(a for a in parsers[command]._actions
                          if flag in a.option_strings)
            return list(action.choices)

        assert choices("classical", "--mode") == [
            mode.value for mode in basequest.SearchMode]
        assert choices("scenario", "--emission") == [
            policy.value for policy in basequest.EmissionPolicy]

    def test_identical_invocations_are_byte_identical(self):
        args = ["scenario", "--emission", "uniform", "--samples", "40",
                "--seed", "7", "--format", "jsonl"]
        first = invoke(args)
        second = invoke(args)
        assert first.output == second.output

    def test_output_file_matches_stdout(self, tmp_path):
        stdout_run = invoke(["table", "--qmax", "4"])
        target = tmp_path / "rows.csv"
        file_run = invoke(["table", "--qmax", "4",
                           "--output", str(target)])
        assert file_run.exit_code == 0
        on_disk = target.read_text(encoding="utf-8")
        # the config echo records where the bytes went; rows are identical
        assert on_disk.replace(str(target), "") == stdout_run.output
        assert stdout_run.output.splitlines()[2:] == \
            on_disk.splitlines()[2:]

    def test_unwritable_output_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        result = invoke(["table", "--qmax", "10",
                         "--output", str(target)])
        assert result.exit_code == 2
        assert "'--output'" in result.stderr
        assert "Traceback" not in result.output + result.stderr

    def test_output_directory_is_usage_error(self, tmp_path):
        # refused before the run, so the model error in argv does not show
        result = invoke(["grover", "--n", "4", "--target", "9",
                         "--output", str(tmp_path)])
        assert result.exit_code == 2
        assert "'--output'" in result.stderr

    def test_end_of_options_before_subcommand(self):
        assert invoke(["--", "table", "--qmax", "1"]).output == \
            invoke(["table", "--qmax", "1"]).output

    def test_env_var_selects_format(self, monkeypatch):
        monkeypatch.setenv("BASEQUEST_FORMAT", "jsonl")
        result = invoke(["table", "--qmax", "1"])
        assert result.exit_code == 0
        assert jsonl_records(result.output)[0]["record"] == "config"

    def test_config_file_sets_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\nformat=jsonl\nqmax=2\n", encoding="utf-8")
        result = invoke(["table", "--config", str(cfg)])
        assert result.exit_code == 0
        records = jsonl_records(result.output)
        assert records[0]["qmax"] == 2

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmax=2\n", encoding="utf-8")
        result = invoke(["table", "--config", str(cfg),
                         "--qmax", "5", "--format", "jsonl"])
        rows = [r for r in jsonl_records(result.output)
                if r["record"] == "row"]
        assert len(rows) == 6

    def test_config_file_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=16\ntarget=3\n", encoding="utf-8")
        result = invoke(["grover", "--config", str(cfg), "--format", "jsonl"])
        assert result.exit_code == 0
        assert jsonl_records(result.output)[0]["n"] == 16

    @pytest.mark.parametrize("env,flags,expected", [
        (None, [], "jsonl"),                           # the file beats the default
        ("csv", [], "csv"),                            # the variable beats the file
        ("csv", ["--format", "jsonl"], "jsonl"),       # a flag beats both
    ])
    def test_format_precedence(self, tmp_path, monkeypatch, env, flags, expected):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("format=jsonl\n", encoding="utf-8")
        if env is None:
            monkeypatch.delenv("BASEQUEST_FORMAT", raising=False)
        else:
            monkeypatch.setenv("BASEQUEST_FORMAT", env)
        result = invoke(["table", "--qmax", "1", "--config", str(cfg), *flags])
        assert result.exit_code == 0
        assert result.output.startswith("{") == (expected == "jsonl")

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmxa=2\n", encoding="utf-8")
        result = invoke(["table", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_malformed_config_line_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmax\n", encoding="utf-8")
        result = invoke(["table", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"qmax=\xff\xfe\n")
        result = invoke(["table", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "invalid value for '--config'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_help_runs(self):
        assert invoke(["--help"]).exit_code == 0
        assert invoke(["-h"]).exit_code == 0
        for name in ("table", "grover", "classical", "bond", "scenario",
                     "hamiltonian"):
            assert invoke([name, "--help"]).exit_code == 0


# The perfbench cli op shapes, at sizes that still span several chunks of
# rows, and the cells that are not plain numbers: the None speedup of the
# zero-query table row, a bool and the hierarchy notes of a scenario summary.
STREAMS = [
    ["table", "--qmax", "0"],
    ["table", "--qmax", "700"],
    ["grover", "--n", "8", "--target", "3"],
    ["grover", "--n", "512", "--target", "7", "--phases", "random", "--seed", "5"],
    ["grover", "--n", "262144", "--target", "9"],
    ["classical", "--n", "40", "--mode", "with", "--trials", "3000", "--seed", "2"],
    ["classical", "--n", "500", "--mode", "without", "--trials", "1000"],
    ["bond", "--delta-e-kt", "7.25", "--temperature", "301.5", "--cascade", "5"],
    ["scenario", "--n", "4", "--samples", "20", "--seed", "1"],
    ["scenario", "--n", "8", "--target", "3", "--emission", "uniform",
     "--samples", "20", "--seed", "2"],
    ["scenario", "--n", "16", "--target", "5", "--emission", "fixed",
     "--time", "0.85", "--samples", "20"],
    ["scenario", "--t-b", "0.5", "--t-r", "3", "--samples", "5"],
    ["hamiltonian", "--n", "4", "--dt", "0.05"],
    ["hamiltonian", "--n", "64", "--target", "9", "--dt", "0.05"],
    ["hamiltonian", "--n", "4", "--dt", "0.01", "--t-max", "7.25"],
    # one point short of a whole chunk of the series, a whole chunk, and one
    # point over
    *(["hamiltonian", "--n", "1024", "--dt", "0.125", "--t-max",
       str((cli._SERIES_CHUNK + extra) / 8)] for extra in (-2, -1, 0)),
]


def oracle_call(argv, output=None):
    """(config, oracle records) of one call: its config record as the
    JSON-lines run echoes it, and the records the CLI built before it
    streamed rows, from the same options."""
    tail = ["--output", output] if output else []
    result = invoke([*argv, "--format", "jsonl", *tail])
    assert result.exit_code == 0, result.stderr
    text = Path(output).read_bytes().decode("utf-8") if output else result.output
    config = json.loads(text.split("\n")[0])
    return config, oracles.report_records(config)


# The sha256 of what one call of each subcommand writes in CSV and in JSON
# lines, with the numpy version that a drawing call's config record names
# left out. The table crosses a chunk and starts with the None speedup of
# row 0; the uniform scenario's summary holds a bool and str notes; the
# hamiltonian call's split series is taken in closed form, and the
# scenario's chances by the search law; the last call
# writes to the path its --config file names, which the config record
# echoes, and whose comma and quotes CSV must quote.
PINNED_OUTPUT = 'rows, "q" \u00e9.csv'
PINNED = [
    (["table", "--qmax", "300"],
     ("476da214061a5a0751b3ef8c782fe2011118a7056376e3ebde4bb282ca5139d0",
      "9a77780a36ffcc381386cc026ed56e66ce1ffcb8a660f75cf3f92dbafca9e467")),
    (["grover", "--n", "512", "--target", "7", "--phases", "random", "--seed", "5"],
     ("b64c98f6ad616b93bc529e4f77d50a1833ae8891c3c06e62ff90fd0d0b82cf06",
      "f9d9325723fc1f555b86ada15dbb80855d7483fba2f4268e6d6bbf3fc5672a5c")),
    (["classical", "--n", "40", "--trials", "300", "--seed", "2"],
     ("40792ceb6e037490a7d8406b969233a04b15244dc5450478f8889200122c62ec",
      "2a1ac46b1e6721f01e1af659320f51d998dc80048cc552fda69d6221dd6aca64")),
    (["bond", "--cascade", "5"],
     ("19c9dceb4838c7da51d43fb0e8309e87c35d339157d588d50aa946bfb460f18d",
      "6968adc4a926f72ac0526e43bc0c8cb2dd8cafdda2e686ea0f28d5cce68e1953")),
    (["scenario", "--n", "8", "--target", "3", "--emission", "uniform",
      "--samples", "20", "--seed", "2"],
     ("d7a8d45309987b41155a947a35424b190e24ee3a8b4469973c7be4a082e7f92a",
      "1e544358e8cdb4c02f072ebf88e9a83f74bf226c090138b67373d06d0a376dbb")),
    (["hamiltonian", "--n", "64", "--target", "9", "--dt", "0.05"],
     ("aac3339622526e0ae8db3459993e5c7660b7dd0426cefe112d52f3e474c343cb",
      "3cc7de5b0c3e8722362c8f4f280c0204f4ffed14de6d215a930dc1a22bb29316")),
    (["table", "--config", "pinned.conf"],
     ("9831d927af9eaa578e1e834a20ce262203668906ec404f4d7da4bb9fd1994c00",
      "327bf83aebcd89a77bfa296db490476b1ca8e6b13a922edc8f225dc85e69b3df")),
]


@pytest.fixture
def quiet_hierarchy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", basequest.HierarchyWarning)
        yield


@pytest.mark.usefixtures("quiet_hierarchy")
class TestRecordStream:
    @pytest.mark.parametrize("argv", STREAMS, ids=" ".join)
    def test_bytes_match_oracle(self, argv):
        config, records = oracle_call(argv)
        for fmt in ("csv", "jsonl"):
            config["format"] = fmt
            result = invoke([*argv, "--format", fmt])
            assert result.exit_code == 0
            assert result.output == oracles.render_records(records, fmt)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_declared_kinds_are_the_record_keys(self, command):
        # the header is fixed before the first row: the config keys, then
        # each kind's keys as the builder declares them, which are exactly
        # the keys of the records it used to build
        argv = next(argv for argv in STREAMS if argv[0] == command)
        config, records = oracle_call(argv)
        kinds, _ = cli._COMMANDS[command][0](argparse.Namespace(**config))
        assert kinds == {record["record"]: tuple(record)[1:] for record in records[1:]}
        header = invoke([*argv, "--format", "csv"]).output.split("\n")[0]
        assert header.split(",") == list(dict.fromkeys(
            key for record in records for key in record))

    def test_awkward_output_path_matches_oracle(self, tmp_path):
        # a comma, a quote, a newline and non-ASCII text in the config record
        target = str(tmp_path / 'rows, "quoted"\nnext \u00e9\u4e2d.out')
        argv = ["table", "--qmax", "3", "--output", target]
        config, records = oracle_call(argv[:3], target)
        assert config["output"] == target
        for fmt in ("csv", "jsonl"):
            config["format"] = fmt
            result = invoke([*argv, "--format", fmt])
            assert (result.exit_code, result.output) == (0, "")
            assert Path(target).read_bytes() == \
                oracles.render_records(records, fmt).encode("utf-8")

    @pytest.mark.parametrize("argv,digests", PINNED,
                             ids=[" ".join(argv) for argv, _ in PINNED])
    def test_bytes_are_pinned(self, tmp_path, monkeypatch, argv, digests):
        monkeypatch.chdir(tmp_path)
        Path("pinned.conf").write_text(f"qmax = 5\noutput = {PINNED_OUTPUT}\n",
                                       encoding="utf-8")
        got = []
        for fmt in ("csv", "jsonl"):
            result = invoke([*argv, "--format", fmt])
            assert result.exit_code == 0, result.stderr
            written = (Path(PINNED_OUTPUT).read_bytes() if "--config" in argv
                       else result.output.encode("utf-8"))
            written = written.replace(np.__version__.encode(), b"")
            got.append(hashlib.sha256(written).hexdigest())
        assert tuple(got) == digests

    @pytest.mark.parametrize("argv,code", [
        (["hamiltonian", "--n", "0"], 3),
        (["grover", "--n", "4", "--target", "9"], 3),
        (["classical", "--n", "0"], 3),
        (["bond", "--temperature", "-1"], 3),
        (["scenario", "--n", "4", "--target", "7", "--samples", "5"], 3),
        (["table", "--qmax", "-1"], 2),
    ])
    def test_refused_call_leaves_output_alone(self, tmp_path, argv, code):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_bytes(b"earlier bytes\n")
        for target in (fresh, kept):
            result = invoke([*argv, "--output", str(target)])
            assert (result.exit_code, result.output) == (code, "")
        assert not fresh.exists()
        assert kept.read_bytes() == b"earlier bytes\n"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_unwritable_output_names_output(self, tmp_path, command):
        target = tmp_path / "missing" / "rows.csv"
        result = invoke([command, *BASE[command], "--output", str(target)])
        assert (result.exit_code, result.output) == (2, "")
        assert "invalid value for '--output'" in result.stderr

    def test_table_stream_memory_is_flat(self, tmp_path):
        target = str(tmp_path / "rows.csv")
        invoke(["table", "--qmax", "500", "--output", target])  # imports, caches
        peaks = []
        for qmax in (500, 5000):
            tracemalloc.start()
            try:
                result = invoke(["table", "--qmax", str(qmax), "--output", target])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0
        assert peaks[1] < 8 * 2**20
        # ten times the rows, and no more of them held at once
        assert peaks[1] <= peaks[0] + 2**15, peaks

    def test_hamiltonian_stream_memory_is_flat(self, tmp_path):
        argv = ["hamiltonian", "--n", "4", "--t-max", "1", "--output",
                str(tmp_path / "rows.csv"), "--dt"]
        invoke([*argv, "1e-3"])  # imports, caches
        peaks = []
        for steps in (10 ** 4, 10 ** 5):
            tracemalloc.start()
            try:
                result = invoke([*argv, str(1 / steps)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0
        # ten times the steps, and no more of the series held at once
        assert peaks[1] <= peaks[0] + 2**16, peaks

    def test_closed_stdout_ends_quietly(self):
        src = str(Path(basequest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
                [sys.executable, "-m", "basequest.cli", "table", "--qmax", "200000"],
                env={**os.environ, "PYTHONPATH": path},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"record,com"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == cli._CLOSED_PIPE == 141
        assert stderr == b""


# Small valid values for every flag, so that no example runs a large model,
# and the malformed tokens each flag is also tried with.
VALID = {
    "--qmax": ["0", "3"], "--n": ["4", "8"], "--target": ["0", "1"],
    "--iters": ["0", "2"], "--phases": ["uniform", "random"],
    "--seed": ["0", "7"], "--mode": ["with", "without"], "--trials": ["1", "50"],
    "--delta-e-kt": ["7", "3.5"], "--temperature": ["300"], "--cascade": ["1", "2"],
    "--t-b": ["1e-3"], "--t-osc": ["1.0", "2"], "--t-r": ["1e3"],
    "--emission": ["extremum", "uniform", "fixed"], "--time": ["0.9", "1"],
    "--samples": ["1", "5"], "--t-max": ["1.0"], "--dt": ["0.25"],
    "--format": ["csv", "jsonl"],
}
MALFORMED = ["", "x", "1.5", "-1", "-1e3", "-inf", "nan", "1e400", "1" + "0" * 400,
             "1e308", "5e-324"]


# Per subcommand, a small valid argv that the sweep below adds one flag to.
BASE = {"table": [], "grover": ["--n", "4", "--target", "0"],
        "classical": ["--n", "4", "--trials", "50"], "bond": [],
        "scenario": ["--samples", "2"], "hamiltonian": []}


def test_each_valid_value_runs(tmp_path):
    # every VALID value of each flag a subcommand takes, added to its BASE
    # argv, is accepted: exit 0 (--time with --emission fixed, which needs it)
    for command in sorted(cli._COMMANDS):
        for flag, *_ in cli._COMMANDS[command][1] + cli._COMMON:
            if flag in ("--output", "--config"):
                continue
            for token in VALID[flag]:
                argv = [command, *BASE[command], flag, token]
                if flag == "--time":
                    argv += ["--emission", "fixed"]
                elif (flag, token) == ("--emission", "fixed"):
                    argv += ["--time", "0.9"]
                result = invoke([*argv, "--output", str(tmp_path / "rows")])
                assert result.exit_code == 0, (argv, result.stderr)


def exits_cleanly(argv):
    with warnings.catch_warnings():
        # a poorly separated timescale warns on stderr; that is not a failure
        warnings.simplefilter("ignore", basequest.HierarchyWarning)
        result = invoke(argv)
    assert result.exit_code in (0, 2, 3), argv
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_malformed_value_exits_cleanly(command):
    # --output and --config take paths: a malformed one would be written
    # or read here, so the fuzzed argv below cover them
    for flag, *_ in cli._COMMANDS[command][1]:
        for token in MALFORMED:
            exits_cleanly([command, *BASE[command], flag, token])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Values for --output and --config: written into a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "cfg.txt").write_text("format=jsonl\n", encoding="utf-8")
    return {"--output": [str(root / "out.txt"), str(root / "missing" / "out.txt")],
            "--config": [str(root / "cfg.txt"), str(root / "missing.txt")]}


@st.composite
def fuzzed_argv(draw, files):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = [flag for flag, *_ in cli._COMMANDS[command][1] + cli._COMMON]
    argv = [command]
    for flag in flags + draw(st.lists(st.sampled_from(flags), max_size=2)):
        if draw(st.booleans()):
            continue
        if flag in files:
            pool = files[flag]
        else:
            pool = VALID[flag] if draw(st.booleans()) else MALFORMED
        argv += [flag, draw(st.sampled_from(pool))]
    # an unknown flag or a flag missing its value
    tail = draw(st.sampled_from([[], [], ["--bogus"], ["--bogus", "1"], ["-x"],
                                 [draw(st.sampled_from(flags))]]))
    return argv + tail


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exit_cleanly(fuzz_files, data):
    exits_cleanly(data.draw(fuzzed_argv(fuzz_files)))

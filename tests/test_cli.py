from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basequest
from basequest import cli
from basequest.cli import main

# The package's exports by defining submodule, as they were when the
# package imported every submodule eagerly, less the full-vector search
# steps since deleted.
EXPORTS = {
    "bond": ["BondParams", "bond_time", "boltzmann_error_rate", "cascade_phase",
             "half_rabi_phase"],
    "classical": ["SearchMode", "TrialStats", "expected_queries", "sample_queries",
                  "simulate_search", "speedup_ratio", "theoretical_std"],
    "errors": ["DimensionMismatchError", "DrawBudgetExceededError",
               "IncompleteTransitionError", "InvalidDimensionError",
               "InvalidParameterError", "InvalidPhaseError", "InvalidTargetError",
               "SimulationError"],
    "grover": ["HamiltonianSweep", "SearchSolution", "StateVector",
               "closed_form_success", "evolve_two_term_hamiltonian",
               "optimal_queries", "random_unit_phases", "run_grover",
               "run_grover_with_phases", "solve_database_size", "success_series"],
    "replication": ["DensityMatrix", "EmissionPolicy", "EmissionResult",
                    "HierarchyWarning", "JointState", "ScenarioParams",
                    "ScenarioReport", "base_amplification", "conditional_lift",
                    "damped_oscillation", "damping_weight", "emission_measurement",
                    "entangling_oracle", "entanglement_entropy", "hierarchy_warnings",
                    "oscillation_fraction", "relaxed_start", "run_scenario",
                    "success_probability_at", "swing_endpoint", "undamped_state"],
}
EXPORTED = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


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
        ["scenario", "--n", str(2**27 + 1)],
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

    @pytest.mark.parametrize("argv,loads_numpy", [
        *((argv, argv[0] in DRAWING) for argv in CALLS),
        *(([*argv, "--format", "jsonl"], argv[0] in DRAWING) for argv in CALLS),
        (None, False),
        (["--help"], False),
    ])
    def test_numpy_loads_only_for_drawing_subcommands(self, argv, loads_numpy):
        # the import graph of a fresh `import basequest.cli` (argv None) or
        # of one call: exactly the package's submodules that the call runs,
        # and the one encoder module it writes with; never decimal, scipy or
        # click
        report = ("loaded = set(sys.modules)\n"
                  "import json\n"
                  "ours = sorted(m for m in loaded if m.startswith('basequest.'))\n"
                  "print(json.dumps([ours, [m in loaded for m in (\n"
                  "    'numpy', 'json', 'csv', 'dataclasses', 'decimal', 'scipy',\n"
                  "    'click')]]))")
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
        # every model module defines dataclasses; the CLI alone needs none
        assert flags == [loads_numpy, jsonl, wrote and not jsonl, wrote,
                         False, False, False]

    @pytest.mark.parametrize("module", ["basequest.grover"], ids=["import"])
    def test_search_paths_load_neither_numpy_nor_decimal(self, module):
        # a bare import; the CLI's search calls are rows of the table above
        fresh_python(f"import sys, {module}\n"
                     "assert not {'numpy', 'decimal'} & {m.split('.')[0] "
                     "for m in sys.modules}, sorted(sys.modules)")

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

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import basequest
from basequest.cli import main

# The package's exports by defining submodule, as they were when the
# package imported every submodule eagerly.
EXPORTS = {
    "bond": ["BondParams", "bond_time", "boltzmann_error_rate", "cascade_phase",
             "half_rabi_phase"],
    "classical": ["SearchMode", "TrialStats", "expected_queries", "sample_queries",
                  "simulate_search", "speedup_ratio", "theoretical_std"],
    "errors": ["DimensionMismatchError", "DrawBudgetExceededError",
               "IncompleteTransitionError", "InvalidDimensionError",
               "InvalidParameterError", "InvalidPhaseError", "InvalidTargetError",
               "SimulationError"],
    "grover": ["HamiltonianSweep", "SearchSolution", "StateVector", "apply_diffusion",
               "apply_oracle", "closed_form_success", "evolve_two_term_hamiltonian",
               "grover_step", "optimal_queries", "random_unit_phases", "run_grover",
               "run_grover_with_phases", "solve_database_size", "success_series",
               "uniform_state"],
    "replication": ["DensityMatrix", "EmissionPolicy", "EmissionResult",
                    "HierarchyWarning", "JointState", "ScenarioParams",
                    "ScenarioReport", "base_amplification", "conditional_lift",
                    "damped_oscillation", "damping_weight", "emission_measurement",
                    "entangling_oracle", "entanglement_entropy", "hierarchy_warnings",
                    "oscillation_fraction", "relaxed_start", "run_scenario",
                    "sample_emission_time", "success_probability_at",
                    "swing_endpoint", "undamped_state"],
}
EXPORTED = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


@pytest.fixture()
def runner():
    return CliRunner()


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


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines()]


def summary_of(text):
    return next(r for r in jsonl_records(text) if r["record"] == "summary")


class TestTable:
    def test_csv_shape_and_values(self, runner):
        result = runner.invoke(main, ["table", "--qmax", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("record,command,qmax,format,output")
        assert len(lines) == 1 + 1 + 4  # header, config echo, rows 0..3
        assert "10.472135954999581" in result.output  # full double precision
        assert "20.195669358089223" in result.output

    def test_known_row_values(self, runner):
        result = runner.invoke(main, ["table", "--qmax", "2", "--format", "jsonl"])
        rows = [r for r in jsonl_records(result.output) if r["record"] == "row"]
        zero, one, two = rows
        assert zero["size_nearest"] == 1
        assert zero["speedup_at_nearest"] is None
        assert one["size_exact"] == pytest.approx(4.0, abs=1e-12)
        assert one["size_nearest"] == 4
        assert one["success_at_nearest"] == pytest.approx(1.0, abs=1e-12)
        assert one["speedup_at_nearest"] == pytest.approx(4.0)
        assert two["size_nearest"] == 10

    def test_config_echo_first(self, runner):
        result = runner.invoke(main, ["table", "--qmax", "1", "--format", "jsonl"])
        first = jsonl_records(result.output)[0]
        assert first["record"] == "config"
        assert first["command"] == "table"
        assert first["qmax"] == 1

    def test_rejects_negative_qmax(self, runner):
        assert runner.invoke(main, ["table", "--qmax", "-2"]).exit_code == 2

    def test_rejects_qmax_above_series_bound(self, runner):
        assert runner.invoke(main, ["table", "--qmax", "1000001"]).exit_code == 2


class TestGrover:
    def test_perfect_single_query(self, runner):
        result = runner.invoke(main, [
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

    def test_default_iteration_count_is_optimal(self, runner):
        result = runner.invoke(main, [
            "grover", "--n", "100", "--target", "0", "--format", "jsonl"])
        summary = summary_of(result.output)
        assert summary["queries"] == 7
        assert summary["success"] == pytest.approx(0.9953444003575992,
                                                   abs=1e-10)

    def test_random_phases_leave_success_alone(self, runner):
        plain = runner.invoke(main, [
            "grover", "--n", "20", "--target", "3", "--iters", "3",
            "--format", "jsonl"])
        decorated = runner.invoke(main, [
            "grover", "--n", "20", "--target", "3", "--iters", "3",
            "--phases", "random", "--seed", "5", "--format", "jsonl"])
        assert summary_of(decorated.output)["success"] == pytest.approx(
            summary_of(plain.output)["success"], abs=1e-10)

    def test_out_of_range_target_is_model_error(self, runner):
        result = runner.invoke(main, ["grover", "--n", "4", "--target", "9",
                                      "--iters", "1"])
        assert result.exit_code == 3

    def test_missing_required_option(self, runner):
        assert runner.invoke(main, ["grover", "--target", "0"]).exit_code == 2

    def test_large_database_at_optimal_count(self, runner):
        result = runner.invoke(main, [
            "grover", "--n", "262144", "--target", "1", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["queries"] == 402
        assert summary["deviation"] <= 1e-12


class TestClassical:
    def test_monte_carlo_agrees_with_expectation(self, runner):
        result = runner.invoke(main, [
            "classical", "--n", "20", "--mode", "without",
            "--trials", "4000", "--seed", "3", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["expected_queries"] == 10.5
        assert summary["deviation"] <= 4.0 * summary["std_error"]

    def test_rejects_unknown_mode(self, runner):
        result = runner.invoke(main, ["classical", "--n", "4",
                                      "--mode", "sideways"])
        assert result.exit_code == 2

    def test_bad_size_is_model_error(self, runner):
        assert runner.invoke(main, ["classical", "--n", "0"]).exit_code == 3


class TestBond:
    def test_default_summary_numbers(self, runner):
        result = runner.invoke(main, ["bond", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["error_rate"] == pytest.approx(9.1188e-4, abs=1e-8)
        assert summary["t_b"] == pytest.approx(3.637253608370308e-15,
                                               rel=1e-12)
        assert summary["phase_real"] == pytest.approx(0.0, abs=1e-12)
        assert summary["phase_imag"] == pytest.approx(-1.0, abs=1e-12)
        assert summary["phase_squared"] == pytest.approx(-1.0, abs=1e-12)

    def test_cascade_of_two_flips_sign(self, runner):
        result = runner.invoke(main, ["bond", "--cascade", "2",
                                      "--format", "jsonl"])
        summary = summary_of(result.output)
        assert summary["cascade_phase_real"] == -1.0
        assert summary["cascade_phase_imag"] == 0.0

    def test_bad_temperature_is_model_error(self, runner):
        result = runner.invoke(main, ["bond", "--temperature", "-10"])
        assert result.exit_code == 3


class TestScenario:
    def test_default_extremum_run(self, runner):
        result = runner.invoke(main, [
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

    def test_fixed_emission_needs_time(self, runner):
        result = runner.invoke(main, ["scenario", "--emission", "fixed"])
        assert result.exit_code == 2

    def test_fixed_emission_with_time_runs(self, runner):
        result = runner.invoke(main, [
            "scenario", "--emission", "fixed", "--time", "1.0",
            "--samples", "20", "--format", "jsonl"])
        assert result.exit_code == 0
        assert summary_of(result.output)["mean_success"] == pytest.approx(
            0.9980019986673331, abs=1e-12)

    def test_out_of_range_target_is_model_error(self, runner):
        result = runner.invoke(main, ["scenario", "--n", "4", "--target", "7",
                                      "--samples", "5"])
        assert result.exit_code == 3


class TestHamiltonian:
    def test_split_operator_tracks_exact_curve(self, runner):
        result = runner.invoke(main, [
            "hamiltonian", "--n", "4", "--dt", "0.1", "--format", "jsonl"])
        assert result.exit_code == 0
        summary = summary_of(result.output)
        assert summary["success_floor"] == pytest.approx(0.75)
        assert summary["peak_success"] >= 0.99
        assert summary["max_deviation"] <= 5e-4

    def test_step_series_covers_grid(self, runner):
        result = runner.invoke(main, [
            "hamiltonian", "--n", "4", "--t-max", "1.0", "--dt", "0.25",
            "--format", "jsonl"])
        steps = [r for r in jsonl_records(result.output)
                 if r["record"] == "step"]
        assert [round(s["time"], 10) for s in steps] == [0.0, 0.25, 0.5,
                                                         0.75, 1.0]

    def test_bad_step_is_model_error(self, runner):
        result = runner.invoke(main, ["hamiltonian", "--dt", "-0.1"])
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
    ])
    def test_domain_errors_are_model_errors(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")
        # the model error ends the call as an exit, not as a traceback
        assert isinstance(result.exception, SystemExit)

    def test_cli_import_does_not_load_scipy(self):
        fresh_python("import basequest.cli, sys; "
                     "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")

    def test_imports_do_not_load_numpy(self):
        fresh_python("import sys, basequest; assert 'numpy' not in sys.modules; "
                     "import basequest.cli; assert 'numpy' not in sys.modules")

    def test_bond_loads_neither_numpy_nor_grover(self):
        fresh_python("import sys, basequest.bond\n"
                     "assert 'numpy' not in sys.modules\n"
                     "assert 'basequest.grover' not in sys.modules")

    @pytest.mark.parametrize("argv,loads_numpy", [
        (["table", "--qmax", "40"], False),
        (["bond", "--cascade", "3"], False),
        (["grover", "--n", "1024", "--target", "5", "--phases", "random"], False),
        (["hamiltonian", "--n", "64", "--target", "3", "--dt", "0.1"], False),
        (["classical", "--n", "50", "--trials", "100"], True),
        (["scenario", "--samples", "5"], True),
    ])
    def test_numpy_loads_only_for_drawing_subcommands(self, argv, loads_numpy):
        code = ("import sys\n"
                "from basequest.cli import main\n"
                f"main({argv!r}, standalone_mode=False)\n"
                "print('numpy' in sys.modules)")
        assert fresh_python(code).splitlines()[-1] == str(loads_numpy)

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
        def choices(command, option):
            param = next(p for p in main.commands[command].params
                         if p.name == option)
            return list(param.type.choices)

        assert choices("classical", "mode") == [
            mode.value for mode in basequest.SearchMode]
        assert choices("scenario", "emission") == [
            policy.value for policy in basequest.EmissionPolicy]

    def test_identical_invocations_are_byte_identical(self, runner):
        args = ["scenario", "--emission", "uniform", "--samples", "40",
                "--seed", "7", "--format", "jsonl"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_output_file_matches_stdout(self, runner, tmp_path):
        stdout_run = runner.invoke(main, ["table", "--qmax", "4"])
        target = tmp_path / "rows.csv"
        file_run = runner.invoke(main, ["table", "--qmax", "4",
                                        "--output", str(target)])
        assert file_run.exit_code == 0
        on_disk = target.read_text(encoding="utf-8")
        # the config echo records where the bytes went; rows are identical
        assert on_disk.replace(str(target), "") == stdout_run.output
        assert stdout_run.output.splitlines()[2:] == \
            on_disk.splitlines()[2:]

    def test_unwritable_output_is_usage_error(self, runner, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        result = runner.invoke(main, ["table", "--qmax", "10",
                                      "--output", str(target)])
        assert result.exit_code == 2
        assert "'--output'" in result.stderr
        assert "Traceback" not in result.output + result.stderr

    def test_env_var_selects_format(self, runner):
        result = runner.invoke(main, ["table", "--qmax", "1"],
                               env={"BASEQUEST_FORMAT": "jsonl"})
        assert result.exit_code == 0
        assert jsonl_records(result.output)[0]["record"] == "config"

    def test_config_file_sets_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\nformat=jsonl\nqmax=2\n", encoding="utf-8")
        result = runner.invoke(main, ["table", "--config", str(cfg)])
        assert result.exit_code == 0
        records = jsonl_records(result.output)
        assert records[0]["qmax"] == 2

    def test_flags_beat_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmax=2\n", encoding="utf-8")
        result = runner.invoke(main, ["table", "--config", str(cfg),
                                      "--qmax", "5", "--format", "jsonl"])
        rows = [r for r in jsonl_records(result.output)
                if r["record"] == "row"]
        assert len(rows) == 6

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmxa=2\n", encoding="utf-8")
        result = runner.invoke(main, ["table", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_malformed_config_line_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("qmax\n", encoding="utf-8")
        result = runner.invoke(main, ["table", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_help_runs(self, runner):
        assert runner.invoke(main, ["--help"]).exit_code == 0
        for name in ("table", "grover", "classical", "bond", "scenario",
                     "hamiltonian"):
            assert runner.invoke(main, [name, "--help"]).exit_code == 0

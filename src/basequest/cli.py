"""Command-line reports over the search, bond and selection models.

Every subcommand renders a record stream (CSV by default, JSON lines with
--format jsonl; the BASEQUEST_FORMAT environment variable overrides the
default) whose first record echoes the full effective configuration,
including the seed, so any output file identifies the run that made it.
Identical invocations produce identical bytes.

Exit codes: 0 on success, 2 on usage errors (an --output file that
cannot be written among them), 3 when a numeric domain error is raised by
the underlying model.

Examples:

    basequest table --qmax 8
    basequest grover --n 20 --target 5 --iters 3 --format jsonl
    basequest classical --n 100 --mode without --trials 20000 --seed 7
    basequest bond --delta-e-kt 7 --temperature 300 --cascade 2
    basequest scenario --n 4 --target 1 --t-r 1000 --emission uniform
    basequest hamiltonian --n 4 --target 0 --dt 0.025 --output sweep.csv
"""

from __future__ import annotations

import math
import sys

import click

# replication is imported by the scenario command alone: it is the one
# module here that needs numpy at import time
from . import bond, classical, grover
from ._checks import MAX_COUNT, check_seed
from .errors import SimulationError
from .output import FORMATS, write_records


def _load_config(ctx, param, value):
    """Read key=value lines into the context default map.

    Keys mirror the command's long flags (dashes or underscores both
    work); values act as option defaults, so explicit command-line flags
    always win. Unknown keys are usage errors.
    """
    if value is None:
        return None
    alias = {}
    for parameter in ctx.command.params:
        for opt in parameter.opts:
            if opt.startswith("--"):
                alias[opt[2:].replace("-", "_")] = parameter.name
    overrides = {}
    with open(value, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise click.UsageError(
                    f"{value}:{lineno}: expected key=value, got {line!r}")
            norm = key.strip().replace("-", "_")
            if norm == "config" or norm not in alias:
                raise click.UsageError(
                    f"{value}:{lineno}: unknown config key {key.strip()!r}")
            overrides[alias[norm]] = val.strip()
    ctx.default_map = {**overrides, **(ctx.default_map or {})}
    return value


def _common_options(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(FORMATS), default="csv",
        show_default=True, envvar="BASEQUEST_FORMAT",
        help="Record encoding (BASEQUEST_FORMAT overrides the default).")(fn)
    fn = click.option(
        "--output", "output_path", type=click.Path(dir_okay=False),
        default=None, help="Write records to this file instead of stdout.")(fn)
    fn = click.option(
        "--config", type=click.Path(exists=True, dir_okay=False),
        callback=_load_config, is_eager=True, expose_value=False,
        help="key=value file supplying option defaults; flags win.")(fn)
    return fn


def _emit(build, fmt, output_path):
    """Run the record builder, mapping model errors to exit code 3 and an
    unwritable --output file to a usage error."""
    try:
        records = build()
    except SimulationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    try:
        text = write_records(records, fmt, output_path)
    except OSError as exc:
        raise click.BadParameter(
            f"cannot write {output_path!r}: {exc.strerror or exc}",
            param_hint="'--output'") from exc
    if output_path is None:
        click.echo(text, nl=False)


@click.group()
def main():
    """Quantum-search dynamics reports: sizes, baselines, bond physics,
    and the damped selection scenario."""


@main.command()
@click.option("--qmax", type=click.IntRange(0, grover.MAX_SWEEP_STEPS), default=10,
              show_default=True, help="Largest query count to tabulate.")
@_common_options
def table(qmax, fmt, output_path):
    """Database sizes solved from query counts, with success and speedup.

    One row per query count 0..qmax: the exact real-valued size satisfying
    the full-success condition, the nearest integer size, the closed-form
    success probability at that integer, and the classical-over-quantum
    query ratio (empty for the degenerate zero-query row).
    """
    def build():
        records = [{
            "record": "config", "command": "table", "qmax": qmax,
            "format": fmt, "output": output_path,
        }]
        for queries in range(qmax + 1):
            solution = grover.solve_database_size(queries)
            nearest = math.floor(solution.database_size + 0.5)
            records.append({
                "record": "row",
                "queries": queries,
                "size_exact": solution.database_size,
                "size_nearest": nearest,
                "success_at_nearest": grover.closed_form_success(nearest, queries),
                "speedup_at_nearest": classical.speedup_ratio(nearest),
            })
        return records

    _emit(build, fmt, output_path)


@main.command(name="grover")
@click.option("--n", "dim", type=int, required=True, help="Database size.")
@click.option("--target", type=int, required=True, help="Marked object index.")
@click.option("--iters", type=int, default=None,
              help="Query count; defaults to the optimal count for --n.")
@click.option("--phases", type=click.Choice(["uniform", "random"]),
              default="uniform", show_default=True,
              help="Start-state decoration: plain uniform or random unit phases.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for --phases random.")
@_common_options
def grover_cmd(dim, target, iters, phases, seed, fmt, output_path):
    """Per-query success probability series for one search run.

    Emits one step record per query (step 0 is the start state) and a
    summary comparing the simulated success with the closed form.
    """

    def build():
        queries = iters if iters is not None else grover.optimal_queries(dim).queries
        if queries < 0:
            raise click.UsageError("--iters must be >= 0")
        check_seed(seed)
        # a start decoration leaves the series alone; --phases, --seed are echoed
        series = grover.success_series(dim, target, queries)
        records = [{
            "record": "config", "command": "grover", "n": dim,
            "target": target, "iters": queries, "phases": phases,
            "seed": seed, "format": fmt, "output": output_path,
        }]
        records.extend({"record": "step", "step": step, "success": success}
                       for step, success in enumerate(series))
        simulated = series[-1]
        closed = grover.closed_form_success(dim, queries)
        records.append({
            "record": "summary", "queries": queries, "success": simulated,
            "closed_form": closed, "deviation": abs(simulated - closed),
        })
        return records

    _emit(build, fmt, output_path)


@main.command(name="classical")
@click.option("--n", "dim", type=int, required=True, help="Database size.")
@click.option("--mode", type=click.Choice([m.value for m in classical.SearchMode]),
              default="with", show_default=True,
              help="Query discipline: with or without replacement.")
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_common_options
def classical_cmd(dim, mode, trials, seed, fmt, output_path):
    """Monte-Carlo classical query cost against the exact expectation."""

    def build():
        search_mode = classical.SearchMode(mode)
        stats = classical.simulate_search(dim, search_mode, trials, seed)
        expected = classical.expected_queries(dim, search_mode)
        return [
            {"record": "config", "command": "classical", "n": dim,
             "mode": mode, "trials": trials, "seed": seed,
             "format": fmt, "output": output_path},
            {"record": "summary", "expected_queries": expected,
             "mean_queries": stats.mean_queries, "std_error": stats.std_error,
             "deviation": abs(stats.mean_queries - expected)},
        ]

    _emit(build, fmt, output_path)


@main.command(name="bond")
@click.option("--delta-e-kt", type=float, default=7.0, show_default=True,
              help="Energy gap in units of kT.")
@click.option("--temperature", type=float, default=300.0, show_default=True,
              help="Temperature in kelvin.")
@click.option("--cascade", type=int, default=1, show_default=True,
              help="Number of chained half-cycle transitions.")
@_common_options
def bond_cmd(delta_e_kt, temperature, cascade, fmt, output_path):
    """Single-bond numbers: thermal error, timescale, transition phase."""

    def build():
        params = bond.BondParams(gap_over_kt=delta_e_kt,
                                 temperature=temperature,
                                 cascade_steps=cascade)
        # The half-cycle factor is convention independent; evaluate it on
        # the exact natural-unit half cycle.
        phase = bond.half_rabi_phase(1.0, math.pi / 2.0)
        squared = phase * phase
        cascade_factor = bond.cascade_phase(params.cascade_steps)
        return [
            {"record": "config", "command": "bond",
             "delta_e_kt": delta_e_kt, "temperature": temperature,
             "cascade": cascade, "format": fmt, "output": output_path},
            {"record": "summary",
             "error_rate": bond.boltzmann_error_rate(params.gap_over_kt),
             "t_b": bond.bond_time(params.gap_over_kt, params.temperature),
             "phase_real": phase.real, "phase_imag": phase.imag,
             "phase_squared": squared.real,
             "cascade_steps": params.cascade_steps,
             "cascade_phase_real": cascade_factor.real,
             "cascade_phase_imag": cascade_factor.imag},
        ]

    _emit(build, fmt, output_path)


@main.command(name="scenario")
@click.option("--n", "dim", type=int, default=4, show_default=True,
              help="Database size.")
@click.option("--target", type=int, default=0, show_default=True)
@click.option("--t-b", type=float, default=1e-3, show_default=True,
              help="Kick (bond) duration.")
@click.option("--t-osc", type=float, default=1.0, show_default=True,
              help="Swing time to the far turning point (half period).")
@click.option("--t-r", type=float, default=1e3, show_default=True,
              help="Relaxation time.")
# replication.EmissionPolicy's values, spelled out so that building the
# option does not import replication
@click.option("--emission", type=click.Choice(["extremum", "uniform", "fixed"]),
              default="extremum", show_default=True)
@click.option("--time", "emission_time", type=float, default=None,
              help="Emission time for --emission fixed.")
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_common_options
def scenario_cmd(dim, target, t_b, t_osc, t_r, emission, emission_time,
                 samples, seed, fmt, output_path):
    """Damped selection scenario with restart-on-failure emission checks.

    Times are unit free (seconds work too; only ratios matter) and accept
    scientific notation. The default grid is the dimensionless t_osc = 1.
    """
    if emission == "fixed" and emission_time is None:
        raise click.UsageError("--emission fixed requires --time")

    def build():
        from . import replication

        params = replication.ScenarioParams(
            dim=dim, target=target, bond_duration=t_b, oscillation_time=t_osc,
            relaxation_time=t_r, emission=emission,
            emission_time=emission_time, samples=samples, seed=seed)
        report = replication.run_scenario(params)
        records = [{
            "record": "config", "command": "scenario", "n": dim,
            "target": target, "t_b": t_b, "t_osc": t_osc, "t_r": t_r,
            "emission": emission, "time": emission_time, "samples": samples,
            "seed": seed, "format": fmt, "output": output_path,
        }]
        records.append({
            "record": "summary",
            "mean_success": report.mean_success,
            "extremum_success_undamped": report.extremum_success_undamped,
            "extremum_success_damped": report.extremum_success_damped,
            "mean_attempts": report.mean_attempts,
            "max_attempts_observed": report.max_attempts_observed,
            "entropy_at_extremum": report.entropy_at_extremum,
            "hierarchy_ok": not report.warnings,
            "hierarchy_notes": "; ".join(report.warnings),
        })
        for t, bits in zip(report.entropy_times, report.entropy_bits):
            records.append({"record": "entropy", "time": float(t),
                            "bits": float(bits)})
        return records

    _emit(build, fmt, output_path)


@main.command(name="hamiltonian")
@click.option("--n", "dim", type=int, default=4, show_default=True,
              help="Database size.")
@click.option("--target", type=int, default=0, show_default=True)
@click.option("--t-max", type=float, default=None,
              help="Sweep length; defaults to the first success peak "
                   "pi*sqrt(n)/2.")
@click.option("--dt", type=float, default=0.05, show_default=True,
              help="Evolution time step.")
@_common_options
def hamiltonian_cmd(dim, target, t_max, dt, fmt, output_path):
    """Two-term Hamiltonian evolution: exact vs split-operator series."""

    def build():
        # the evolution rejects dim outside [2, MAX_COUNT]; the default only
        # has to be computable
        total = t_max if t_max is not None else \
            math.pi * math.sqrt(min(max(dim, 2), MAX_COUNT)) / 2.0
        sweep = grover.evolve_two_term_hamiltonian(dim, target, total, dt)
        records = [{
            "record": "config", "command": "hamiltonian", "n": dim,
            "target": target, "t_max": total, "dt": dt,
            "format": fmt, "output": output_path,
        }]
        for t, exact, trotter in zip(sweep.times, sweep.exact_success,
                                     sweep.trotter_success):
            records.append({"record": "step", "time": t,
                            "exact_success": exact,
                            "trotter_success": trotter})
        records.append({
            "record": "summary",
            "peak_success": sweep.peak_success(),
            "success_floor": 1.0 - 1.0 / dim,
            "max_deviation": sweep.max_deviation(),
        })
        return records

    _emit(build, fmt, output_path)


if __name__ == "__main__":
    main()

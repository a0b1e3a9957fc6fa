"""Command-line reports over the search, bond and selection models.

Every subcommand renders a record stream (CSV by default, JSON lines with
--format jsonl; the BASEQUEST_FORMAT environment variable overrides the
default) whose first record echoes the full effective configuration,
including the seed, and the package version (and numpy's, for the
subcommands that draw from PCG64), so any output file identifies the run
that made it.
Identical invocations produce identical bytes. A call imports only the
model modules its subcommand runs. Records are streamed as they are made,
under a CSV header fixed per subcommand.

Exit codes: 0 on success, 2 on usage errors (an --output file that
cannot be written among them), 3 when a numeric domain error is raised by
the underlying model; its stderr line names the exception class. A call
that ends in 2 or 3 before its records are written writes none: an
--output file is neither created nor changed. 141 when the reader closes
stdout before the end (as `| head` does); the call stops without a message.

Examples:

    basequest table --qmax 8
    basequest grover --n 20 --target 5 --iters 3 --format jsonl
    basequest classical --n 100 --mode without --trials 20000 --seed 7
    basequest bond --delta-e-kt 7 --temperature 300 --cascade 2
    basequest scenario --n 4 --target 1 --t-r 1000 --emission uniform
    basequest hamiltonian --n 4 --target 0 --dt 0.025 --output sweep.csv
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys

# each builder imports the model modules it runs, so that a call loads only
# what its subcommand needs (replication, say, imports numpy)
from . import __version__
from .errors import SimulationError
from .output import FORMATS, write_records


def _table(o):
    """Database sizes solved from query counts, with success and speedup.

    One row per query count 0..qmax: the exact real-valued size satisfying
    the full-success condition, the nearest integer size, the closed-form
    success probability at that integer, and the classical-over-quantum
    query ratio (empty for the degenerate zero-query row).
    """
    from . import classical, grover
    from ._checks import MAX_SWEEP_STEPS

    if not 0 <= o.qmax <= MAX_SWEEP_STEPS:
        raise argparse.ArgumentError(
            None, f"--qmax must be in [0, {MAX_SWEEP_STEPS}]")
    # the unchecked evaluators of solve_database_size, closed_form_success
    # and speedup_ratio (a row's optimal count is its query count)
    row, speedup = grover._table_row, classical._speedup

    def rows():
        for queries in range(o.qmax + 1):
            size, nearest, success = row(queries)
            yield ("row", queries, size, nearest, success,
                   speedup(nearest, queries))
    return {"row": ("queries", "size_exact", "size_nearest",
                    "success_at_nearest", "speedup_at_nearest")}, rows()


def _grover(o):
    """Per-query success probability series for one search run.

    Emits one step record per query (step 0 is the start state) and a
    summary comparing the simulated success with the closed form.
    """
    from . import grover
    from ._checks import check_seed

    if o.iters is None:
        o.iters = grover.optimal_queries(o.n).queries
    if o.iters < 0:
        raise argparse.ArgumentError(None, "--iters must be >= 0")
    check_seed(o.seed)
    # a start decoration leaves the series alone; --phases, --seed are echoed
    series = grover.success_series(o.n, o.target, o.iters)
    simulated = series[-1]
    closed = grover.closed_form_success(o.n, o.iters)
    summary = ("summary", o.iters, simulated, closed, abs(simulated - closed))
    return {
        "step": ("step", "success"),
        "summary": ("queries", "success", "closed_form", "deviation"),
    }, itertools.chain(zip(itertools.repeat("step"), itertools.count(), series),
                       [summary])


def _classical(o):
    """Monte-Carlo classical query cost against the exact expectation."""
    from . import classical

    stats = classical.simulate_search(o.n, o.mode, o.trials, o.seed)
    expected = classical.expected_queries(o.n, o.mode)
    return {"summary": ("expected_queries", "mean_queries", "std_error",
                        "deviation")}, [
        ("summary", expected, stats.mean_queries, stats.std_error,
         abs(stats.mean_queries - expected))]


def _bond(o):
    """Single-bond numbers: thermal error, timescale, transition phase."""
    from . import bond

    # each function checks its own values: a bad gap is named first, then
    # the temperature, then the cascade
    error_rate = bond.boltzmann_error_rate(o.delta_e_kt)
    t_b = bond.bond_time(o.delta_e_kt, o.temperature)
    cascade_factor = bond.cascade_phase(o.cascade)
    # The half-cycle factor is convention independent; evaluate it on
    # the exact natural-unit half cycle.
    phase = bond.half_rabi_phase(1.0, math.pi / 2.0)
    squared = phase * phase
    return {"summary": ("error_rate", "t_b", "phase_real", "phase_imag",
                        "phase_squared", "cascade_steps", "cascade_phase_real",
                        "cascade_phase_imag")}, [
        ("summary", error_rate, t_b, phase.real, phase.imag, squared.real,
         o.cascade, cascade_factor.real, cascade_factor.imag)]


def _scenario(o):
    """Damped selection scenario with restart-on-failure emission checks.

    Times are unit free (seconds work too; only ratios matter) and accept
    scientific notation. The default grid is the dimensionless t_osc = 1.
    """
    if o.emission == "fixed" and o.time is None:
        raise argparse.ArgumentError(None, "--emission fixed requires --time")
    from . import replication

    params = replication.ScenarioParams(
        dim=o.n, target=o.target, bond_duration=o.t_b, oscillation_time=o.t_osc,
        relaxation_time=o.t_r, emission=o.emission,
        emission_time=o.time, samples=o.samples, seed=o.seed)
    report = replication.run_scenario(params)
    summary = ("summary", report.mean_success, report.extremum_success_undamped,
               report.extremum_success_damped, report.mean_attempts,
               report.max_attempts_observed, report.entropy_at_extremum,
               not report.warnings, "; ".join(report.warnings))
    return {
        "summary": ("mean_success", "extremum_success_undamped",
                    "extremum_success_damped", "mean_attempts",
                    "max_attempts_observed", "entropy_at_extremum",
                    "hierarchy_ok", "hierarchy_notes"),
        "entropy": ("time", "bits"),
    }, itertools.chain([summary], zip(itertools.repeat("entropy"),
                                      report.entropy_times, report.entropy_bits))


# Points of the Hamiltonian series made at once.
_SERIES_CHUNK = 1024


def _hamiltonian(o):
    """Two-term Hamiltonian evolution: exact vs split-operator series."""
    from . import grover
    from ._checks import MAX_COUNT

    # the evolution rejects dim outside [2, MAX_COUNT]; the default only
    # has to be computable
    if o.t_max is None:
        o.t_max = math.pi * math.sqrt(min(max(o.n, 2), MAX_COUNT)) / 2.0
    n, dt = o.n, o.dt
    points = grover._sweep_steps(n, o.target, o.t_max, dt)[0] + 1

    def rows():
        # evolve_two_term_hamiltonian's series, made and written a chunk at
        # a time, with its peak_success and max_deviation folded as they go
        peak = deviation = 0.0
        for lo in range(0, points, _SERIES_CHUNK):
            chunk = grover.HamiltonianSweep(*grover._split_series(
                n, dt, True, lo, min(lo + _SERIES_CHUNK, points)))
            peak = max(peak, chunk.peak_success())
            deviation = max(deviation, chunk.max_deviation())
            yield from zip(itertools.repeat("step"), *chunk)
        yield ("summary", peak, 1.0 - 1.0 / n, deviation)
    return {
        "step": ("time", "exact_success", "trotter_success"),
        "summary": ("peak_success", "success_floor", "max_deviation"),
    }, rows()


_REQUIRED = object()
# Exit code of a call whose reader closed stdout before the end, the status
# a shell reports for a process that SIGPIPE ended.
_CLOSED_PIPE = 141

# The subcommands that draw from PCG64: they alone run on numpy, so their
# config records alone name its version, whatever the host process loaded.
_DRAWING = ("classical", "scenario")

# Each subcommand's record builder and options: (flag, type, default, help),
# where a tuple type lists the choices and a _REQUIRED value comes from a flag
# or a --config line. Every subcommand also takes _COMMON. A builder checks
# its options and runs its model, then returns its record kinds, {kind:
# keys}, and its rows, (kind, *values), which raise nothing as they are read;
# _run streams them after the config record, echoed from these rows.
_COMMANDS = {
    "table": (_table, [
        ("--qmax", int, 10, "Largest query count to tabulate."),
    ]),
    "grover": (_grover, [
        ("--n", int, _REQUIRED, "Database size."),
        ("--target", int, _REQUIRED, "Marked object index."),
        ("--iters", int, None, "Query count; defaults to the optimal count for --n."),
        ("--phases", ("uniform", "random"), "uniform",
         "Start-state decoration: plain uniform or random unit phases."),
        ("--seed", int, 0, "Seed for --phases random."),
    ]),
    "classical": (_classical, [
        ("--n", int, _REQUIRED, "Database size."),
        # classical.SearchMode's values, spelled out as --emission's are
        ("--mode", ("with", "without"), "with",
         "Query discipline: with or without replacement."),
        ("--trials", int, 10000, None),
        ("--seed", int, 0, None),
    ]),
    "bond": (_bond, [
        ("--delta-e-kt", float, 7.0, "Energy gap in units of kT."),
        ("--temperature", float, 300.0, "Temperature in kelvin."),
        ("--cascade", int, 1, "Number of chained half-cycle transitions."),
    ]),
    "scenario": (_scenario, [
        ("--n", int, 4, "Database size."),
        ("--target", int, 0, None),
        ("--t-b", float, 1e-3, "Kick (bond) duration."),
        ("--t-osc", float, 1.0, "Swing time to the far turning point (half period)."),
        ("--t-r", float, 1e3, "Relaxation time."),
        # replication.EmissionPolicy's values, spelled out so that building
        # the parser does not import replication
        ("--emission", ("extremum", "uniform", "fixed"), "extremum", None),
        ("--time", float, None, "Emission time for --emission fixed."),
        ("--samples", int, 1000, None),
        ("--seed", int, 0, None),
    ]),
    "hamiltonian": (_hamiltonian, [
        ("--n", int, 4, "Database size."),
        ("--target", int, 0, None),
        ("--t-max", float, None,
         "Sweep length; defaults to the first success peak pi*sqrt(n)/2."),
        ("--dt", float, 0.05, "Evolution time step."),
    ]),
}
_COMMON = [
    ("--format", FORMATS, "csv", "Record encoding; BASEQUEST_FORMAT sets the default."),
    ("--output", str, None, "Write records to this file instead of stdout."),
    ("--config", str, None, "key=value file supplying option defaults; flags win."),
]


def _parsers(prog, command=None):
    """The top-level parser and those of every subcommand, or of `command`
    alone. Options default to absent: the values set are exactly the flags."""
    top = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Quantum-search dynamics reports: sizes, baselines, bond "
                    "physics, and the damped selection scenario.")
    group = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    subs = {}
    for name in [command] if command else _COMMANDS:
        build, options = _COMMANDS[name]
        sub = subs[name] = group.add_parser(
            name, allow_abbrev=False, description=build.__doc__,
            help=build.__doc__.split("\n")[0])
        for flag, kind, default, text in options + _COMMON:
            if default is not None and default is not _REQUIRED:
                text = f"{text or ''} (default: {default})".lstrip()
            choices = kind if isinstance(kind, tuple) else None
            sub.add_argument(flag, type=None if choices else kind, choices=choices,
                             default=argparse.SUPPRESS, help=text)
    return top, subs


def _joined(argv):
    """argv with each value flag of its subcommand joined to the token after
    it (--t-r -1e3 becomes --t-r=-1e3): a flag takes the next token as its
    value whatever it looks like, where argparse would read -1e3 or -inf as
    an unknown option."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    flags = {flag for flag, *_ in _COMMANDS[argv[0]][1] + _COMMON}
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        if token == "--":
            return out + [token, *tokens]
        value = next(tokens, None) if token in flags else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _dest(flag):
    return flag[2:].replace("-", "_")


def _config_values(sub, path, options):
    """{flag: text} from the key=value lines of a --config file. Keys are the
    long flags, with dashes or underscores; unknown keys are usage errors."""
    flags = {_dest(flag): flag for flag, *_ in options if flag != "--config"}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        sub.error(f"invalid value for '--config': cannot read {path!r}: "
                  f"{exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        sub.error(f"invalid value for '--config': cannot read {path!r}: "
                  f"not UTF-8 text ({exc.reason})")
    values = {}
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep or not key:
            sub.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        norm = key.replace("-", "_")
        if norm not in flags:
            sub.error(f"{path}:{lineno}: unknown config key {key!r}")
        values[flags[norm]] = val
    return values


def _run(argv, prog):
    """One CLI call: parse, build the records, write them; the exit code."""
    if argv[:1] == ["--"]:  # an end of (no) options before the subcommand
        argv = argv[1:]
    top, subs = _parsers(prog, argv[0] if argv and argv[0] in _COMMANDS else None)
    o = top.parse_args(_joined(argv))
    sub = subs[o.command]
    build, options = _COMMANDS[o.command]
    options = options + _COMMON
    # value precedence: option defaults < --config lines < BASEQUEST_FORMAT
    # < flags; a value is converted (and can fail) only where it takes effect
    unset = _config_values(sub, o.config, options) if "config" in o else {}
    if os.environ.get("BASEQUEST_FORMAT"):
        unset["--format"] = os.environ["BASEQUEST_FORMAT"]
    sub.parse_args([f"{flag}={text}" for flag, text in unset.items()
                    if _dest(flag) not in o], o)
    for flag, _, default, _ in options:
        if _dest(flag) not in o:
            if default is _REQUIRED:
                sub.error(f"the following arguments are required: {flag}")
            setattr(o, _dest(flag), default)
    if o.output is not None and os.path.isdir(o.output):
        sub.error(f"invalid value for '--output': {o.output!r} is a directory")
    try:
        kinds, rows = build(o)
    except SimulationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except argparse.ArgumentError as exc:
        sub.error(str(exc))
    # echo every option but --config in table order, with the values that
    # builders resolve (grover --iters, hamiltonian --t-max) stored on o,
    # then the package version, and numpy's where the subcommand ran it
    config = {"command": o.command}
    config.update((_dest(flag), getattr(o, _dest(flag)))
                  for flag, *_ in options if flag != "--config")
    config["version"] = __version__
    if o.command in _DRAWING:
        config["numpy"] = sys.modules["numpy"].__version__
    try:
        write_records({"config": tuple(config), **kinds},
                      itertools.chain([("config", *config.values())], rows),
                      o.format, o.output)
    except OSError as exc:
        if o.output is not None:
            sub.error(f"invalid value for '--output': cannot write {o.output!r}: "
                      f"{exc.strerror or exc}")
        if not isinstance(exc, BrokenPipeError):
            raise
        # the reader closed stdout early, as `| head` does: point fd 1 at
        # devnull, so that the flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_PIPE
    return 0


class _Main:
    """main(argv) runs one call and exits with its code (0, 2 usage error, 3
    model error, 141 stdout closed early); main.main(args, prog_name,
    standalone_mode=False) returns it instead. An object, not a function,
    so that wrapping this module's public functions (as the benchmark's
    tracer does) keeps main.main.

    main() with no argv, as `python -m basequest.cli` and the `basequest`
    script call it, owns the process: it disables cyclic garbage collection
    for the call, whose objects all die with the process, and freezes the
    collector's objects before it exits, so the interpreter's final
    collection (which runs even when disabled) skips what start-up and the
    call made. It also runs numpy's OpenBLAS on one thread unless
    OPENBLAS_NUM_THREADS is set: no call does multi-threaded linear
    algebra, and no output byte depends on the thread count, so the
    subcommands that load numpy need not start a thread pool. A call given
    argv touches neither the collector nor the environment, as its process
    goes on."""

    def __call__(self, argv=None):
        self.main(argv)

    def main(self, args=None, prog_name=None, standalone_mode=True):
        owned = standalone_mode and args is None
        if owned:
            gc.disable()
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        code = _run(list(sys.argv[1:] if args is None else args),
                    prog_name or "basequest")
        if standalone_mode:
            if owned:
                # the records are flushed or --output closed by now; module
                # teardown and atexit handlers still run
                gc.freeze()
            sys.exit(code)
        return code


main = _Main()


if __name__ == "__main__":
    main()

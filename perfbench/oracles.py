"""Independent references for every benchmark op.

Nothing here imports basequest: each check recomputes the expected result
from closed-form laws (or, for the split-operator series, from the
two-dimensional invariant plane) and compares it with what the package
returned. A check returns None when the result is right and a short
reason when it is wrong.
"""

from __future__ import annotations

import cmath
import csv
import json
import math

import numpy as np

HBAR = 1.054571817e-34       # J*s, CODATA 2018
BOLTZMANN = 1.380649e-23     # J/K, exact

SIN2_TOL = 1e-10             # sin^2 law and phase invariance
SERIES_TOL = 1e-9            # Hamiltonian series over up to ~1e5 steps
EXACT_REL = 1e-12            # quantities with a one-line closed form
SE_LIMIT = 5.0               # Monte-Carlo estimates: standard errors allowed


# --- search ------------------------------------------------------------


def grover_success(n: float, queries: int) -> float:
    """sin^2((2q+1) asin(1/sqrt(n)))."""
    theta = math.asin(1.0 / math.sqrt(n))
    return math.sin((2 * queries + 1) * theta) ** 2


def optimal_queries(n: int) -> int:
    """Query count at the first success peak (ties to the smaller count)."""
    theta = math.asin(1.0 / math.sqrt(n))
    peak = (math.pi / (2.0 * theta) - 1.0) / 2.0
    low, high = max(0, math.floor(peak)), max(0, math.ceil(peak))
    return high if grover_success(n, high) > grover_success(n, low) + 1e-12 else low


def check_grover(args: dict, result) -> str | None:
    """run_grover / run_grover_with_phases: the sin^2 law holds for every
    start decoration (phase invariance), on the reported value and on the
    returned state's target amplitude."""
    state, success = result
    expected = grover_success(args["n"], args["queries"])
    if abs(success - expected) > SIN2_TOL:
        return f"success {success!r} vs sin^2 law {expected!r}"
    amp = complex(state.amplitudes[args["target"]])
    if abs(abs(amp) ** 2 - expected) > SIN2_TOL:
        return f"target amplitude {amp!r} vs sin^2 law {expected!r}"
    return None


def two_term_success(n: int, t: float) -> float:
    """Exact success under |w><w| + |s><s|: 1/n + (1 - 1/n) sin^2(t/sqrt(n))."""
    return 1.0 / n + (1.0 - 1.0 / n) * math.sin(t / math.sqrt(n)) ** 2


def trotter_series(n: int, dt: float, steps: int) -> list:
    """Symmetric split-operator success series computed in the invariant
    plane: half target phase, full start-state phase, half target phase.

    Basis (|w>, |r>) with |r> the uniform state over the other objects, so
    |s> = (x, y) with x = 1/sqrt(n). exp(-i P_w tau) is diag(e^{-i tau}, 1)
    and exp(-i P_s tau) is 1 + (e^{-i tau} - 1)|s><s|.
    """
    x = 1.0 / math.sqrt(n)
    y = math.sqrt(1.0 - x * x)
    half = cmath.exp(-0.5j * dt)
    kick = cmath.exp(-1j * dt) - 1.0
    a, b = complex(x), complex(y)
    out = [abs(a) ** 2]
    for _ in range(steps):
        a *= half
        proj = kick * (x * a + y * b)
        a, b = a + proj * x, b + proj * y
        a *= half
        out.append(abs(a) ** 2)
    return out


def hamiltonian_reference(n: int, t_max: float, dt: float) -> tuple:
    """(exact series, split-operator series) on the grid k*dt."""
    steps = max(1, int(round(t_max / dt)))
    exact = [two_term_success(n, k * dt) for k in range(steps + 1)]
    return exact, trotter_series(n, dt, steps)


def check_hamiltonian(args: dict, sweep, reference) -> str | None:
    exact, trotter = reference
    if len(sweep.exact_success) != len(exact):
        return f"{len(sweep.exact_success)} grid points, expected {len(exact)}"
    worst = float(np.max(np.abs(sweep.exact_success - np.asarray(exact))))
    if worst > SERIES_TOL:
        return f"exact series off the analytic law by {worst!r}"
    worst = float(np.max(np.abs(sweep.trotter_success - np.asarray(trotter))))
    if worst > SERIES_TOL:
        return f"split-operator series off the plane reference by {worst!r}"
    return None


# --- selection scenario ------------------------------------------------


def arc_success(dim: int, t: float, t_osc: float, t_r: float) -> float:
    """Damped emission success at time t on the conditional arc.

    The swing runs from the queried start (angle -theta in the search
    plane) to one amplified step (angle 3 theta), so at arc fraction f the
    target amplitude is sin((4f - 1) theta).
    """
    theta = math.asin(1.0 / math.sqrt(dim))
    f = (1.0 - math.cos(math.pi * t / t_osc)) / 2.0
    return math.exp(-2.0 * t / t_r) * math.sin((4.0 * f - 1.0) * theta) ** 2


def uniform_emission_moments(dim: int, t_osc: float, t_r: float) -> tuple:
    """Mean and variance of the success chance for a time drawn uniformly
    over one period [0, 2 t_osc] (trapezoid rule on 8193 points)."""
    t = np.linspace(0.0, 2.0 * t_osc, 8193)
    theta = math.asin(1.0 / math.sqrt(dim))
    f = (1.0 - np.cos(np.pi * t / t_osc)) / 2.0
    p = np.exp(-2.0 * t / t_r) * np.sin((4.0 * f - 1.0) * theta) ** 2
    mean = float(np.trapezoid(p, t)) / (2.0 * t_osc)
    second = float(np.trapezoid(p * p, t)) / (2.0 * t_osc)
    return mean, max(0.0, second - mean * mean)


def attempt_success(args: dict) -> float:
    """Per-attempt success chance of one emission check under the policy."""
    if args["emission"] == "uniform":
        return uniform_emission_moments(args["dim"], args["t_osc"], args["t_r"])[0]
    t = args["t_osc"] if args["emission"] == "extremum" else args["time"]
    return arc_success(args["dim"], t, args["t_osc"], args["t_r"])


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def check_scenario_summary(args: dict, summary: dict) -> str | None:
    """Extremum equalities, the mean first-draw success and the geometric
    attempt count, from plain numbers (shared by the API and CLI ops)."""
    dim, t_osc, t_r = args["dim"], args["t_osc"], args["t_r"]
    samples = args["samples"]
    peak = math.sin(3.0 * math.asin(1.0 / math.sqrt(dim))) ** 2
    damped = math.exp(-2.0 * t_osc / t_r) * peak
    if abs(summary["extremum_success_undamped"] - peak) > SIN2_TOL:
        return f"undamped extremum {summary['extremum_success_undamped']!r} vs {peak!r}"
    if abs(summary["extremum_success_damped"] - damped) > SIN2_TOL:
        return f"damped extremum {summary['extremum_success_damped']!r} vs {damped!r}"

    if args["emission"] == "uniform":
        mean, var = uniform_emission_moments(dim, t_osc, t_r)
        limit = SE_LIMIT * math.sqrt(var / samples) + 1e-9
        if abs(summary["mean_success"] - mean) > limit:
            return f"mean success {summary['mean_success']!r} vs {mean!r} +- {limit:.3g}"
    else:
        t = t_osc if args["emission"] == "extremum" else args["time"]
        mean = arc_success(dim, t, t_osc, t_r)
        if abs(summary["mean_success"] - mean) > SIN2_TOL:
            return f"mean success {summary['mean_success']!r} vs {mean!r}"

    s = attempt_success(args)
    limit = SE_LIMIT * math.sqrt(1.0 - s) / s / math.sqrt(samples) + 1e-9
    if abs(summary["mean_attempts"] - 1.0 / s) > limit:
        return f"mean attempts {summary['mean_attempts']!r} vs {1.0 / s!r} +- {limit:.3g}"
    if not summary["mean_attempts"] <= summary["max_attempts_observed"]:
        return "max attempts below the mean"
    return None


def check_scenario(args: dict, report) -> str | None:
    summary = {
        "extremum_success_undamped": report.extremum_success_undamped,
        "extremum_success_damped": report.extremum_success_damped,
        "mean_success": report.mean_success,
        "mean_attempts": report.mean_attempts,
        "max_attempts_observed": report.max_attempts_observed,
    }
    reason = check_scenario_summary(args, summary)
    if reason:
        return reason
    start = binary_entropy(1.0 / args["dim"])
    if abs(float(report.entropy_bits[0]) - start) > SIN2_TOL:
        return f"start entropy {float(report.entropy_bits[0])!r} vs H(1/dim) = {start!r}"
    return None


# --- classical baselines ----------------------------------------------


def classical_moments(n: int, mode: str) -> tuple:
    """Exact mean and standard deviation of the classical query count."""
    if mode == "with":
        return float(n), math.sqrt(n * n - n)
    return (n + 1) / 2.0, math.sqrt((n * n - 1) / 12.0)


def check_classical_mean(n: int, mode: str, trials: int, mean: float) -> str | None:
    expected, sd = classical_moments(n, mode)
    limit = SE_LIMIT * sd / math.sqrt(trials)
    if abs(mean - expected) > limit:
        return f"mean {mean!r} vs exact {expected!r} +- {limit:.3g}"
    return None


def check_classical(args: dict, stats) -> str | None:
    if stats.trials != args["trials"]:
        return f"{stats.trials} trials reported, {args['trials']} asked"
    return check_classical_mean(args["n"], args["mode"], args["trials"],
                                stats.mean_queries)


# --- command line ------------------------------------------------------


def parse_records(text: str, fmt: str, indices) -> dict:
    """Decode the records at the given positions (negative counts from the
    end) of a CLI record stream, plus the total record count."""
    lines = text.splitlines()
    if fmt == "jsonl":
        picked = {i: json.loads(lines[i]) for i in indices}
        return {"count": len(lines), "records": picked}
    header = next(csv.reader([lines[0]]))
    body = lines[1:]
    picked = {}
    for i in indices:
        row = next(csv.reader([body[i]]))
        picked[i] = {key: _csv_value(cell) for key, cell in zip(header, row) if cell != ""}
    return {"count": len(body), "records": picked}


def _csv_value(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(value, expected, rel=EXACT_REL, abs_tol=0.0) -> bool:
    return math.isclose(float(value), expected, rel_tol=rel, abs_tol=abs_tol)


def check_cli(op: dict, stdout: str) -> str | None:
    """Summary fields of one CLI invocation that exited 0 (a non-zero exit
    is a failure, classified by the caller)."""
    args, fmt = op["args"], op["args"]["format"]
    sub = op["sub"]
    if sub == "scenario":
        got = parse_records(stdout, fmt, [1])
        summary = got["records"][1]
        if got["count"] != 2 + 101:
            return f"{got['count']} records, expected 103"
        return check_scenario_summary(args, summary)

    got = parse_records(stdout, fmt, [-1])
    last = got["records"][-1]
    if sub == "table":
        q = args["qmax"]
        size = 1.0 / math.sin(math.pi / (2.0 * (2 * q + 1))) ** 2
        nearest = math.floor(size + 0.5)
        if got["count"] != q + 2 or int(last["queries"]) != q:
            return f"{got['count']} records for qmax {q}"
        if not _close(last["size_exact"], size, rel=1e-9):
            return f"size {last['size_exact']!r} vs {size!r}"
        if abs(last["success_at_nearest"] - grover_success(nearest, q)) > SIN2_TOL:
            return f"success at nearest {last['success_at_nearest']!r}"
        return None
    if sub == "grover":
        q = args.get("iters")
        q = optimal_queries(args["n"]) if q is None else q
        if got["count"] != q + 3 or int(last["queries"]) != q:
            return f"{got['count']} records for {q} queries"
        if abs(last["success"] - grover_success(args["n"], q)) > SIN2_TOL:
            return f"success {last['success']!r} vs sin^2 law"
        return None
    if sub == "classical":
        expected, _ = classical_moments(args["n"], args["mode"])
        if not _close(last["expected_queries"], expected):
            return f"expected_queries {last['expected_queries']!r} vs {expected!r}"
        return check_classical_mean(args["n"], args["mode"], args["trials"],
                                    last["mean_queries"])
    if sub == "bond":
        x, temp, k = args["delta_e_kt"], args["temperature"], args["cascade"]
        cascade = (-1j) ** (k % 4)
        checks = (
            ("error_rate", math.exp(-x), 0.0),
            ("t_b", HBAR / (x * BOLTZMANN * temp), 0.0),
            ("phase_real", 0.0, 1e-9), ("phase_imag", -1.0, 1e-9),
            ("phase_squared", -1.0, 1e-9),
            ("cascade_phase_real", cascade.real, 1e-12),
            ("cascade_phase_imag", cascade.imag, 1e-12),
        )
        for key, expected, abs_tol in checks:
            if not _close(last[key], expected, abs_tol=abs_tol):
                return f"{key} {last[key]!r} vs {expected!r}"
        return None
    if sub == "hamiltonian":
        n, dt = args["n"], args["dt"]
        t_max = args.get("t_max") or math.pi * math.sqrt(n) / 2.0
        exact, trotter = hamiltonian_reference(n, t_max, dt)
        if got["count"] != len(exact) + 2:
            return f"{got['count']} records for {len(exact)} grid points"
        if abs(last["peak_success"] - max(exact)) > SERIES_TOL:
            return f"peak {last['peak_success']!r} vs {max(exact)!r}"
        deviation = max(abs(a - b) for a, b in zip(exact, trotter))
        if abs(last["max_deviation"] - deviation) > SERIES_TOL:
            return f"max deviation {last['max_deviation']!r} vs {deviation!r}"
        return None
    return f"no oracle for subcommand {sub!r}"

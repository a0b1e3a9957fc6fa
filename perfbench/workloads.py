"""Seeded op lists for the three workloads.

Each op is a plain dict (kind plus arguments) so the list can be handed to
the worker process as JSON; the package only ever sees these generated
inputs. Sizes, query counts and sample counts sit on fixed log-spaced
strata, each drawn near its stratum's centre, so every seed gives the same
mix and nearly the same total work (and the same ops fail), while targets,
start phases and times differ.

Load limits for a 2-core, 8 GB machine:

* N <= 2**20, and a stratified search op asks for at most AMP_BUDGET
  amplitude updates (N * queries), so at N >= 2**17 its query count
  stops short of the optimum; the op at the optimal count itself is
  always kept. Sizes of 10**9..10**12 wait for a search kernel that does
  not allocate N-vectors: the current full-vector path holds several
  complex128 copies of the state, >= 16 GB each at N = 10**9.
* Without-replacement trials * N <= KEY_BUDGET: the sampler draws one
  float64 key per (trial, object).
* Expected emission attempts per scenario op <= ATTEMPT_BUDGET (at least
  MIN_SAMPLES samples), and fixed emission times sit on the upper part of
  the arc, so no sample comes near run_scenario's attempt_cap.
"""

from __future__ import annotations

import math
import random

from oracles import attempt_success, optimal_queries

WORKLOADS = ("search", "sampling", "cli")

SEARCH_EXPONENTS = range(2, 21)       # N = 2**2 .. 2**20
SEARCH_STRATA = 4                     # query-count strata per N
AMP_BUDGET = 2**24                    # N * queries per stratified search op
HAMILTONIAN_EXPONENTS = range(2, 11)  # dim = 4 .. 1024
HAMILTONIAN_DT = 0.05

SCENARIO_EXPONENTS = range(2, 11)     # dim = 4 .. 1024
POLICIES = ("extremum", "uniform", "fixed")
SCENARIO_STRATA = 2                   # sample-count strata per (dim, policy)
MIN_SAMPLES, MAX_SAMPLES = 10, 1000
ATTEMPT_BUDGET = 400
CLASSICAL_STRATA = 12
CLASSICAL_N = (4, 10**5)
CLASSICAL_TRIALS = (10**3, 10**6)
KEY_BUDGET = 10**7

CLI_FORMATS = ("csv", "jsonl")
# Nominal seconds per pass of the workloads run in a fixed number of
# passes (see worker.run_passes): a cli call costs at least ~0.5 s, so
# each is timed only a few times in a run.
PASS_SECONDS = {"cli": 17.0}


def _stratum(rng: random.Random, lo: float, hi: float, stratum: int,
             strata: int) -> float:
    """Log-spaced draw from the middle fifth of stratum `stratum` of [lo, hi]."""
    u = (stratum + 0.4 + 0.2 * rng.random()) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _centre(lo: float, hi: float, stratum: int, strata: int) -> float:
    """Log-spaced centre of stratum `stratum` of [lo, hi]."""
    u = (stratum + 0.5) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def search_ops(rng: random.Random) -> list:
    ops = []
    for k in SEARCH_EXPONENTS:
        n = 2**k
        best = optimal_queries(n)
        top = min(best, AMP_BUDGET // n)
        for j in range(SEARCH_STRATA):
            queries = round(top * (2 * j + 1) / (2 * SEARCH_STRATA))
            args = {"n": n, "target": rng.randrange(n), "queries": queries}
            if j % 2 == 0:
                ops.append({"kind": "grover", "args": args})
            else:
                args["phase_seed"] = rng.randrange(2**32)
                ops.append({"kind": "grover_phases", "args": args})
        # the optimal count itself, where N >= 2**17 fails at this commit
        ops.append({"kind": "grover", "args": {
            "n": n, "target": rng.randrange(n), "queries": best}})
    for k in HAMILTONIAN_EXPONENTS:
        n = 2**k
        peak = math.pi * math.sqrt(n) / 2.0   # first success peak
        ops.append({"kind": "hamiltonian", "args": {
            "n": n, "target": rng.randrange(n),
            "t_max": peak * rng.uniform(0.95, 1.0), "dt": HAMILTONIAN_DT}})
    return ops


def scenario_args(rng: random.Random, dim: int, policy: str, samples: int,
                  stream: int) -> dict:
    """run_scenario inputs. `stream` seeds the package's sampler: how many
    emission attempts an op needs (its cost) is random with a spread of
    1/sqrt(samples), so a fixed stream per op keeps the work of every
    benchmark seed the same. Fixed emission times sit near 0.85 or 1.15
    oscillation times, on the upper arc."""
    args = {"dim": dim, "target": rng.randrange(dim), "t_b": 1e-3, "t_osc": 1.0,
            "t_r": 10 ** rng.uniform(2.0, 4.0), "emission": policy,
            "time": ((0.85 + 0.3 * (stream % 2)) * rng.uniform(0.98, 1.02)
                     if policy == "fixed" else None),
            "seed": stream}
    budget = int(ATTEMPT_BUDGET * attempt_success({**args, "samples": 1}))
    args["samples"] = max(MIN_SAMPLES, min(samples, budget))
    return args


def sampling_ops(rng: random.Random) -> list:
    ops = []
    for k in SCENARIO_EXPONENTS:
        for j, policy in enumerate(POLICIES):
            for stratum in range(SCENARIO_STRATA):
                samples = round(_stratum(rng, MIN_SAMPLES, MAX_SAMPLES,
                                         stratum, SCENARIO_STRATA))
                ops.append({"kind": "scenario",
                            "args": scenario_args(rng, 2**k, policy, samples,
                                                  100 * k + 10 * j + stratum)})
    for mode in ("with", "without"):
        for j in range(CLASSICAL_STRATA):
            n = round(_centre(*CLASSICAL_N, j, CLASSICAL_STRATA))
            # a fixed permutation pairs every size stratum with a trial stratum
            trials = round(_centre(*CLASSICAL_TRIALS, 5 * j % CLASSICAL_STRATA,
                                   CLASSICAL_STRATA))
            if mode == "without":
                trials = min(trials, max(CLASSICAL_TRIALS[0], KEY_BUDGET // n))
            ops.append({"kind": "classical", "args": {
                "n": n, "mode": mode, "trials": trials,
                "seed": rng.randrange(2**32)}})
    return ops


def _cli(sub: str, args: dict, argv: list) -> dict:
    return {"kind": "cli", "sub": sub, "args": args,
            "argv": [sub] + argv + ["--format", args["format"]]}


def cli_table(rng, qmax):
    args = {"qmax": qmax, "format": rng.choice(CLI_FORMATS)}
    return _cli("table", args, ["--qmax", str(qmax)])


def cli_grover(rng, n, iters=None, phases=None):
    args = {"n": n, "target": rng.randrange(n), "iters": iters,
            "format": rng.choice(CLI_FORMATS)}
    argv = ["--n", str(n), "--target", str(args["target"])]
    if iters is not None:
        argv += ["--iters", str(iters)]
    if phases:
        argv += ["--phases", "random", "--seed", str(rng.randrange(2**31))]
    return _cli("grover", args, argv)


def cli_classical(rng, n, mode, trials):
    args = {"n": n, "mode": mode, "trials": trials,
            "format": rng.choice(CLI_FORMATS)}
    return _cli("classical", args, ["--n", str(n), "--mode", mode, "--trials",
                                    str(trials), "--seed", str(rng.randrange(2**31))])


def cli_bond(rng):
    args = {"delta_e_kt": rng.uniform(3.0, 12.0),
            "temperature": rng.uniform(200.0, 400.0),
            "cascade": rng.randint(1, 8), "format": rng.choice(CLI_FORMATS)}
    return _cli("bond", args, [
        "--delta-e-kt", repr(args["delta_e_kt"]),
        "--temperature", repr(args["temperature"]),
        "--cascade", str(args["cascade"])])


def cli_scenario(rng, dim, policy, samples, stream):
    args = scenario_args(rng, dim, policy, samples, stream)
    args["format"] = rng.choice(CLI_FORMATS)
    argv = ["--n", str(dim), "--target", str(args["target"]),
            "--t-b", repr(args["t_b"]), "--t-osc", repr(args["t_osc"]),
            "--t-r", repr(args["t_r"]), "--emission", policy,
            "--samples", str(args["samples"]), "--seed", str(args["seed"])]
    if policy == "fixed":
        argv += ["--time", repr(args["time"])]
    return _cli("scenario", args, argv)


def cli_hamiltonian(rng, n, dt, t_max=None):
    args = {"n": n, "target": rng.randrange(n), "t_max": t_max, "dt": dt,
            "format": rng.choice(CLI_FORMATS)}
    argv = ["--n", str(n), "--target", str(args["target"]), "--dt", repr(dt)]
    if t_max is not None:
        argv += ["--t-max", repr(t_max)]
    return _cli("hamiltonian", args, argv)


def cli_ops(rng: random.Random) -> list:
    """25 calls, few enough that each is timed three times in a 55 s run
    (a call costs at least the ~0.5 s of start-up and imports; a pass
    takes 14-20 s on a 2-vCPU Xeon VM, PASS_SECONDS["cli"] nominally). The 13
    small calls put op_p50_ms (rank 13) on the start-up cost; the 10 large
    calls, each doing about 0.2-0.6 s of work, and the 2 failing ones put
    op_tail_ms (rank 15) among the record streams and big models, clear of
    the small calls."""
    ops = [cli_bond(rng)]
    # small calls: process start-up and imports dominate
    for j in range(2):
        ops.append(cli_table(rng, round(_stratum(rng, 5, 50, j, 2))))
        ops.append(cli_classical(rng, round(_stratum(rng, 4, 1000, j, 2)),
                                 ("with", "without")[j],
                                 round(_stratum(rng, 1000, 10000, j, 2))))
        ops.append(cli_hamiltonian(rng, 2 ** (2 + 2 * j), 0.05))
    for j in range(3):
        ops.append(cli_grover(rng, 2 ** (3 + 3 * j), phases=j == 1))
        ops.append(cli_scenario(rng, 2 ** (2 + j), POLICIES[j],
                                round(_stratum(rng, 10, 100, j, 3)), j))
    # large record streams and large models
    for j in range(3):
        ops.append(cli_hamiltonian(rng, 4, 0.01,
                                   t_max=round(_stratum(rng, 140.0, 200.0, j, 3), 2)))
    for j in range(2):
        ops.append(cli_table(rng, round(_stratum(rng, 12000, 18000, j, 2))))
    ops.append(cli_hamiltonian(rng, 512, 0.05))
    ops.append(cli_hamiltonian(rng, 1024, 0.05, t_max=15.0))
    for stream in range(2):
        ops.append(cli_scenario(rng, 1024, "uniform", MIN_SAMPLES, 1024 + stream))
    ops.append(cli_classical(rng, round(_stratum(rng, 20000, 100000, 0, 1)), "without", 1000))
    # the optimal-count calls that fail at this commit
    ops.append(cli_grover(rng, 262144))
    ops.append(cli_grover(rng, 2**20))
    return ops


def probe_ops() -> list:
    """One small call per subcommand (both classical modes), for traced
    runs of workloads that leave the CLI and its modules idle."""
    rng = random.Random("probe")
    ops = [cli_table(rng, 10), cli_grover(rng, 64), cli_bond(rng),
           cli_classical(rng, 100, "with", 2000),
           cli_classical(rng, 100, "without", 2000),
           cli_scenario(rng, 16, "uniform", 50, 0),
           cli_hamiltonian(rng, 16, 0.05)]
    for i, op in enumerate(ops):  # both encodings, whatever the draws
        op["args"]["format"] = op["argv"][-1] = CLI_FORMATS[i % 2]
    return ops


def build(workload: str, seed: int) -> list:
    """The fixed op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"search": search_ops, "sampling": sampling_ops, "cli": cli_ops}[workload](rng)

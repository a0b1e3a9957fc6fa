"""Runs one workload's op list in a fresh process and reports raw timings.

Started by run.py with the checkout's src on PYTHONPATH. A single client
runs the ops one after another (closed loop): the op list is repeated in
passes until the time budget would be overrun. Each op is timed alone; its
result is then checked against oracles.py outside the timed region. With
--trace 1, traced and untraced passes alternate (traced first), and the
CLI invocations (or, on the in-process workloads, a small probe set) are
rerun in-process under the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import signal
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads
from tracing import Tracer, instrument

CLI_TIMEOUT_S = 120
# A quick op is rerun back to back until this much of its time has
# accumulated (at most MAX_REPEATS runs) and its fastest run is kept, so
# that millisecond ops get as many samples as the slow ones get passes.
REPEAT_S = 0.05
MAX_REPEATS = 5


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _timed_out(signum, frame):
    raise TimeoutError(f"CLI call ran for more than {CLI_TIMEOUT_S} s")


def invoke_cli(argv: list, root: str) -> subprocess.CompletedProcess:
    """One CLI process. The wait blocks instead of polling (subprocess's
    timeout polls with up to 50 ms sleeps, which would quantize latencies);
    SIGALRM bounds it, and a timed-out call is a failed op."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=root) as proc:
        signal.alarm(CLI_TIMEOUT_S)
        try:
            out, err = proc.communicate()
        except TimeoutError:
            proc.kill()
            raise
        finally:
            signal.alarm(0)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


class Runner:
    def __init__(self, workload: str, root: str, tracer: Tracer | None):
        self.root = root
        self.tracer = tracer
        self.references = {}
        self.bq = None
        if workload != "cli" or tracer is not None:
            import basequest.classical
            import basequest.cli
            import basequest.grover
            import basequest.replication
            self.bq = basequest

    # -- one op ---------------------------------------------------------

    def prepare(self, index: int, op: dict):
        """(callable to time, check taking its result) for one op."""
        a, kind = op["args"], op["kind"]
        if kind == "cli":
            argv = [sys.executable, "-m", "basequest.cli"] + op["argv"]
            return lambda: invoke_cli(argv, self.root), None
        grover = self.bq.grover
        if kind == "grover":
            return (lambda: grover.run_grover(a["n"], a["target"], a["queries"]),
                    lambda r: oracles.check_grover(a, r))
        if kind == "grover_phases":
            rng = np.random.default_rng(a["phase_seed"])
            phases = np.exp(2j * np.pi * rng.random(a["n"]))
            return (lambda: grover.run_grover_with_phases(
                        a["n"], a["target"], a["queries"], phases),
                    lambda r: oracles.check_grover(a, r))
        if kind == "hamiltonian":
            if index not in self.references:
                self.references[index] = oracles.hamiltonian_reference(
                    a["n"], a["t_max"], a["dt"])
            ref = self.references[index]
            return (lambda: grover.evolve_two_term_hamiltonian(
                        a["n"], a["target"], a["t_max"], a["dt"]),
                    lambda r: oracles.check_hamiltonian(a, r, ref))
        if kind == "scenario":
            rep = self.bq.replication
            params = rep.ScenarioParams(
                dim=a["dim"], target=a["target"], bond_duration=a["t_b"],
                oscillation_time=a["t_osc"], relaxation_time=a["t_r"],
                emission=a["emission"], emission_time=a["time"],
                samples=a["samples"], seed=a["seed"])
            return (lambda: rep.run_scenario(params),
                    lambda r: oracles.check_scenario(a, r))
        if kind == "classical":
            cls = self.bq.classical
            return (lambda: cls.simulate_search(a["n"], a["mode"], a["trials"], a["seed"]),
                    lambda r: oracles.check_classical(a, r))
        raise ValueError(f"unknown op kind {kind!r}")

    def run_op(self, index: int, op: dict, traced: bool) -> dict:
        call, check = self.prepare(index, op)
        tracer = self.tracer if traced else None
        error = None
        start = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.span(f"op.{op['kind']}", "bench", call)
            else:
                result = call()
        except Exception as exc:  # every package failure is an op outcome
            latency = time.perf_counter() - start
            return {"latency": latency, "status": type(exc).__name__,
                    "detail": str(exc)[:200]}
        latency = time.perf_counter() - start
        if op["kind"] == "cli":
            if result.returncode != 0:
                return {"latency": latency, "status": f"exit{result.returncode}",
                        "detail": result.stderr.strip()[:200]}
            error = oracles.check_cli(op, result.stdout)
        else:
            error = check(result)
        out = {"latency": latency, "status": "wrong" if error else "ok"}
        if error:
            out["detail"] = error
        if op["kind"] == "scenario":
            out["attempts"] = round(result.mean_attempts * result.params.samples)
        return out

    def time_op(self, index: int, op: dict, traced: bool) -> dict:
        """Fastest of a few back-to-back runs; the first failure ends them."""
        runs = []
        while True:
            out = self.run_op(index, op, traced)
            runs.append(out)
            if (out["status"] != "ok" or len(runs) == MAX_REPEATS
                    or sum(r["latency"] for r in runs) >= REPEAT_S):
                break
        best = out if out["status"] != "ok" else min(runs, key=lambda r: r["latency"])
        return {**best, "runs": len(runs)}

    # -- passes ---------------------------------------------------------

    def run_passes(self, ops: list, seconds: float, pass_s: float | None) -> list:
        """Passes until the next one would overrun `seconds`. Given pass_s,
        the nominal cost of one pass, it runs seconds // pass_s passes
        instead: when an op is only timed a few times, whether the machine
        allowed one pass more would move its fastest time more than the
        program does."""
        passes = []
        deadline = time.perf_counter() + seconds
        min_passes = 2 if self.tracer is not None else 1
        if pass_s is not None:
            min_passes = max(min_passes, int(seconds // pass_s))
            deadline = 0.0
        while True:
            traced = self.tracer is not None and len(passes) % 2 == 0
            if traced:
                self.tracer.enabled = True
            began = time.perf_counter()
            results = [self.time_op(i, op, traced) for i, op in enumerate(ops)]
            took = time.perf_counter() - began
            if traced:
                self.tracer.enabled = False
            passes.append({"traced": traced, "results": results})
            if len(passes) >= min_passes and time.perf_counter() + took > deadline:
                return passes

    # -- in-process CLI rerun (traced runs only) ------------------------

    def rerun_cli(self, ops: list) -> dict:
        cli = self.bq.cli
        tracer = self.tracer
        build_s = write_s = 0.0
        write_start = []
        inner = cli.write_records

        def marked(*args, **kwargs):
            write_start.append(time.perf_counter())
            return inner(*args, **kwargs)

        cli.write_records = marked
        tracer.enabled = True
        try:
            for op in ops:
                write_start.clear()
                sink, errors = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                    start = time.perf_counter()
                    try:
                        tracer.span("cli.main", "cli", cli.main.main, args=op["argv"],
                                    prog_name="basequest", standalone_mode=False)
                    except SystemExit:
                        pass
                    end = time.perf_counter()
                split = write_start[0] if write_start else end
                build_s += split - start
                write_s += end - split
        finally:
            tracer.enabled = False
            cli.write_records = inner
        return {"build_s": build_s, "write_s": write_s}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    signal.signal(signal.SIGALRM, _timed_out)
    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, args.root, tracer)
    if tracer is not None:
        instrument(tracer)

    passes = runner.run_passes(ops, args.seconds, workloads.PASS_SECONDS.get(args.workload))
    report = {"passes": passes, "blas_threads": blas_threads()}
    if tracer is not None:
        probe = workloads.probe_ops() if args.workload != "cli" else []
        if probe:
            report["probe"] = [{"sub": op["sub"], **runner.run_op(i, op, False)}
                               for i, op in enumerate(probe)]
        report["rerun"] = runner.rerun_cli(ops if args.workload == "cli" else probe)
        report["trace"] = {
            "modules": tracer.modules, "calls": dict(tracer.calls),
            "total_s": dict(tracer.total), "work": dict(tracer.work),
            "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
        }
        with open(args.spans, "w", encoding="utf-8") as sink:
            for name, start, end, parent in tracer.spans:
                sink.write(json.dumps({"name": name, "start": start, "end": end,
                                       "parent": parent}) + "\n")
    if runner.bq is not None:
        report["basequest_file"] = runner.bq.__file__
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(report, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())

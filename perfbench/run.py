"""basequest benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and the
package is imported from its src (never from an installed copy). The ops
run in a worker process; this process times set-up, reads the workers'
peak memory, checks provenance, prints a readable report and, as its last
line, one JSON object with the metrics BENCHMARK.json lists: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. --workload all
runs every workload in turn. Results files go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 9        # fresh-interpreter imports timed per run
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10         # ops that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170

SUBCOMMANDS = ("table", "grover", "classical", "bond", "scenario", "hamiltonian")
IMPORTED = ("numpy", "scipy", "click")


class BenchError(Exception):
    """The benchmark cannot run here (missing package, worker crash...)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _timed_out(signum, frame):
    raise TimeoutError(f"a child ran for more than {CHILD_TIMEOUT_S} s")


def run_child(argv: list, capture: bool = False,
              stdout=None) -> subprocess.CompletedProcess:
    """Run argv to completion in its own process group, so that a timeout or
    an interrupt also ends whatever the child started (the worker's CLI
    calls). The wait blocks instead of polling: subprocess's timeout polls
    with up to 50 ms sleeps, which would quantize the set-up times."""
    pipe = subprocess.PIPE if capture else None
    previous = signal.signal(signal.SIGALRM, _timed_out)
    with subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                          stdout=pipe or stdout, stderr=pipe,
                          start_new_session=True) as proc:
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            out, err = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# --- provenance ----------------------------------------------------------


def provenance(seed: int) -> dict:
    """Where the numbers come from. Asserts the package is the checkout's."""
    done = run_child([sys.executable, "-c",
                      "import basequest, basequest.cli; print(basequest.__file__)"],
                     capture=True)
    if done.returncode != 0:
        raise BenchError(f"cannot import basequest from {SRC}:\n{done.stderr}")
    imported = Path(done.stdout.strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"imported basequest from {imported}, not from {SRC}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "basequest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "basequest": str(imported),
        "python": platform.python_version(),
        **{name: metadata.version(name) for name in IMPORTED},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# --- set-up cost -----------------------------------------------------------


def setup_times(module: str, repeats: int) -> list:
    """Wall times of fresh interpreters importing module (bytecode warm)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", f"import {module}"])
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"import {module} failed")
    return times


def import_breakdown() -> dict:
    """Cumulative import ms per module from `python -X importtime`, median
    of IMPORTTIME_REPEATS fresh interpreters importing basequest.cli."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        done = run_child([sys.executable, "-X", "importtime", "-c", "import basequest.cli"],
                         capture=True)
        runs.append(parse_importtime(done.stderr))
    return {name: statistics.median(run.get(name, 0.0) for run in runs)
            for name in runs[0]}


def parse_importtime(text: str) -> dict:
    rows = []
    for line in text.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            rows.append((len(match.group(2)), match.group(3), int(match.group(1))))
    out = {}
    for depth, name, cumulative in rows:
        if name.startswith("basequest."):
            out[name.split(".", 1)[1]] = cumulative / 1000.0
    # a third-party package costs the sum of its subtrees entered from outside
    # it; lines come in post-order, so a row's parent is the next shallower one
    for index, (depth, name, cumulative) in enumerate(rows):
        top = name.split(".")[0]
        if top not in IMPORTED:
            continue
        parent = next((n for d, n, _ in rows[index + 1:] if d < depth), "")
        if parent.split(".")[0] != top:
            out[top] = out.get(top, 0.0) + cumulative / 1000.0
    return out


# --- metrics ---------------------------------------------------------------


def op_latencies(ops: list, passes: list) -> list:
    """Per op: its fastest latency over the passes given (interference from
    other tenants of the machine only adds time), and whether it failed."""
    rows = []
    for i, op in enumerate(ops):
        results = [p["results"][i] for p in passes]
        rows.append({
            "op": op,
            "latency": min(r["latency"] for r in results),
            "failed": any(r["status"] != "ok" for r in results),
            "attempts": results[0].get("attempts"),
        })
    return rows


def tail(rows: list) -> tuple:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it; a failed op ranks above every successful one."""
    ranked = sorted(rows, key=lambda r: (r["failed"], r["latency"]))
    rank = max(1, len(ranked) - TAIL_BEYOND)
    return ranked[rank - 1]["latency"], 100.0 * rank / len(ranked)


def slope(points: list) -> float | None:
    """Least-squares exponent b of y ~ x**b over (x, y) pairs."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return None
    return statistics.linear_regression(*zip(*points)).slope


def exponents(rows: list) -> dict:
    """Scaling exponents fitted to per-op latencies of successful ops."""
    ok = [r for r in rows if not r["failed"]]

    def pick(kind, mode=None):
        return [r for r in ok if r["op"]["kind"] in kind
                and (mode is None or r["op"]["args"].get("mode") == mode)]

    fits = {
        "grover.latency_per_query_vs_n": slope(
            [(r["op"]["args"]["n"], r["latency"] / r["op"]["args"]["queries"])
             for r in pick(("grover", "grover_phases")) if r["op"]["args"]["queries"]]),
        "grover.hamiltonian_latency_per_step_vs_dim": slope(
            [(r["op"]["args"]["n"],
              r["latency"] / round(r["op"]["args"]["t_max"] / r["op"]["args"]["dt"]))
             for r in pick(("hamiltonian",))]),
        "replication.latency_per_attempt_vs_dim": slope(
            [(r["op"]["args"]["dim"], r["latency"] / r["attempts"])
             for r in pick(("scenario",))]),
        "classical.latency_vs_trials_with": slope(
            [(r["op"]["args"]["trials"], r["latency"]) for r in pick(("classical",), "with")]),
        "classical.latency_per_trial_vs_n_without": slope(
            [(r["op"]["args"]["n"], r["latency"] / r["op"]["args"]["trials"])
             for r in pick(("classical",), "without")]),
    }
    return {name: value for name, value in fits.items() if value is not None}


def outcomes(ops: list, passes: list) -> dict:
    """Per op of the list, its outcome over every run in every pass: the
    status of its first failed run, or "ok". An op is one attempt however
    often it is timed, so `attempted` and `failed` depend on the op list
    only, not on how many passes the machine's speed allowed."""
    status = {}
    for i in range(len(ops)):
        bad = [p["results"][i] for p in passes if p["results"][i]["status"] != "ok"]
        status[i] = bad[0] if bad else {"status": "ok"}
    return status


def end_to_end(ops, passes, setup, peak_rss_mb, attempted, failed) -> tuple:
    rows = op_latencies(ops, passes)
    tail_latency, tail_pct = tail(rows)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(r["latency"] for r in rows), "s"),
        "op_p50_ms": (1e3 * statistics.median(r["latency"] for r in rows), "ms"),
        "op_tail_ms": (1e3 * tail_latency, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }
    notes = {"op_tail_ms": f"p{tail_pct:.1f} of {len(rows)} ops",
             "wall_s": f"per-op best of {len(passes)} passes",
             "setup_s": f"median of {len(setup)} imports",
             "ok_rate": f"error_rate {failed / attempted:.4f} = {failed}/{attempted}"}
    return metrics, notes, rows


def ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(workload, ops, passes, report, imports) -> dict:
    trace = report["trace"]
    mods, calls, total, work = (trace["modules"], trace["calls"], trace["total_s"],
                                trace["work"])
    metrics = {}
    for module, stats in mods.items():
        metrics[f"{module}.calls"] = (stats["calls"], "count")
        metrics[f"{module}.self_s"] = (stats["self_s"], "s")
        metrics[f"{module}.errors"] = (stats["errors"], "count")
        metrics[f"{module}.import_ms"] = (imports.get(module, 0.0), "ms")
    for name in IMPORTED:
        metrics[f"{name}.import_ms"] = (imports.get(name, 0.0), "ms")
    for module in ("grover", "replication", "classical"):
        metrics[f"{module}.busy_s"] = (mods[module]["busy_s"], "s")

    amps = work.get("grover.amp_updates", 0.0)
    step_s = total.get("grover.grover_step", 0.0)
    metrics.update({
        "grover.step_calls": (calls.get("grover.grover_step", 0), "count"),
        "grover.amp_updates_computed": (amps, "count"),
        "grover.bytes_touched_computed": (16 * amps, "B"),
        "grover.ns_per_amp_update": (ratio(step_s, amps, 1e9), "ns"),
        "grover.hamiltonian_s": (total.get("grover.evolve_two_term_hamiltonian", 0.0), "s"),
    })
    attempts = work.get("replication.attempts", 0.0)
    metrics.update({
        "replication.attempts": (attempts, "count"),
        "replication.success_per_attempt": (
            ratio(work.get("replication.samples", 0.0), attempts), "ratio"),
        "replication.us_per_attempt": (
            ratio(total.get("replication.run_scenario", 0.0), attempts, 1e6), "us"),
    })
    for mode in ("with", "without"):
        metrics[f"classical.ns_per_trial_{mode}"] = (
            ratio(work.get(f"classical.s_{mode}", 0.0),
                  work.get(f"classical.trials_{mode}", 0.0), 1e9), "ns")
    metrics["classical.trials"] = (
        work.get("classical.trials_with", 0.0) + work.get("classical.trials_without", 0.0),
        "count")
    metrics["classical.key_bytes_computed"] = (work.get("classical.key_bytes", 0.0), "B")
    records = {fmt: work.get(f"output.records_{fmt}", 0.0) for fmt in ("csv", "jsonl")}
    metrics["output.records"] = (sum(records.values()), "count")
    metrics["output.bytes"] = (work.get("output.bytes", 0.0), "B")
    for fmt, count in records.items():
        metrics[f"output.us_per_record_{fmt}"] = (
            ratio(work.get(f"output.s_{fmt}", 0.0), count, 1e6), "us")

    if workload == "cli":
        latencies = [(r["op"]["sub"], r["latency"]) for r in op_latencies(ops, passes)]
    else:
        latencies = [(r["sub"], r["latency"]) for r in report["probe"]]
    for sub in SUBCOMMANDS:
        own = [lat for s, lat in latencies if s == sub]
        metrics[f"cli.{sub}.p50_ms"] = (1e3 * statistics.median(own) if own else 0.0, "ms")
    metrics["cli.build_s"] = (report["rerun"]["build_s"], "s")
    metrics["cli.write_s"] = (report["rerun"]["write_s"], "s")

    walls = {flag: sum(r["latency"] for r in op_latencies(
                 ops, [p for p in passes if p["traced"] is flag])) for flag in (True, False)}
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    metrics["trace.spans"] = (trace["spans"] + trace["spans_dropped"], "count")
    return metrics


# --- one run ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    prov = provenance(seed)
    ops = workloads.build(workload, seed)
    ops_path, raw_path = stem.with_suffix(".ops.json"), stem.with_suffix(".raw.json")
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    # set-up is timed before and after the ops, to straddle machine drift
    module = "basequest.cli" if workload == "cli" else "basequest"
    setup = setup_times(module, SETUP_REPEATS // 2)

    done = run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                      "--ops", str(ops_path), "--out", str(raw_path),
                      "--spans", str(stem.with_suffix(".spans.jsonl")),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--root", str(ROOT)], stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}")
    # every child so far has been waited for; the largest ran the ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report = json.loads(raw_path.read_text(encoding="utf-8"))
    ops_path.unlink()
    raw_path.unlink()
    if "basequest_file" in report and Path(report["basequest_file"]).resolve() \
            != Path(prov["basequest"]):
        raise BenchError(f"worker imported {report['basequest_file']}")
    prov["blas_threads"] = report["blas_threads"]

    setup += setup_times(module, SETUP_REPEATS - len(setup))
    passes = report["passes"]
    timed = [p for p in passes if not p["traced"]]
    status = outcomes(ops, passes)
    attempted = len(ops)
    failed = sum(r["status"] != "ok" for r in status.values())
    wrong = [i for i in range(len(ops))
             if any(p["results"][i]["status"] == "wrong" for p in passes)]
    executions = sum(r["runs"] for p in passes for r in p["results"])
    e2e, notes, rows = end_to_end(ops, timed, setup, peak_rss_mb, attempted, failed)
    failures = {}
    for r in status.values():
        if r["status"] != "ok":
            failures.setdefault(r["status"], {"count": 0, "example": r.get("detail")})
            failures[r["status"]]["count"] += 1

    if trace:
        wanted = spec["per_layer"]
        got = per_layer(workload, ops, passes, report, import_breakdown())
    else:
        wanted = spec["end_to_end"]
        got = e2e
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": got[m["name"]][0], "unit": m["unit"]} for m in wanted}

    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "provenance": prov, "result": result, "notes": notes,
        "executions": executions, "passes": len(passes),
        "failures": failures, "exponents": exponents(rows),
        "ops": [{"kind": r["op"]["kind"], "args": r["op"]["args"],
                 "latency_s": r["latency"], "failed": r["failed"]} for r in rows],
    }
    if trace:
        record["trace"] = report["trace"]
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    source = (f"commit {prov['commit'][:12]}" if prov["commit"]
              else f"source sha256 {prov['source_sha256'][:12]}")
    print(f"== {workload}  seed {seed}  trace {trace}  {source}  "
          f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"click {prov['click']}  nproc {prov['nproc']}  blas threads {prov['blas_threads']}")
    for name, entry in metrics.items():
        note = notes.get(name, "") if not trace else ""
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']:<6} {note}")
    print(f"  ops attempted {attempted} (run {executions} times in {len(passes)} passes), "
          f"failed {failed} (error_rate {failed / attempted:.4f}), wrong {len(wrong)}; "
          "failures by class: "
          + (", ".join(f"{k} x{v['count']}" for k, v in failures.items()) or "none"))
    for name, value in record["exponents"].items():
        print(f"  exponent {name:<44} {value:8.3f}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "basequest" / "__init__.py").is_file():
            raise BenchError(f"no basequest package under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload == "all":
            result = {name: run_separately(name, args) for name in workloads.WORKLOADS}
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_separately(workload: str, args) -> dict:
    """One workload in its own process, so its peak memory is its own."""
    done = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{workload} exited with {done.returncode}")
    *report, last = done.stdout.splitlines()
    print("\n".join(report), flush=True)
    return json.loads(last)


if __name__ == "__main__":
    sys.exit(main())

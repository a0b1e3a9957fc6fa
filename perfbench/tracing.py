"""Spans and counters recorded from outside the package.

instrument() replaces every public function of the six basequest modules,
in every package namespace that holds it, with a timing wrapper, so calls
between modules are seen as well as calls from the benchmark. A call that
enters a module from outside it (from the benchmark or from another
module) is a boundary span: it is kept with its name, start, end and
parent, and its duration counts towards that module's busy time. Calls
nested inside the same module run untimed, except the few whose work is
counted (WORK), which add to per-function counters. A module's self time
is its boundary time minus the boundary spans of other modules it called.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("grover", "classical", "bond", "replication", "output", "cli")

# Kept spans; beyond this only the counters grow.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []          # open frames: [module, child_s, span_index]
        self.spans = []          # (name, start, end, parent_index)
        self.dropped = 0
        self.calls = defaultdict(int)      # function name -> calls
        self.total = defaultdict(float)    # function name -> inclusive s
        self.modules = {m: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
                        for m in MODULES}
        self.work = defaultdict(float)     # counters filled by WORK hooks

    def span(self, name: str, module: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        stack = self.stack
        parent = stack[-1] if stack else None
        boundary = parent is None or parent[0] != module
        index = -1
        if boundary:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
        frame = [module, 0.0, index]
        stack.append(frame)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            if boundary:
                if index >= 0:
                    self.spans[index] = (name, start, end,
                                         parent[2] if parent else -1)
                if parent is not None:
                    parent[1] += duration
                stats = self.modules.get(module)
                if stats is not None:
                    stats["calls"] += 1
                    stats["busy_s"] += duration
                    stats["self_s"] += duration - frame[1]
                    stats["errors"] += failed
            else:
                parent[1] += frame[1]
            if not failed and name in WORK:
                WORK[name](self.work, duration, args, kwargs, result)


def _amp_updates(work, duration, args, kwargs, state):
    work["grover.amp_updates"] += state.dim


def _scenario(work, duration, args, kwargs, report):
    samples = report.params.samples
    work["replication.samples"] += samples
    work["replication.attempts"] += round(report.mean_attempts * samples)


def _classical(work, duration, args, kwargs, stats):
    size = args[0] if args else kwargs["database_size"]
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    mode = getattr(mode, "value", mode)
    work[f"classical.trials_{mode}"] += stats.trials
    work[f"classical.s_{mode}"] += duration
    if mode == "without":
        work["classical.key_bytes"] += 8 * stats.trials * size


def _records(work, duration, args, kwargs, text):
    records = args[0] if args else kwargs["records"]
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    work[f"output.records_{fmt}"] += len(records)
    work[f"output.s_{fmt}"] += duration
    work["output.bytes"] += len(text.encode("utf-8"))


# Work counted from a call's duration, arguments and result, after its
# span closes.
WORK = {
    "grover.grover_step": _amp_updates,
    "replication.run_scenario": _scenario,
    "classical.simulate_search": _classical,
    "output.format_records": _records,
}


def _wrap(tracer: Tracer, name: str, module: str, fn):
    counted = name in WORK

    def traced(*args, **kwargs):
        stack = tracer.stack
        if not tracer.enabled or (stack and stack[-1][0] == module and not counted):
            return fn(*args, **kwargs)
        return tracer.span(name, module, fn, *args, **kwargs)
    traced.__wrapped__ = fn
    return traced


def instrument(tracer: Tracer) -> None:
    """Route every public basequest function through the tracer."""
    package = importlib.import_module("basequest")
    namespaces = [package] + [importlib.import_module(f"basequest.{m}")
                              for m in MODULES]
    wrapped = {}
    for module in MODULES:
        mod = importlib.import_module(f"basequest.{module}")
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            wrapped[id(value)] = _wrap(tracer, f"{module}.{attr}", module, value)
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrapped:
                setattr(namespace, attr, wrapped[id(value)])

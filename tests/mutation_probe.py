"""Comparison-flip mutation probe for the package sources.

Not a test module: pytest does not collect it, and tier-1 never runs it.
Run it by hand after changing a bound or a check:

    python tests/mutation_probe.py WORKDIR [FILE ...]

It copies the repository into WORKDIR (which must not exist yet) and, for
each comparison operator in each FILE (default: src/basequest/_checks.py
and src/basequest/grover.py), writes one mutant of the copy that flips it
(< and <=, > and >=, == and !=; one operator of a chain at a time). The
source is patched at the operator itself, so comments and layout stay.
Each mutant runs the tier-1 suite with -x in the copy; a mutant the suite
passes survives. The unmutated copy must pass first; its run is timed, the
time is printed, and a mutant's run is stopped as a timeout after
TIMEOUT_FACTOR times it. Every survivor has to be killed by a test at the
bound and one ulp or one integer beyond it, shown equivalent, or deleted as
dead code.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("src/basequest/_checks.py", "src/basequest/grover.py")
# operator class -> (its token, the flipped token)
FLIPS = {ast.Lt: (b"<", b"<="), ast.LtE: (b"<=", b"<"),
         ast.Gt: (b">", b">="), ast.GtE: (b">=", b">"),
         ast.Eq: (b"==", b"!="), ast.NotEq: (b"!=", b"==")}
# a one-character token not followed by "=" (nor part of a shift)
TOKENS = {b"<": rb"(?<![<>=!])<(?![<=])", b">": rb"(?<![<>=!-])>(?![>=])",
          b"<=": rb"<=", b">=": rb">=", b"==": rb"==", b"!=": rb"!="}
# a mutant's run may take this many times the unmutated run
TIMEOUT_FACTOR = 4


def sites(source: bytes) -> list[tuple[int, int, bytes, bytes, int]]:
    """(start, end, old, new, line) for each flippable operator, in source
    order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    found_sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            lo = offset(operands[i].end_lineno, operands[i].end_col_offset)
            hi = offset(operands[i + 1].lineno, operands[i + 1].col_offset)
            found = list(re.finditer(TOKENS[old], source[lo:hi]))
            if len(found) != 1:
                raise SystemExit(f"cannot place {old!r} at line {node.lineno}")
            start = lo + found[0].start()
            found_sites.append((start, start + len(old), old, new,
                                operands[i].end_lineno))
    return sorted(found_sites)


def run_suite(copy: Path, timeout: float | None = None) -> tuple[str, str]:
    """("passed", "failed" or "timeout", first failure line) of tier-1 with
    -x in copy, stopped after timeout seconds if given."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src"),
                               PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    failed = [line for line in done.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    if done.returncode == 0:
        return "passed", ""
    return "failed", failed[0] if failed else done.stdout.splitlines()[-1]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    copy = Path(argv[0]).resolve()
    files = argv[1:] or FILES
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "results"))
    started = time.monotonic()
    outcome, detail = run_suite(copy)
    elapsed = time.monotonic() - started
    if outcome != "passed":
        print(f"the unmutated copy does not pass: {outcome} {detail}")
        return 1
    timeout = TIMEOUT_FACTOR * elapsed
    print(f"the unmutated copy passed in {elapsed:.1f} s; each mutant's run "
          f"times out after {timeout:.1f} s", flush=True)
    survivors = 0
    for name in files:
        path = copy / name
        source = path.read_bytes()
        for start, end, old, new, line in sites(source):
            path.write_bytes(source[:start] + new + source[end:])
            try:
                outcome, detail = run_suite(copy, timeout)
            finally:
                path.write_bytes(source)
            survivors += outcome == "passed"
            text = source.splitlines()[line - 1].decode().strip()
            verdict = {"passed": "SURVIVED", "failed": "killed"}.get(outcome, outcome)
            print(f"{name}:{line}: {old.decode()} -> {new.decode()}: {verdict}"
                  f"  [{text}]  {detail}", flush=True)
    print(f"{survivors} survivor(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

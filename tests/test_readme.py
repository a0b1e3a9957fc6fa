"""The README's library quick start runs as written, every trailing
comment that starts with a number shows the value of its line, every
dotted name it gives of the package's API exists, and every command-line
example runs."""

from __future__ import annotations

import ast
import contextlib
import csv
import importlib
import io
import pkgutil
import re
import shlex
import tokenize
from decimal import Decimal
from pathlib import Path

import basequest
from basequest import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that starts with a real, or with an imaginary part ("-1j")
NUMBER = re.compile(r"#\s*(-?\d[\d.]*(?:e[-+]?\d+)?)(j?)(?![\w.])")
# a backticked dotted name, such as `replication.NORM_ATOL`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")


def quick_start() -> str:
    """The README's first python block."""
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                     re.S).group(1)


def test_quick_start_shows_its_values():
    source = quick_start()
    comments = {token.start[0]: token.string for token in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        match = NUMBER.match(comments.get(statement.end_lineno, ""))
        if match is None:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr), ast.unparse(statement)
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                     namespace)
        # the value as repr prints it, rounded at the comment's last digit
        text, imaginary = match.groups()
        shown = Decimal(text)
        place = Decimal(1).scaleb(shown.as_tuple().exponent)
        got = tuple(Decimal(repr(part)).quantize(place)
                    for part in (complex(value).real, complex(value).imag))
        line = f"{ast.unparse(statement)}  # {text}{imaginary}: got {value!r}"
        assert got == ((0, shown) if imaginary else (shown, 0)), line
        checked.append(line)
    # no number comment is left unchecked, as one on a continuation line would be
    assert len(checked) == sum(map(bool, map(NUMBER.match, comments.values())))
    assert len(checked) >= 9


def test_dotted_names_resolve():
    # names rooted at the package, one of its submodules or one of its
    # exports; a dataclass field counts as its class's attribute
    submodules = {info.name for info in pkgutil.iter_modules(basequest.__path__)}
    missing, checked = [], 0
    for name in sorted(set(DOTTED.findall(README.read_text(encoding="utf-8")))):
        root, *attrs = name.split(".")
        if root == "basequest":
            obj = basequest
        elif root in submodules:
            obj = importlib.import_module(f"basequest.{root}")
        elif root in basequest.__all__:
            obj = getattr(basequest, root)
        else:
            continue
        for attr in attrs:
            if obj is basequest and attr in submodules:
                obj = importlib.import_module(f"basequest.{attr}")
            elif hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", ()):
                obj = getattr(obj, attr, None)
            else:
                missing.append(name)
                break
        checked += 1
    assert missing == []
    assert checked >= 20


def cli_examples() -> list[list[str]]:
    """The argv of each `basequest ...` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("basequest ")]


def test_cli_examples_run(monkeypatch):
    monkeypatch.delenv("BASEQUEST_FORMAT", raising=False)
    examples = cli_examples()
    # one example at least per subcommand
    assert {argv[0] for argv in examples} == set(cli._COMMANDS)
    for argv in examples:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:  # a usage error, an unknown flag say, exits 2 from argparse
                code = cli.main.main(argv, standalone_mode=False)
            except SystemExit as done:
                code = done.code
        assert code == 0, (argv, err.getvalue())
        first = next(csv.DictReader(io.StringIO(out.getvalue())))
        assert (first["record"], first["command"]) == ("config", argv[0]), argv

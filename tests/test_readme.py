"""The README's library quick start runs as written, and every trailing
comment that starts with a number shows the value of its line."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from decimal import Decimal
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that starts with a real, or with an imaginary part ("-1j")
NUMBER = re.compile(r"#\s*(-?\d[\d.]*(?:e[-+]?\d+)?)(j?)(?![\w.])")


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

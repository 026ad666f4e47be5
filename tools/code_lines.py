#!/usr/bin/env python3
"""Count the code lines of the Python files under a path.

Run from the repository root:

    python tools/code_lines.py src/repro        # one line per file, then a total
    python tools/code_lines.py src/repro/cli.py # a single file

A code line is a line that holds at least one token of code.  Blank lines,
comment-only lines and the lines of docstrings (the string literal a
module, class or function body opens with) do not count; a line that holds
code and a trailing comment does.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, Set

#: Tokens that are never code on their own.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
    else:
        yield from sorted(root.rglob("*.py"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: code_lines.py PATH", file=sys.stderr)
        return 2
    root = Path(args[0])
    total = 0
    for path in python_files(root):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

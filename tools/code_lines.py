#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold a token outside
comments and docstrings.

    python3 tools/code_lines.py src/switchreg

Each path is a file or a directory searched for *.py files. One line per
file, largest first, then the total. A docstring is the string that opens a
module, class or function body (ast's rule); blank lines, comment lines and
the lines a docstring spans are not counted, and a multi-line token counts
every line it spans. Standard library only (tokenize and ast).
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) of every docstring's string token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token outside comments and
    docstrings."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths) -> list:
    """The *.py files named by paths, a directory giving those under it."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)
    counts = [(code_lines(f.read_text()), str(f))
              for f in python_files(args.paths)]
    for count, name in sorted(counts, key=lambda c: (-c[0], c[1])):
        print(f"{count:7,d}  {name}")
    print(f"{sum(c for c, _ in counts):7,d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

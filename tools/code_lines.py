"""Count the code lines of Python files: lines that hold a token other
than a comment, minus module, class and function docstrings.

A line counts once however many tokens it holds, and every line a token
spans counts (a multi-line statement, or a string literal that is not a
docstring). Blank lines, comment-only lines and docstring lines do not.

Usage: python tools/code_lines.py PATH...   (a directory counts its *.py files)
Prints one "count path" line per file, then "count total".
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    files = []
    for arg in argv:
        path = pathlib.Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    if not files:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 1
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

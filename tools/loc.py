"""Count code lines of Python files: lines that hold code, not counting
blank lines, comment-only lines or docstrings.

    python tools/loc.py src/pluckerlab tests

prints the count for each file or directory given (directories are walked
for ``*.py``), then the total when more than one is given.  Standard library
only: ``tokenize`` finds the lines that hold a token of code, and ``ast``
finds the docstrings of modules, classes and functions, whose lines are
dropped.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    """Code lines of one Python source file."""
    source = path.read_text()
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source, str(path))))


def count(path: Path) -> int:
    """Code lines of a file, or of every ``*.py`` file under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count_file(f) for f in files)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [(arg, count(Path(arg))) for arg in argv]
    for arg, n in counts:
        print(f"{n}\t{arg}")
    if len(counts) > 1:
        print(f"{sum(n for _, n in counts)}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

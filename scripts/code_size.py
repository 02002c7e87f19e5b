"""Code lines per module of ``src/mactor``, docstrings and comments not counted.

    python3 scripts/code_size.py

A line counts when it holds a token of code: not a comment, not a blank
line and not part of a docstring (the string that opens a module, class or
function body).  A statement or string spread over several lines counts
each of its lines.  Prints a markdown table with one row per module, then
the total and the number of names in ``mactor.__all__``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import mactor  # noqa: E402

PACKAGE = ROOT / "src" / "mactor"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    rows = [(path.name, code_lines(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    print("| module | code lines |")
    print("|---|---|")
    for name, lines in rows:
        print(f"| {name} | {lines} |")
    print(f"| total | {sum(lines for _, lines in rows)} |")
    print(f"\n`mactor.__all__`: {len(mactor.__all__)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())

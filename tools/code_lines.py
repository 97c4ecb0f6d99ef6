"""Count the code lines of the balm package: lines that hold a token of
code, not counting blank lines, comments or docstrings.

A docstring is the string expression that opens a module, class or
function body (ast); the other lines are those on which tokenize finds a
token other than a comment, a newline, an indent or a dedent.  A string
or bracketed expression that spans several lines counts every line it
spans.  Prints one count per module and the total:

    python tools/code_lines.py
    python tools/code_lines.py path/to/other/checkout/src/balm
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFAULT_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "balm")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = os.path.normpath(args[0] if args else DEFAULT_ROOT)
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

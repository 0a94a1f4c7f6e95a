"""Count the code lines of each Python module in a directory.

A line counts when it holds a token other than a comment, a newline or an
indentation change, and lies outside a docstring (the string that opens a
module, class or function body).  Blank lines, comment lines and docstrings
are left out; every line of a multi-line statement counts.

Usage: python tools/code_lines.py DIRECTORY

Prints one line per ``*.py`` file directly in DIRECTORY, in name order, then
the total.  Uses only the standard library.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line count; ENCODING and ENDMARKER lie on no line
_SKIPPED = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """Line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the Python file ``path``."""
    source = Path(path).read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/code_lines.py DIRECTORY")
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Count the code lines of Python modules.

A code line holds at least one token of code.  Blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) are not counted; a line that holds code and a comment is.
Every line that a multi-line string or bracket spans counts as code, unless
the string is a docstring.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively.  The
script prints one line per module, then the total.  It uses only the
standard library.
"""

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
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    # The line numbers of every docstring in the tree.
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python source file at ``path``."""
    with open(path, "rb") as handle:
        source = handle.read()
    skipped = _docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    if not argv:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    total = 0
    for module in _modules(argv):
        count = code_lines(module)
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

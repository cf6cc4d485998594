"""Count the code lines of each ``src/sp4higgs`` module.

A code line is a non-blank line that is neither a ``#`` comment nor part
of a docstring (the first string statement of a module, class or
function).  Prints one ``<count> <module>`` line per module, then the
total, then one total for ``tests/*.py`` and one for ``demos/*.py``; no
threshold, so it always exits 0.

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sp4higgs"

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%5d %s" % (n, path.name))
    print("%5d total" % total)
    for pattern in ("tests/*.py", "demos/*.py"):
        n = sum(code_lines(path.read_text()) for path in ROOT.glob(pattern))
        print("%5d %s" % (n, pattern))


if __name__ == "__main__":
    main()

"""Count the code lines of Python files, with the stdlib alone.

    python tools/codelines.py src/nuclibgen/*.py

A code line is one that holds a token other than a comment or a docstring;
blank lines hold none. A docstring is the string that opens a module, class
or function body. A token that spans lines, such as a multi-line string that
is not a docstring, makes each of its lines a code line. Prints the total
number of code lines of the files given.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstrings = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    print(sum(code_lines(Path(path).read_text(encoding="utf-8")) for path in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

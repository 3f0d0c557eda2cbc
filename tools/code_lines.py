"""Count the code lines of the Python files under a directory.

A code line is a line that holds a token other than a comment and is not
inside a docstring. A docstring here is any string literal that is a
whole expression statement, wherever it stands (module, class or function
head, or between statements). Blank lines, comment-only lines and the
lines a docstring spans do not count; every line a multi-line string
token or bracketed expression spans does, when the string is not a
docstring.

Usage: python tools/code_lines.py DIR   (prints one line per file, in
path order, then the total)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count_dir(root: Path) -> dict[Path, int]:
    """Code lines of every .py file under root, keyed by path, sorted."""
    return {f: code_lines(f.read_text()) for f in sorted(root.rglob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(args[0])
    counts = count_dir(root)
    for f, n in counts.items():
        print(f"{n:6d}  {f.relative_to(root)}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

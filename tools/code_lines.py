"""Code-line count of a Python source tree: one ``path count`` line per module
and a ``total count`` line.

    python3 tools/code_lines.py [PATH]

PATH is a ``.py`` file or a directory searched recursively (default
``src``).  A line counts when it holds part of a token other than a
comment, i.e. blank lines and comment-only lines are dropped, and so are
the lines of every module, class and function docstring.  Each physical
line of a statement spread over several lines counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default="src")
    path = Path(parser.parse_args(argv).path)
    modules = [path] if path.is_file() else sorted(path.rglob("*.py"))
    total = 0
    for module in modules:
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count Python source lines: all lines vs. code lines.

A *code* line holds at least one token that is neither a comment nor
part of a docstring (found with ``tokenize`` and ``ast``), so blank
lines, comments and prose do not count.  This is the counter behind
the "net ``src/`` lines, code vs prose" figures in CHANGES.md; run it
on the parent and on the change and subtract.

    python scripts/count_loc.py                # src/ total only
    python scripts/count_loc.py -v src tests   # per file, then totals
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, Set, Tuple

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """``(all lines, code lines)`` of one Python source text."""
    token_lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            token_lines.update(range(tok.start[0], tok.end[0] + 1))
    code = token_lines - _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def _python_files(roots) -> Iterator[Path]:
    for root in map(Path, roots):
        yield from sorted(root.rglob("*.py")) if root.is_dir() else [root]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print one row per file")
    args = parser.parse_args(argv)
    total_all = total_code = n_files = 0
    for path in _python_files(args.paths):
        n_all, n_code = count(path.read_text())
        if args.verbose:
            print(f"{n_all:7d} {n_code:7d}  {path}")
        total_all += n_all
        total_code += n_code
        n_files += 1
    print(f"{total_all:7d} {total_code:7d}  total: all lines / code lines "
          f"({n_files} files under {' '.join(args.paths)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

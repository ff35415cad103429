#!/usr/bin/env python3
"""Count Python source lines: all lines vs. code lines.

A *code* line holds at least one token that is neither a comment nor
part of a docstring (found with ``tokenize`` and ``ast``), so blank
lines, comments and prose do not count.  This is the counter behind
the "net ``src/`` lines, code vs prose" figures in CHANGES.md:
``--against <rev>`` prints, per file that moved, the code lines at that
git revision, now, and the difference, then the totals.

    python scripts/count_loc.py                # src/ total only
    python scripts/count_loc.py -v src tests   # per file, then totals
    python scripts/count_loc.py --against HEAD~1 src
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

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


def _git(*args: str) -> str:
    return subprocess.run(
        ("git",) + args, check=True, capture_output=True, text=True
    ).stdout


def _counts_at(rev: str, roots) -> Dict[str, Tuple[int, int]]:
    """path -> ``count()`` of every Python blob under ``roots`` at a
    git revision (read with ``git show``; the work tree is untouched)."""
    listed = _git("ls-tree", "-r", "--name-only", rev, "--", *roots)
    return {
        path: count(_git("show", f"{rev}:{path}"))
        for path in listed.splitlines() if path.endswith(".py")
    }


def _print_delta(rev: str, roots) -> None:
    then = _counts_at(rev, roots)
    now = {str(p): count(p.read_text()) for p in _python_files(roots)}
    print(f"   {rev:>7s}     now   delta  code lines")
    for path in sorted(set(then) | set(now)):
        before, after = then.get(path, (0, 0))[1], now.get(path, (0, 0))[1]
        if before != after:
            print(f"{before:10d} {after:7d} {after - before:+7d}  {path}")
    for label, column in (("all", 0), ("code", 1)):
        before = sum(c[column] for c in then.values())
        after = sum(c[column] for c in now.values())
        print(f"{before:10d} {after:7d} {after - before:+7d}  "
              f"total {label} lines under {' '.join(roots)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print one row per file")
    parser.add_argument("--against", metavar="REV",
                        help="print the per-file code-line delta against "
                             "a git revision instead")
    args = parser.parse_args(argv)
    if args.against:
        _print_delta(args.against, args.paths)
        return 0
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

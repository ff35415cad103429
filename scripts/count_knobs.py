#!/usr/bin/env python3
"""Count settable values: defaulted public parameters and dataclass fields.

A *settable value* is a parameter with a default in the signature of a
public function or method (its name and every enclosing class name
free of a leading underscore; ``__init__`` counts, functions nested in
functions do not), plus a field with a default of a public dataclass
(not a ``ClassVar``, not ``field(init=False)``).  It is the size measure
of a configuration surface, the way ``count_loc.py`` measures code: a
default no caller ever overrides is a constant written as a knob.
``--against <rev>`` prints, per file that moved, the count at that git
revision, now, and the difference, then the totals.

    python scripts/count_knobs.py                # src/ total only
    python scripts/count_knobs.py -v src         # per file, then total
    python scripts/count_knobs.py --against HEAD~1 src
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Dict

from count_loc import _git, _python_files


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            getattr(target, "id", ""))
        if name == "dataclass":
            return True
    return False


def _is_init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call)
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def _defaulted_fields(node: ast.ClassDef) -> int:
    return sum(
        1 for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        and "ClassVar" not in ast.unparse(stmt.annotation)
        and not _is_init_false(stmt.value)
    )


def _defaulted_params(node: ast.FunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def count(source: str) -> int:
    """Settable values of one Python source text."""
    total = 0

    def visit(scope: ast.AST) -> None:
        nonlocal total
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef) and _public(node.name):
                if _is_dataclass(node):
                    total += _defaulted_fields(node)
                visit(node)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _public(node.name)):
                total += _defaulted_params(node)

    visit(ast.parse(source))
    return total


def _counts_at(rev: str, roots) -> Dict[str, int]:
    listed = _git("ls-tree", "-r", "--name-only", rev, "--", *roots)
    return {
        path: count(_git("show", f"{rev}:{path}"))
        for path in listed.splitlines() if path.endswith(".py")
    }


def _print_delta(rev: str, roots) -> None:
    then = _counts_at(rev, roots)
    now = {str(p): count(p.read_text()) for p in _python_files(roots)}
    print(f"   {rev:>7s}     now   delta  settable values")
    for path in sorted(set(then) | set(now)):
        before, after = then.get(path, 0), now.get(path, 0)
        if before != after:
            print(f"{before:10d} {after:7d} {after - before:+7d}  {path}")
    before, after = sum(then.values()), sum(now.values())
    print(f"{before:10d} {after:7d} {after - before:+7d}  "
          f"total settable values under {' '.join(roots)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print one row per file")
    parser.add_argument("--against", metavar="REV",
                        help="print the per-file delta against a git "
                             "revision instead")
    args = parser.parse_args(argv)
    if args.against:
        _print_delta(args.against, args.paths)
        return 0
    total = n_files = 0
    for path in _python_files(args.paths):
        n = count(path.read_text())
        if args.verbose and n:
            print(f"{n:7d}  {path}")
        total += n
        n_files += 1
    print(f"{total:7d}  total: settable values "
          f"({n_files} files under {' '.join(args.paths)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

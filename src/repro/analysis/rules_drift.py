"""Drift rule family: docs vs. the code they mirror.

``drift-cli-doc`` — the CLI flag surface is a hand-maintained mirror of
code and rots silently when the code moves.  The module docstrings of
``repro.cli`` and ``repro.cluster`` and the serving guide
(``docs/serving.md``) narrate flags by name; this rule extracts every
``--flag`` token from those documents and every
``add_argument("--flag", ...)`` definition from ``cli.py`` and flags
both directions of drift: a documented flag that no parser defines
(stale doc), and a defined flag no guide mentions (undocumented
surface).

The ``--stats-json`` document shape needs no rule: both ``to_dict``
methods derive from their dataclass fields, and
``tests/test_analysis.py::TestGoldenSchemaRoundTrip`` holds live
objects to ``benchmarks/results/stats_schema_v2.json``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleInfo, RepoIndex
from .registry import Rule, register

__all__ = ["CliDocDriftRule"]

_CLI_PATH = "src/repro/cli.py"

#: Documents that narrate the CLI flag surface: the module docstring
#: of a ``.py`` source, the whole text of anything else.
_DOC_SOURCES = (
    "src/repro/cli.py",
    "docs/serving.md",
    "src/repro/cluster/__init__.py",
)

#: ``--flag`` tokens: require a leading letter so reST underlines
#: (----) and em-dash art never match.
_FLAG_TOKEN_RE = re.compile(r"--[a-z][a-z0-9-]*")


def _docstring_span(module: ModuleInfo) -> Optional[Tuple[int, int]]:
    """(first, last) 1-based line numbers of the module docstring."""
    body = module.tree.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        return body[0].lineno, body[0].end_lineno or body[0].lineno
    return None


def _doc_flag_tokens(
    index: RepoIndex, relpath: str
) -> List[Tuple[str, int]]:
    """(flag, line) for every --flag token one doc source narrates."""
    if relpath.endswith(".py"):
        module = index.module(relpath)
        span = _docstring_span(module) if module is not None else None
        if span is None:
            return []
        lines = module.lines[span[0] - 1:span[1]]
        first = span[0]
    else:
        lines = (index.read_text(relpath) or "").splitlines()
        first = 1
    return [
        (match.group(0), lineno)
        for lineno, line in enumerate(lines, first)
        for match in _FLAG_TOKEN_RE.finditer(line)
    ]


def _defined_flags(cli: ModuleInfo) -> Dict[str, int]:
    """flag → first definition line, from add_argument calls."""
    flags: Dict[str, int] = {}
    for node in ast.walk(cli.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and \
                    isinstance(arg.value, str) and \
                    arg.value.startswith("--"):
                flags.setdefault(arg.value, node.lineno)
    return flags


@register
class CliDocDriftRule(Rule):
    rule_id = "drift-cli-doc"
    family = "drift"
    description = (
        "CLI flags vs the cli.py docstring and docs/serving.md: stale "
        "documented flags and undocumented defined flags"
    )
    anchors = (_CLI_PATH,)

    def check_repo(self, index: RepoIndex) -> Iterator[Finding]:
        cli = index.module(_CLI_PATH)
        if cli is None:
            yield Finding(
                rule=self.rule_id, family=self.family, path=_CLI_PATH,
                line=1, message="cannot parse src/repro/cli.py",
            )
            return
        defined = _defined_flags(cli)
        documented: Set[str] = set()
        for relpath in _DOC_SOURCES:
            for flag, lineno in _doc_flag_tokens(index, relpath):
                documented.add(flag)
                if flag not in defined:
                    yield Finding(
                        rule=self.rule_id,
                        family=self.family,
                        path=relpath,
                        line=lineno,
                        message=(
                            f"doc mentions {flag}, but no parser in "
                            f"cli.py defines that flag (stale doc?)"
                        ),
                    )
        for flag, lineno in sorted(defined.items()):
            if flag not in documented:
                yield Finding(
                    rule=self.rule_id,
                    family=self.family,
                    path=_CLI_PATH,
                    line=lineno,
                    message=(
                        f"flag {flag} is defined but appears in neither "
                        f"the cli.py docstring nor the serving/cluster "
                        f"guides — document it where operators look"
                    ),
                )

"""Drift rule family: docs and golden schemas vs. the code they mirror.

Two artifacts in this repo are hand-maintained mirrors of code and rot
silently when the code moves:

* ``drift-cli-doc`` — the CLI flag surface.  The module docstrings of
  ``repro.cli`` and ``repro.cluster`` and the serving guide
  (``docs/serving.md``) narrate flags by name; this rule extracts every
  ``--flag`` token from those documents and every
  ``add_argument("--flag", ...)`` definition from ``cli.py`` and flags
  both directions of drift: a documented flag that no parser defines
  (stale doc), and a defined flag no guide mentions (undocumented
  surface).
* ``drift-stats-schema`` — the ``--stats-json`` document shape.
  ``benchmarks/results/stats_schema_v2.json`` is the checked-in golden
  schema for ``STATS_SCHEMA_VERSION``; this rule statically derives the
  key set of :meth:`ServingStats.to_dict` (dataclass fields minus
  ``records`` plus ``schema_version``) and :meth:`ClusterStats.to_dict`
  (literal dict keys) and compares both against the golden file, so a
  renamed or removed stats field fails lint until either the schema
  version is bumped and the golden regenerated, or the field comes
  back.  A runtime round-trip test asserts the same equality on live
  objects.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleInfo, RepoIndex
from .registry import Rule, register

__all__ = ["CliDocDriftRule", "StatsSchemaDriftRule", "GOLDEN_SCHEMA_PATH"]

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

GOLDEN_SCHEMA_PATH = "benchmarks/results/stats_schema_v2.json"
_SERVING_STATS_PATH = "src/repro/serving/stats.py"
_CLUSTER_STATS_PATH = "src/repro/cluster/stats.py"


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


def _dataclass_field_names(
    module: ModuleInfo, class_name: str
) -> Optional[List[str]]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ]
    return None


def _to_dict_literal_keys(
    module: ModuleInfo, class_name: str
) -> Optional[List[str]]:
    """String keys of the dict literal ``to_dict`` returns."""
    for node in module.tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "to_dict":
                for ret in ast.walk(item):
                    if isinstance(ret, ast.Return) and \
                            isinstance(ret.value, ast.Dict):
                        return [
                            k.value for k in ret.value.keys
                            if isinstance(k, ast.Constant)
                            and isinstance(k.value, str)
                        ]
    return None


def _schema_version_literal(module: ModuleInfo) -> Optional[int]:
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "STATS_SCHEMA_VERSION" and \
                        isinstance(node.value, ast.Constant):
                    return node.value.value
    return None


@register
class StatsSchemaDriftRule(Rule):
    rule_id = "drift-stats-schema"
    family = "drift"
    description = (
        "ServingStats/ClusterStats.to_dict() keys vs the checked-in "
        "golden schema for STATS_SCHEMA_VERSION"
    )
    anchors = (_SERVING_STATS_PATH, _CLUSTER_STATS_PATH)

    def check_repo(self, index: RepoIndex) -> Iterator[Finding]:
        serving = index.module(_SERVING_STATS_PATH)
        cluster = index.module(_CLUSTER_STATS_PATH)
        if serving is None or cluster is None:
            return
        golden_text = index.read_text(GOLDEN_SCHEMA_PATH)
        if golden_text is None:
            yield self._finding(
                _SERVING_STATS_PATH, 1,
                f"golden stats schema {GOLDEN_SCHEMA_PATH} is missing; "
                f"check it in so --stats-json consumers have a contract",
            )
            return
        try:
            golden = json.loads(golden_text)
        except ValueError as exc:
            yield self._finding(
                _SERVING_STATS_PATH, 1,
                f"golden stats schema {GOLDEN_SCHEMA_PATH} is not valid "
                f"JSON: {exc}",
            )
            return

        version = _schema_version_literal(serving)
        if golden.get("schema_version") != version:
            yield self._finding(
                _SERVING_STATS_PATH, 1,
                f"STATS_SCHEMA_VERSION is {version} but the golden schema "
                f"records schema_version={golden.get('schema_version')}: "
                f"regenerate {GOLDEN_SCHEMA_PATH} when bumping",
            )

        fields = _dataclass_field_names(serving, "ServingStats")
        if fields is not None:
            expected = sorted(
                (set(fields) - {"records"}) | {"schema_version"}
            )
            yield from self._compare(
                "ServingStats.to_dict()", expected,
                golden.get("serving_stats"), _SERVING_STATS_PATH, serving,
            )
        cluster_keys = _to_dict_literal_keys(cluster, "ClusterStats")
        if cluster_keys is not None:
            yield from self._compare(
                "ClusterStats.to_dict()", sorted(set(cluster_keys)),
                golden.get("cluster_stats"), _CLUSTER_STATS_PATH, cluster,
            )

    def _compare(self, what, expected, golden_keys, path, module):
        if golden_keys is None:
            yield self._finding(
                path, 1,
                f"golden schema lacks the key list for {what}",
            )
            return
        missing = sorted(set(expected) - set(golden_keys))
        stale = sorted(set(golden_keys) - set(expected))
        if missing or stale:
            detail = []
            if missing:
                detail.append(
                    f"keys in code but not golden: {', '.join(missing)}"
                )
            if stale:
                detail.append(
                    f"keys in golden but not code: {', '.join(stale)}"
                )
            yield self._finding(
                path, 1,
                f"{what} drifted from {GOLDEN_SCHEMA_PATH} "
                f"({'; '.join(detail)}): renaming/removing fields needs a "
                f"STATS_SCHEMA_VERSION bump plus a regenerated golden; "
                f"added fields just need the golden refreshed",
            )

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id, family=self.family,
            path=path, line=line, message=message,
        )

"""Determinism lint pass for the serving stack.

Every layer grown on top of the SpAtten reproduction stakes its
correctness on bit-identical token streams / byte-identical artifacts
across identical runs — a contract runtime tests can only police
*after* a violation ships.  This package checks it at lint time, before
a single simulation runs, with an AST-based framework tailored to this
codebase.  (The other contract, conservation of pages in the KV
ledgers, is not linted: each ledger has one open / close / resize site
and ``tests/test_ledger_machine.py`` drives them under ``audit()``.)

* :mod:`~repro.analysis.engine` — the visitor engine:
  :class:`LintEngine` scans a path set (default ``src/repro``), runs
  every registered rule, applies ``# repro: allow[rule-id] -- reason``
  suppressions (per-line, or per-module via ``allow-file``), and
  returns a deterministic :class:`LintResult`;
* :mod:`~repro.analysis.registry` — the rule registry: subclass
  :class:`~repro.analysis.registry.Rule`, decorate with ``@register``,
  implement ``check_module`` (per-file) or ``check_repo`` +
  ``anchors`` (cross-file);
* :mod:`~repro.analysis.manifest` — the clock-domain manifest: every
  module declares (by dotted prefix) whether it lives on the
  ``simulated`` clock, the sanctioned ``wall`` clock, or neither;
* three rule families: **determinism** (``det-wallclock``,
  ``det-global-rng``, ``det-env-read``, ``det-set-order``,
  ``det-dtype-literal``), **clock-domain** (``clock-domain-import``)
  and **drift** (``drift-cli-doc``), plus the self-policing
  ``lint-suppression`` hygiene rule;
* :mod:`~repro.analysis.reporters` — text and byte-deterministic JSON
  renderings.

CI and ``scripts/run_tier1.sh`` run ``repro lint`` as a hard gate: the
tree must carry zero unsuppressed violations, and every suppression
must state its reason.  See the "Static analysis" section of the
serving guide (``docs/serving.md``) for the rule catalog and the
how-to-add-a-rule walkthrough.
"""

from .engine import (
    Finding,
    LintEngine,
    LintResult,
    ModuleInfo,
    RepoIndex,
    Suppression,
    find_repo_root,
)
from .manifest import CLOCK_DOMAINS, DEFAULT_DOMAIN, DOMAINS, domain_of
from .registry import Rule, all_rule_classes, register, resolve_rules
from .reporters import REPORT_FORMAT_VERSION, render_json, render_text

__all__ = [
    "CLOCK_DOMAINS",
    "DEFAULT_DOMAIN",
    "DOMAINS",
    "Finding",
    "LintEngine",
    "LintResult",
    "ModuleInfo",
    "REPORT_FORMAT_VERSION",
    "RepoIndex",
    "Rule",
    "Suppression",
    "all_rule_classes",
    "domain_of",
    "find_repo_root",
    "register",
    "render_json",
    "render_text",
    "resolve_rules",
]

"""Rule registry for the :mod:`repro.analysis` lint pass.

A rule is a class with a unique ``rule_id``, a ``family`` (one of the
families the pass ships: ``determinism``, ``clock-domain``, ``drift``
— plus the engine's own ``lint`` hygiene family), and one of two check
hooks:

* per-file rules implement ``check_module(module, index)`` and run on
  every scanned module;
* repo rules implement ``check_repo(index)``, declare the repo-relative
  ``anchors`` files they reason about, and run once per lint — but only
  when at least one anchor is inside the scanned path set, so linting a
  fixture tree never drags in findings about the real repo.

Rules register themselves with :func:`register` at import time; the
rule modules themselves are imported lazily by :func:`all_rule_classes`
so importing :mod:`repro.analysis` stays cheap until a lint actually
runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

__all__ = ["Rule", "register", "all_rule_classes", "resolve_rules"]


class Rule:
    """Base class: metadata plus the two (optional) check hooks."""

    #: Unique kebab-case identifier, e.g. ``det-wallclock``.  This is
    #: the name suppression comments reference.
    rule_id: str = ""
    #: Rule family, e.g. ``determinism``.
    family: str = ""
    #: One-line human description for ``repro lint --list-rules``.
    description: str = ""
    #: Repo rules only: repo-relative files whose presence in the scan
    #: set activates :meth:`check_repo`.
    anchors: tuple = ()

    def check_module(self, module, index) -> Iterable:
        """Yield findings for one scanned module (per-file rules)."""
        return ()

    def check_repo(self, index) -> Iterable:
        """Yield repo-level findings (cross-file rules)."""
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry (unique ids only)."""
    if not cls.rule_id or not cls.family:
        raise ValueError(f"{cls.__name__} must set rule_id and family")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rule_classes() -> Dict[str, Type[Rule]]:
    """Every registered rule class, keyed and ordered by rule id."""
    # Import the rule modules lazily; each @register call populates the
    # registry as a side effect of the import.
    from . import (  # noqa: F401  (imported for registration side effect)
        rules_determinism,
        rules_domains,
        rules_drift,
        rules_lint,
    )

    return {rule_id: _REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)}


def resolve_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them by default).

    Raises :class:`ValueError` on unknown ids so a typo in
    ``repro lint --rules`` fails loudly instead of silently linting
    nothing.
    """
    classes = all_rule_classes()
    if rule_ids is None:
        return [cls() for cls in classes.values()]
    selected = []
    unknown = []
    for rule_id in rule_ids:
        rule_id = rule_id.strip()
        if not rule_id:
            continue
        if rule_id not in classes:
            unknown.append(rule_id)
        else:
            selected.append(classes[rule_id]())
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(classes)})"
        )
    if not selected:
        raise ValueError("no rules selected")
    return selected

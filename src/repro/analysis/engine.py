"""AST visitor engine for the :mod:`repro.analysis` lint pass.

The engine owns everything rule implementations share:

* :class:`ModuleInfo` — one parsed source file: AST, raw lines, the
  dotted module name (``src/repro/serving/engine.py`` →
  ``repro.serving.engine``), import-alias resolution, and the file's
  suppression comments;
* :class:`RepoIndex` — the scanned module set plus on-demand loading of
  reference files repo rules cross-reference (``tests/``, docs, golden
  schemas) whether or not they are part of the lint path set;
* :class:`LintEngine` — collects files, runs per-file and repo rules,
  applies suppressions, and returns a deterministic
  :class:`LintResult` (findings sorted by path/line/rule, repo-relative
  paths only — the JSON reporter's byte stability rests on this).

Suppression syntax
------------------

``# repro: allow[rule-id] -- reason`` suppresses the named rule(s,
comma-separated) on its own line; written on a standalone line it also
covers the next line of code.  ``# repro: allow-file[rule-id] --
reason`` anywhere in a file suppresses the rule for the whole module.
The reason is mandatory: a suppression without one is itself a finding
(rule ``lint-suppression``), so every silenced violation carries its
justification in the source.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import Rule, resolve_rules

__all__ = [
    "Finding",
    "Suppression",
    "ModuleInfo",
    "RepoIndex",
    "LintEngine",
    "LintResult",
    "find_repo_root",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    family: str
    path: str  # repo-relative posix path
    line: int
    message: str
    suppressed: bool = False
    reason: str = ""

    @property
    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)


_SUPPRESS_RE = re.compile(
    r"^#\s*repro:\s*(?P<kind>allow|allow-file)"
    r"\[(?P<rules>[^\]]*)\]"
    r"\s*(?:--\s*(?P<reason>\S.*?)\s*)?$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    rules: Tuple[str, ...]
    line: int
    #: Next code line after a standalone comment (skipping blank and
    #: comment continuation lines); equals ``line`` for trailing
    #: comments.  The line the suppression covers besides its own.
    target_line: int
    file_level: bool
    reason: str

    def covers(self, rule_id: str, line: int) -> bool:
        if rule_id not in self.rules:
            return False
        if self.file_level:
            return True
        return line in (self.line, self.target_line)


class ModuleInfo:
    """One parsed source file plus the derived views rules consume."""

    def __init__(self, root: Path, path: Path):
        self.abspath = path
        self.relpath = path.resolve().relative_to(root.resolve()).as_posix()
        self.source = path.read_text()
        self.tree = ast.parse(self.source, filename=self.relpath)
        self.lines = self.source.splitlines()
        self.is_package = path.name == "__init__.py"
        self.module_name = _module_name(self.relpath)
        self._suppressions: Optional[List[Suppression]] = None
        self._suppression_problems: Optional[List[Tuple[int, str]]] = None
        self._aliases: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _parse_suppressions(self) -> None:
        suppressions: List[Suppression] = []
        problems: List[Tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                text = tok.string.strip()
                if not re.match(r"^#\s*repro:", text):
                    continue
                match = _SUPPRESS_RE.match(text)
                if match is None:
                    problems.append((
                        tok.start[0],
                        f"malformed suppression comment {text!r}: expected "
                        f"'# repro: allow[rule-id, ...] -- reason'",
                    ))
                    continue
                rules = tuple(
                    r.strip() for r in match.group("rules").split(",")
                    if r.strip()
                )
                if not rules:
                    problems.append((
                        tok.start[0],
                        "suppression names no rule ids",
                    ))
                    continue
                reason = match.group("reason") or ""
                if not reason:
                    problems.append((
                        tok.start[0],
                        f"suppression for [{', '.join(rules)}] carries no "
                        f"reason: append ' -- <why this is sanctioned>'",
                    ))
                    # Reason-less suppressions are recorded anyway so the
                    # lint reports exactly one problem (the missing
                    # reason), not that plus the finding it meant to
                    # silence.
                lineno = tok.start[0]
                standalone = self.lines[lineno - 1].strip() == text
                suppressions.append(Suppression(
                    rules=rules,
                    line=lineno,
                    target_line=(
                        self._next_code_line(lineno) if standalone
                        else lineno
                    ),
                    file_level=match.group("kind") == "allow-file",
                    reason=reason,
                ))
        except tokenize.TokenError:
            # ast.parse succeeded, so this cannot normally happen; if it
            # does, the file simply has no recognised suppressions.
            pass
        self._suppressions = suppressions
        self._suppression_problems = problems

    def _next_code_line(self, after: int) -> int:
        """First line past ``after`` that is neither blank nor comment."""
        for lineno in range(after + 1, len(self.lines) + 1):
            stripped = self.lines[lineno - 1].strip()
            if stripped and not stripped.startswith("#"):
                return lineno
        return after

    @property
    def suppressions(self) -> List[Suppression]:
        if self._suppressions is None:
            self._parse_suppressions()
        return self._suppressions

    @property
    def suppression_problems(self) -> List[Tuple[int, str]]:
        """(line, message) pairs for malformed/reason-less suppressions."""
        if self._suppression_problems is None:
            self._parse_suppressions()
        return self._suppression_problems

    def suppression_for(self, rule_id: str, line: int) -> Optional[Suppression]:
        for sup in self.suppressions:
            if sup.covers(rule_id, line):
                return sup
        return None

    # ------------------------------------------------------------------
    # Import-name resolution (shared by determinism + domain rules)
    # ------------------------------------------------------------------
    @property
    def import_aliases(self) -> Dict[str, str]:
        """Local name → canonical dotted origin, from the import table.

        ``import numpy as np`` maps ``np`` → ``numpy``; ``from time
        import perf_counter as pc`` maps ``pc`` → ``time.perf_counter``;
        relative imports resolve against this module's package.
        """
        if self._aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            aliases[alias.asname] = alias.name
                        else:
                            root = alias.name.split(".")[0]
                            aliases[root] = root
                elif isinstance(node, ast.ImportFrom):
                    base = self.resolve_import_base(node)
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        target = f"{base}.{alias.name}" if base else alias.name
                        aliases[alias.asname or alias.name] = target
            self._aliases = aliases
        return self._aliases

    def resolve_import_base(self, node: ast.ImportFrom) -> str:
        """Absolute dotted module a ``from X import ...`` refers to."""
        if node.level == 0:
            return node.module or ""
        parts = self.module_name.split(".")
        # A package's __init__ resolves `.` to itself; a plain module
        # resolves `.` to its parent package.
        drop = node.level - 1 if self.is_package else node.level
        anchor = parts[: len(parts) - drop] if drop else parts
        if node.module:
            anchor = anchor + node.module.split(".")
        return ".".join(anchor)

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        ``np.random.default_rng`` (with ``import numpy as np``) resolves
        to ``numpy.random.default_rng``.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(node.id)
        chain.reverse()
        base = self.import_aliases.get(chain[0], chain[0])
        return ".".join([base] + chain[1:])


def _module_name(relpath: str) -> str:
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Locate the repo root (the directory holding ``src/repro``)."""
    candidates = []
    if start is not None:
        candidates.append(Path(start))
    # Prefer the tree the operator is standing in (so `repro lint` works
    # on any checkout, not just the one the package was imported from),
    # then fall back to the installed package's own checkout:
    # src/repro/analysis/engine.py → parents[3] is the checkout root.
    cwd = Path.cwd()
    candidates.extend([cwd, *cwd.parents])
    candidates.append(Path(__file__).resolve().parents[3])
    for cand in candidates:
        if (cand / "src" / "repro").is_dir():
            return cand
    raise ValueError(
        "cannot locate the repo root (no src/repro directory found); "
        "pass LintEngine(root=...)"
    )


class RepoIndex:
    """Scanned modules plus on-demand access to reference files.

    Repo rules cross-reference files that may sit outside the lint
    path set (the guides ``drift-cli-doc`` reads).  :meth:`module`
    loads and caches those on demand; :meth:`scanned` answers whether
    a file was part of the scan, which gates whether a repo rule runs
    at all.
    """

    def __init__(self, root: Path, modules: Sequence[ModuleInfo]):
        self.root = Path(root)
        self.modules = list(modules)
        self._cache: Dict[str, Optional[ModuleInfo]] = {
            m.relpath: m for m in self.modules
        }
        self._scanned = frozenset(m.relpath for m in self.modules)

    def scanned(self, relpath: str) -> bool:
        return relpath in self._scanned

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        """The parsed module at a repo-relative path, or None."""
        if relpath not in self._cache:
            path = self.root / relpath
            try:
                self._cache[relpath] = ModuleInfo(self.root, path)
            except (OSError, SyntaxError):
                self._cache[relpath] = None
        return self._cache[relpath]

    def read_text(self, relpath: str) -> Optional[str]:
        try:
            return (self.root / relpath).read_text()
        except OSError:
            return None


@dataclass
class LintResult:
    """Outcome of one lint run (findings sorted, paths repo-relative)."""

    findings: List[Finding]
    n_files: int
    rules: List[str]
    parse_errors: List[Finding]

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if (self.unsuppressed or self.parse_errors) else 0


class LintEngine:
    """Run the registered rules over a path set and collect findings."""

    #: Default scan set: the library source tree.
    DEFAULT_PATHS = ("src/repro",)

    def __init__(
        self,
        root: Optional[Path] = None,
        rules: Optional[Iterable[str]] = None,
    ):
        self.root = find_repo_root(root)
        self.rules: List[Rule] = resolve_rules(rules)

    def run(self, paths: Optional[Sequence[str]] = None) -> LintResult:
        files = self._collect_files(paths)
        modules: List[ModuleInfo] = []
        parse_errors: List[Finding] = []
        for path in files:
            try:
                modules.append(ModuleInfo(self.root, path))
            except SyntaxError as exc:
                parse_errors.append(Finding(
                    rule="lint-parse",
                    family="lint",
                    path=path.resolve().relative_to(
                        self.root.resolve()).as_posix(),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                ))
        index = RepoIndex(self.root, modules)
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.anchors:
                if any(index.scanned(anchor) for anchor in rule.anchors):
                    findings.extend(rule.check_repo(index))
            else:
                for module in modules:
                    findings.extend(rule.check_module(module, index))
        findings = [self._apply_suppression(f, index) for f in findings]
        findings.sort(key=lambda f: f.sort_key)
        parse_errors.sort(key=lambda f: f.sort_key)
        return LintResult(
            findings=findings,
            n_files=len(modules),
            rules=[rule.rule_id for rule in self.rules],
            parse_errors=parse_errors,
        )

    def _apply_suppression(self, finding: Finding, index: RepoIndex) -> Finding:
        module = index.module(finding.path)
        if module is None:
            return finding
        sup = module.suppression_for(finding.rule, finding.line)
        # A reason-less suppression still silences its target finding —
        # the missing reason is reported by lint-suppression instead,
        # so the operator sees one actionable problem, not two.
        if sup is None:
            return finding
        return Finding(
            rule=finding.rule,
            family=finding.family,
            path=finding.path,
            line=finding.line,
            message=finding.message,
            suppressed=True,
            reason=sup.reason,
        )

    def _collect_files(self, paths: Optional[Sequence[str]]) -> List[Path]:
        raw = list(paths) if paths else list(self.DEFAULT_PATHS)
        files: List[Path] = []
        for entry in raw:
            path = Path(entry)
            if not path.is_absolute():
                path = self.root / path
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py" and path.is_file():
                files.append(path)
            else:
                raise ValueError(f"lint path {entry!r} is not a python "
                                 f"file or directory")
        # De-duplicate while preserving sorted order per entry.
        seen = set()
        unique = []
        for path in files:
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                unique.append(path)
        return unique

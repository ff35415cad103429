"""Determinism rule family.

The serving stack's headline contract is bit-identical token streams
and byte-identical artifacts across identical runs.  Everything that
can break that contract without failing a unit test falls into a small
set of syntactic shapes, which these rules flag at lint time:

* ``det-wallclock`` — wall-clock reads (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ...) outside the modules the
  clock-domain manifest sanctions as ``wall``;
* ``det-global-rng`` — the stdlib ``random`` module and numpy's
  module-level legacy RNG (``np.random.rand`` / ``np.random.seed`` /
  ...), both of which draw from hidden global state instead of an
  explicitly seeded ``np.random.Generator``;
* ``det-env-read`` — ``os.environ`` / ``os.getenv`` reads, which make
  behaviour depend on ambient shell state no artifact records;
* ``det-set-order`` — iteration over ``set``-typed expressions feeding
  ordered output (a ``for`` body, a list comprehension, ``list()`` /
  ``tuple()`` / ``enumerate()`` / ``str.join``): set order varies with
  ``PYTHONHASHSEED``, so anything serialized from it is
  run-dependent.  Wrap the set in ``sorted(...)``.
* ``det-dtype-literal`` — hard-coded ``np.float64`` (or ``dtype=float``)
  in a module the numerics ladder governs
  (:data:`NUMERICS_GOVERNED_PATHS`): the decode hot path's dtype is
  policy state (:class:`repro.nn.numerics.NumericsPolicy`), so a
  literal fp64 silently pins one tier and breaks the others.  The
  deliberate fp64 *oracle* paths carry reasoned suppressions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .engine import Finding, ModuleInfo
from .manifest import wall_clock_allowed
from .registry import Rule, register

__all__ = [
    "WallClockRule",
    "GlobalRngRule",
    "EnvReadRule",
    "SetOrderRule",
    "DtypeLiteralRule",
    "NUMERICS_GOVERNED_PATHS",
]

#: Canonical dotted names of wall-clock reads.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: numpy.random members that are explicitly-seeded constructors (fine),
#: as opposed to the hidden-global-state legacy functions (flagged).
_NP_RANDOM_SEEDED = frozenset({
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",  # explicit instance; seeded at construction
})


def _call_name(module: ModuleInfo, node: ast.Call) -> Optional[str]:
    return module.dotted_name(node.func)


@register
class WallClockRule(Rule):
    rule_id = "det-wallclock"
    family = "determinism"
    description = (
        "wall-clock reads (time.time / perf_counter / datetime.now) "
        "outside manifest-sanctioned 'wall' modules"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        if wall_clock_allowed(module.module_name):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(module, node)
            if name in WALL_CLOCK_CALLS:
                yield Finding(
                    rule=self.rule_id,
                    family=self.family,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"wall-clock read {name}() in module "
                        f"'{module.module_name}' — serving artifacts must "
                        f"be timestamped by the simulated clock; if this "
                        f"module is a sanctioned profiler, declare it "
                        f"'wall' in repro.analysis.manifest"
                    ),
                )


@register
class GlobalRngRule(Rule):
    rule_id = "det-global-rng"
    family = "determinism"
    description = (
        "stdlib random or numpy legacy module-level RNG instead of an "
        "explicitly seeded np.random.Generator"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield self._finding(
                            module, node.lineno,
                            "stdlib 'random' draws from hidden global "
                            "state; use a seeded np.random.Generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and (
                    node.module == "random"
                    or node.module.startswith("random.")
                ):
                    yield self._finding(
                        module, node.lineno,
                        "stdlib 'random' draws from hidden global state; "
                        "use a seeded np.random.Generator",
                    )
            elif isinstance(node, ast.Call):
                name = _call_name(module, node)
                if name is None:
                    continue
                if name.startswith("numpy.random."):
                    member = name.split(".")[2]
                    if member not in _NP_RANDOM_SEEDED:
                        yield self._finding(
                            module, node.lineno,
                            f"{name}() uses numpy's module-level global "
                            f"RNG; draw from a seeded "
                            f"np.random.default_rng(seed) instead",
                        )
                elif name.startswith("random.") and \
                        module.import_aliases.get("random") == "random":
                    yield self._finding(
                        module, node.lineno,
                        f"{name}() draws from stdlib global RNG state; "
                        f"use a seeded np.random.Generator",
                    )

    def _finding(self, module: ModuleInfo, line: int, msg: str) -> Finding:
        return Finding(
            rule=self.rule_id, family=self.family,
            path=module.relpath, line=line, message=msg,
        )


@register
class EnvReadRule(Rule):
    rule_id = "det-env-read"
    family = "determinism"
    description = (
        "os.environ / os.getenv reads: behaviour must come from explicit "
        "configuration, not ambient shell state"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            name: Optional[str] = None
            if isinstance(node, ast.Call):
                name = _call_name(module, node)
                if name != "os.getenv":
                    continue
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                name = module.dotted_name(node)
                if name != "os.environ":
                    continue
            else:
                continue
            yield Finding(
                rule=self.rule_id,
                family=self.family,
                path=module.relpath,
                line=node.lineno,
                message=(
                    f"{name} read makes behaviour depend on ambient shell "
                    f"state no artifact records; thread the value through "
                    f"explicit configuration (a flag or constructor "
                    f"argument) instead"
                ),
            )


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-typed: literal, comprehension, set()/frozenset(),
    or a set-algebra BinOp with a set-typed operand."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetOrderRule(Rule):
    rule_id = "det-set-order"
    family = "determinism"
    description = (
        "iteration over a set feeding ordered output (loop body, list "
        "comprehension, list()/tuple()/enumerate()/join) — set order "
        "varies with PYTHONHASHSEED; wrap in sorted(...)"
    )

    _MSG = (
        "iteration order of a set varies with PYTHONHASHSEED, so this "
        "feeds run-dependent order into downstream output; iterate "
        "sorted(...) instead"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            line: Optional[int] = None
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                line = node.iter.lineno
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        line = gen.iter.lineno
                        break
            elif isinstance(node, ast.Call):
                args: List[ast.AST] = []
                if isinstance(node.func, ast.Name) and \
                        node.func.id in ("list", "tuple", "enumerate"):
                    args = node.args[:1]
                elif isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "join":
                    args = node.args[:1]
                if any(_is_set_expr(a) for a in args):
                    line = node.lineno
            if line is not None:
                yield Finding(
                    rule=self.rule_id,
                    family=self.family,
                    path=module.relpath,
                    line=line,
                    message=self._MSG,
                )


#: Modules whose decode-path dtypes are owned by the numerics ladder
#: (:class:`repro.nn.numerics.NumericsPolicy`).  A hard-coded fp64
#: literal here pins the ``exact`` tier's representation into code the
#: ``fp32``/``int8`` tiers also run — the exact class of bug the policy
#: refactor exists to prevent.
NUMERICS_GOVERNED_PATHS = frozenset({
    "src/repro/nn/kv_cache.py",
    "src/repro/nn/batched_attention.py",
    "src/repro/nn/transformer.py",
    "src/repro/nn/functional.py",
    "src/repro/core/pipeline.py",
    "src/repro/core/batched_cascade.py",
    "src/repro/core/token_pruning.py",
    "src/repro/core/topk.py",
    "src/repro/core/value_pruning.py",
})


@register
class DtypeLiteralRule(Rule):
    rule_id = "det-dtype-literal"
    family = "determinism"
    description = (
        "hard-coded np.float64 / dtype=float in a numerics-policy-"
        "governed hot-path module; dtype must come from the "
        "NumericsPolicy (suppress with a reason on oracle paths)"
    )

    _MSG = (
        "hard-coded {what} in a module the numerics ladder governs; the "
        "decode path's dtype is policy state — thread "
        "NumericsPolicy.compute_dtype / kv_dtype instead, or suppress "
        "with a reason if this is a deliberate fp64 oracle path"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        if module.relpath not in NUMERICS_GOVERNED_PATHS:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                if module.dotted_name(node) == "numpy.float64":
                    yield self._finding(module, node.lineno, "np.float64")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "dtype" and \
                            isinstance(kw.value, ast.Name) and \
                            kw.value.id == "float":
                        yield self._finding(
                            module, kw.value.lineno, "dtype=float"
                        )

    def _finding(self, module: ModuleInfo, line: int, what: str) -> Finding:
        return Finding(
            rule=self.rule_id, family=self.family,
            path=module.relpath, line=line,
            message=self._MSG.format(what=what),
        )

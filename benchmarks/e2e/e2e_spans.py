"""Span recorder for the traced repetition: layers timed from outside.

The recorder wraps the *public* callables of each layer for the one
traced repetition only — class methods via ``setattr`` on the class,
module-level functions by rebinding every ``repro.*`` module attribute
that is the original object — and restores all of them afterwards.
Spans live in memory (flat lists plus a parent stack) and are written
out, if asked, when the repetition ends.

A group's ``self_s`` is the summed duration of its spans minus the part
of those intervals covered by child spans, so over all groups

    sum(self_s) + unattributed == traced wall

holds exactly in integer nanoseconds (``summarize`` raises instead of
clamping when it does not — the same "components must sum or raise"
rule ``repro.insight.attribution`` applies to simulated latency).
Private helpers are invisible from outside and land in the ``self_s``
of their public caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: group -> [(owner, attribute names)].  ``"module:Class"`` owners are
#: patched on the class, bare module owners are module-level functions.
#: Group names follow the repo's module names.
LAYER_GROUPS: Dict[str, List[Tuple[str, Sequence[str]]]] = {
    "serving.engine.step": [
        ("repro.serving.engine:ServingEngine", ("step",))],
    "serving.engine.submit": [
        ("repro.serving.engine:ServingEngine", ("submit",))],
    "serving.engine.finish": [
        ("repro.serving.engine:ServingEngine", ("finish",))],
    "serving.engine.estimators": [
        ("repro.serving.engine:ServingEngine", (
            "placement_pages_estimate", "request_flops_estimate",
            "outstanding_flops", "outstanding_page_seconds"))],
    "serving.memory_pool.admit": [
        ("repro.serving.memory_pool:KVMemoryPool", (
            "admit", "admit_optimistic", "can_admit",
            "can_admit_optimistic", "finish_prefill"))],
    "serving.memory_pool.sync": [
        ("repro.serving.memory_pool:KVMemoryPool", (
            "sync", "try_grow", "pressure_pages"))],
    "serving.memory_pool.release": [
        ("repro.serving.memory_pool:KVMemoryPool", (
            "release", "preempt_release", "quarantine_release"))],
    "serving.memory_pool.audit": [
        ("repro.serving.memory_pool:KVMemoryPool", ("audit",))],
    "serving.stats.cost_model": [
        ("repro.serving.stats:CostModel", (
            "decode_seq_flops", "prefill_flops", "prefill_chunk_flops",
            "prefill_time", "step_time", "mixed_step_time"))],
    "serving.stats.from_run": [
        ("repro.serving.stats:ServingStats", ("from_run",))],
    "nn.transformer.decode_step_batch": [
        ("repro.nn.transformer:TransformerModel", ("decode_step_batch",))],
    "nn.transformer.prefill_chunk_batch": [
        ("repro.nn.transformer:TransformerModel", ("prefill_chunk_batch",))],
    "nn.transformer.prefill_begin": [
        ("repro.nn.transformer:TransformerModel", ("prefill_begin",))],
    "nn.transformer.lm_logits": [
        ("repro.nn.transformer:TransformerModel", ("lm_logits",))],
    "nn.transformer.embed": [
        ("repro.nn.transformer:TransformerModel", ("embed",))],
    # The executor protocol's dense KV hand-off.  (ISSUE 11 filed this
    # under core.pipeline, but SpAttenExecutor does not define it; the
    # only implementation is nn.transformer.DenseExecutor.)
    "nn.transformer.decode_kv_append": [
        ("repro.nn.transformer:DenseExecutor", (
            "decode_kv_append", "decode_kv_cache"))],
    "nn.batched_attention.decode_layer": [
        ("repro.nn.batched_attention:PackedDecodeBackend",
         ("decode_layer",))],
    "nn.batched_attention.decode_step_policy": [
        ("repro.nn.batched_attention:PackedDecodeBackend",
         ("decode_step_policy",))],
    "nn.batched_attention.project_chunk_rows": [
        ("repro.nn.batched_attention:PackedDecodeBackend",
         ("project_chunk_rows",))],
    "nn.functional.gelu": [("repro.nn.functional", ("gelu",))],
    "nn.functional.layer_norm": [("repro.nn.functional", ("layer_norm",))],
    "nn.functional.softmax": [("repro.nn.functional", ("softmax",))],
    "nn.functional.linear": [("repro.nn.functional", ("linear",))],
    "nn.kv_cache.append": [
        ("repro.nn.kv_cache:LayerKVCache", (
            "append", "append_quantized", "append_decode_col",
            "append_decode_col_quantized", "reserve")),
        ("repro.nn.kv_cache:KVCache", ("reserve",))],
    "nn.kv_cache.keep": [("repro.nn.kv_cache:LayerKVCache", ("keep",))],
    "nn.kv_cache.read": [
        ("repro.nn.kv_cache:LayerKVCache", ("compute_columns", "padded_to"))],
    "core.pipeline.run_layer": [
        ("repro.core.pipeline:SpAttenExecutor", ("run_layer",))],
    "core.pipeline.decode_attend_packed": [
        ("repro.core.pipeline:SpAttenExecutor", ("decode_attend_packed",))],
    "core.topk.topk_indices": [("repro.core.topk", ("topk_indices",))],
    "core.token_pruning.prune_tokens": [
        ("repro.core.token_pruning", ("prune_tokens",))],
    "core.head_pruning.prune_heads": [
        ("repro.core.head_pruning", ("prune_heads",))],
    "core.value_pruning": [
        ("repro.core.value_pruning", (
            "local_value_keep_indices", "apply_local_value_pruning"))],
    "core.importance.accumulate": [
        ("repro.core.importance:TokenImportanceAccumulator", ("accumulate",)),
        ("repro.core.importance:HeadImportanceAccumulator", ("accumulate",))],
    "core.schedule": [
        ("repro.core.schedule", (
            "token_keep_fractions", "token_keep_counts",
            "head_keep_fractions", "head_keep_counts",
            "decode_token_target"))],
    "core.quantization.quantize_rows": [
        ("repro.core.quantization", ("quantize_rows",))],
    "cluster.engine.run": [
        ("repro.cluster.engine:ClusterEngine", ("run",))],
    "cluster.router.choose": [
        ("repro.cluster.router:ClusterRouter", ("choose",))],
    "cluster.sharded_pool.audit": [
        ("repro.cluster.sharded_pool:ShardedKVPool", ("audit",))],
    "telemetry.tracer.emit": [
        ("repro.telemetry.tracer:Tracer", ("instant", "span", "counter"))],
    "telemetry.metrics.emit": [
        ("repro.telemetry.metrics:MetricsRegistry", (
            "counter", "gauge", "histogram", "record_sample"))],
}


class SpanAccountingError(RuntimeError):
    """Recorded spans do not partition the traced wall time."""


class SpanRecorder:
    """Wrap layer entry points, record nested spans, restore on exit.

    Use as a context manager around exactly one repetition.  ``before``
    maps a group to a hook called with the wrapped call's ``(args,
    kwargs)`` ahead of the span, for counts read from call arguments.
    """

    def __init__(self, before: Optional[Dict[str, Callable]] = None) -> None:
        self._before = before or {}
        self.group_names: List[str] = list(LAYER_GROUPS)
        # One entry per span, in start order (so a parent's index is
        # always smaller than its children's).
        self.group: List[int] = []
        self.parent: List[int] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "SpanRecorder":
        try:
            for gid, (name, targets) in enumerate(LAYER_GROUPS.items()):
                for owner_path, attrs in targets:
                    for attr in attrs:
                        self._patch(owner_path, attr, gid,
                                    self._before.get(name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner_path: str, attr: str, gid: int, before) -> None:
        module_name, _, class_name = owner_path.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, gid, before))
            else:
                wrapped = self._wrap(raw, gid, before)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, gid, before)
        # ``from .functional import gelu`` copies the binding into the
        # importing module, so rebind it everywhere it was copied to.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _wrap(self, fn: Callable, gid: int, before) -> Callable:
        group, parent = self.group, self.parent
        start_ns, end_ns, stack = self.start_ns, self.end_ns, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(group)
            group.append(gid)
            parent.append(stack[-1])
            end_ns.append(0)
            stack.append(idx)
            start_ns.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[idx] = perf_counter_ns()
                stack.pop()

        return span

    # -- accounting -----------------------------------------------------
    def summarize(self, wall_start_ns: int, wall_end_ns: int) -> dict:
        """Per-group ``calls``/``self_ns`` plus the unattributed rest.

        Raises :class:`SpanAccountingError` unless every span nests
        inside its parent (or, for roots, inside the wall interval) —
        which makes ``sum(self_ns) + unattributed_ns == wall_ns`` an
        identity rather than something to reconcile.
        """
        if len(self._stack) != 1:
            raise SpanAccountingError("summarize() inside an open span")
        n = len(self.group)
        covered = [0] * n  # ns of each span covered by its children
        root_ns = 0
        for idx in range(n):
            start, end, par = self.start_ns[idx], self.end_ns[idx], self.parent[idx]
            lo, hi = (
                (wall_start_ns, wall_end_ns) if par < 0
                else (self.start_ns[par], self.end_ns[par])
            )
            if not lo <= start <= end <= hi:
                raise SpanAccountingError(
                    f"span {idx} ({self.group_names[self.group[idx]]}) "
                    f"[{start}, {end}] escapes its parent [{lo}, {hi}]"
                )
            if par < 0:
                root_ns += end - start
            else:
                covered[par] += end - start
        calls = [0] * len(self.group_names)
        self_ns = [0] * len(self.group_names)
        for idx in range(n):
            calls[self.group[idx]] += 1
            self_ns[self.group[idx]] += (
                self.end_ns[idx] - self.start_ns[idx] - covered[idx]
            )
        wall_ns = wall_end_ns - wall_start_ns
        unattributed_ns = wall_ns - root_ns
        return {
            "wall_ns": wall_ns,
            "unattributed_ns": unattributed_ns,
            "groups": {
                name: {"calls": calls[gid], "self_ns": self_ns[gid]}
                for gid, name in enumerate(self.group_names)
            },
        }

    def write(self, path: str, wall_start_ns: int) -> None:
        """Dump every span as one JSON line: name, start, end, parent.

        Times are nanoseconds since ``wall_start_ns``; ``parent`` is the
        line index of the span that caused this one (-1 for roots).
        """
        with open(path, "w") as out:
            for idx in range(len(self.group)):
                out.write(json.dumps({
                    "name": self.group_names[self.group[idx]],
                    "start_ns": self.start_ns[idx] - wall_start_ns,
                    "end_ns": self.end_ns[idx] - wall_start_ns,
                    "parent": self.parent[idx],
                }) + "\n")

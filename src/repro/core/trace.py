"""Workload traces: the interface between algorithms and cost models.

A trace records, for every attention execution (one per layer in the
summarization stage, one per layer per generated token in the generation
stage), the *post-pruning* work shape: live queries, keys, heads, kept
value vectors, and the fraction of softmax rows that triggered an LSB
refetch.  Everything downstream — FLOPs accounting, DRAM-traffic
accounting, the cycle-level accelerator simulator, and the platform
baseline models — consumes traces, never models directly.

Two ways to obtain a trace:

* measured — :class:`~repro.core.pipeline.SpAttenExecutor` emits one as
  it runs a real model;
* analytic — :func:`spatten_trace` reads the *same* schedule plan
  (:class:`repro.core.schedule.SequencePlan`) at count level, without
  touching weights.

Unit tests assert the two agree exactly on every count field, which is
what licenses using cheap analytic traces for the paper-scale
experiments (BERT-Large, GPT-2-Medium with 992-token prompts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import ModelConfig, PruningConfig, QuantConfig
from . import schedule as sched
from .value_pruning import value_keep_count

__all__ = ["LayerStep", "AttentionTrace", "dense_trace", "spatten_trace"]

#: Fraction of softmax rows needing the LSB refetch, averaged across the
#: paper's benchmarks ("on average, only 5.9% input samples require LSB",
#: Section III-D).  Used by analytic traces; measured runs report the
#: actual fraction.
DEFAULT_LSB_FRACTION = 0.059


@dataclass(slots=True)
class LayerStep:
    """Work shape of one attention execution.

    Attributes:
        layer: block index.
        stage: ``"summarize"`` or ``"decode"``.
        n_queries: live query rows (== rows later processed by the FFN).
        n_keys: live key/value columns in the Q x K computation.
        n_heads: live heads.
        n_values: kept V vectors per head after local value pruning.
        lsb_fraction: fraction of softmax rows that refetched LSBs
            (0.0 when progressive quantization is off).
    """

    layer: int
    stage: str
    n_queries: int
    n_keys: int
    n_heads: int
    n_values: int
    lsb_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.stage not in ("summarize", "decode"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if min(self.n_queries, self.n_keys, self.n_heads, self.n_values) < 0:
            raise ValueError("step counts must be non-negative")
        if self.n_values > self.n_keys:
            raise ValueError("cannot keep more values than keys")


@dataclass
class AttentionTrace:
    """A full run's worth of :class:`LayerStep` entries plus metadata.

    The batched cascade (:mod:`repro.core.batched_cascade`) hands a
    sequence its share of the steps its block ran at the sequence's
    barrier, as the per-layer count rows the block logged
    (:meth:`add_batched`); they become :class:`LayerStep` entries when
    :attr:`steps` is first read — a serving run never reads them.
    """

    model: ModelConfig
    original_length: int
    n_generated: int
    _steps: List[LayerStep] = field(default_factory=list)
    quant: Optional[QuantConfig] = None
    pruning: Optional[PruningConfig] = None
    #: Batched steps not yet expanded: ``(stage, rows, column)``.
    _batched: List[tuple] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def add(self, step: LayerStep) -> None:
        self.steps.append(step)

    def add_batched(self, stage: str, rows: List[tuple], column: int) -> None:
        """Record one step of a batch this trace's sequence was in.

        ``rows[layer]`` is ``(n_keys, n_heads, n_values)``, each with
        one entry per sequence of the batch — the block's ``[n_layers,
        3, n]`` log entry, shared by every trace of the batch, never
        copied — and ``column`` this sequence's place in them.  A
        ``"summarize"`` layer has as many queries as keys, a
        ``"decode"`` layer one.
        """
        self._batched.append((stage, rows, column))

    @property
    def steps(self) -> List[LayerStep]:
        """Every step so far, in execution order."""
        if self._batched:
            batched, self._batched = self._batched, []
            for stage, rows, j in batched:
                for layer, (n_keys, n_heads, n_values) in enumerate(rows):
                    n_keys = int(n_keys[j])
                    self._steps.append(LayerStep(
                        layer, stage, 1 if stage == "decode" else n_keys,
                        n_keys, int(n_heads[j]), int(n_values[j]),
                    ))
        return self._steps

    @property
    def summarize_steps(self) -> List[LayerStep]:
        return [s for s in self.steps if s.stage == "summarize"]

    @property
    def decode_steps(self) -> List[LayerStep]:
        return [s for s in self.steps if s.stage == "decode"]

    def count_signature(self) -> List[tuple]:
        """Hashable per-step count tuples (for analytic-vs-measured tests)."""
        return [
            (s.layer, s.stage, s.n_queries, s.n_keys, s.n_heads, s.n_values)
            for s in self.steps
        ]

    @property
    def mean_lsb_fraction(self) -> float:
        """Row-weighted mean LSB-refetch fraction across all steps."""
        rows = sum(s.n_queries * s.n_heads for s in self.steps)
        if rows == 0:
            return 0.0
        weighted = sum(
            s.lsb_fraction * s.n_queries * s.n_heads for s in self.steps
        )
        return weighted / rows

    # ------------------------------------------------------------------
    # KV-cache memory accounting (dtype-aware, matching KVCache.nbytes)
    # ------------------------------------------------------------------
    def kv_bytes_of_step(self, step: LayerStep) -> int:
        """Live KV bytes held during one step: K and V columns of the
        surviving keys across the live heads, at the model's storage
        width (``ModelConfig.bytes_per_element``, fp16 baseline)."""
        per_head = self.model.kv_bytes_per_token // self.model.n_heads
        return per_head * step.n_keys * step.n_heads

    @property
    def kv_bytes_per_step(self) -> List[int]:
        """Per-step live KV footprints in bytes."""
        return [self.kv_bytes_of_step(s) for s in self.steps]

    @property
    def peak_kv_bytes(self) -> int:
        """Largest per-step live KV footprint."""
        return max(self.kv_bytes_per_step, default=0)

    @property
    def cumulative_kv_bytes(self) -> int:
        """KV bytes summed over every attention execution — the trace-level
        proxy for KV DRAM traffic that cascade pruning reduces.  The
        serving memory pool sizes its pages with the same per-token byte
        arithmetic (:attr:`~repro.config.ModelConfig.kv_bytes_per_token`,
        matching :attr:`~repro.nn.kv_cache.KVCache.nbytes`)."""
        return sum(self.kv_bytes_per_step)


def dense_trace(
    model: ModelConfig, seq_len: int, n_generate: int = 0
) -> AttentionTrace:
    """Trace of an unpruned, unquantized run (the baseline workload)."""
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    if n_generate and not model.causal:
        raise ValueError("only causal models generate")
    trace = AttentionTrace(model, seq_len, n_generate)
    for layer in range(model.n_layers):
        trace.add(
            LayerStep(layer, "summarize", seq_len, seq_len, model.n_heads, seq_len)
        )
    for step_idx in range(n_generate):
        total = seq_len + step_idx + 1
        for layer in range(model.n_layers):
            trace.add(LayerStep(layer, "decode", 1, total, model.n_heads, total))
    return trace


def spatten_trace(
    model: ModelConfig,
    pruning: PruningConfig,
    quant: Optional[QuantConfig],
    seq_len: int,
    n_generate: int = 0,
    lsb_fraction: float = DEFAULT_LSB_FRACTION,
) -> AttentionTrace:
    """Analytic SpAtten trace: schedule-driven counts, no model execution.

    Replays exactly the decisions of
    :class:`~repro.core.pipeline.SpAttenExecutor`: entry pruning per layer
    against the token/head schedules during summarization, and
    total-length-proportional targets during generation.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    if n_generate and not model.causal:
        raise ValueError("only causal models generate")
    effective_lsb = 0.0
    if quant is not None and quant.progressive:
        effective_lsb = float(lsb_fraction)

    trace = AttentionTrace(
        model, seq_len, n_generate, quant=quant, pruning=pruning
    )
    plan = sched.SequencePlan.build(pruning, model, seq_len, n_generate)

    alive = seq_len
    alive_heads = model.n_heads
    for layer in range(model.n_layers):
        alive = min(alive, plan.token_counts[layer])
        alive_heads = min(alive_heads, plan.head_counts[layer])
        trace.add(
            LayerStep(
                layer, "summarize", alive, alive, alive_heads,
                int(value_keep_count(pruning.value_keep, alive)),
                effective_lsb,
            )
        )

    for step_idx in range(n_generate):
        total_length = seq_len + step_idx + 1
        alive += 1  # the newly generated token joins the live set
        for layer in range(model.n_layers):
            target = sched.decode_token_target(
                pruning, plan.token_fracs[layer], total_length
            )
            alive = min(alive, target)
            trace.add(
                LayerStep(
                    layer, "decode", 1, alive, alive_heads,
                    int(value_keep_count(pruning.value_keep, alive)),
                    effective_lsb,
                )
            )
    return trace

"""Wall-clock hot-path profiler for the packed backend.

Everything else in :mod:`repro.telemetry` runs on the *simulated*
clock; this profiler is the deliberate exception.  The simulated cost
model answers "what would this schedule cost on modeled hardware" —
it cannot answer "where does the *real* Python/BLAS time go in the
packed hot path".  :class:`HotPathProfiler` measures that with
``time.perf_counter`` around the
:class:`~repro.nn.batched_attention.PackedDecodeBackend` stages of the
decode step and the prompt pass:

* ``decode_step`` — a whole ``fp32`` / ``int8`` decode step
  (``decode_step_policy``), the *total* its ``decode_*`` stages below
  are parts of: what they leave over is reported as ``unattributed``
  (:meth:`HotPathProfiler.unattributed_seconds`; a test holds it under
  5 % of the step).  The exact tier's step belongs to the model's own
  fp64 stack, so only the per-layer stages are recorded there;
* ``decode_setup`` — before the first layer: grouping the rows by
  style, reconciling the dense and the pruned rows' stores with the
  batch (adopting arrivals — dense rows after their prompt pass; pruned
  ones are resident since theirs — and releasing departures), opening
  the step's ``CascadeBatch`` and the embedding gather;
* ``decode_qkv_proj`` — the fused ``[B, d] @ [d, 3d]`` projection;
* ``decode_dense_core`` — KV append + scores/softmax/A·V of the dense
  rows: per sequence over exact-length cache views on the exact tier,
  the batched store core (no cascade) over their row store otherwise;
* ``decode_custom_core`` — per-sequence SpAtten cores: every SpAtten
  row on the exact tier, progressive-quantization rows on any tier;
* ``decode_prune_control`` — the batched cascade of the other SpAtten
  rows on ``fp32`` / ``int8``: token and head pruning decisions over
  the batch's control planes, then eviction from the layer's row store
  (one gathered mask, plus compaction of the rows a page of holes has
  built up in);
* ``decode_pruned_core`` — the same store core with the cascade in
  its datapath: batched KV append into their row store + scores /
  softmax / local value pruning / A·V / importance accumulation over
  its planes;
* ``decode_output_fc`` — the fused output projection;
* ``decode_ffn`` — the rest of a block: residual adds, LayerNorms and
  the tanh/gelu FFN;
* ``decode_commit`` — ``CascadeBatch.commit()``: the step's control
  state and trace rows stored back into the executors;
* ``decode_lm_head`` — the final ``[B, d] @ [d, vocab]`` projection;
* ``prefill_step`` — a whole ``fp32`` / ``int8`` prompt step
  (``prefill_chunk_policy``), the total of the ``prefill_*`` stages on
  those tiers as ``decode_step`` is of the decode stages (same
  ``unattributed`` row, same 5 % test).  Its stages, contiguous:
* ``prefill_setup`` — grouping the states by style, the chunk spans,
  input validation, adopting the pruned sequences' empty caches into
  the ``"pruned"`` row stores and opening their batch controls
  (``CascadeBatch.summarize``), and the embedding gather;
* ``prefill_prune_control`` — each layer's entry pruning: the batched
  cascade of the pruned sentences (per-sequence ``summarize_control``
  for ``custom`` ones) and the gather that drops pruned rows from the
  residual stream;
* ``prefill_chunk_proj`` — the fused Q/K/V projection of every row;
* ``prefill_dense_core`` — a dense chunk's KV append + causal attention
  against its cache (once per sequence and layer);
* ``prefill_custom_core`` — a progressive-quantization sentence's own
  per-sequence core;
* ``prefill_pruned_core`` — the batched whole-sentence core of a block
  of pruned sentences: K/V block write into their row store (the int8
  quantization of the block included), scores / causal softmax / local
  value pruning / A·V / importance over the padded plane;
* ``prefill_ffn`` — the rest of a block: output FC, residual adds,
  LayerNorms and the tanh/gelu FFN;
* ``prefill_commit`` — the pruned sentences' control state and trace
  rows stored back into the executors, once per sequence;
* ``prefill_lm_head`` — the LM head over the completed prompts' last
  rows, and the states' bookkeeping.

The exact tier's prompt pass belongs to the model's own fp64 stack and
records three stages, with no step total:

* ``prefill_chunk_proj`` — the fused Q/K/V projections of the
  incremental chunks;
* ``prefill_core`` — the rest of the attention half: cascade entry
  pruning, KV append, scores / softmax / A·V per sequence (plus local
  value pruning and importance accumulation for SpAtten prompts) and
  the output FC;
* ``prefill_ffn`` — its residual adds, LayerNorms and tanh/gelu FFN.

Wall times are inherently nondeterministic, so profiler output is kept
*out* of the trace and metrics artifacts (whose bytes must reproduce);
it renders its own table and exposes raw totals for programmatic use.
With no profiler attached the backend pays a single ``is None`` check
per stage — the off path stays allocation-free.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from ..eval.reporting import Table

__all__ = ["HotPathProfiler"]

#: The stages that time a whole step of the ``fp32`` / ``int8``
#: backend; the other stages sharing a total's prefix (``decode_``,
#: ``prefill_``) are its parts.
STEP_TOTALS = ("decode_step", "prefill_step")


class HotPathProfiler:
    """Accumulates wall-clock (calls, seconds) per named stage."""

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}

    # The backend calls these inline — start/stop, not a context
    # manager, to keep per-stage overhead to two perf_counter reads.
    def start(self) -> float:
        return time.perf_counter()

    def lap(self, stage: str, t0: float) -> float:
        """Charge ``stage`` the time since ``t0``; returns the stamp it
        stopped at, where a stage that follows without a gap starts."""
        now = time.perf_counter()
        self._calls[stage] = self._calls.get(stage, 0) + 1
        self._seconds[stage] = self._seconds.get(stage, 0.0) + (now - t0)
        return now

    def stop(self, stage: str, t0: float) -> float:
        """Charge ``stage`` the time since ``t0``; returns that time."""
        return self.lap(stage, t0) - t0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[str]:
        return sorted(self._calls)

    def calls(self, stage: str) -> int:
        return self._calls.get(stage, 0)

    def seconds(self, stage: str) -> float:
        return self._seconds.get(stage, 0.0)

    def unattributed_seconds(self, total: str) -> float:
        """What the whole steps ``total`` timed (one of
        :data:`STEP_TOTALS`) hold beyond their stages."""
        prefix = total[: -len("step")]
        return self.seconds(total) - sum(
            seconds for stage, seconds in self._seconds.items()
            if stage.startswith(prefix) and stage != total
        )

    @property
    def total_seconds(self) -> float:
        """Seconds covered, a whole step's counted once."""
        return sum(row[2] for row in self.as_rows())

    def as_rows(self) -> List[Tuple[str, int, float, float]]:
        """(stage, calls, seconds, share) sorted by descending cost; a
        step total appears as its ``unattributed`` remainder."""
        calls, seconds = dict(self._calls), dict(self._seconds)
        for total in STEP_TOTALS:
            if seconds.pop(total, None) is not None:
                rest = f"unattributed ({total})"
                calls[rest] = calls.pop(total)
                seconds[rest] = self.unattributed_seconds(total)
        covered = sum(seconds.values()) or 1.0
        rows = [(s, calls[s], t, t / covered) for s, t in seconds.items()]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows

    def table(self) -> Table:
        t = Table(
            title="hot-path profile (wall clock)",
            headers=["stage", "calls", "total ms", "us/call", "share"],
        )
        for stage, calls, seconds, share in self.as_rows():
            per_call = seconds / calls * 1e6 if calls else 0.0
            t.add_row(stage, str(calls), f"{seconds * 1e3:.2f}",
                      f"{per_call:.1f}", f"{share:.1%}")
        t.add_note(
            "real time.perf_counter seconds around the packed backend's "
            "decode_* and prefill_* stages — separate from the simulated "
            "serving clock; 'unattributed' is what a whole fp32 / int8 "
            "decode step or prompt step holds beyond its stages"
        )
        return t

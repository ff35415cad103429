"""Wall-clock hot-path profiler for the packed backend.

Everything else in :mod:`repro.telemetry` runs on the *simulated*
clock; this profiler is the deliberate exception.  The simulated cost
model answers "what would this schedule cost on modeled hardware" —
it cannot answer "where does the *real* Python/BLAS time go in the
packed hot path".  :class:`HotPathProfiler` measures that with
``time.perf_counter`` around the stages of the
:class:`~repro.nn.batched_attention.PackedDecodeBackend`'s decode step
and prompt step.  Both run one per-layer skeleton — entry pruning, the
fused QKV projection, each part's core, the output FC — so the two
record the same stages, each under its own prefix (the catalog below
is the whole set; a test holds a traced run of every tier to it).

Stages off the exact tier
-------------------------

Off the exact tier a step is one layer stack over every row it
carries: a step with decode rows is a *decode step*
(``decode_step_policy``) — also when the step's prompt chunks ride
along in it, a *mixed step*, whose prompt parts' cores keep their
``prefill_*`` names — and a step without is a *prompt step*
(``prefill_chunk_policy``).  An ``fp32`` / ``int8`` step records, per
step or per layer:

* ``decode_step`` / ``prefill_step`` — the whole step, the *total* the
  stages charged while it runs are parts of: what they leave over is
  reported as ``unattributed`` (:meth:`HotPathProfiler
  .unattributed_seconds`; tests hold it under 5 % of the step);
* ``decode_setup`` / ``prefill_setup`` — before the first layer:
  grouping the rows by style into the step's parts and putting the
  rows into part order; for decode rows, having the dense and the
  pruned rows' row tables hold the batch (adopting arrivals into every
  layer's store — and the pruned rows' resident ``CascadeBatch`` — and
  releasing departures, whose control rows are written back) and
  opening the pruned rows' step, one vectorized admission over the
  resident planes (new tokens, lengths, targets); for prompt rows, the
  chunk spans, input validation, opening the pruned sentences'
  schedules, seating them — a dense sequence's empty caches at its
  first chunk, a pruned sentence's and its control state — in their
  style's table in the same hold as the decode rows (before any step
  opens) and opening each block's prompt pass; for both, the one
  embedding gather.  The control state
  stays resident, so no stage stores it back at the end of a step;
* ``decode_prune_control`` / ``prefill_prune_control`` — each layer's
  entry pruning: every pruned store block's cascade decisions over its
  control planes, then eviction of the block's rows from the layer's
  store (one gathered mask, plus compaction of the rows a page of holes
  has built up in), every per-sequence row's control —
  ``summarize_control`` in a prompt step, ``decode_control`` in a decode
  step (a dense chunk's prunes nothing) — and the gather that drops
  pruned rows from the residual stream;
* ``decode_qkv_proj`` / ``prefill_chunk_proj`` — the fused
  ``[N, d] @ [d, 3d]`` projection of every row;
* ``decode_custom_core`` / ``prefill_custom_core`` — the
  progressive-quantization rows' part: each sequence's own SpAtten
  core (``decode_attend_packed``, the core of both stages; its control
  ran in the prune-control stage), one part for every such row of the
  step;
* ``decode_dense_core`` — the dense rows' store block: the store core
  with no cascade (K/V write at each row's cursor, scores / mask /
  softmax / A·V over the block's plane);
* ``prefill_dense_core`` — a dense prompt store block: the store core
  with no cascade over the chunks of consecutive dense rows (K/V write
  at each row's cursor, then scores / mask / softmax / A·V over the
  columns the store holds — on int8 its dequantized planes), one call
  a block and layer;
* ``decode_pruned_core`` / ``prefill_pruned_core`` — a pruned store
  block's store core but its value control: K/V write at each row's
  cursor (the int8 quantization of the block included), then scores /
  mask / softmax / A·V over its plane — one query row a sequence in a
  decode step, the whole sentence in a prompt step; an int8 decode
  step reads its codes cast once, the scales folded into the scores
  and the A·V operand;
* ``decode_value_control`` / ``prefill_value_control`` — the cascade's
  statements inside a pruned block's core, carved out of its time
  (:meth:`HotPathProfiler.carve`), one call a block and layer: local
  value pruning (the keep counts and the ranking), the dead-head gate
  and token importance accumulation before A·V, head importance
  accumulation after it;
* ``decode_output_fc`` / ``prefill_output_fc`` — the fused output
  projection;
* ``decode_ffn`` / ``prefill_ffn`` — the rest of a block: residual
  adds, LayerNorms and the tanh/gelu FFN;
* ``decode_lm_head`` / ``prefill_lm_head`` — the one LM head over the
  decode rows, back in batch order, and the last rows of the prompts
  that completed, and the prompt states' bookkeeping.

Stages on the exact tier
------------------------

The exact tier's decode step belongs to the model's own fp64 stack, so
there is no ``decode_step`` total and no remainder row for it: the
stack runs the backend's skeleton for each layer's attention half
(``decode_layer``).  Its prompt step is the backend's whole step, as
off the tier — total and ``unattributed`` remainder included — with
every prompt a per-sequence row, so no store block and no value
control; a step with both kinds of rows runs the two passes one after
the other:

* ``decode_prune_control`` — entry pruning: each SpAtten row's
  ``decode_control`` (admission, cascade token and head pruning,
  eviction from the layer's cache), each dense row's default that keeps
  it, and the skeleton's bookkeeping;
* ``decode_qkv_proj`` — the fused projection, row by row;
* ``decode_custom_core`` — the SpAtten rows' part: each row's own
  per-sequence core, its control excluded;
* ``decode_dense_core`` — the dense rows' part: each row's KV append
  and attention over its cache at exact length, in ``DenseExecutor``'s
  own core;
* ``decode_output_fc`` — the fused output projection, row by row;
* ``prefill_step`` / ``prefill_setup`` / ``prefill_lm_head`` — as off
  the tier, the LM head row by row;
* ``prefill_prune_control`` — each SpAtten sentence's
  ``summarize_control`` and the gather that drops its pruned rows;
* ``prefill_chunk_proj`` / ``prefill_output_fc`` — the fused
  projections, grouped as a solo prompt pass groups them: one GEMM over
  the rows of every sequence with two or more, a sequence's only row
  alone;
* ``prefill_custom_core`` — the SpAtten sentences' part: each one's own
  core (``decode_attend_packed``);
* ``prefill_dense_core`` — the dense chunks' part: each chunk's K/V
  appended to its private cache and causal attention over it, in
  ``DenseExecutor``'s own core, over K/V padded to the prompt's width
  while a chunked prompt is mid-way;
* ``prefill_ffn`` — the model's own fp64 residual adds, LayerNorms and
  tanh/gelu FFN, grouped as the projections.

Wall times are inherently nondeterministic, so profiler output is kept
*out* of the trace and metrics artifacts (whose bytes must reproduce);
it renders its own table and exposes raw totals for programmatic use.
With no profiler attached the backend pays a single ``is None`` check
per stage — the off path stays allocation-free.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from ..eval.reporting import Table

__all__ = ["HotPathProfiler"]

#: The stages that time a whole step of the backend (a decode step off
#: the exact tier, a prompt step on every tier); the stages charged while
#: a step is open (:meth:`HotPathProfiler.begin_step`) are its parts.
STEP_TOTALS = ("decode_step", "prefill_step")


class HotPathProfiler:
    """Accumulates wall-clock (calls, seconds) per named stage."""

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        #: Seconds carved out of the stage the next lap closes.
        self._carved = 0.0
        #: Seconds charged so far, and what that read when the open step
        #: began.
        self._charged = self._step_from = 0.0
        #: Seconds the steps of each total charged to their stages.
        self._inside: Dict[str, float] = {}

    # The backend calls these inline — start/stop, not a context
    # manager, to keep per-stage overhead to two perf_counter reads.
    def start(self) -> float:
        return time.perf_counter()

    def lap(self, stage: str, t0: float) -> float:
        """Charge ``stage`` the time since ``t0`` but what :meth:`carve`
        took out of it; returns the stamp it stopped at, where a stage
        that follows without a gap starts."""
        now = time.perf_counter()
        seconds, self._carved = now - t0 - self._carved, 0.0
        self._calls[stage] = self._calls.get(stage, 0) + 1
        self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds
        self._charged += seconds
        return now

    def carve(self, stage: str, seconds: float) -> None:
        """Charge ``stage`` one call of ``seconds`` spent within the
        stage the next :meth:`lap` (or :meth:`stop`) closes, which is
        charged that much less."""
        self._calls[stage] = self._calls.get(stage, 0) + 1
        self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds
        self._carved += seconds
        self._charged += seconds

    def stop(self, stage: str, t0: float) -> float:
        """Charge ``stage`` the time since ``t0``; returns that time."""
        return self.lap(stage, t0) - t0

    def begin_step(self) -> float:
        """Open a whole step: the stages charged until :meth:`end_step`
        are its parts.  Returns its start stamp."""
        self._step_from = self._charged
        return time.perf_counter()

    def end_step(self, total: str, t0: float) -> None:
        """Charge ``total`` (one of :data:`STEP_TOTALS`) the step
        :meth:`begin_step` opened at ``t0``, and note what its stages
        took of it."""
        inside = self._charged - self._step_from
        self._inside[total] = self._inside.get(total, 0.0) + inside
        self.stop(total, t0)

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
        return self.seconds(total) - self._inside.get(total, 0.0)

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
        # Imported on use: ``repro.eval`` imports the serving engine,
        # which imports this package.
        from ..eval.reporting import Table

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
            "decode step or any prompt step holds beyond its stages"
        )
        return t

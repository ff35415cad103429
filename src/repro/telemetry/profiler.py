"""Wall-clock hot-path profiler for the packed backend.

Everything else in :mod:`repro.telemetry` runs on the *simulated*
clock; this profiler is the deliberate exception.  The simulated cost
model answers "what would this schedule cost on modeled hardware" —
it cannot answer "where does the *real* Python/BLAS time go in the
packed hot path".  :class:`HotPathProfiler` measures that with
``time.perf_counter`` around the
:class:`~repro.nn.batched_attention.PackedDecodeBackend` stages of the
decode step and the prompt pass:

* ``decode_qkv_proj`` — the fused ``[B, d] @ [d, 3d]`` projection;
* ``decode_dense_core`` — KV append + scores/softmax/A·V of the dense
  rows (exact-length cache views or the padded arena, by tier);
* ``decode_custom_core`` — per-sequence SpAtten cores: every SpAtten
  row on the exact tier, progressive-quantization rows on any tier;
* ``decode_prune_control`` — the batched cascade of the other SpAtten
  rows on ``fp32`` / ``int8``: token and head pruning decisions over
  the batch's control planes plus KV-cache eviction;
* ``decode_pruned_core`` — their KV append + scores / softmax / local
  value pruning / A·V / importance accumulation over the padded pack;
* ``decode_output_fc`` — the fused output projection;
* ``prefill_chunk_proj`` — the prompt pass's fused Q/K/V projections;
* ``prefill_core`` — the rest of its attention half: cascade entry
  pruning, KV append, scores / softmax / A·V per sequence (plus local
  value pruning and importance accumulation for SpAtten prompts) and
  the output FC;
* ``prefill_ffn`` — its residual adds, LayerNorms and tanh/gelu FFN.

The three ``prefill_*`` stages cover the prompt pass on every tier —
the model's own fp64 stack under ``exact``, the backend's
compute-dtype stack under ``fp32`` / ``int8`` — up to the embedding
gather and the LM head.

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


class HotPathProfiler:
    """Accumulates wall-clock (calls, seconds) per named stage."""

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}

    # The backend calls these inline — start/stop, not a context
    # manager, to keep per-stage overhead to two perf_counter reads.
    def start(self) -> float:
        return time.perf_counter()

    def stop(self, stage: str, t0: float) -> float:
        """Charge ``stage`` the time since ``t0``; returns that time."""
        dt = time.perf_counter() - t0
        self._calls[stage] = self._calls.get(stage, 0) + 1
        self._seconds[stage] = self._seconds.get(stage, 0.0) + dt
        return dt

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

    @property
    def total_seconds(self) -> float:
        return sum(self._seconds.values())

    def as_rows(self) -> List[Tuple[str, int, float, float]]:
        """(stage, calls, seconds, share) sorted by descending cost."""
        total = self.total_seconds or 1.0
        rows = [
            (stage, self._calls[stage], self._seconds[stage],
             self._seconds[stage] / total)
            for stage in self._calls
        ]
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
            "serving clock"
        )
        return t

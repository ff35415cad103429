"""Serving cost model, simulated clock, and the ServingStats report.

The engine runs against a *simulated* clock: every prefill and every
batched decode step advances time by a modeled duration, so queueing
and latency statistics are deterministic and hardware-independent (the
same philosophy as the repo's analytic traces).  The cost model charges

* a fixed per-step overhead (kernel launch / scheduling) — this is the
  term continuous batching amortises across the live batch;
* a small per-sequence bookkeeping overhead;
* the arithmetic work at a modeled FLOP rate.  Attention work scales
  with each sequence's *live* KV columns and heads, so cascade pruning
  directly shortens pruned decode steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from ..config import ModelConfig
from ..core import SequencePlan
from ..eval.reporting import Table
from .request import RequestRecord, RequestStatus

__all__ = [
    "SimulatedClock",
    "CostModel",
    "ServingStats",
    "STATS_SCHEMA_VERSION",
    "format_quantiles",
]


class SimulatedClock:
    """Monotone simulated time in seconds."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += dt
        return self.now

    def advance_to(self, t: float) -> float:
        self.now = max(self.now, float(t))
        return self.now


class CostModel:
    """Step-time model for the simulated serving clock.

    Its three coefficients are class constants: both engines build
    ``CostModel()`` themselves, so every run of the simulated clock
    prices steps alike.  A fitted model (ROADMAP item 6(b)) replaces the
    numbers here, not a constructor argument.
    """

    #: Modeled sustained arithmetic throughput (FLOP/s).
    flops_per_second = 50e9
    #: Fixed cost per engine step, amortised over the whole live batch
    #: (the continuous-batching win).
    step_overhead_s = 2e-4
    #: Per-live-sequence bookkeeping cost per step.
    seq_overhead_s = 1e-5

    def decode_seq_flops(
        self,
        model: ModelConfig,
        kv_lengths: Sequence[int],
        n_live_heads: int,
    ) -> float:
        """FLOPs to decode one token of one sequence.

        Projections scale with live heads (pruned heads project
        nothing), attention with live KV columns, and the FFN with the
        full width (token pruning saves FFN work only for *evicted*
        positions, which never reach decode).
        """
        d = model.head_dim
        head_frac = n_live_heads / model.n_heads
        proj = 2 * model.d_model * model.d_model * (3 * head_frac + 1)
        ffn = 4 * model.d_model * model.d_ff
        flops = 0.0
        for length in kv_lengths:
            attn = 4 * n_live_heads * length * d
            flops += proj + ffn + attn
        return flops

    def prefill_flops(self, model: ModelConfig, plan: SequencePlan) -> float:
        """FLOPs to summarize a whole prompt.

        *Schedule-aware*: layer ``l`` charges only the surviving tokens
        and heads of the sequence's ``plan`` — the keep counts the
        executor runs — so pruned prefill is genuinely cheaper on the
        serving clock; a dense plan is the upper bound.
        """
        return self.prefill_chunk_flops(model, plan, 0, plan.prompt_len)

    def prefill_chunk_flops(
        self,
        model: ModelConfig,
        plan: SequencePlan,
        chunk_start: int,
        chunk_end: int,
    ) -> float:
        """FLOPs to commit prompt tokens ``[chunk_start, chunk_end)``.

        A chunk's queries attend only to the prefix cached so far
        (``chunk_end`` columns), so chunked prefill charges the causal
        ``chunk x prefix`` rectangle instead of the monolithic
        ``prompt x prompt`` square — summing chunks therefore costs
        *less* total attention arithmetic than one monolithic pass,
        exactly the Sarathi-style chunked-prefill win.  Layer ``l``
        additionally scales queries and keys by the plan's token keep
        fraction and charges only its live heads.
        """
        prompt_len = plan.prompt_len
        if not 0 <= chunk_start < chunk_end <= prompt_len:
            raise ValueError(
                f"invalid chunk [{chunk_start}, {chunk_end}) for prompt of "
                f"{prompt_len} tokens"
            )
        d, d_ff, n_heads = model.d_model, model.d_ff, model.n_heads
        flops = 0.0
        for count, heads in zip(plan.token_counts, plan.head_counts):
            frac = count / prompt_len
            queries = frac * (chunk_end - chunk_start)
            keys = frac * chunk_end
            proj = 2 * d * d * (3 * heads / n_heads + 1)
            ffn = 4 * d * d_ff
            attn = 4 * heads * queries * keys * model.head_dim
            flops += queries * (proj + ffn) + attn
        return flops

    def prefill_time(self, model: ModelConfig, plan: SequencePlan) -> float:
        return self.mixed_step_time(self.prefill_flops(model, plan), 0.0, 0, 0)

    def step_time(self, batch_flops: float, batch_size: int) -> float:
        return self.mixed_step_time(0.0, batch_flops, 0, batch_size)

    def mixed_step_time(
        self,
        prefill_flops: float,
        decode_flops: float,
        n_prefill_seqs: int,
        n_decode_seqs: int,
    ) -> float:
        """Duration of one mixed step: prefill chunks + batched decode.

        A single fixed step overhead covers the whole mixed batch —
        this is what lets chunked prefill hide prompt summarization
        behind decode steps instead of stalling them.  On every tier
        the wall clock does the same: the step's prompt chunks and
        decode rows run one layer stack
        (``decode_step_batch(..., prefill=...)``).  Degenerates to :meth:`step_time` for a decode-only step.
        """
        return (
            self.step_overhead_s
            + self.seq_overhead_s * (n_prefill_seqs + n_decode_seqs)
            + (prefill_flops + decode_flops) / self.flops_per_second
        )


def _percentile(samples: Sequence[float], q: float) -> float:
    # No samples means the quantile is *unknown*, not zero: a run where
    # nothing completed must not report perfect p50/p95/p99 latency.
    # NaN propagates honestly; to_dict()/to_json() render it as null
    # and table() as "n/a".
    if not samples:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def format_quantiles(
    values: Sequence[float], scale: float = 1e3, fmt: str = ".1f"
) -> str:
    """Render a p50/p95/p99 triple, showing NaN (no samples) as n/a."""
    return " / ".join(
        "n/a" if math.isnan(v) else f"{v * scale:{fmt}}" for v in values
    )


def _null_if_nan(value):
    return None if isinstance(value, float) and math.isnan(value) else value


#: Version of the JSON document :meth:`ServingStats.to_dict` (and the
#: cluster aggregate built on it) emits.  Bump when a field is renamed,
#: removed, or changes meaning — *adding* fields is backward-compatible
#: and does not bump.  Consumers parsing ``--stats-json`` output should
#: check this before anything else.
STATS_SCHEMA_VERSION = 2


@dataclass
class ServingStats:
    """Aggregate report of one serving run (simulated-clock units)."""

    mode: str
    n_requests: int
    n_tokens: int
    makespan_s: float
    throughput_tps: float
    queue_wait_p50: float
    queue_wait_p95: float
    queue_wait_p99: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    decode_latency_p50: float
    decode_latency_p95: float
    decode_latency_p99: float
    mean_batch_size: float
    pool_pages: int
    pool_page_tokens: int
    occupancy_mean: float
    occupancy_peak: float
    reclaimed_pages: int
    reclaimed_tokens: int
    #: Records that never reached admission (partial / truncated runs).
    #: They are skipped — not crashed on — when aggregating latencies.
    #: Terminal failures are *not* lumped in here: they get their own
    #: counter below.
    n_unadmitted: int = 0
    #: Requests that ended ``FAILED`` (unplaceable, retry budget or
    #: deadline exhausted, or shed by the degradation ladder).  Failed
    #: requests contribute no latency samples, so a run where nothing
    #: survived reports its quantiles as NaN ("n/a"), never as zeros.
    n_failed_requests: int = 0
    #: Best-effort requests dropped by the degradation ladder plus
    #: deadline expiries (both also counted in ``n_failed_requests``).
    n_shed: int = 0
    #: Requests escalated to a more aggressive cascade schedule under
    #: pressure (rung 2 of the ladder); their streams are served in
    #: full but marked degraded.
    n_repruned: int = 0
    #: KV-corruption strikes survived via quarantine-and-recompute.
    n_corruptions: int = 0
    #: Per-priority-tier breakdown (one dict per priority present in
    #: the trace): request/finish/failure counts and TTFT percentiles,
    #: NaN-aware exactly like the top-level quantiles.
    tiers: List[dict] = field(default_factory=list)
    #: Admission mode the engine ran under (``reserve``/``optimistic``).
    admission: str = "reserve"
    #: Numerics-ladder tier the engine ran under
    #: (``exact``/``fp32``/``int8`` — see :mod:`repro.nn.numerics`).
    numerics: str = "exact"
    #: Preemptions across the run (optimistic admission under pool
    #: pressure) and the tokens recomputed after them — latency paid,
    #: never tokens lost (greedy replay is bit-identical).
    n_preemptions: int = 0
    recompute_tokens: int = 0
    #: SLO attainment report (:meth:`repro.insight.SLOReport.to_dict`),
    #: or ``None``.  The engine never fills it: a caller holding an SLO
    #: policy sets it from :attr:`records` and :attr:`makespan_s` after
    #: the run (``repro serve --slo``).
    slo: Optional[dict] = None
    records: List[RequestRecord] = field(default_factory=list)

    @staticmethod
    def from_run(
        mode: str,
        records: List[RequestRecord],
        makespan_s: float,
        batch_sizes: List[int],
        occupancy_samples: List[float],
        pool_pages: int,
        pool_page_tokens: int,
        occupancy_peak: float,
        reclaimed_pages: int,
        reclaimed_tokens: int,
        admission: str = "reserve",
        numerics: str = "exact",
    ) -> "ServingStats":
        # A record that never reached admission (a partial run cut short
        # by an error or an interrupted trace) has no queue_wait/TTFT;
        # skip it from the latency aggregates and count it instead of
        # crashing the whole report.  Terminal failures are counted
        # separately: with no survivors the quantiles come out NaN
        # ("n/a"), so a run that failed everything can never masquerade
        # as one with perfect latency.
        failed = [r for r in records if r.status is RequestStatus.FAILED]
        admitted = [r for r in records if r.admit_time is not None]
        queue_waits = [r.queue_wait for r in admitted]
        ttfts = [
            r.time_to_first_token for r in admitted
            if r.first_token_time is not None
        ]
        decode_lat = [lat for r in records for lat in r.token_latencies]
        n_tokens = sum(r.n_generated for r in records)
        tiers = []
        for priority in sorted({r.request.priority for r in records}):
            tier = [r for r in records if r.request.priority == priority]
            tier_ttfts = [
                r.time_to_first_token for r in tier
                if r.first_token_time is not None
            ]
            tiers.append({
                "priority": priority,
                "n_requests": len(tier),
                "n_finished": sum(
                    r.status is RequestStatus.FINISHED for r in tier
                ),
                "n_failed_requests": sum(
                    r.status is RequestStatus.FAILED for r in tier
                ),
                "ttft_p50": _percentile(tier_ttfts, 50),
                "ttft_p95": _percentile(tier_ttfts, 95),
            })
        return ServingStats(
            mode=mode,
            n_requests=len(records),
            n_tokens=n_tokens,
            makespan_s=makespan_s,
            throughput_tps=n_tokens / makespan_s if makespan_s > 0 else 0.0,
            queue_wait_p50=_percentile(queue_waits, 50),
            queue_wait_p95=_percentile(queue_waits, 95),
            queue_wait_p99=_percentile(queue_waits, 99),
            ttft_p50=_percentile(ttfts, 50),
            ttft_p95=_percentile(ttfts, 95),
            ttft_p99=_percentile(ttfts, 99),
            decode_latency_p50=_percentile(decode_lat, 50),
            decode_latency_p95=_percentile(decode_lat, 95),
            decode_latency_p99=_percentile(decode_lat, 99),
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            pool_pages=pool_pages,
            pool_page_tokens=pool_page_tokens,
            occupancy_mean=(
                float(np.mean(occupancy_samples)) if occupancy_samples else 0.0
            ),
            occupancy_peak=occupancy_peak,
            reclaimed_pages=reclaimed_pages,
            reclaimed_tokens=reclaimed_tokens,
            n_unadmitted=len(records) - len(admitted) - sum(
                1 for r in failed if r.admit_time is None
            ),
            admission=admission,
            numerics=numerics,
            n_preemptions=sum(r.n_preemptions for r in records),
            recompute_tokens=sum(r.recompute_tokens for r in records),
            n_failed_requests=len(failed),
            n_shed=sum(
                1 for r in records if r.failure in ("shed", "deadline")
            ),
            n_repruned=sum(1 for r in records if r.degraded),
            n_corruptions=sum(r.n_corruptions for r in records),
            tiers=tiers,
            records=records,
        )

    def to_dict(self) -> dict:
        """All scalar metrics as a plain dict (no per-request records).

        Benchmarks and the cluster aggregator consume this instead of
        re-deriving percentiles from :attr:`records` by hand.  Unknown
        percentiles (NaN: no samples) become ``None`` so the dict
        serializes to strict JSON (``null``), never a bare ``NaN``.
        The dict carries ``schema_version``
        (:data:`STATS_SCHEMA_VERSION`) so downstream dashboards can
        detect incompatible changes instead of silently misreading.
        """
        out = {
            f.name: _null_if_nan(getattr(self, f.name))
            for f in fields(self)
            if f.name != "records"
        }
        out["tiers"] = [
            {key: _null_if_nan(value) for key, value in tier.items()}
            for tier in self.tiers
        ]
        out["schema_version"] = STATS_SCHEMA_VERSION
        return out

    def to_json(self) -> str:
        """The scalar metrics as a JSON document (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self) -> Table:
        t = Table(
            title=f"serving report — {self.mode}",
            headers=["metric", "value"],
        )
        ms = 1e3
        t.add_row("requests served", str(self.n_requests))
        if self.n_unadmitted:
            t.add_row("requests never admitted (partial run)",
                      str(self.n_unadmitted))
        if self.n_failed_requests:
            t.add_row("requests failed", str(self.n_failed_requests))
        if self.n_shed:
            t.add_row("requests shed (deadline / load shedding)",
                      str(self.n_shed))
        if self.n_repruned:
            t.add_row("requests repruned under pressure",
                      str(self.n_repruned))
        if self.n_corruptions:
            t.add_row("KV corruptions quarantined", str(self.n_corruptions))
        t.add_row("tokens generated", str(self.n_tokens))
        t.add_row("makespan (s)", f"{self.makespan_s:.3f}")
        t.add_row("throughput (tok/s)", f"{self.throughput_tps:.1f}")
        t.add_row("queue wait p50/p95/p99 (ms)",
                  format_quantiles((self.queue_wait_p50,
                                    self.queue_wait_p95,
                                    self.queue_wait_p99), ms, ".1f"))
        t.add_row("time-to-first-token p50/p95/p99 (ms)",
                  format_quantiles((self.ttft_p50, self.ttft_p95,
                                    self.ttft_p99), ms, ".1f"))
        t.add_row("decode latency p50/p95/p99 (ms/tok)",
                  format_quantiles((self.decode_latency_p50,
                                    self.decode_latency_p95,
                                    self.decode_latency_p99), ms, ".2f"))
        t.add_row("mean live batch", f"{self.mean_batch_size:.2f}")
        if len(self.tiers) > 1:
            for tier in self.tiers:
                t.add_row(
                    f"tier p{tier['priority']} finished/failed/total",
                    f"{tier['n_finished']}/{tier['n_failed_requests']}/"
                    f"{tier['n_requests']}, ttft p95 "
                    + format_quantiles((tier["ttft_p95"],), ms, ".1f")
                    + " ms",
                )
        if self.admission != "reserve":
            t.add_row("admission mode", self.admission)
        if self.numerics != "exact":
            t.add_row("numerics tier", self.numerics)
        if self.n_preemptions:
            t.add_row("preemptions (recompute-on-preempt)",
                      str(self.n_preemptions))
            t.add_row("tokens recomputed after preemption",
                      str(self.recompute_tokens))
        t.add_row("pool pages (x tokens/page)",
                  f"{self.pool_pages} x {self.pool_page_tokens}")
        t.add_row("pool occupancy mean/peak",
                  f"{self.occupancy_mean:.1%} / {self.occupancy_peak:.1%}")
        t.add_row("pages reclaimed by pruning", str(self.reclaimed_pages))
        t.add_row("KV columns evicted by pruning", str(self.reclaimed_tokens))
        t.add_note("simulated clock; see repro.serving.stats.CostModel")
        return t

"""Continuous-batching serving engine over a pruning-aware KV pool.

Each engine iteration mirrors a production serving loop:

1. **ingest** — requests whose simulated arrival time has passed move
   into the priority queue;
2. **reserve** — while the head-of-queue request's worst-case KV
   reservation fits the memory pool, admit it: reserve its pages and
   open a resumable prefill (:meth:`repro.nn.transformer.
   TransformerModel.prefill_begin`).  Admission is head-of-line within
   priority order, so a large request cannot be starved by smaller
   late arrivals;
3. **mixed step** — one engine step batches a prefill chunk
   (``prefill_chunk`` tokens) for *every* admitted-but-not-yet-live
   sequence together with one batched decode step across all live
   sequences, and the simulated clock advances once
   (:meth:`repro.serving.stats.CostModel.mixed_step_time`): a long
   prompt stalls the live decode batch for one chunk, not for its
   whole duration.  A sequence is **promoted** to the decode set
   (sampling its first token) only when its final chunk commits; pool
   pages grow chunk by chunk as the prompt's KV columns materialize.
   ``prefill_chunk=None`` is the chunk value
   ``model.config.max_seq_len``, not a second scheduler: each prompt
   commits whole in one step — the stall
   ``benchmarks/bench_serving_throughput.py`` quantifies;
4. **retire** — sequences that hit their decode budget release their
   pages immediately, and the freed space backfills from the queue on
   the next iteration.

On the ``exact`` tier any chunk size commits exactly the logits,
caches, and therefore token streams of a solo
:meth:`~repro.nn.transformer.TransformerModel.prefill`, dense and
SpAtten alike; under ``fp32`` / ``int8`` the prompt pass runs in the
tier's compute dtype and chunk sizes agree to the tier's tolerance.
After every step the pool is synced against each executor's real
per-layer cache lengths, so columns evicted by cascade token pruning
drain whole pages back to the free list mid-flight.  Admission modes,
preemption and the stepwise API a cluster driver steps engines through
are narrated in ``docs/serving.md``.

Requests may carry their own cascade schedule
(:attr:`repro.serving.request.Request.pruning`); the engine resolves
and replays it once per request (:meth:`ServingEngine.plan_for`, at
:meth:`~ServingEngine.submit`) into the
:class:`~repro.core.schedule.SequencePlan` on the request's record —
executors, pool reservations, and the cost model all read that plan,
which is what makes heterogeneous traces and schedule-aware cluster
routing possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..config import PruningConfig, QuantConfig
from ..core.pipeline import SpAttenExecutor
from ..core.schedule import SequencePlan
from ..nn.batched_attention import PackedDecodeBackend
from ..nn.numerics import resolve_numerics
from ..nn.transformer import (
    AttentionExecutor,
    DenseExecutor,
    PrefillState,
    TransformerModel,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .degradation import DegradationPolicy
from .memory_pool import KVMemoryPool, PoolExhausted
from .preemption import (
    PreemptionCandidate,
    PreemptionEvent,
    PreemptionPolicy,
)
from .request import (
    INHERIT_PRUNING,
    Request,
    RequestQueue,
    RequestRecord,
    transition,
)
from .stats import CostModel, ServingStats, SimulatedClock

__all__ = [
    "ADMISSION_MODES",
    "LiveSequence",
    "PrefillingSequence",
    "ScheduledSequence",
    "ServingEngine",
]

ADMISSION_MODES = ("reserve", "optimistic")

#: Histogram buckets for simulated step durations (seconds).
STEP_SECONDS_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)
#: Histogram buckets for per-step arithmetic (FLOPs).
STEP_FLOPS_BUCKETS = (
    1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10,
)
#: Gauges and tracer counter tracks are projections of the per-step
#: sample: gauge name -> sample key, track -> {series: sample key}.
STEP_GAUGES = {
    "repro_live_sequences": "live",
    "repro_prefilling_sequences": "prefilling",
    "repro_queued_requests": "queued",
    "repro_pool_allocated_pages": "allocated_pages",
    "repro_pool_reserved_pages": "reserved_pages",
    "repro_pruning_saved_pages": "saved_pages",
}
STEP_TRACKS = {
    "batch": {key: key for key in ("live", "prefilling", "queued")},
    "kv_pool": {key: key for key in (
        "allocated_pages", "reserved_pages", "reclaimed_pages",
        "saved_pages",
    )},
    "step_flops": {"prefill": "prefill_flops", "decode": "decode_flops"},
}


@dataclass
class ScheduledSequence:
    """Base for sequences the scheduler tracks by their request record."""

    record: RequestRecord

    @property
    def request(self) -> Request:
        return self.record.request

    @property
    def seq_id(self) -> int:
        return self.request.request_id


@dataclass
class LiveSequence(ScheduledSequence):
    """A request currently resident in the decode batch."""

    executor: AttentionExecutor
    next_token: int
    next_position: int
    #: Simulated time the sequence last committed a token (drives the
    #: inter-token decode-latency metric, which therefore *includes*
    #: any stall between this sequence's consecutive tokens).
    last_commit_time: float = 0.0


@dataclass
class PrefillingSequence(ScheduledSequence):
    """An admitted request whose prompt is still committing in chunks."""

    state: PrefillState

    @property
    def executor(self) -> AttentionExecutor:
        return self.state.executor


@dataclass
class _EngineRun:
    """What one stepwise run accumulates.  :meth:`ServingEngine.start`
    builds a new one, so a second run inherits nothing from the first."""

    #: ``None`` until the first :meth:`~ServingEngine.start`.
    clock: Optional[SimulatedClock]
    #: Pool corruption events already handled by quarantine; the cheap
    #: per-step guard that keeps the checksum scan off the fault-free
    #: hot path.
    corrupt_seen: int
    #: Submitted records not yet visible to the queue.  Each one's
    #: ``phase_start`` is when the scheduler may first see it: the
    #: arrival time, or the requeue time for a request handed back by a
    #: drained replica (which must not restart in the simulated past).
    pending: List[RequestRecord] = field(default_factory=list)
    records: Dict[int, RequestRecord] = field(default_factory=dict)
    batch_sizes: List[int] = field(default_factory=list)
    occupancy_samples: List[float] = field(default_factory=list)
    #: Every preemption this run, in order (tests assert the livelock
    #: guard on it; reports aggregate from the records).
    preemption_log: List[PreemptionEvent] = field(default_factory=list)
    steps: int = 0
    #: Consecutive pressured steps (degradation ladder trigger).
    pressure_streak: int = 0
    #: Transient straggler factor: every cost-model duration is
    #: multiplied by this before the clock advances.  1.0 (healthy) is
    #: exact in IEEE arithmetic, so a never-slowed run is bit-identical
    #: to one built before the knob existed.  The chaos engine toggles
    #: it over bounded fault windows.
    slowdown: float = 1.0


class ServingEngine:
    """Continuous-batching scheduler + executor over a simulated clock.

    Decoding is greedy (argmax, first of tied maxima): recompute after a
    preemption, quarantine or drain replays a request's stream, which
    only a deterministic choice reproduces token for token.

    Args:
        model: causal transformer shared by every request.
        pool: the KV memory pool enforcing the global byte budget.
        pruning: SpAtten cascade schedule, or ``None`` for the dense
            path.  Also drives the pool's schedule-aware reservations
            and the cost model's schedule-aware prefill charge.
            Individual requests may override it
            (:attr:`~repro.serving.request.Request.pruning`).
        quant: optional progressive quantization for pruned serving.
        prefill_chunk: prompt tokens committed per mixed step, batched
            across requests and interleaved with decode.  ``None``
            (default) means ``model.config.max_seq_len``: every prompt
            commits whole in one step, stalling the live batch for it.
        numerics: numerics ladder tier (``"exact"``, ``"fp32"``, or
            ``"int8"`` — see :mod:`repro.nn.numerics`).  ``"exact"``
            (default) keeps every path bit-identical to the fp64
            oracle; the faster tiers store KV state at a narrower dtype
            and run the decode layer stack in the policy's compute
            dtype under a declared accuracy budget.
        admission: ``"reserve"`` (default) bills every request its
            worst-case schedule-bound reservation for its whole
            lifetime; ``"optimistic"`` admits against actual pool usage
            plus ``headroom_pages`` and relies on preemption under
            pressure (see ``docs/serving.md``).
        preempt_policy: victim selection under pool pressure —
            ``"lowest_priority"``, ``"most_pages"``, or
            ``"latest_arrival"`` (:mod:`repro.serving.preemption`).
            Only consulted in optimistic mode.
        headroom_pages: pages that must stay unbilled for a request to
            be admitted optimistically — slack that absorbs resident
            sequences' decode growth before preemption has to step in
            (0 = fully optimistic).
        name: label for cluster replicas (defaults to ``"engine"``).
        telemetry: :class:`repro.telemetry.Telemetry` sinks this engine
            emits to — request lifecycle spans, pool ledger events, and
            per-step metric samples (see ``docs/serving.md``).  ``None``
            (the default) installs the inert
            :data:`~repro.telemetry.NULL_TELEMETRY`, whose ``active``
            flag short-circuits every emission site before any event is
            built, so a telemetry-off run is bit-identical to one built
            before telemetry existed.
        audit_every: run :meth:`KVMemoryPool.audit` every N engine
            steps (surfaced as the ``repro_pool_audits_total`` counter
            when metrics are on).  ``None`` (default) keeps the PR-5
            behaviour: audits only after preemption cycles.
        deadline_s: per-request time-to-first-admission deadline,
            relative to each request's arrival.  A request still
            queued past its deadline is failed cleanly (``FAILED``,
            reason ``"deadline"``) instead of waiting forever.
            ``None`` (default) disables deadlines.
        degradation: the graceful-degradation ladder
            (:class:`~repro.serving.degradation.DegradationPolicy`):
            under sustained pool pressure the engine sheds best-effort
            queued load and escalates waiting requests to a more
            aggressive cascade schedule before preemption has to step
            in.  ``None`` (default) disables the ladder.
    """

    def __init__(
        self,
        model: TransformerModel,
        pool: KVMemoryPool,
        pruning: Optional[PruningConfig] = None,
        quant: Optional[QuantConfig] = None,
        prefill_chunk: Optional[int] = None,
        numerics: str = "exact",
        admission: str = "reserve",
        preempt_policy: str = "lowest_priority",
        headroom_pages: int = 0,
        name: str = "engine",
        telemetry: Optional[Telemetry] = None,
        audit_every: Optional[int] = None,
        deadline_s: Optional[float] = None,
        degradation: Optional[DegradationPolicy] = None,
    ):
        if not model.config.causal:
            raise ValueError("serving requires a causal (GPT-style) model")
        if prefill_chunk is None:  # one chunk spans any prompt
            prefill_chunk = model.config.max_seq_len
        if prefill_chunk < 1:
            raise ValueError(
                "prefill_chunk must be >= 1, or None for the whole prompt"
            )
        resolved_numerics = resolve_numerics(numerics)
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {admission!r}; choose from "
                f"{ADMISSION_MODES}"
            )
        if headroom_pages < 0:
            raise ValueError("headroom_pages must be >= 0")
        if audit_every is not None and audit_every < 1:
            raise ValueError("audit_every must be >= 1, or None to disable")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive, or None")
        self.model = model
        self.pool = pool
        self.pruning = pruning
        self.quant = quant
        self.cost = CostModel()
        self.prefill_chunk = prefill_chunk
        #: Resolved :class:`~repro.nn.numerics.NumericsPolicy` governing
        #: decode-step compute and KV storage across every executor this
        #: engine creates (see the "Numerics ladder" guide section).
        self.numerics = resolved_numerics
        self.admission = admission
        self.preemption = PreemptionPolicy(preempt_policy)
        self.headroom_pages = int(headroom_pages)
        #: The admission mode, resolved once: which plan column list a
        #: request is billed (its worst-case bounds, or optimistically
        #: its post-prefill floor), the headroom that must stay free on
        #: top, the pool calls that check, open and resize the bill, and
        #: whether a bill can outgrow the pool (preemption's job).
        self._preempts = admission == "optimistic"
        if self._preempts:
            self._billed = attrgetter("token_counts")
            self._headroom = self.headroom_pages
            self._fits = partial(
                pool.can_admit_optimistic, headroom_pages=self._headroom
            )
            self._open = partial(
                pool.admit_optimistic, headroom_pages=self._headroom
            )
            self._resize = pool.try_grow
        else:
            self._billed = attrgetter("kv_bounds")
            self._headroom = 0
            self._fits, self._open = pool.can_admit, pool.admit
            self._resize = pool.sync
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.audit_every = audit_every
        self.deadline_s = deadline_s
        self.degradation = degradation
        #: Decode steps and prompt passes run through one packed backend
        #: at the engine's tier (fused batch-level GEMMs; off the exact
        #: tier the whole layer stack in the tier's compute dtype — see
        #: :mod:`repro.nn.batched_attention`).
        self._backend = PackedDecodeBackend(model, numerics=resolved_numerics)
        self.queue = RequestQueue()
        self.live: List[LiveSequence] = []
        self.prefilling: List[PrefillingSequence] = []
        self._run = _EngineRun(clock=None, corrupt_seen=0)

    @property
    def preemption_log(self) -> List[PreemptionEvent]:
        """Every preemption of the latest run, in order."""
        return self._run.preemption_log

    @property
    def mode(self) -> str:
        return "dense" if self.pruning is None else "spatten"

    # ------------------------------------------------------------------
    # Per-request schedule resolution
    # ------------------------------------------------------------------
    def plan_for(
        self, request: Request, record: Optional[RequestRecord] = None
    ) -> SequencePlan:
        """Replay the cascade schedule this request would run under here.

        A degradation-ladder override on ``record`` (set while the
        request waited under pressure, and carried across cluster
        requeues) wins over the request's own schedule, which wins
        over the engine default (``plan.pruning`` is the resolved
        schedule, ``None`` = dense).  This is the one place the
        serving layer replays a schedule: :meth:`submit` stores the
        result on the record and everything downstream reads it.
        """
        pruning = record.pruning_override if record is not None else None
        if pruning is None:
            pruning = (
                self.pruning if request.pruning is INHERIT_PRUNING
                else request.pruning
            )
        return SequencePlan.build(
            pruning, self.model.config,
            request.prompt_len, request.max_new_tokens,
        )

    def set_slowdown(self, factor: float) -> None:
        """Set the straggler factor (>= 1) scaling every step duration."""
        if not math.isfinite(factor) or factor < 1.0:
            raise ValueError("slowdown factor must be finite and >= 1")
        self._run.slowdown = float(factor)

    def _make_executor(
        self, pruning: Optional[PruningConfig]
    ) -> AttentionExecutor:
        if pruning is not None or self.quant is not None:
            # Thread the pool's page size into the caches so buffer
            # growth and pool-page accounting share one unit.
            return SpAttenExecutor(
                pruning, self.quant, kv_page_tokens=self.pool.page_tokens,
                numerics=self.numerics,
            )
        return DenseExecutor(
            kv_page_tokens=self.pool.page_tokens, numerics=self.numerics
        )

    # ------------------------------------------------------------------
    # Stepwise run API (the cluster driver's hooks)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimulatedClock:
        if self._run.clock is None:
            raise RuntimeError("engine not started: call start() first")
        return self._run.clock

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def has_work(self) -> bool:
        """True while any request is pending, queued, or in flight."""
        return bool(
            self._run.pending or self.queue or self.prefilling or self.live
        )

    def validate_request(self, request: Request, plan: SequencePlan) -> None:
        """Reject a request this engine could never serve under ``plan``.

        Raises ``ValueError`` for context overflow and
        :class:`PoolExhausted` for reservations larger than the whole
        pool.  Called by :meth:`submit`, and by :meth:`run` for every
        request *before* any state mutates, so a bad trace fails fast
        and leaves the engine reusable.
        """
        max_seq_len = self.model.config.max_seq_len
        if request.total_len > max_seq_len:
            raise ValueError(
                f"request {request.request_id} spans {request.total_len} "
                f"tokens (prompt + max_new), model max_seq_len is "
                f"{max_seq_len}"
            )
        # Two bills must fit the whole pool: what admission charges (the
        # mode's column list plus headroom) and — in either mode — the
        # worst-case bound: preemption can evict every *other* sequence,
        # but a lone resident sequence must be able to run to
        # completion.
        need = self.pool.pages_for_lengths(plan.kv_bounds)
        billed = (
            self.pool.pages_for_lengths(self._billed(plan)) + self._headroom
        )
        if max(need, billed) > self.pool.n_pages:
            raise PoolExhausted(
                f"request {request.request_id} needs {need} pages at worst "
                f"and {billed} (headroom included) at admission, pool "
                f"holds {self.pool.n_pages}: it can never be admitted"
            )

    def can_ever_admit(self, request: Request) -> bool:
        """Whether this engine could ever serve the request (routing)."""
        return self.placement_pages_estimate(
            request, self.plan_for(request)
        ) is not None

    def start(self, clock: Optional[SimulatedClock] = None) -> None:
        """Open a stepwise run (fresh clock, empty pending/record state)."""
        if self.has_work:
            raise RuntimeError("engine already running with work in flight")
        # A run reports itself alone: the pool's cumulative counters
        # and the backend's resident rows start over too.
        self.pool.reset_counters()
        self._backend.reset()
        self._run = _EngineRun(
            clock or SimulatedClock(), self.pool.n_corrupt_events
        )
        # Cleared when inert, so a pool a traced engine drove before
        # stops notifying that stale engine.
        self.pool.observer = self if self.telemetry.active else None
        self._backend.profiler = self.telemetry.profiler

    def submit(
        self,
        request: Request,
        record: Optional[RequestRecord] = None,
        available_time: Optional[float] = None,
    ) -> RequestRecord:
        """Deliver one request to this engine's scheduler.

        Replays the request's schedule once (:meth:`plan_for`),
        validates that it can ever be served here (context length,
        worst-case reservation vs. this pool) and stores the plan on
        the record.  ``record`` carries lifecycle state — including a
        degradation-ladder schedule override — across replicas when
        the cluster requeues a drained request; ``available_time``
        delays queue visibility past the arrival time (a requeue must
        not restart in the simulated past).
        """
        if request.request_id in self._run.records:
            raise ValueError(
                f"request {request.request_id} already submitted; "
                f"request_ids must be unique"
            )
        record = record if record is not None else RequestRecord(request)
        plan = self.plan_for(request, record)
        self.validate_request(request, plan)
        record.plan = plan
        self._run.records[request.request_id] = record
        available = (
            request.arrival_time
            if available_time is None
            else max(float(available_time), request.arrival_time)
        )
        self._run.pending.append(record)
        self._transition(
            record, "submitted", available,
            prompt_len=request.prompt_len,
            max_new_tokens=request.max_new_tokens,
            priority=request.priority,
            arrival_time=request.arrival_time,
        )
        return record

    def step(self, horizon: Optional[float] = None) -> float:
        """Run exactly one scheduler iteration; returns the clock delta.

        Ingests every pending request whose availability has passed,
        backfills admissions from the queue, then executes one mixed
        step.  An engine with nothing admitted jumps its clock to the
        next pending arrival — capped at ``horizon``, so a cluster
        driver can stop the jump at the next globally ordered event (an
        arrival it has not routed yet, or a drain).
        """
        clock = self.clock
        before = clock.now
        self._ingest(clock.now)
        # Fault handling before admission: quarantined sequences free
        # pages the queue can use, expired requests must not admit, and
        # the degradation ladder reprunes the head *before* its pages
        # are billed.
        self._quarantine_corrupted(clock)
        self._expire_deadlines(clock)
        self._apply_degradation(clock)
        self._admit_ready(clock)
        if self._preempts and (self.live or self.prefilling):
            self._relieve_pressure(clock)
        if not self.live and not self.prefilling:
            if self._run.pending:
                target = min(r.phase_start for r in self._run.pending)
                if horizon is not None:
                    target = min(target, float(horizon))
                clock.advance_to(target)
                return clock.now - before
            if self.queue:  # pragma: no cover - submit() pre-validation
                raise PoolExhausted("queued request can never be admitted")
            return 0.0
        self._run.batch_sizes.append(len(self.live) + len(self.prefilling))
        self._mixed_step(clock)
        self._run.occupancy_samples.append(self.pool.occupancy)
        return clock.now - before

    def drain(self) -> List[Tuple[Request, RequestRecord]]:
        """Pre-empt every request in flight; return them for re-routing.

        Pending, queued, prefilling, and live requests all come back
        (in that order).  Admitted sequences release their pool pages
        and every record resets to the pre-admission state (the
        ``drained`` lifecycle event) — greedy decoding is deterministic,
        so a request restarted on another replica commits the same
        token stream it would have here.
        Requests already finished on this engine stay in its report.
        """
        now = self.now
        for record in self._run.pending:
            if record.phase_start <= now:
                # Visible but not yet ingested: its queue wait is real,
                # and must tile the timeline for latency attribution.
                self._transition(record, "queued", record.phase_start)
        waiting = [record.request for record in self._run.pending]
        waiting += self.queue.drain()
        resident = self.prefilling + self.live
        self._run.pending, self.prefilling, self.live = [], [], []
        for request in waiting:
            self._transition(
                self._run.records[request.request_id], "drained", now
            )
        for seq in resident:
            self._transition(seq.record, "drained", now)
            self.pool.release(seq.seq_id)
            self._backend.release(seq.executor)
        return [
            (request, self._run.records.pop(request.request_id))
            for request in waiting + [seq.request for seq in resident]
        ]

    def finish(self) -> ServingStats:
        """Build the stats report over the requests this engine served."""
        records = [self._run.records[i] for i in sorted(self._run.records)]
        return ServingStats.from_run(
            mode=self.mode,
            admission=self.admission,
            numerics=self.numerics.name,
            records=records,
            makespan_s=self.clock.now,
            batch_sizes=self._run.batch_sizes,
            occupancy_samples=self._run.occupancy_samples,
            pool_pages=self.pool.n_pages,
            pool_page_tokens=self.pool.page_tokens,
            occupancy_peak=self.pool.peak_allocated_pages / self.pool.n_pages,
            reclaimed_pages=self.pool.reclaimed_pages,
            reclaimed_tokens=self.pool.reclaimed_tokens,
        )

    # ------------------------------------------------------------------
    # Routing cost estimates (used by repro.cluster policies)
    # ------------------------------------------------------------------
    def placement_pages_estimate(
        self, request: Request, plan: SequencePlan
    ) -> Optional[int]:
        """Pages a placement would charge this pool, or ``None`` if never.

        ``plan`` is :meth:`plan_for` of the request *and the record it
        travels with*, so a requeued request is priced at the schedule
        admission will bill.  Feasibility defers entirely to
        :meth:`validate_request` — the same check :meth:`submit` runs
        on the same plan — so the cluster router's filter can never
        accept a replica whose submit would then reject.  A
        non-``None`` result is the exact page bill admission will
        apply: the worst-case schedule-bound reservation in reserve
        mode, the optimistic prompt floor plus headroom in optimistic
        mode.  Note the bill is a per-request quantity: the *load
        sensitivity* of a routing score comes from the backlog terms
        (:meth:`outstanding_flops`, :meth:`outstanding_page_seconds`,
        the shard's free pages), which under optimistic admission read
        reservations that track actual usage.
        """
        try:
            self.validate_request(request, plan)
        except (ValueError, PoolExhausted):
            return None
        return (
            self.pool.pages_for_lengths(self._billed(plan)) + self._headroom
        )

    def request_flops_estimate(self, plan: SequencePlan) -> float:
        """Schedule-bound FLOPs to serve one request end to end.

        Prefill is charged exactly (:meth:`CostModel.prefill_flops` is
        schedule-aware); decode is bounded with the plan's per-layer
        KV caps and the schedule's smallest surviving-head count — an
        upper estimate that preserves the *ordering* between dense and
        heavily pruned requests, which is all placement needs.
        """
        cfg = self.model.config
        prefill = self.cost.prefill_flops(cfg, plan)
        return prefill + plan.max_new_tokens * self.cost.decode_seq_flops(
            cfg, plan.kv_bounds, min(plan.head_counts)
        )

    def _backlog(self) -> Iterator[Tuple[RequestRecord, bool, float]]:
        """``(record, resident, remaining FLOPs)`` of all in-flight work.

        Pending and queued requests owe their full end-to-end estimate,
        prefilling sequences their remaining chunks plus decode budget,
        live sequences their remaining tokens at the executor's *actual*
        live KV lengths and heads.  ``resident``: the pool holds an
        account for the request, so its bill is a ledger read.
        """
        cfg = self.model.config
        queued = [
            self._run.records[request.request_id]
            for request in self.queue.as_ordered_list()
        ]
        for record in self._run.pending + queued:
            yield record, False, self.request_flops_estimate(record.plan)
        for seq in self.prefilling:
            state = seq.state  # never done here: done sequences promote
            plan = seq.record.plan
            yield seq.record, True, self.cost.prefill_chunk_flops(
                cfg, plan, state.n_committed, state.prompt_len,
            ) + plan.max_new_tokens * self.cost.decode_seq_flops(
                cfg, plan.kv_bounds, min(plan.head_counts)
            )
        for seq in self.live:
            remaining = seq.request.max_new_tokens - seq.record.n_generated
            yield seq.record, True, remaining * self.cost.decode_seq_flops(
                cfg, seq.executor.kv_lengths(), seq.executor.n_live_heads
            )

    def outstanding_flops(self) -> float:
        """Estimated arithmetic still owed to every in-flight request
        (the ``pruning_aware`` routing policy's compute backlog)."""
        return sum((flops for _, _, flops in self._backlog()), 0.0)

    def outstanding_page_seconds(self) -> float:
        """Estimated page-holding backlog: pages x seconds still owed.

        Pages are the admission bottleneck, so the router needs more
        than a page *count* — a dense request holding 50 pages for a
        long generation is a different load than a pruned request
        holding 8 pages briefly.  Each in-flight request contributes
        the pages it is (or, still waiting, will be) billed multiplied
        by its remaining service-time estimate.  Divided by the
        shard's page count this is the replica's expected
        page-availability delay.
        """
        pool = self.pool
        rate = self.cost.flops_per_second
        return sum((
            (
                pool.reserved_pages_of(record.request.request_id)
                if resident
                else pool.pages_for_lengths(record.plan.kv_bounds)
            ) * flops / rate
            for record, resident, flops in self._backlog()
        ), 0.0)

    # ------------------------------------------------------------------
    # Scheduling phases
    # ------------------------------------------------------------------
    def _ingest(self, now: float) -> None:
        still_pending: List[RequestRecord] = []
        for record in self._run.pending:
            if record.phase_start <= now:
                # The queue wait starts when the request became
                # visible, not at the step that noticed.
                self._transition(record, "queued", record.phase_start)
                self.queue.push(record.request)
            else:
                still_pending.append(record)
        self._run.pending = still_pending

    def _admit_ready(self, clock: SimulatedClock) -> None:
        """Backfill the live batch from the queue while the pool fits."""
        while self.queue:
            request = self.queue.peek()
            if not self._fits_now(request):
                break  # head-of-line blocking: keep admission order fair
            self.queue.pop()
            self.prefilling.append(self._reserve(request, clock))

    def _fits_now(self, request: Request) -> bool:
        """Admission check for the current mode.

        Reserve mode gates on the worst-case schedule bound; optimistic
        mode gates on the prompt footprint plus headroom against actual
        billed usage — which is what lets pages reclaimed by pruning
        admit new work mid-run instead of idling until a reservation
        retires.
        """
        return self._fits(
            self._billed(self._run.records[request.request_id].plan)
        )

    def _reserve(
        self, request: Request, clock: SimulatedClock
    ) -> PrefillingSequence:
        """Admit: reserve pages and open the resumable prefill.

        No prompt work runs here — the prompt commits chunk by chunk
        inside subsequent mixed steps, so reservation itself costs no
        simulated time and never stalls the live batch.
        """
        record = self._run.records[request.request_id]
        plan = record.plan
        self._open(request.request_id, self._billed(plan))
        self._transition(
            record, "admitted", clock.now,
            bound_pages=self.pool.pages_for_lengths(plan.kv_bounds),
            admission=self.admission,
            billed_pages=self.pool.reserved_pages_of(request.request_id),
        )
        state = self.model.prefill_begin(
            request.prompt_ids, self._make_executor(plan.pruning)
        )
        return PrefillingSequence(record=record, state=state)

    def _promote(
        self,
        seq: PrefillingSequence,
        logits: np.ndarray,
        clock: SimulatedClock,
    ) -> Optional[LiveSequence]:
        """The final prefill chunk landed: pick the first token and
        move the sequence to decode.  Returns the live sequence, or
        ``None`` when a one-token budget retired it on the spot."""
        record = seq.record
        self.pool.finish_prefill(seq.seq_id)
        first = int(np.argmax(logits))
        record.token_ids.append(first)
        self._transition(record, "promoted", clock.now)
        live = LiveSequence(
            record=record,
            executor=seq.state.executor,
            next_token=first,
            next_position=seq.state.prompt_len,
            last_commit_time=clock.now,
        )
        if record.n_generated >= seq.request.max_new_tokens:
            self._retire(live, clock)
            return None
        return live

    def _mixed_step(self, clock: SimulatedClock) -> None:
        """One mixed step: a prefill chunk per admitted-but-not-live
        sequence plus one batched decode step over the live set, all
        charged as a single engine step."""
        cfg = self.model.config
        prefills = list(self.prefilling)
        prefill_flops = sum(
            self.cost.prefill_chunk_flops(
                cfg, seq.record.plan, *seq.state.next_span(self.prefill_chunk)
            )
            for seq in prefills
        )
        decode_batch = list(self.live)
        chunks = (
            ([seq.state for seq in prefills], self.prefill_chunk)
            if prefills else None
        )
        decode_tokens = []
        if decode_batch:
            # Greedy: a recomputed stream must replay the tokens it
            # committed.  The step's prompt chunks ride along.
            decode_tokens = self.model.decode_step_batch(
                [seq.next_token for seq in decode_batch],
                [seq.next_position for seq in decode_batch],
                [seq.executor for seq in decode_batch],
                backend=self._backend, prefill=chunks,
            ).argmax(axis=1).tolist()
        elif chunks:
            self.model.prefill_chunk_batch(*chunks, backend=self._backend)
        chunk_logits = [seq.state.logits for seq in prefills]
        # Each live row's cache lengths are read once: they price the
        # step and are what the pool commits below.
        decode_lengths = [seq.executor.kv_lengths() for seq in decode_batch]
        decode_flops = sum(
            self.cost.decode_seq_flops(cfg, lengths, seq.executor.n_live_heads)
            for seq, lengths in zip(decode_batch, decode_lengths)
        )
        dt = self.cost.mixed_step_time(
            prefill_flops, decode_flops, len(prefills), len(decode_batch),
        ) * self._run.slowdown
        clock.advance(dt)

        # Commit prefill progress; promote sequences whose last chunk
        # just landed.  Promotions join the *next* step's decode batch.
        promoted: List[LiveSequence] = []
        still_prefilling: List[PrefillingSequence] = []
        for seq, logits in zip(prefills, chunk_logits):
            self._commit_chunk(seq)
            if not seq.state.done:
                still_prefilling.append(seq)
                continue
            live = self._promote(seq, logits, clock)
            if live is not None:
                promoted.append(live)
        self.prefilling = still_prefilling

        self.live = self._commit_decode(
            decode_batch, decode_lengths, decode_tokens, clock
        ) + promoted
        self._note_step(
            clock.now, dt, prefill_flops, decode_flops,
            len(prefills), len(decode_batch),
        )

    def _commit_decode(
        self,
        batch: Sequence[LiveSequence],
        kv_lengths: Sequence[List[int]],
        tokens: Sequence[int],
        clock: SimulatedClock,
    ) -> List[LiveSequence]:
        """Record each live sequence's token; retire finishers."""
        still_live: List[LiveSequence] = []
        now = clock.now
        for seq, lengths, token in zip(batch, kv_lengths, tokens):
            self._pool_sync(seq.seq_id, lengths)
            seq.record.token_ids.append(token)
            self._transition(seq.record, "token", now)
            seq.record.preempt_protected = False
            seq.record.token_latencies.append(now - seq.last_commit_time)
            seq.last_commit_time = now
            if seq.record.n_generated >= seq.request.max_new_tokens:
                self._retire(seq, clock)
            else:
                seq.next_token = token
                seq.next_position += 1
                still_live.append(seq)
        return still_live

    def _pool_sync(self, seq_id: int, lengths: List[int]) -> None:
        """Commit real cache lengths to the pool.

        In optimistic mode the commit goes through
        :meth:`KVMemoryPool.try_grow`: the pre-step pressure relief
        projects a strict upper bound on this growth, so a refusal here
        means the projection (not the pool) is broken — surface it
        loudly rather than drop live KV state.
        """
        if not lengths:  # executors without a KV cache have nothing to page
            return
        # sync raises by itself; try_grow answers False when refused.
        if self._resize(seq_id, lengths) is False:
            raise PoolExhausted(
                f"sequence {seq_id} outgrew the pool after pressure "
                f"relief; the step projection under-counted its growth"
            )

    def _commit_chunk(self, seq: PrefillingSequence) -> None:
        """Book a committed chunk: grow the sequence's pool pages to match.

        Incremental executors report real per-layer cache lengths.
        Deferred executors (cascade pruning runs whole-sentence on the
        final chunk) are modeled via the plan's
        :meth:`~repro.core.schedule.SequencePlan.prefix_kv_lengths`
        until their real lengths exist — the two coincide at the final
        chunk.
        Committing a chunk is progress, so the livelock guard lifts.
        """
        seq.record.preempt_protected = False
        state = seq.state
        if state.executor.supports_incremental_prefill or state.done:
            lengths = state.executor.kv_lengths()
        else:
            lengths = seq.record.plan.prefix_kv_lengths(state.n_committed)
        self._pool_sync(seq.seq_id, lengths)

    # ------------------------------------------------------------------
    # Fault handling: quarantine, deadlines, graceful degradation
    # ------------------------------------------------------------------
    def _quarantine_corrupted(self, clock: SimulatedClock) -> None:
        """Detect corrupted KV pages; quarantine and requeue victims.

        Guarded by the pool's corruption-event counter, so the
        checksum scan never runs on the fault-free hot path.  Every
        flagged sequence releases its pages
        (:meth:`KVMemoryPool.quarantine_release`) and requeues for
        recompute from scratch — greedy decoding replays the identical
        stream, so corruption costs latency, never tokens.
        """
        if self.pool.n_corrupt_events == self._run.corrupt_seen:
            return
        report = self.pool.verify_checksums()
        for seq in self.live + self.prefilling:
            if seq.seq_id in report:
                self._evict(
                    seq, "quarantined", self.pool.quarantine_release, clock,
                    corrupted=[list(p) for p in report[seq.seq_id]],
                )
        self._run.corrupt_seen = self.pool.n_corrupt_events
        if report:
            self.pool.audit()

    def _expire_deadlines(self, clock: SimulatedClock) -> None:
        """Fail queued requests whose admission deadline has passed.

        The deadline is time to *first* admission: a request the engine
        admitted in time and then requeued itself (preemption,
        quarantine) is exempt — eviction costs latency, never tokens.
        """
        if self.deadline_s is None or not self.queue:
            return
        now = clock.now
        for request in list(self.queue.as_ordered_list()):
            if now > request.arrival_time + self.deadline_s and not \
                    self._run.records[request.request_id].admitted_before:
                self._fail_request(request, "deadline", now)

    def _apply_degradation(self, clock: SimulatedClock) -> None:
        """Run the shed -> reprune ladder under sustained pressure.

        One rung fires per pressured step: first shed the worst
        best-effort queued request, then (once nothing sheddable
        remains) escalate the head-of-line request's schedule.  The
        existing preemption machinery stays the final backstop.
        """
        policy = self.degradation
        if policy is None:
            return
        if not policy.pressured(
            self.pool.free_reservation_pages, self.pool.n_pages,
            len(self.queue),
        ):
            self._run.pressure_streak = 0
            return
        self._run.pressure_streak += 1
        if self._run.pressure_streak < policy.sustain_steps:
            return
        if self._shed_one(clock):
            return
        self._reprune_head(clock)

    def _shed_one(self, clock: SimulatedClock) -> bool:
        """Fail the worst queued best-effort request; False when none."""
        floor = self.degradation.shed_priority_floor
        candidates = [
            r for r in self.queue.as_ordered_list() if r.priority >= floor
        ]
        if not candidates:
            return False
        # Lowest priority, furthest from service.
        self._fail_request(candidates[-1], "shed", clock.now)
        return True

    def _reprune_head(self, clock: SimulatedClock) -> None:
        """Escalate the head-of-line schedule when that frees pages."""
        escalated = self.degradation.reprune
        if escalated is None or not self.queue:
            return
        request = self.queue.peek()
        record = self._run.records[request.request_id]
        if record.pruning_override is not None:
            return
        plan = SequencePlan.build(
            escalated, self.model.config,
            request.prompt_len, request.max_new_tokens,
        )
        billed = self.pool.pages_for_lengths(record.plan.kv_bounds)
        after = self.pool.pages_for_lengths(plan.kv_bounds)
        if after >= billed:
            return
        record.pruning_override = escalated
        record.plan = plan
        record.degraded = True
        self._transition(
            record, "repruned", clock.now,
            pages_before=billed, pages_after=after,
        )

    def _fail_request(self, request: Request, reason: str, now: float) -> None:
        """Drop one queued request for good (ladder shed, deadline)."""
        self.queue.remove(request)
        self._transition(
            self._run.records[request.request_id], "shed", now,
            reason=reason, priority=request.priority,
        )

    # ------------------------------------------------------------------
    # Preemption (optimistic admission's run-time safety)
    # ------------------------------------------------------------------
    def _step_projections(self) -> Dict[int, List[int]]:
        """Upper-bound per-layer KV lengths after the upcoming step.

        Live sequences append at most one column per layer (pruning can
        only shrink below that), capped at the per-layer schedule bound
        so a sequence at its decode cap never projects past its own
        worst case — which keeps a lone resident sequence's projection
        within the pool no matter how tight the budget.  Prefilling
        sequences commit their next chunk, modeled with the same
        ``prefix_kv_lengths`` cap the pool is billed with (for an
        incremental executor — a dense plan — that is the committed
        prefix in every layer).
        """
        projections: Dict[int, List[int]] = {}
        for seq in self.live:
            projections[seq.seq_id] = [
                min(length + 1, bound)
                for length, bound in zip(
                    seq.executor.kv_lengths(), seq.record.plan.kv_bounds
                )
            ]
        for seq in self.prefilling:
            end = seq.state.next_span(self.prefill_chunk)[1]
            projections[seq.seq_id] = seq.record.plan.prefix_kv_lengths(end)
        return projections

    def _relieve_pressure(self, clock: SimulatedClock) -> None:
        """Preempt victims until the next step's projected growth fits.

        Optimistic admission means reservations no longer bound
        allocations, so before any model work runs the engine projects
        every resident sequence's post-step KV lengths and, while the
        projection overflows the pool, releases a victim's pages and
        requeues it for recompute-on-preempt.  Greedy decoding replays
        an identical stream, so preemption costs latency, never tokens.
        Victims are protected from re-selection until they commit new
        work (livelock guard), and a lone resident sequence is never
        preempted — its worst-case bound fits the whole pool
        (:meth:`validate_request`).  Any preemption ends in a pool audit.
        """
        projections = self._step_projections()
        preempted = False
        while self.pool.pressure_pages(projections) > 0:
            victim = self._select_victim()
            if victim is None:
                raise PoolExhausted(
                    "pool pressure with no preemptable sequence: every "
                    "resident sequence is protected by the livelock "
                    "guard or running alone"
                )
            self._preempt(victim, clock)
            projections.pop(victim.seq_id, None)
            preempted = True
        if preempted:
            self.pool.audit()

    def _select_victim(self) -> Optional[ScheduledSequence]:
        residents: List[ScheduledSequence] = list(self.live)
        residents.extend(self.prefilling)
        if len(residents) <= 1:
            return None
        chosen = self.preemption.select([
            PreemptionCandidate(
                seq_id=seq.seq_id,
                priority=seq.request.priority,
                arrival_time=seq.request.arrival_time,
                # Reserved, not allocated: what the ledger regains —
                # a mid-prefill victim frees its whole promised floor.
                pages=self.pool.reserved_pages_of(seq.seq_id),
                protected=seq.record.preempt_protected,
            )
            for seq in residents
        ])
        if chosen is None:
            return None
        return next(s for s in residents if s.seq_id == chosen.seq_id)

    def _preempt(self, seq: ScheduledSequence, clock: SimulatedClock) -> None:
        pages, work = self._evict(
            seq, "preempted", self.pool.preempt_release, clock,
            policy=self.preemption.policy,
        )
        self._run.preemption_log.append(PreemptionEvent(
            time=clock.now,
            request_id=seq.seq_id,
            pages_freed=pages,
            work_tokens=work,
            policy=self.preemption.policy,
        ))

    def _evict(
        self,
        seq: ScheduledSequence,
        event: str,
        release: Callable[[int], int],
        clock: SimulatedClock,
        **args,
    ) -> Tuple[int, int]:
        """Evict one resident sequence and requeue it here for recompute.

        ``event`` is the requeueing lifecycle event (``preempted`` /
        ``quarantined``) and ``release`` the pool call that frees the
        sequence's account.  Returns ``(pages freed, work tokens
        discarded)``.
        """
        self._backend.release(seq.executor)
        if isinstance(seq, LiveSequence):
            self.live.remove(seq)
            work = seq.request.prompt_len + seq.record.n_generated
        else:
            self.prefilling.remove(seq)
            work = seq.state.n_committed
        pages = release(seq.seq_id)
        self._transition(
            seq.record, event, clock.now,
            pages_freed=pages, work_tokens=work, **args,
        )
        self.queue.push(seq.request)
        return pages, work

    def _retire(self, seq: LiveSequence, clock: SimulatedClock) -> None:
        self.pool.note_reclaimed_tokens(seq.executor.evicted_kv_tokens)
        self.pool.release(seq.seq_id)
        self._backend.release(seq.executor)
        self._transition(
            seq.record, "finished", clock.now,
            n_tokens=seq.record.n_generated,
            n_preemptions=seq.record.n_preemptions,
        )

    # ------------------------------------------------------------------
    # Lifecycle and telemetry
    # ------------------------------------------------------------------
    def _transition(
        self, record: RequestRecord, event: str, now: float, **args
    ) -> None:
        """Apply one ``LIFECYCLE`` event under this engine's sinks and name."""
        transition(record, event, now, self.telemetry, self.name, **args)

    def pool_event(self, kind: str, seq_id: int, **info) -> None:
        """Observer hook the pool calls on ledger mutations.

        Installed by :meth:`start` only when telemetry is active, so an
        inert engine never pays for it (the pool's own guard is a
        single ``is None`` check).
        """
        self.telemetry.instant(
            f"pool_{kind}", self.now, self.name, "pool",
            seq_id=seq_id, **info,
        )
        self.telemetry.count(
            "repro_pool_events_total", engine=self.name, kind=kind
        )

    def _note_step(
        self,
        now: float,
        dt: float,
        prefill_flops: float,
        decode_flops: float,
        n_prefill: int,
        n_decode: int,
    ) -> None:
        """Per-step bookkeeping: periodic audits plus one metrics/trace
        sample.  Runs after the step's commits, so pool gauges reflect
        the post-step ledger."""
        self._run.steps += 1
        tel = self.telemetry
        if self.audit_every and self._run.steps % self.audit_every == 0:
            self.pool.audit()
            tel.count("repro_pool_audits_total", engine=self.name)
        if not tel.active:
            return
        pool = self.pool
        # Pages the cascade schedules have freed vs. their worst case:
        # every resident sequence's schedule-bound reservation minus the
        # pages actually backing live columns.
        bound = sum(
            pool.pages_for_lengths(seq.record.plan.kv_bounds)
            for seq in self.live + self.prefilling
        )
        sample = {
            "t": now,
            "engine": self.name,
            "step_seconds": dt,
            "step_flops": prefill_flops + decode_flops,
            "prefill_flops": prefill_flops,
            "decode_flops": decode_flops,
            "live": n_decode,
            "prefilling": n_prefill,
            "queued": len(self.queue) + len(self._run.pending),
            "allocated_pages": pool.allocated_pages,
            "reserved_pages": pool.reserved_pages,
            "reclaimed_pages": pool.reclaimed_pages,
            "saved_pages": max(0, bound - pool.allocated_pages),
        }
        tel.count("repro_steps_total", engine=self.name)
        tel.count(
            "repro_numerics_steps_total",
            engine=self.name, numerics=self.numerics.name,
        )
        if tel.metrics is not None:
            m = tel.metrics
            m.histogram(
                "repro_step_seconds", STEP_SECONDS_BUCKETS,
                engine=self.name,
            ).observe(dt)
            m.histogram(
                "repro_step_flops", STEP_FLOPS_BUCKETS, engine=self.name,
            ).observe(sample["step_flops"])
            for gauge, key in STEP_GAUGES.items():
                m.gauge(gauge, engine=self.name).set(sample[key])
            m.record_sample(
                {**sample, "backlog_flops": self.outstanding_flops()}
            )
        if tel.tracer is not None:
            for track, series in STEP_TRACKS.items():
                tel.tracer.counter(
                    track, now, self.name,
                    **{name: sample[key] for name, key in series.items()},
                )

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ServingStats:
        """Serve a whole arrival trace to completion; returns the stats."""
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request_ids must be unique")
        for request in requests:
            self.validate_request(request, self.plan_for(request))
        self.start()
        for request in sorted(
            requests, key=lambda r: (r.arrival_time, r.request_id)
        ):
            self.submit(request)
        while self.has_work:
            self.step()
        return self.finish()

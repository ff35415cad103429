"""Multi-replica serving: N engines on parallel simulated timelines.

The :class:`ClusterEngine` runs one :class:`~repro.serving.engine.
ServingEngine` per replica, each over its own simulated clock (replicas
execute in parallel wall-time, so their timelines advance
independently), and merges four globally ordered event streams:

* **arrivals** — each request is routed at its arrival time by the
  :class:`~repro.cluster.router.ClusterRouter` policy, observing every
  replica's pool and backlog state at that moment;
* **replica steps** — the replica whose local clock is furthest behind
  executes its next scheduler iteration; idle replicas jump forward,
  capped at the next global event so no replica leapfrogs an arrival
  or drain it should have witnessed;
* **faults** — a validated, time-ordered schedule of
  :class:`~repro.faults.FaultEvent` records.  Each one is a row of
  :data:`repro.faults.REPLICA_LIFECYCLE`, which states what the event
  needs of the replica, what it does to the replica's record and its
  shard's ledger membership, and what it emits;
  :func:`~repro.faults.replica_transition` applies the row and this
  engine runs the work the row names (hand the replica's requests
  back to the router, rejoin, stretch its steps, strike a KV page).
  Requeued records reset to their pre-admission state; greedy decoding
  is deterministic, so they commit the same token streams on their new
  replica and the penalty lands in the queue-wait and TTFT tails;
* **retries** — a request that fits *no active replica* right now is
  retried with exponential backoff while retry budget and deadline
  remain (the ``retry`` row of the request lifecycle) and re-routes at
  its scheduled time, observing any replica that recovered in the
  interim; otherwise it fails cleanly — ``route_failed``, its pages
  already back in the ledger — and the run completes with the failure
  counted instead of dead-looping or crashing mid-flight.

When a heartbeat timeout is configured, a
:class:`~repro.faults.HeartbeatMonitor` watches per-replica step
activity on the simulated clock and opens the circuit breaker of
suspected-stale replicas (the ``breaker_open`` / ``breaker_close``
rows), which the router avoids while any healthy candidate exists.

Replicas forward the engine's admission mode: with
``admission="optimistic"`` every replica admits against its shard's
*actual* usage plus headroom and preempts under pressure
(recompute-on-preempt; see :mod:`repro.serving.preemption`).  The
router prices each placement with the per-request bill that mode will
actually charge (:meth:`~repro.serving.engine.ServingEngine.
placement_pages_estimate`), while its load terms — free reservation
pages, outstanding page-seconds — read per-sequence reservations that
under optimistic admission track actual usage.

With one replica and no drains, the event loop degenerates to exactly
the plain engine's ``run()`` (which is itself built on the same
stepwise hooks): same admissions, same clock advances, same tokens,
same stats.  ``tests/test_cluster.py`` asserts this field by field.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import PruningConfig, QuantConfig
from ..faults import (
    REPLICA_LIFECYCLE,
    FaultEvent,
    HeartbeatMonitor,
    replica_transition,
    validate_fault_events,
)
from ..nn.transformer import TransformerModel
from ..serving.degradation import DegradationPolicy
from ..serving.engine import ServingEngine
from ..serving.memory_pool import PoolExhausted
from ..serving.request import (
    Request,
    RequestRecord,
    emit_row,
    transition,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .router import Replica, ClusterRouter
from .sharded_pool import ShardedKVPool
from .stats import ClusterStats

__all__ = ["ClusterEngine"]


@dataclass
class _FleetRun:
    """What one :meth:`ClusterEngine.run` accumulates.  Built per run —
    the replica records at the phases the ledger holds them in — so a
    second run can inherit nothing from the first."""

    replicas: List[Replica]
    monitor: Optional[HeartbeatMonitor]
    #: Pending placement retries as a ``(retry_at, request_id, request,
    #: record)`` min-heap (ids are unique, so ordering never compares
    #: payloads).
    retries: List[tuple] = field(default_factory=list)
    #: Request ids failed cleanly because no surviving replica could
    #: ever hold their reservation (mid-run drains strand work that
    #: admission-time validation accepted).
    failed_requests: List[int] = field(default_factory=list)
    #: Simulated time of the event being processed (the router's
    #: observer callback has no time argument of its own).
    event_time: float = 0.0
    #: Replica steps so far; the periodic global audit runs on it.
    steps: int = 0


class ClusterEngine:
    """Route a shared arrival trace across N serving-engine replicas.

    Args:
        model: causal transformer shared by every replica.
        pool: the sharded KV pool (one shard per replica).
        policy: routing policy name (:class:`ClusterRouter`).
        pruning: fleet-default cascade schedule (requests may override
            per-request via :attr:`~repro.serving.request.Request.
            pruning`).
        quant / prefill_chunk / admission / numerics / preempt_policy /
        headroom_pages:
            forwarded to every replica's engine, identical semantics
            to :class:`~repro.serving.engine.ServingEngine`.  The
            ``numerics`` tier is fleet-wide: every replica runs the
            same rung of the ladder, and the fleet report carries it.
            Replicas decode greedily, so a request requeued off a
            drained or failed replica replays its stream elsewhere.
        faults: the run's fault schedule, a sequence of
            :class:`~repro.faults.FaultEvent` in any order (hand-written,
            or a :class:`~repro.faults.FaultPlan`'s ``events``),
            validated as one event sequence by
            :func:`repro.faults.validate_fault_events`.
        heartbeat_timeout_s: enable heartbeat failure detection — a
            replica whose last observed step activity lags the routing
            clock by more than this has its circuit breaker opened
            until it is seen alive again.  ``None`` (default) disables
            the detector.
        deadline_s: per-request deadline, measured from arrival on the
            simulated clock.  Forwarded to every replica engine (a
            queued request past its deadline fails cleanly instead of
            admitting) and enforced on the cluster retry path (a retry
            that would fire past the deadline fails the request).
        retry_budget: placement retries granted to a request that
            momentarily fits no active replica (fleet-wide crash,
            every shard full).  Each retry backs off exponentially
            from ``retry_backoff_s``; exhaustion fails the request
            cleanly — never a dead loop.  0 (default) preserves
            fail-immediately semantics.
        retry_backoff_s: base backoff delay; retry ``k`` fires
            ``retry_backoff_s * 2**(k-1)`` after the failed attempt.
        degradation: graceful-degradation ladder forwarded to every
            replica engine (shed best-effort load, then escalate
            queued head-of-line requests to a more aggressive cascade
            schedule, before the preemption backstop).
        telemetry: shared :class:`repro.telemetry.Telemetry` sinks.
            Every replica engine emits into the same tracer/registry
            under its own ``replicaN`` process name; the cluster adds
            fleet-level events — scored router decisions, the replica
            lifecycle's instants, global occupancy counters — under
            the ``fleet`` process.  ``None`` (default) is fully inert.
        audit_every: run the *global* ledger audit
            (:meth:`ShardedKVPool.audit`) every N replica step events,
            surfaced as ``repro_pool_audits_total{engine="fleet"}``.
            Replica engines keep their default audit behaviour.
    """

    def __init__(
        self,
        model: TransformerModel,
        pool: ShardedKVPool,
        policy: str = "round_robin",
        pruning: Optional[PruningConfig] = None,
        quant: Optional[QuantConfig] = None,
        prefill_chunk: Optional[int] = None,
        admission: str = "reserve",
        numerics: str = "exact",
        preempt_policy: str = "lowest_priority",
        headroom_pages: int = 0,
        faults: Sequence[FaultEvent] = (),
        heartbeat_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        retry_budget: int = 0,
        retry_backoff_s: float = 0.05,
        degradation: Optional[DegradationPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        audit_every: Optional[int] = None,
    ):
        if audit_every is not None and audit_every < 1:
            raise ValueError("audit_every must be >= 1, or None to disable")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if retry_backoff_s <= 0:
            raise ValueError("retry_backoff_s must be positive")
        self.model = model
        self.pool = pool
        self.admission = admission
        self.numerics = numerics
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.audit_every = audit_every
        self.router = ClusterRouter(
            policy, observer=self if self.telemetry.active else None
        )
        self._engines = [
            ServingEngine(
                model,
                pool.shard(i),
                pruning=pruning,
                quant=quant,
                prefill_chunk=prefill_chunk,
                admission=admission,
                numerics=numerics,
                preempt_policy=preempt_policy,
                headroom_pages=headroom_pages,
                deadline_s=deadline_s,
                degradation=degradation,
                name=f"replica{i}",
                telemetry=telemetry,
            )
            for i in range(pool.n_replicas)
        ]
        self._fault_events = validate_fault_events(faults, pool.n_replicas)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.deadline_s = deadline_s
        self.retry_budget = retry_budget
        self.retry_backoff_s = retry_backoff_s
        self._run = self._open_run()

    def _open_run(self) -> _FleetRun:
        monitor = None
        if self.heartbeat_timeout_s is not None:
            monitor = HeartbeatMonitor(self.heartbeat_timeout_s)
            for i in range(self.pool.n_replicas):
                monitor.note_alive(i, 0.0)
        return _FleetRun(
            replicas=[
                Replica(
                    index=i, phase=self.pool.phase(i), engine=engine,
                    shard=self.pool.shard(i),
                )
                for i, engine in enumerate(self._engines)
            ],
            monitor=monitor,
        )

    @property
    def replicas(self) -> List[Replica]:
        """The fleet, with the latest run's lifecycle records."""
        return self._run.replicas

    @property
    def failed_requests(self) -> List[int]:
        return self._run.failed_requests

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ClusterStats:
        """Serve a whole arrival trace across the fleet; returns stats."""
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request_ids must be unique")
        run = self._run = self._open_run()
        max_seq_len = self.model.config.max_seq_len
        for request in requests:
            if request.total_len > max_seq_len:
                raise ValueError(
                    f"request {request.request_id} spans "
                    f"{request.total_len} tokens (prompt + max_new), model "
                    f"max_seq_len is {max_seq_len}"
                )
            if not any(
                replica.engine.can_ever_admit(request)
                for replica in run.replicas if replica.phase == "active"
            ):
                raise PoolExhausted(
                    f"request {request.request_id} fits no replica shard: "
                    f"it can never be admitted anywhere"
                )
        records: Dict[int, RequestRecord] = {
            r.request_id: RequestRecord(r) for r in requests
        }
        for replica in run.replicas:
            replica.engine.start()

        arrivals = deque(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        )
        faults = deque(self._fault_events)
        occupancy_samples: List[float] = []
        occupancy_peak = 0.0
        last_event_time = 0.0
        inf = math.inf

        # Global event precedence on time ties: fault <= retry <=
        # arrival <= step.  Faults fire first so a retry or arrival at
        # the same instant already sees the new fleet shape; steps go
        # last so no replica leapfrogs an event it should witness.
        while True:
            busy = [r for r in run.replicas if r.engine.has_work]
            if (not arrivals and not faults and not run.retries
                    and not busy):
                break
            t_fault = faults[0].time if faults else inf
            t_retry = run.retries[0][0] if run.retries else inf
            t_arrival = arrivals[0].arrival_time if arrivals else inf
            t_step = min(r.engine.now for r in busy) if busy else inf

            if t_fault <= t_retry and t_fault <= t_arrival \
                    and t_fault <= t_step:
                # Fault events are administrative: they must not
                # advance any clock or stretch the makespan (requeued
                # work extends the *receiving* replicas' timelines
                # instead), so they fire even after all work finished.
                self._fire_fault(faults.popleft())
            elif t_retry <= t_arrival and t_retry <= t_step:
                t, _rid, request, record = heapq.heappop(run.retries)
                self._route(request, record, available=t)
                last_event_time = max(last_event_time, t)
            elif t_arrival <= t_step:
                request = arrivals.popleft()
                self._route(
                    request, records[request.request_id],
                    available=request.arrival_time,
                )
                last_event_time = max(last_event_time, request.arrival_time)
            else:
                horizon = min(t_arrival, t_fault, t_retry)
                replica = min(busy, key=lambda r: (r.engine.now, r.index))
                step_start = replica.engine.now
                replica.engine.step(
                    horizon=None if horizon == inf else horizon
                )
                if run.monitor is not None:
                    run.monitor.note_step(
                        replica.index, step_start, replica.engine.now
                    )
                occ = self.pool.global_occupancy
                occupancy_samples.append(occ)
                occupancy_peak = max(occupancy_peak, occ)
                last_event_time = max(last_event_time, replica.engine.now)
                self._note_fleet_step(replica.engine.now)

        self.pool.audit()
        replica_stats = [r.engine.finish() for r in run.replicas]
        makespan = max(
            [last_event_time] + [r.engine.now for r in run.replicas]
        )
        ordered = [records[i] for i in sorted(records)]
        return ClusterStats.from_run(
            policy=self.router.policy,
            admission=self.admission,
            numerics=self.numerics,
            records=ordered,
            replicas=run.replicas,
            replica_stats=replica_stats,
            makespan_s=makespan,
            global_occupancy_samples=occupancy_samples,
            global_occupancy_peak=occupancy_peak,
            pool=self.pool,
        )

    # ------------------------------------------------------------------
    def _route(
        self,
        request: Request,
        record: RequestRecord,
        available: float,
    ) -> None:
        """Place one request on an active replica, or retry / fail it.

        When no active replica can hold the request right now (every
        fitting shard was drained mid-run, or the whole fleet retired)
        and retry budget is left — and the next backoff lands inside
        the deadline, if any — the placement is re-attempted then, so
        work displaced by a crash can land on a replica that recovers
        in the meantime.  Otherwise the request fails cleanly: its
        pages are already back in the ledger — a drain releases before
        requeueing — so the record is marked FAILED and kept for the
        report, the ledger audit stays clean, and the event loop moves
        on instead of raising with other requests still in flight.
        """
        run, tel = self._run, self.telemetry
        run.event_time = available
        if run.monitor is not None:
            self._update_breaker(available)
        try:
            replica = self.router.choose(request, run.replicas, record)
        except PoolExhausted:
            replica = None
        if replica is not None:
            replica.engine.submit(request, record, available_time=available)
            return
        reason = "retry_budget" if self.retry_budget else "unplaceable"
        if record.n_retries < self.retry_budget:
            retry_at = available + (
                self.retry_backoff_s * 2.0 ** record.n_retries
            )
            deadline = (
                request.arrival_time + self.deadline_s
                if self.deadline_s is not None else math.inf
            )
            if retry_at <= deadline:
                heapq.heappush(
                    run.retries,
                    (retry_at, request.request_id, request, record),
                )
                transition(
                    record, "retry", available, tel, "fleet",
                    request_id=request.request_id,
                    attempt=record.n_retries + 1, retry_at=retry_at,
                )
                return
            reason = "deadline"
        # An unplaced request holds no open span (it belongs to no
        # replica queue); latency attribution books its whole life as
        # retry backoff up to the route_failed instant.
        transition(
            record, "route_failed", available, tel, "fleet",
            request_id=request.request_id, reason=reason,
            arrival_time=request.arrival_time,
        )
        run.failed_requests.append(request.request_id)

    def _update_breaker(self, t: float) -> None:
        """Reconcile the replicas' circuit breakers at routing time.

        A replica is suspected when it has work in flight but its last
        observed step activity lags ``t`` by more than the heartbeat
        timeout — the signature of a straggler deep inside one
        stretched step.  Idle replicas are never suspected (no work,
        no heartbeat to miss).
        """
        run = self._run
        suspected = {
            r.index for r in run.replicas
            if r.phase == "active" and r.engine.has_work
            and run.monitor.suspected(r.index, t)
        }
        for event, state in (("breaker_open", "open"),
                             ("breaker_close", "closed")):
            for replica in run.replicas:
                wanted = "open" if replica.index in suspected else "closed"
                if wanted == state and replica.breaker != state:
                    self._fire(replica, event, t)

    # ------------------------------------------------------------------
    # Replica lifecycle: the table's writer, then the work a row names
    # ------------------------------------------------------------------
    def _fire_fault(self, event: FaultEvent) -> None:
        """Fire one scheduled fault at its simulated time."""
        self._run.event_time = event.time
        self._fire(self.replicas[event.replica], event.kind, event.time, event)

    def _fire(
        self, replica: Replica, event: str, now: float,
        fault: Optional[FaultEvent] = None,
    ) -> None:
        """Apply one ``REPLICA_LIFECYCLE`` row: its writer moves the
        replica's record and ledger membership (or raises, nothing
        touched), then the engine-side work the row names runs and
        emits the row — a row that names none is emitted as it is."""
        row = replica_transition(
            replica, event, now, self.telemetry, self.pool
        )
        if row.effect is None:
            self._emit(replica, event, now)
        else:
            getattr(self, f"_{row.effect}")(replica, fault)

    def _emit(
        self, replica: Replica, event: str, at: float, amount: float = 1.0,
        **args,
    ) -> None:
        row = REPLICA_LIFECYCLE[event]
        emit_row(
            row, at, self.telemetry, "fleet", row.track,
            {"replica": replica.index, **args}, amount, kind=event,
        )

    def _hand_back(self, replica: Replica, event: FaultEvent) -> None:
        """A drain or fail: requeue what the replica had in flight.

        The shard left the active set *before* the requeue is routed,
        so none of the displaced requests can land back on it.  Requeue
        availability is ``max(t, replica clock)`` — a replica already
        mid-step past ``t`` hands its work over when that step would
        have been interrupted, never in the simulated past.  The
        drained replica's own clock is left untouched: a retire event
        landing after its work finished must not inflate its makespan
        (the event loop only fires a retire once every *busy* replica
        clock has reached ``t``, so a replica with work in flight is
        already at or past the drain time).
        """
        requeued = replica.engine.drain()
        replica.n_requeued += len(requeued)
        available = max(event.time, replica.engine.now)
        self._emit(
            replica, event.kind, available, len(requeued),
            n_requeued=len(requeued),
        )
        for request, record in requeued:
            self._route(request, record, available=available)

    def _rejoin(self, replica: Replica, event: FaultEvent) -> None:
        """A recover: the (empty) shard re-registered with the ledger
        and the router may place new work on the replica immediately.

        The engine is *not* restarted: its records, counters, and clock
        survive the downtime, so the replica's own report spans the
        whole run, and an idle rejoined clock does not stretch the
        makespan (new work jumps it forward exactly like any idle
        replica).
        """
        if self._run.monitor is not None:
            self._run.monitor.note_alive(replica.index, event.time)
        (down, _), (up, _) = replica.history[-2:]
        self._emit(replica, event.kind, up, downtime_s=round(up - down, 9))

    def _set_pace(self, replica: Replica, event: FaultEvent) -> None:
        """A straggler window opens (the event's factor stretches every
        step of the replica) or closes (factor 1)."""
        factor = event.factor if replica.pace == "slowed" else 1.0
        replica.engine.set_slowdown(factor)
        self._emit(replica, event.kind, event.time, factor=factor)

    def _strike(self, replica: Replica, event: FaultEvent) -> None:
        """Flip one stored KV-page checksum on the replica's shard.

        The victim is chosen deterministically from the event's
        ``u_seq``/``u_page`` coordinates over the sequences (sorted by
        id) and pages resident when the event fires; an empty or
        retired shard makes the strike a no-op.  Detection is the
        owning engine's job: its next step sees the pool's corruption
        counter move, verifies checksums, and quarantines + recomputes
        the victim (see ``ServingEngine._quarantine_corrupted``).
        """
        shard = replica.shard
        seqs = sorted(shard.tracked_sequences)
        pairs = []
        if replica.phase == "active" and seqs:
            seq_id = seqs[int(event.u_seq * len(seqs))]
            pairs = [
                (layer, page)
                for layer, n_pages in enumerate(
                    shard.allocated_pages_per_layer(seq_id)
                )
                for page in range(n_pages)
            ]
        if not pairs:
            return self._fire(replica, "corrupt_noop", event.time)
        layer, page = pairs[int(event.u_page * len(pairs))]
        shard.corrupt_page(seq_id, layer, page)
        self._emit(
            replica, event.kind, event.time,
            seq_id=seq_id, layer=layer, page=page,
        )

    # ------------------------------------------------------------------
    # Fleet telemetry (router observer hook + step samples)
    # ------------------------------------------------------------------
    def route_decision(self, request: Request, scored, chosen) -> None:
        """Observer hook the router calls with its scored candidates.

        ``scored`` is ``(replica, pages_estimate, score)`` per active
        candidate; the score is the policy's sort key (``None`` for
        round-robin).  Recorded under the ``fleet`` process so a trace
        shows *why* each request landed where it did.
        """
        scores = {
            f"replica{r.index}": (
                est if score is None else round(float(score), 9)
            )
            for r, est, score in scored
        }
        self.telemetry.instant(
            "routed", self._run.event_time, "fleet", "router",
            request_id=request.request_id, chosen=chosen.index,
            policy=self.router.policy, **scores,
        )
        self.telemetry.count(
            "repro_requests_routed_total", engine="fleet",
            replica=str(chosen.index),
        )

    def _note_fleet_step(self, now: float) -> None:
        """Per-replica-step fleet bookkeeping: periodic global audit
        plus a fleet-wide pool counter sample."""
        run, tel = self._run, self.telemetry
        run.event_time = now
        run.steps += 1
        if self.audit_every and run.steps % self.audit_every == 0:
            self.pool.audit()
            tel.count("repro_pool_audits_total", engine="fleet")
        if tel.tracer is not None:
            tel.tracer.counter(
                "fleet_pool", now, "fleet",
                allocated_pages=self.pool.allocated_pages,
                reserved_pages=self.pool.reserved_pages,
                reclaimed_pages=self.pool.reclaimed_pages,
                active_replicas=self.pool.n_active,
            )
        if tel.metrics is not None:
            tel.metrics.gauge(
                "repro_pool_allocated_pages", engine="fleet"
            ).set(self.pool.allocated_pages)
            tel.metrics.gauge(
                "repro_active_replicas", engine="fleet"
            ).set(self.pool.n_active)

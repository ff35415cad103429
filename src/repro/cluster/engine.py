"""Multi-replica serving: N engines on parallel simulated timelines.

The :class:`ClusterEngine` runs one :class:`~repro.serving.engine.
ServingEngine` per replica, each over its own simulated clock (replicas
execute in parallel wall-time, so their timelines advance
independently), and merges three globally ordered event streams:

* **arrivals** — each request is routed at its arrival time by the
  :class:`~repro.cluster.router.ClusterRouter` policy, observing every
  replica's pool and backlog state at that moment;
* **replica steps** — the replica whose local clock is furthest behind
  executes its next scheduler iteration; idle replicas jump forward,
  capped at the next global event so no replica leapfrogs an arrival
  or drain it should have witnessed;
* **faults** — a validated, time-ordered schedule of
  :class:`~repro.faults.FaultEvent` records (scripted ``drain`` /
  ``fail`` / ``recover`` events plus an optional seeded
  :class:`~repro.faults.FaultPlan`).  At a drain/fail the replica's
  shard leaves the active set and everything it had in flight (queued,
  prefilling, *and* live sequences) releases its pages and re-routes
  through the router.  Records reset to their pre-admission state;
  greedy decoding is deterministic, so requeued requests commit the
  same token streams on their new replica, and the drain penalty lands
  where it belongs — in the queue-wait and TTFT tails.  A ``recover``
  re-registers the (empty) shard with the ledger and the replica takes
  traffic again; ``slow_start``/``slow_end`` bracket a transient
  straggler window (the replica's step times stretch by the event's
  factor); ``corrupt`` flips a stored KV-page checksum on the target
  shard — the owning engine detects the mismatch on its next step and
  quarantines + recomputes the sequence.  A requeued (or
  late-arriving) request that fits *no surviving replica* —
  admission-time validation only saw the replicas alive at start — is
  retried with exponential backoff while retry budget and deadline
  remain, then failed cleanly: its record is marked
  :attr:`~repro.serving.request.RequestStatus.FAILED`, its pages are
  already back in the ledger (the drain released them), and the run
  completes with the failure counted instead of dead-looping or
  crashing mid-flight;
* **retries** — placements deferred by the bounded
  retry-with-backoff path above fire at their scheduled time, re-route
  through the router, and observe any replicas that recovered in the
  interim (the self-healing path: crash -> requeue -> backoff ->
  rejoin -> placement succeeds).

When a heartbeat timeout is configured, a
:class:`~repro.faults.HeartbeatMonitor` watches per-replica step
activity on the simulated clock and the router's circuit breaker
(:attr:`~repro.cluster.router.ClusterRouter.breaker_open`) steers new
placements away from suspected-stale replicas — e.g. a straggler deep
inside a stretched step — while they lag, without ever blocking
placement when every candidate is suspected.

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
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PruningConfig, QuantConfig
from ..faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HeartbeatMonitor,
    validate_fault_events,
)
from ..nn.transformer import TransformerModel
from ..serving.degradation import DegradationPolicy
from ..serving.engine import ServingEngine
from ..serving.memory_pool import PoolExhausted
from ..serving.request import (
    Request,
    RequestRecord,
    RequestStatus,
    transition,
)
from ..serving.stats import CostModel
from ..telemetry import NULL_TELEMETRY, Telemetry
from .router import Replica, ClusterRouter
from .sharded_pool import ShardedKVPool
from .stats import ClusterStats

__all__ = ["ClusterEngine"]


class ClusterEngine:
    """Route a shared arrival trace across N serving-engine replicas.

    Args:
        model: causal transformer shared by every replica.
        pool: the sharded KV pool (one shard per replica).
        policy: routing policy name, or pass a ready
            :class:`ClusterRouter` via ``router``.
        pruning: fleet-default cascade schedule (requests may override
            per-request via :attr:`~repro.serving.request.Request.
            pruning`).
        quant / cost_model / prefill_chunk / admission / numerics /
        preempt_policy / headroom_pages / sampler:
            forwarded to every replica's engine, identical semantics
            to :class:`~repro.serving.engine.ServingEngine`.  The
            ``numerics`` tier is fleet-wide: every replica runs the
            same rung of the ladder, and the fleet report carries it.
        drain_events: ``(time, replica_index)`` pairs — the replica is
            gracefully drained at that simulated time.
        fail_events: like ``drain_events`` but flags the replica as
            failed in the fleet report (ledger semantics identical:
            pages must return via requeue either way).
        recover_events: ``(time, replica_index)`` pairs — a previously
            drained/failed replica rejoins the fleet at that time.
            The combined schedule is validated as one event sequence
            (:func:`repro.faults.validate_fault_events`): drain ->
            recover -> fail on one replica is legal, overlapping
            retire events without an intervening recover are not.
        fault_plan: a seeded :class:`~repro.faults.FaultPlan` merged
            into the scripted events (crashes, recoveries, straggler
            windows, KV-page corruption strikes).
        heartbeat_timeout_s: enable heartbeat failure detection — a
            replica whose last observed step activity lags the routing
            clock by more than this opens its circuit breaker in the
            router until it is seen alive again.  ``None`` (default)
            disables the detector.
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
            fleet-level events — scored router decisions, ledger
            drain/fail transitions, global occupancy counters — under
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
        cost_model: Optional[CostModel] = None,
        prefill_chunk: Optional[int] = None,
        admission: str = "reserve",
        numerics: str = "exact",
        preempt_policy: str = "lowest_priority",
        headroom_pages: int = 0,
        sampler=None,
        router: Optional[ClusterRouter] = None,
        drain_events: Sequence[Tuple[float, int]] = (),
        fail_events: Sequence[Tuple[float, int]] = (),
        recover_events: Sequence[Tuple[float, int]] = (),
        fault_plan: Optional[FaultPlan] = None,
        heartbeat_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        retry_budget: int = 0,
        retry_backoff_s: float = 0.05,
        degradation: Optional[DegradationPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        audit_every: Optional[int] = None,
        slo: Optional[object] = None,
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
        #: Optional SLO policy (:class:`repro.insight.SLOPolicy`), held
        #: by duck type (no import edge on the analysis layer) and
        #: evaluated read-only over the fleet's pooled records at the
        #: end of :meth:`run` — per-replica stats deliberately carry no
        #: SLO verdicts, a partial fleet view would misattribute them.
        self.slo = slo
        self.router = router if router is not None else ClusterRouter(policy)
        # Cleared when inert, so a router / ledger a traced engine drove
        # before stops notifying that stale engine.
        observer = self if self.telemetry.active else None
        self.router.observer = observer
        self.pool.observer = observer
        self.replicas: List[Replica] = [
            Replica(
                index=i,
                engine=ServingEngine(
                    model,
                    pool.shard(i),
                    pruning=pruning,
                    quant=quant,
                    cost_model=cost_model,
                    sampler=sampler,
                    prefill_chunk=prefill_chunk,
                    admission=admission,
                    numerics=numerics,
                    preempt_policy=preempt_policy,
                    headroom_pages=headroom_pages,
                    deadline_s=deadline_s,
                    degradation=degradation,
                    name=f"replica{i}",
                    telemetry=telemetry,
                ),
                shard=pool.shard(i),
            )
            for i in range(pool.n_replicas)
        ]
        events = [
            FaultEvent(float(t), int(idx), "drain")
            for t, idx in drain_events
        ]
        events += [
            FaultEvent(float(t), int(idx), "fail") for t, idx in fail_events
        ]
        events += [
            FaultEvent(float(t), int(idx), "recover")
            for t, idx in recover_events
        ]
        if fault_plan is not None:
            if fault_plan.n_replicas != pool.n_replicas:
                raise ValueError(
                    f"fault plan spans {fault_plan.n_replicas} replicas, "
                    f"fleet has {pool.n_replicas}"
                )
            events += list(fault_plan.events)
        self._fault_events = validate_fault_events(events, pool.n_replicas)
        self.deadline_s = deadline_s
        self.retry_budget = retry_budget
        self.retry_backoff_s = retry_backoff_s
        self._monitor = (
            HeartbeatMonitor(heartbeat_timeout_s)
            if heartbeat_timeout_s is not None else None
        )
        self.n_requeued = 0
        self.n_recovered = 0
        #: Crash-to-rejoin repair times (``recover`` minus the matching
        #: retire), for the fleet MTTR report.
        self._mttr_samples: List[float] = []
        self._down_since: Dict[int, float] = {}
        #: ``(time, n_active)`` change points of the active-replica
        #: count, integrated into the availability metric at the end
        #: of the run (segments past the makespan are clamped off).
        self._activity_timeline: List[Tuple[float, int]] = []
        #: Pending placement retries as a ``(retry_at, request_id,
        #: request, record)`` min-heap (ids are unique, so ordering
        #: never compares payloads).
        self._retries: List[tuple] = []
        # Fleet telemetry bookkeeping: the simulated time of the event
        # being processed (router/ledger observer callbacks have no
        # time argument of their own) and the replica-step counter the
        # periodic global audit runs on.
        self._event_time = 0.0
        self._steps = 0
        #: Request ids failed cleanly because no surviving replica
        #: could ever hold their reservation (mid-run drains strand
        #: work that admission-time validation accepted).
        self.failed_requests: List[int] = []

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ClusterStats:
        """Serve a whole arrival trace across the fleet; returns stats."""
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request_ids must be unique")
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
                for replica in self.replicas
                if self.pool.is_active(replica.index)
            ):
                raise PoolExhausted(
                    f"request {request.request_id} fits no replica shard: "
                    f"it can never be admitted anywhere"
                )
        records: Dict[int, RequestRecord] = {
            r.request_id: RequestRecord(r) for r in requests
        }
        for replica in self.replicas:
            replica.engine.start()
            if self._monitor is not None:
                self._monitor.note_alive(replica.index, 0.0)

        arrivals = deque(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        )
        faults = FaultInjector(self._fault_events, self.pool.n_replicas)
        # Per-run state starts over, so a second run() reports itself
        # alone (the replicas did the same in start()).
        self.n_requeued = self.n_recovered = self._steps = 0
        self._mttr_samples = []
        self._down_since = {}
        self.failed_requests = []
        self._retries = []
        self._activity_timeline = [(0.0, self.pool.n_active)]
        router = self.router
        router.routed_counts = {}
        router._rr_cursor = router.n_breaker_trips = 0
        router.breaker_open = set()
        occupancy_samples: List[float] = []
        occupancy_peak = 0.0
        last_event_time = 0.0
        inf = math.inf

        # Global event precedence on time ties: fault <= retry <=
        # arrival <= step.  Faults fire first so a retry or arrival at
        # the same instant already sees the new fleet shape; steps go
        # last so no replica leapfrogs an event it should witness.
        while True:
            busy = [r for r in self.replicas if r.engine.has_work]
            if (not arrivals and not faults and not self._retries
                    and not busy):
                break
            t_fault = faults.next_time
            t_retry = self._retries[0][0] if self._retries else inf
            t_arrival = arrivals[0].arrival_time if arrivals else inf
            t_step = min(r.engine.now for r in busy) if busy else inf

            if t_fault <= t_retry and t_fault <= t_arrival \
                    and t_fault <= t_step:
                # Fault events are administrative: they must not
                # advance any clock or stretch the makespan (requeued
                # work extends the *receiving* replicas' timelines
                # instead), so they fire even after all work finished.
                self._fire_fault(faults.pop())
            elif t_retry <= t_arrival and t_retry <= t_step:
                t, _rid, request, record = heapq.heappop(self._retries)
                self._event_time = t
                self._route(request, record, available=t)
                last_event_time = max(last_event_time, t)
            elif t_arrival <= t_step:
                request = arrivals.popleft()
                self._event_time = request.arrival_time
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
                if self._monitor is not None:
                    self._monitor.note_step(
                        replica.index, step_start, replica.engine.now
                    )
                occ = self.pool.global_occupancy
                occupancy_samples.append(occ)
                occupancy_peak = max(occupancy_peak, occ)
                last_event_time = max(last_event_time, replica.engine.now)
                self._event_time = replica.engine.now
                self._note_fleet_step(replica.engine.now)

        self.pool.audit()
        replica_stats = [r.engine.finish() for r in self.replicas]
        makespan = max(
            [last_event_time] + [r.engine.now for r in self.replicas]
        )
        mttr = (
            sum(self._mttr_samples) / len(self._mttr_samples)
            if self._mttr_samples else float("nan")
        )
        stats = ClusterStats.from_run(
            policy=self.router.policy,
            admission=self.admission,
            numerics=self.numerics,
            records=[records[i] for i in sorted(records)],
            replica_stats=replica_stats,
            makespan_s=makespan,
            global_occupancy_samples=occupancy_samples,
            global_occupancy_peak=occupancy_peak,
            total_pages=self.pool.total_pages,
            page_tokens=self.pool.page_tokens,
            reclaimed_pages=self.pool.reclaimed_pages,
            reclaimed_tokens=self.pool.reclaimed_tokens,
            n_active_replicas=self.pool.n_active,
            n_drained=sum(
                not self.pool.is_active(i) and not self.pool.is_failed(i)
                for i in range(self.pool.n_replicas)
            ),
            n_failed=sum(
                self.pool.is_failed(i) for i in range(self.pool.n_replicas)
            ),
            n_requeued=self.n_requeued,
            # Count from the records, not self.failed_requests: deadline
            # expiries and degradation sheds fail requests *inside* a
            # replica engine, never passing through the router's failure
            # path.
            n_failed_requests=sum(
                r.status is RequestStatus.FAILED for r in records.values()
            ),
            routed_counts=[
                self.router.routed_counts.get(i, 0)
                for i in range(self.pool.n_replicas)
            ],
            n_recovered=self.n_recovered,
            n_retries=sum(r.n_retries for r in records.values()),
            n_breaker_trips=self.router.n_breaker_trips,
            availability=self._availability(makespan),
            mttr_s=mttr,
        )
        if self.slo is not None:
            stats.slo = self.slo.evaluate_records(
                [records[i] for i in sorted(records)], makespan_s=makespan
            ).to_dict()
        return stats

    # ------------------------------------------------------------------
    def _route(
        self,
        request: Request,
        record: RequestRecord,
        available: float,
    ) -> bool:
        """Place one request on an active replica, or retry/fail it.

        Returns ``False`` when no active replica can hold the request
        right now (every fitting shard was drained mid-run, or the
        whole fleet retired).  With retry budget left — and the
        deadline, if any, not yet blown — the placement is re-attempted
        after an exponential backoff, so work displaced by a crash can
        land on a replica that recovers in the meantime.  Exhaustion
        fails the request cleanly: its pages are already back in the
        ledger — a drain releases before requeueing — so the record is
        marked FAILED and kept for the report, the ledger audit stays
        clean, and the event loop moves on instead of raising with
        other requests still in flight.
        """
        active = [
            r for r in self.replicas if self.pool.is_active(r.index)
        ]
        replica = None
        self._event_time = available
        if self._monitor is not None:
            self._update_breaker(available)
        if active:
            try:
                replica = self.router.choose(request, active, record)
            except PoolExhausted:
                replica = None
        if replica is None:
            return self._handle_unplaced(request, record, available)
        replica.engine.submit(request, record, available_time=available)
        return True

    def _handle_unplaced(
        self, request: Request, record: RequestRecord, available: float
    ) -> bool:
        """Retry-with-backoff bookkeeping for a failed placement."""
        if record.n_retries < self.retry_budget:
            record.n_retries += 1
            retry_at = available + (
                self.retry_backoff_s * 2.0 ** (record.n_retries - 1)
            )
            deadline = (
                request.arrival_time + self.deadline_s
                if self.deadline_s is not None else math.inf
            )
            if retry_at <= deadline:
                heapq.heappush(
                    self._retries,
                    (retry_at, request.request_id, request, record),
                )
                self.telemetry.instant(
                    "route_retry", available, "fleet", "router",
                    request_id=request.request_id,
                    attempt=record.n_retries, retry_at=retry_at,
                )
                self.telemetry.count(
                    "repro_route_retries_total", engine="fleet"
                )
                return False
            reason = "deadline"
        elif self.retry_budget > 0:
            reason = "retry_budget"
        else:
            reason = "unplaceable"
        # An unplaced request holds no open span (it belongs to no
        # replica queue); latency attribution books its whole life as
        # retry backoff up to the route_failed instant.
        transition(
            record, "route_failed", available, self.telemetry, "fleet",
            request_id=request.request_id, reason=reason,
            arrival_time=request.arrival_time,
        )
        self.failed_requests.append(request.request_id)
        return False

    def _update_breaker(self, t: float) -> None:
        """Reconcile the router's circuit breaker at routing time.

        A replica is suspected when it has work in flight but its last
        observed step activity lags ``t`` by more than the heartbeat
        timeout — the signature of a straggler deep inside one
        stretched step.  Idle replicas are never suspected (no work,
        no heartbeat to miss).
        """
        suspected = {
            r.index for r in self.replicas
            if self.pool.is_active(r.index) and r.engine.has_work
            and self._monitor.suspected(r.index, t)
        }
        opened, closed = self.router.update_breaker(suspected)
        tel = self.telemetry
        for name, indices in (("breaker_open", opened),
                              ("breaker_close", closed)):
            for idx in indices:
                tel.instant(name, t, "fleet", "router", replica=idx)
        if opened:
            tel.count(
                "repro_breaker_trips_total", len(opened), engine="fleet"
            )

    # ------------------------------------------------------------------
    # Fault events
    # ------------------------------------------------------------------
    def _fire_fault(self, event: FaultEvent) -> None:
        """Dispatch one fault event at its simulated firing time."""
        self._event_time = event.time
        if event.kind in ("drain", "fail"):
            self._retire_replica(event.replica, event.time, event.kind)
        elif event.kind == "recover":
            self._recover_replica(event.replica, event.time)
        elif event.kind == "slow_start":
            self._set_straggler(event.replica, event.time, event.factor)
        elif event.kind == "slow_end":
            self._set_straggler(event.replica, event.time, 1.0)
        else:  # corrupt
            self._inject_corruption(event)

    def _recover_replica(self, idx: int, t: float) -> None:
        """Rejoin a retired replica at simulated time ``t``.

        The shard re-registers with the global ledger (it must be
        empty — the retire requeued everything it held) and the router
        may place new work on it immediately.  The engine is *not*
        restarted: its records, counters, and clock survive the
        downtime, so the replica's own report spans the whole run, and
        an idle rejoined clock does not stretch the makespan (new work
        jumps it forward exactly like any idle replica).
        """
        self.pool.recover(idx)
        self.n_recovered += 1
        down = self._down_since.pop(idx, None)
        if down is not None:
            self._mttr_samples.append(t - down)
        self._activity_timeline.append((t, self.pool.n_active))
        if self._monitor is not None:
            self._monitor.note_alive(idx, t)
        self.telemetry.instant(
            "replica_recover", t, "fleet", "scheduler", replica=idx,
            downtime_s=(None if down is None else round(t - down, 9)),
        )
        self.telemetry.count("repro_replica_recoveries_total", engine="fleet")

    def _set_straggler(self, idx: int, t: float, factor: float) -> None:
        """Open (factor > 1) or close (factor = 1) a straggler window."""
        self.replicas[idx].engine.set_slowdown(factor)
        self.telemetry.instant(
            "straggler_start" if factor > 1.0 else "straggler_end",
            t, "fleet", "faults", replica=idx, factor=factor,
        )
        if factor > 1.0:
            self.telemetry.count(
                "repro_straggler_windows_total", engine="fleet"
            )

    def _inject_corruption(self, event: FaultEvent) -> None:
        """Flip one stored KV-page checksum on the target shard.

        The victim is chosen deterministically from the event's
        ``u_seq``/``u_page`` coordinates over the sequences (sorted by
        id) and pages resident when the event fires; an empty or
        retired shard makes the strike a no-op.  Detection is the
        owning engine's job: its next step sees the pool's corruption
        counter move, verifies checksums, and quarantines + recomputes
        the victim (see ``ServingEngine._quarantine_corrupted``).
        """
        idx = event.replica
        shard = self.pool.shard(idx)
        victim = None
        if self.pool.is_active(idx):
            seqs = sorted(shard.tracked_sequences)
            if seqs:
                seq_id = seqs[int(event.u_seq * len(seqs))]
                pairs = [
                    (layer, page)
                    for layer, n_pages in enumerate(
                        shard.allocated_pages_per_layer(seq_id)
                    )
                    for page in range(n_pages)
                ]
                if pairs:
                    layer, page = pairs[int(event.u_page * len(pairs))]
                    shard.corrupt_page(seq_id, layer, page)
                    victim = (seq_id, layer, page)
        if victim is None:
            self.telemetry.instant(
                "corruption_noop", event.time, "fleet", "faults", replica=idx
            )
            return
        self.telemetry.instant(
            "corruption_injected", event.time, "fleet", "faults",
            replica=idx, seq_id=victim[0], layer=victim[1], page=victim[2],
        )
        self.telemetry.count(
            "repro_corruptions_injected_total", engine="fleet"
        )

    def _availability(self, makespan: float) -> float:
        """Time-averaged active-replica fraction over the makespan."""
        if makespan <= 0:
            return 1.0
        integral = 0.0
        last_t, last_n = self._activity_timeline[0]
        for t, n in self._activity_timeline[1:]:
            t = min(t, makespan)
            if t > last_t:
                integral += last_n * (t - last_t)
                last_t = t
            last_n = n
        if last_t < makespan:
            integral += last_n * (makespan - last_t)
        return integral / (self.pool.n_replicas * makespan)

    def _retire_replica(self, idx: int, t: float, kind: str) -> None:
        """Drain or fail a replica at simulated time ``t``; requeue.

        The shard leaves the active set *before* the requeue is routed,
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
        replica = self.replicas[idx]
        self._event_time = t
        if kind == "fail":
            self.pool.fail(idx)
        else:
            self.pool.drain(idx)
        self._down_since[idx] = t
        self._activity_timeline.append((t, self.pool.n_active))
        requeued = replica.engine.drain()
        self.n_requeued += len(requeued)
        available = max(t, replica.engine.now)
        tel = self.telemetry
        tel.instant(
            f"replica_{kind}", available, "fleet", "scheduler",
            replica=idx, n_requeued=len(requeued),
        )
        tel.count(
            "repro_replica_retirements_total", engine="fleet", kind=kind
        )
        tel.count(
            "repro_requests_requeued_total", len(requeued), engine="fleet"
        )
        for request, record in requeued:
            self._route(request, record, available=available)

    # ------------------------------------------------------------------
    # Fleet telemetry (router / ledger observer hooks + step samples)
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
            "routed", self._event_time, "fleet", "router",
            request_id=request.request_id, chosen=chosen.index,
            policy=self.router.policy, **scores,
        )
        self.telemetry.count(
            "repro_requests_routed_total", engine="fleet",
            replica=str(chosen.index),
        )

    def ledger_transition(self, replica: int, kind: str) -> None:
        """Observer hook the sharded ledger calls on drain/fail."""
        self.telemetry.instant(
            f"ledger_{kind}", self._event_time, "fleet", "ledger",
            replica=replica,
        )
        self.telemetry.count(
            "repro_ledger_transitions_total", engine="fleet", kind=kind
        )

    def _note_fleet_step(self, now: float) -> None:
        """Per-replica-step fleet bookkeeping: periodic global audit
        plus a fleet-wide pool counter sample."""
        self._steps += 1
        tel = self.telemetry
        if self.audit_every and self._steps % self.audit_every == 0:
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

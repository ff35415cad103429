"""Pluggable request-to-replica routing policies.

Three policies, in increasing awareness of what a request will cost:

* ``round_robin`` — cycle over the active replicas, blind to load.
  The baseline every serious policy must beat.
* ``least_loaded`` — place on the replica with the most free
  reservation pages (ties break on the lowest replica index).  Page
  pressure is the admission bottleneck, so this is the natural
  memory-greedy policy.
* ``pruning_aware`` — score replicas by the request's *schedule-bound*
  cost estimate, read off one :class:`~repro.core.schedule.
  SequencePlan` per candidate (:meth:`~repro.serving.engine.
  ServingEngine.plan_for`): worst-case KV pages from its ``kv_bounds``
  (via the shard's page arithmetic) and end-to-end FLOPs from the
  serving :class:`~repro.serving.stats.CostModel`
  (:meth:`~repro.serving.engine.ServingEngine.
  request_flops_estimate`).  Each replica's score is the projected
  delay of the placement's *bottleneck resource*: the compute backlog
  ``(outstanding + request FLOPs) / flops_per_second`` versus the
  page-availability delay ``(outstanding page-seconds + reservation x
  service time) / shard pages`` — whichever is larger.  A heavily
  pruned request adds little to either term, so it lands wherever
  total backlog is lightest, packing onto replicas whose pages are
  busy; a dense request inflates the page term steeply and is steered
  to shards with free capacity.  Momentary fullness is deliberately
  *not* a hard disqualifier: a page-full replica about to free a
  large reservation can still beat a free-but-backlogged one (the
  delay projection, not an admit-now bit, decides — empirically this
  wins the TTFT tail; see ``benchmarks/bench_cluster_scaling.py``).

This is the ProxyAttn-style observation applied to placement instead
of kernels: sparsity estimates are cheap enough to drive scheduling
decisions — here, per-request cascade schedules bound KV and FLOP
cost tightly enough to route on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.schedule import SequencePlan
from ..faults import ReplicaRecord
from ..serving.engine import ServingEngine
from ..serving.memory_pool import KVMemoryPool, PoolExhausted
from ..serving.request import Request, RequestRecord

__all__ = ["ROUTING_POLICIES", "Replica", "ClusterRouter"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "pruning_aware")


@dataclass
class Replica(ReplicaRecord):
    """One serving replica: an engine bound to its KV pool shard, and
    the replica's :data:`~repro.faults.REPLICA_LIFECYCLE` record."""

    engine: ServingEngine = None
    shard: KVMemoryPool = None


@dataclass
class ClusterRouter:
    """Request router over a fleet of replicas.

    The router is policy-pluggable (:data:`ROUTING_POLICIES`),
    deterministic and stateless: what it reads of the fleet — which
    replicas are active, whose heartbeat breaker is open, how many
    placements each has taken — lives on the :class:`Replica` records.
    """

    policy: str = "round_robin"
    #: Duck-typed observability hook: anything with a
    #: ``route_decision(request, scored, chosen)`` method (the cluster
    #: engine, when telemetry is on).  ``scored`` is the candidate list
    #: as ``(replica, pages_estimate, score)`` triples — the score is
    #: the policy's sort key (``None`` for round-robin, which does not
    #: score).
    observer: object = None

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; choose from "
                f"{ROUTING_POLICIES}"
            )

    def choose(
        self,
        request: Request,
        replicas: Sequence[Replica],
        record: Optional[RequestRecord] = None,
    ) -> Replica:
        """Pick the replica this request is placed on.

        ``replicas`` is the whole fleet — only ``active`` ones are
        candidates, and ones whose heartbeat breaker is open are avoided
        while any healthy candidate exists (the breaker degrades
        placement quality, never liveness); ``record`` is the
        record the request travels with, so a schedule override the
        degradation ladder installed before a drain is what every
        candidate is filtered and priced at.  One schedule replay
        (:meth:`~repro.serving.engine.ServingEngine.plan_for`) and one
        :meth:`~repro.serving.engine.ServingEngine.
        placement_pages_estimate` call per replica both filters
        (``None``: that engine can never admit the request — worst-case
        reservation beyond the shard, or an optimistic floor plus
        headroom that can never fit) and prices the placement (the
        exact per-request page bill admission will charge in the
        replica's mode).  Load sensitivity under optimistic admission
        comes from the backlog terms the pruning-aware key adds —
        outstanding page-seconds and free reservation pages read
        per-sequence reservations that track *actual* usage there.
        Raises :class:`PoolExhausted` when no active replica can ever
        serve the request.
        """
        candidates = []
        for r in replicas:
            if r.phase != "active":
                continue
            plan = r.engine.plan_for(request, record)
            est = r.engine.placement_pages_estimate(request, plan)
            if est is not None:
                candidates.append((r, plan, est))
        if not candidates:
            raise PoolExhausted(
                f"request {request.request_id} fits no active replica "
                f"(needs more pages than any remaining shard holds)"
            )
        candidates = [
            cn for cn in candidates if cn[0].breaker == "closed"
        ] or candidates
        if self.policy == "round_robin":
            # The cursor is the fleet's placements so far.
            cursor = sum(r.n_routed for r in replicas)
            scored = [(r, est, None) for r, _, est in candidates]
            chosen = candidates[cursor % len(candidates)][0]
        elif self.policy == "least_loaded":
            # Score = pages free on the shard (higher is better; the
            # policy minimizes its negation, ties on replica index).
            scored = [
                (r, est, float(r.shard.free_reservation_pages))
                for r, _, est in candidates
            ]
            chosen = min(
                scored, key=lambda cn: (-cn[2], cn[0].index)
            )[0]
        else:  # pruning_aware
            # Score = projected bottleneck delay in seconds (lower is
            # better); computed once per candidate and reused for both
            # the choice and the observer record.
            scored = [
                (r, est, self._pruning_aware_key(plan, r, est)[0])
                for r, plan, est in candidates
            ]
            chosen = min(scored, key=lambda cn: (cn[2], cn[0].index))[0]
        chosen.n_routed += 1
        if self.observer is not None:
            self.observer.route_decision(request, scored, chosen)
        return chosen

    @staticmethod
    def _pruning_aware_key(
        plan: SequencePlan, replica: Replica, need: int
    ) -> Tuple[float, int]:
        """Sort key: (projected bottleneck delay, index).

        Both resources a placement consumes are projected in seconds:
        the replica's compute backlog (outstanding + this request's
        schedule-bound FLOPs at the cost model's rate) and its
        page-availability delay (outstanding page-seconds plus this
        request's ``reservation x service time``, normalized by shard
        capacity).  The max of the two is the resource that would
        actually delay this request there.  Cheap pruned requests add
        little to either term, so they land wherever total backlog is
        lightest — including page-busy replicas; dense requests
        inflate the page term steeply and get steered to shards with
        free capacity.
        """
        engine = replica.engine
        rate = engine.cost.flops_per_second
        req_flops = engine.request_flops_estimate(plan)
        compute_s = (engine.outstanding_flops() + req_flops) / rate
        page_s = (
            engine.outstanding_page_seconds()
            + need * req_flops / rate
        ) / replica.shard.n_pages
        return (max(compute_s, page_s), replica.index)

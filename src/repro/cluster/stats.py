"""Fleet-level aggregation of per-replica serving reports.

:class:`ClusterStats` carries one :class:`~repro.serving.stats.
ServingStats` per replica (exactly what that replica's engine would
have reported standalone — the single-replica cluster is bit-identical
to plain serving) plus a *fleet* ``ServingStats`` recomputed over every
request record in the run.  Percentiles are therefore derived once,
from the pooled samples, by the same code single-engine serving uses —
never by averaging per-replica percentiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from ..eval.reporting import Table
from ..faults import ReplicaRecord
from ..serving.request import RequestRecord, RequestStatus
from ..serving.stats import (
    STATS_SCHEMA_VERSION,
    ServingStats,
    _null_if_nan,
    format_quantiles,
)

__all__ = ["ClusterStats", "availability"]


def _phase_changes(replicas: Sequence[ReplicaRecord]) -> List[tuple]:
    """The fleet's membership change points in firing order, each
    ``(time, replica, previous change time, phase left, phase entered)``."""
    return sorted(
        (t, r.index, since, left, entered)
        for r in replicas
        for (since, left), (t, entered) in zip(r.history, r.history[1:])
    )


def availability(
    replicas: Sequence[ReplicaRecord], makespan_s: float
) -> float:
    """Time-averaged active-replica fraction over the makespan: the
    integral of the records' phase histories (change points past the
    makespan are clamped off)."""
    if makespan_s <= 0:
        return 1.0
    n_active = sum(r.history[0][1] == "active" for r in replicas)
    integral = last_t = 0.0
    for t, _, _, left, entered in _phase_changes(replicas):
        t = min(t, makespan_s)
        if t > last_t:
            integral += n_active * (t - last_t)
            last_t = t
        n_active += (entered == "active") - (left == "active")
    if last_t < makespan_s:
        integral += n_active * (makespan_s - last_t)
    return integral / (len(replicas) * makespan_s)


@dataclass
class ClusterStats:
    """Aggregate report of one multi-replica cluster run."""

    policy: str
    n_replicas: int
    #: Replicas still in the active set when the run ended.
    n_active_replicas: int
    n_drained: int
    n_failed: int
    #: In-flight requests handed back by drained/failed replicas and
    #: re-routed (each requeue counts once).
    n_requeued: int
    #: Requests placed on each replica, including requeue placements.
    routed_counts: List[int]
    #: Fleet-level aggregate over every request record (percentiles
    #: recomputed from pooled samples, not averaged).
    fleet: ServingStats
    #: Requests failed cleanly: never placeable, retry budget
    #: exhausted, deadline expired, or shed by the degradation ladder.
    n_failed_requests: int = 0
    #: Numerics-ladder tier every replica ran under
    #: (``exact``/``fp32``/``int8`` — see :mod:`repro.nn.numerics`).
    numerics: str = "exact"
    #: Replicas that rejoined the fleet after a drain/fail (chaos runs).
    n_recovered: int = 0
    #: Placement retries consumed fleet-wide (retry-with-backoff).
    n_retries: int = 0
    #: Circuit-breaker open transitions (heartbeat failure detection).
    n_breaker_trips: int = 0
    #: Time-averaged fraction of replicas active over the makespan.
    availability: float = 1.0
    #: Tokens delivered to *finished* requests per makespan second —
    #: the chaos-facing throughput (failed requests contribute zero).
    goodput_tps: float = 0.0
    #: Mean crash-to-rejoin repair time; NaN when nothing recovered.
    mttr_s: float = float("nan")
    #: Fleet-level SLO attainment report
    #: (:meth:`repro.insight.SLOReport.to_dict`), or ``None``: set by a
    #: caller holding an SLO policy from ``fleet.records`` after the run
    #: (``repro serve-cluster --slo``).
    slo: Optional[dict] = None
    #: Each replica's own ServingStats, as reported by its engine.
    replicas: List[ServingStats] = field(default_factory=list)

    @staticmethod
    def from_run(
        policy: str,
        records: List[RequestRecord],
        replicas: Sequence[ReplicaRecord],
        replica_stats: List[ServingStats],
        makespan_s: float,
        global_occupancy_samples: List[float],
        global_occupancy_peak: float,
        pool,
        admission: str = "reserve",
        numerics: str = "exact",
    ) -> "ClusterStats":
        """The fleet report.  Replica and routing tallies, availability
        and MTTR are read off ``replicas`` — the run's lifecycle records
        — the request tallies off ``records`` and the page totals off
        ``pool`` (the run's :class:`~repro.cluster.ShardedKVPool`)."""
        modes = {s.mode for s in replica_stats}
        mode = modes.pop() if len(modes) == 1 else "mixed"
        fleet = ServingStats.from_run(
            mode=f"cluster/{mode}/{policy}",
            admission=admission,
            numerics=numerics,
            records=records,
            makespan_s=makespan_s,
            batch_sizes=[],
            occupancy_samples=global_occupancy_samples,
            pool_pages=pool.total_pages,
            pool_page_tokens=pool.page_tokens,
            occupancy_peak=global_occupancy_peak,
            reclaimed_pages=pool.reclaimed_pages,
            reclaimed_tokens=pool.reclaimed_tokens,
        )
        # Mean live batch across the fleet: per-replica means weighted
        # equally by replica would misweight idle replicas; sum of
        # means is the average number of concurrently resident
        # sequences fleet-wide, which is the quantity capacity planning
        # cares about.
        fleet.mean_batch_size = sum(s.mean_batch_size for s in replica_stats)
        finished_tokens = sum(
            r.n_generated for r in records
            if r.status is RequestStatus.FINISHED
        )
        goodput = finished_tokens / makespan_s if makespan_s > 0 else 0.0
        phases = [r.phase for r in replicas]
        # Crash-to-rejoin repair times, in the order the rejoins fired.
        repairs = [
            up - down for up, _, down, _, entered in _phase_changes(replicas)
            if entered == "active"
        ]
        return ClusterStats(
            policy=policy,
            n_replicas=len(replica_stats),
            n_active_replicas=phases.count("active"),
            n_drained=phases.count("drained"),
            n_failed=phases.count("failed"),
            n_requeued=sum(r.n_requeued for r in replicas),
            routed_counts=[r.n_routed for r in replicas],
            fleet=fleet,
            # Deadline expiries and degradation sheds fail requests
            # *inside* a replica engine, so count the records.
            n_failed_requests=sum(
                r.status is RequestStatus.FAILED for r in records
            ),
            numerics=numerics,
            n_recovered=sum(r.n_recovered for r in replicas),
            n_retries=sum(r.n_retries for r in records),
            n_breaker_trips=sum(r.n_breaker_trips for r in replicas),
            availability=availability(replicas, makespan_s),
            goodput_tps=goodput,
            mttr_s=(
                sum(repairs) / len(repairs) if repairs else float("nan")
            ),
            replicas=list(replica_stats),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Every field as plain data, derived from the dataclass fields
        the way :meth:`ServingStats.to_dict` is: the nested fleet /
        replica reports render through it and NaN becomes ``None``."""
        out: Dict[str, object] = {"schema_version": STATS_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ServingStats):
                value = value.to_dict()
            elif isinstance(value, list):
                value = [
                    v.to_dict() if isinstance(v, ServingStats) else v
                    for v in value
                ]
            out[f.name] = _null_if_nan(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self) -> Table:
        ms = 1e3
        t = Table(
            title=(
                f"cluster report — {self.n_replicas} replicas, "
                f"{self.policy} routing"
            ),
            headers=["metric", "value"],
        )
        f = self.fleet
        t.add_row("requests served", str(f.n_requests))
        if f.n_unadmitted:
            t.add_row("requests never admitted (partial run)",
                      str(f.n_unadmitted))
        t.add_row("tokens generated", str(f.n_tokens))
        t.add_row("makespan (s)", f"{f.makespan_s:.3f}")
        t.add_row("fleet throughput (tok/s)", f"{f.throughput_tps:.1f}")
        t.add_row("queue wait p50/p95/p99 (ms)",
                  format_quantiles((f.queue_wait_p50, f.queue_wait_p95,
                                    f.queue_wait_p99), ms, ".1f"))
        t.add_row("time-to-first-token p50/p95/p99 (ms)",
                  format_quantiles((f.ttft_p50, f.ttft_p95, f.ttft_p99),
                                   ms, ".1f"))
        t.add_row("decode latency p50/p95/p99 (ms/tok)",
                  format_quantiles((f.decode_latency_p50,
                                    f.decode_latency_p95,
                                    f.decode_latency_p99), ms, ".2f"))
        t.add_row("fleet resident sequences (mean)",
                  f"{f.mean_batch_size:.2f}")
        if f.admission != "reserve":
            t.add_row("admission mode", f.admission)
        if self.numerics != "exact":
            t.add_row("numerics tier", self.numerics)
        if f.n_preemptions:
            t.add_row("preemptions across fleet (recomputed tokens)",
                      f"{f.n_preemptions} ({f.recompute_tokens})")
        t.add_row("global pool pages (x tokens/page)",
                  f"{f.pool_pages} x {f.pool_page_tokens}")
        t.add_row("global occupancy mean/peak",
                  f"{f.occupancy_mean:.1%} / {f.occupancy_peak:.1%}")
        t.add_row("pages reclaimed by pruning", str(f.reclaimed_pages))
        t.add_row("requests routed per replica",
                  " / ".join(str(c) for c in self.routed_counts))
        t.add_row("replicas active at end",
                  f"{self.n_active_replicas}/{self.n_replicas} "
                  f"({self.n_drained} drained, {self.n_failed} failed)")
        if self.n_requeued:
            t.add_row("requests requeued by drains", str(self.n_requeued))
        if self.n_failed_requests:
            t.add_row("requests failed", str(self.n_failed_requests))
        if self.n_recovered or self.n_retries or self.n_breaker_trips:
            t.add_row("availability (active-replica fraction)",
                      f"{self.availability:.1%}")
            t.add_row("goodput (finished tok/s)",
                      f"{self.goodput_tps:.1f}")
            t.add_row(
                "replicas recovered (MTTR)",
                f"{self.n_recovered} "
                f"({format_quantiles((self.mttr_s,), 1e3, '.1f')} ms)",
            )
            if self.n_retries:
                t.add_row("placement retries (backoff)",
                          str(self.n_retries))
            if self.n_breaker_trips:
                t.add_row("circuit-breaker trips", str(self.n_breaker_trips))
        for i, s in enumerate(self.replicas):
            ttft_p95 = format_quantiles((s.ttft_p95,), ms, ".1f")
            t.add_row(
                f"replica {i}",
                f"{s.n_requests} reqs, {s.throughput_tps:.0f} tok/s, "
                f"ttft p95 {ttft_p95} ms, "
                f"occ peak {s.occupancy_peak:.0%}",
            )
        t.add_note(
            "parallel simulated timelines, one per replica; fleet "
            "percentiles recomputed from pooled records "
            "(repro.cluster.stats.ClusterStats)"
        )
        return t

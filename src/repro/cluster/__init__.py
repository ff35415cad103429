"""Multi-replica serving: pruning-aware routing over a sharded KV pool.

SpAtten's cascade token/head pruning bounds every sequence's KV
footprint and arithmetic by its schedule — a signal the single-engine
:mod:`repro.serving` stack already uses for admission control.  This
package uses the same signal *across* engines: a cluster of serving
replicas behind a router whose ``pruning_aware`` policy places each
request by its schedule-bound KV-page and FLOP cost estimate, so cheap
heavily-pruned requests pack onto replicas whose pages are busy while
dense requests go where pages are free.

Layers of the subsystem
-----------------------

* :mod:`~repro.cluster.sharded_pool` — :class:`ShardedKVPool`:
  per-replica :class:`~repro.serving.memory_pool.KVMemoryPool` shards
  under one global page ledger, with per-replica budgets, replica
  ``drain()``/``fail()``/``recover()``, global occupancy views, and an
  ``audit()`` that proves no sequence's pages are ever double-billed.
* :mod:`~repro.cluster.router` — :class:`ClusterRouter` with pluggable
  policies: ``round_robin``, ``least_loaded`` (free reservation
  pages), and ``pruning_aware`` (schedule-bound cost scoring from
  each candidate's :class:`~repro.core.schedule.SequencePlan` and the
  serving :class:`~repro.serving.stats.CostModel`), plus the
  heartbeat-driven circuit breaker that steers placements away from
  suspected-stale replicas.  The router is stateless: membership,
  breaker and placement tallies live on the :class:`Replica` records.
* :mod:`~repro.cluster.engine` — :class:`ClusterEngine`: the
  event-driven driver merging arrivals, per-replica scheduler steps on
  parallel simulated timelines, retry-with-backoff placements, and the
  validated fault schedule (``faults=``: drain / fail / recover /
  straggler / corruption events, scripted or generated by a seeded
  :class:`repro.faults.FaultPlan`), each event one row of
  :data:`repro.faults.REPLICA_LIFECYCLE`.
* :mod:`~repro.cluster.stats` — :class:`ClusterStats`: per-replica
  :class:`~repro.serving.stats.ServingStats` plus a fleet-level
  aggregate whose percentiles are recomputed from the pooled records,
  and the fleet-health metrics chaos runs report (availability,
  goodput, MTTR, recovery/retry/breaker counters).

Quick start
-----------

Run a heterogeneous trace over three replicas from the command line::

    PYTHONPATH=src python -m repro.cli serve-cluster --replicas 3 \\
        --policy pruning_aware --requests 24 --rate 600

or drive the cluster directly::

    from repro.cluster import ClusterEngine, ShardedKVPool
    from repro.faults import FaultEvent
    from repro.workloads import heterogeneous_request_trace, TrafficClass

    pool = ShardedKVPool(config, total_budget_bytes=3 * 512 * 1024,
                         n_replicas=3)
    cluster = ClusterEngine(model, pool, policy="pruning_aware",
                            prefill_chunk=32,
                            faults=[FaultEvent(0.05, 1, "drain")])
    print(cluster.run(requests).table())

``benchmarks/bench_cluster_scaling.py`` sweeps replica count × routing
policy at a fixed *total* pool budget and archives the fleet scaling
and the pruning-aware-vs-round-robin TTFT comparison under
``benchmarks/results/``.

Chaos runs (``repro serve-cluster --chaos-seed 0 --chaos-profile
moderate --retry-budget 2``) put the same fleet under a deterministic
fault plan — see the "Fault tolerance & chaos testing" section of the
serving guide (``docs/serving.md``) and the soak harness
``benchmarks/bench_chaos.py``.
"""

from .engine import ClusterEngine
from .router import ROUTING_POLICIES, ClusterRouter, Replica
from .sharded_pool import ShardedKVPool
from .stats import ClusterStats

__all__ = [
    "ClusterEngine",
    "ClusterRouter",
    "ClusterStats",
    "Replica",
    "ROUTING_POLICIES",
    "ShardedKVPool",
]

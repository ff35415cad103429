"""repro.faults — deterministic chaos engineering for the fleet.

Everything here runs on the **simulated clock**: fault schedules are
plain data (:class:`FaultPlan`), generated from a seeded
``numpy.random.Generator`` or scripted by hand, validated once
(:func:`validate_fault_events`, a dry replay of
:data:`REPLICA_LIFECYCLE`), and fired by the cluster loop through the
table's one writer, :func:`replica_transition`.  Because injection, detection
(:class:`HeartbeatMonitor` + KV-page checksums), and repair (recovery,
quarantine-and-recompute, retries) are all deterministic functions of
the (plan seed, trace seed) pair, a chaos run replays byte-for-byte —
the property the seed-sweep soak in ``benchmarks/bench_chaos.py``
asserts.

See the "Fault tolerance & chaos testing" section of the serving guide
(``docs/serving.md``) for the fault taxonomy, the retry/backoff
semantics, and the graceful-degradation ladder.
"""

from .heartbeat import HeartbeatMonitor
from .plan import (
    CHAOS_PROFILES,
    FAULT_KINDS,
    REPLICA_LIFECYCLE,
    ChaosProfile,
    FaultEvent,
    FaultPlan,
    IllegalReplicaEvent,
    ReplicaRecord,
    replica_transition,
    validate_fault_events,
)

__all__ = [
    "CHAOS_PROFILES",
    "FAULT_KINDS",
    "ChaosProfile",
    "FaultEvent",
    "FaultPlan",
    "HeartbeatMonitor",
    "IllegalReplicaEvent",
    "REPLICA_LIFECYCLE",
    "ReplicaRecord",
    "replica_transition",
    "validate_fault_events",
]

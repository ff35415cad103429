"""Continuous-batching inference serving with a pruning-aware KV pool.

SpAtten's cascade token pruning frees KV-cache columns *mid-generation*;
this package turns that into a serving-level win: a paged KV pool
billed from each request's replayed pruning schedule, so pruned
sequences reserve — and hold — a fraction of the dense KV footprint.

The guide lives in ``docs/serving.md`` (layers, KV storage model,
admission modes & preemption, quick start, numerics ladder, cluster
mode, fault tolerance & chaos testing, observability, the request
lifecycle table, SLOs & regression tracking, static analysis).  Map:

* :mod:`~repro.serving.request` — :class:`Request`,
  :class:`RequestRecord` (which carries the request's
  :class:`repro.core.SequencePlan`: its schedule, replayed once at
  ``submit``), :class:`RequestQueue`, and the one lifecycle table
  (:data:`LIFECYCLE`) applied by :func:`transition`.
* :mod:`~repro.serving.memory_pool` — :class:`KVMemoryPool`: a page
  ledger over per-layer column counts — reservations, optimistic
  billing, reclamation; it knows nothing about schedules.
* :mod:`~repro.serving.preemption` — victim selection under pool
  pressure (:class:`PreemptionPolicy`).
* :mod:`~repro.serving.degradation` — the shed -> reprune ladder
  (:class:`DegradationPolicy`).
* :mod:`~repro.serving.engine` — :class:`ServingEngine`: ingest,
  reserve, one mixed step (a prefill chunk per admitted sequence plus
  one batched decode step), retire; also the stepwise API
  :mod:`repro.cluster` drives.
* :mod:`~repro.serving.stats` — :class:`SimulatedClock`,
  :class:`CostModel`, and the :class:`ServingStats` report.
"""

from .degradation import DegradationPolicy
from .engine import (
    ADMISSION_MODES,
    LiveSequence,
    PrefillingSequence,
    ServingEngine,
)
from .memory_pool import KVMemoryPool, PoolExhausted
from .preemption import (
    PREEMPTION_POLICIES,
    PreemptionCandidate,
    PreemptionEvent,
    PreemptionPolicy,
)
from .request import (
    INHERIT_PRUNING,
    LIFECYCLE,
    IllegalTransitionError,
    Request,
    RequestQueue,
    RequestRecord,
    RequestStatus,
    transition,
)
from .stats import CostModel, ServingStats, SimulatedClock

__all__ = [
    "ADMISSION_MODES",
    "DegradationPolicy",
    "INHERIT_PRUNING",
    "LiveSequence",
    "PREEMPTION_POLICIES",
    "PrefillingSequence",
    "PreemptionCandidate",
    "PreemptionEvent",
    "PreemptionPolicy",
    "ServingEngine",
    "KVMemoryPool",
    "PoolExhausted",
    "Request",
    "RequestQueue",
    "RequestRecord",
    "RequestStatus",
    "IllegalTransitionError",
    "LIFECYCLE",
    "transition",
    "CostModel",
    "ServingStats",
    "SimulatedClock",
]

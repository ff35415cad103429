"""Victim selection for optimistic-admission preemption.

Optimistic admission (:meth:`repro.serving.memory_pool.KVMemoryPool.
admit_optimistic`) trades the worst-case reservation guarantee for
run-time enforcement: when a step's projected KV growth would overflow
the pool, the serving engine must *preempt* — release one resident
sequence's pages and requeue it for recompute.  Greedy decoding makes
the replayed stream bit-identical, so the only policy question is who
pays the latency.  :class:`PreemptionPolicy` answers it
deterministically:

* ``lowest_priority`` — evict the least important scheduling class
  first (the highest numeric ``priority`` value; lower values are
  admitted first everywhere else in the scheduler).  Ties break to the
  latest arrival, which has the least sunk work to recompute.
* ``most_pages`` — evict whoever returns the most *reserved* pages to
  the ledger, so pressure is relieved with the fewest victims.  Ties
  break to the latest arrival.
* ``latest_arrival`` — LIFO eviction: the newest request pays, which
  preserves the FIFO fairness of the admission queue (the preempted
  request re-enters the queue with its original arrival time and lines
  up ahead of younger work).

Every policy skips *protected* candidates — the livelock guard armed by
the ``preempted`` / ``quarantined`` rows of
:data:`repro.serving.request.LIFECYCLE` and
cleared when the request next commits work — so no request can be
preempted twice without making progress in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "PREEMPTION_POLICIES",
    "PreemptionCandidate",
    "PreemptionEvent",
    "PreemptionPolicy",
]

PREEMPTION_POLICIES = ("lowest_priority", "most_pages", "latest_arrival")


@dataclass(frozen=True)
class PreemptionCandidate:
    """One resident sequence as the victim selector sees it."""

    seq_id: int
    priority: int
    arrival_time: float
    #: Pages the admission ledger would regain — the victim's reserved
    #: pages (``max(prompt floor, allocated)``), which for a
    #: mid-prefill victim exceeds its physical allocation so far.
    pages: int
    #: Livelock guard: preempted since it last committed work — never
    #: eligible for selection.
    protected: bool = False


@dataclass(frozen=True)
class PreemptionEvent:
    """One preemption, as logged by the engine (tests and reports)."""

    time: float
    request_id: int
    pages_freed: int
    #: Committed prompt tokens plus decode tokens discarded — the work
    #: the victim will recompute on readmission.
    work_tokens: int
    policy: str


@dataclass(frozen=True)
class PreemptionPolicy:
    """Deterministic victim selection over the resident sequences."""

    policy: str = "lowest_priority"

    def __post_init__(self) -> None:
        if self.policy not in PREEMPTION_POLICIES:
            raise ValueError(
                f"unknown preemption policy {self.policy!r}; choose from "
                f"{PREEMPTION_POLICIES}"
            )

    def select(
        self, candidates: Sequence[PreemptionCandidate]
    ) -> Optional[PreemptionCandidate]:
        """The victim, or ``None`` when every candidate is protected.

        Selection is deterministic: the policy's key, then arrival
        time, then sequence id — given the same resident set it always
        evicts the same sequence.
        """
        eligible = [c for c in candidates if not c.protected]
        if not eligible:
            return None
        if self.policy == "lowest_priority":
            key = lambda c: (c.priority, c.arrival_time, c.seq_id)
        elif self.policy == "most_pages":
            key = lambda c: (c.pages, c.arrival_time, c.seq_id)
        else:  # latest_arrival
            key = lambda c: (c.arrival_time, c.seq_id)
        return max(eligible, key=key)

"""Requests, per-request lifecycle records, and the arrival queue.

A :class:`Request` is a prompt plus a generation budget, stamped with a
simulated arrival time and a priority.  The :class:`RequestQueue` orders
waiting requests by ``(priority, arrival_time, push order)`` — lower
priority values are served first, ties break FIFO on arrival time, and
requests that are equal on both pop in the order they were pushed
(a monotonic per-queue counter, so pop order never depends on request
ids or payload comparison).

The request lifecycle lives here too: :data:`LIFECYCLE` is the one table
of events a request can go through and :func:`transition` the one
function that applies a row — record fields, the phase span it closes,
the instants and counters it emits (see "Request lifecycle" in the
serving guide).  :class:`Transition` and :func:`emit_row` are also the
row type and the emitter of the fleet's
:data:`repro.faults.REPLICA_LIFECYCLE`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import SequencePlan

__all__ = [
    "INHERIT_PRUNING",
    "RequestStatus",
    "Request",
    "RequestRecord",
    "RequestQueue",
    "IllegalTransitionError",
    "Transition",
    "LIFECYCLE",
    "SPAN_PHASES",
    "emit_row",
    "transition",
]


class _InheritPruning:
    """Sentinel: the request follows the engine's pruning schedule.

    Distinct from ``None``, which *forces* the dense path for one
    request even on an engine whose default schedule prunes.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INHERIT_PRUNING"


#: Default for :attr:`Request.pruning`: inherit the engine's schedule.
INHERIT_PRUNING = _InheritPruning()


class RequestStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    #: The request can never be placed again (e.g. every replica whose
    #: shard could hold its reservation was drained mid-run).  Failed
    #: requests keep their record — with no admission timestamps — so
    #: the run's report counts them instead of crashing or dead-looping.
    FAILED = "failed"


@dataclass
class Request:
    """One generation request entering the serving system.

    Attributes:
        request_id: unique id (also the tiebreaker for queue ordering).
        prompt_ids: prompt token ids.
        max_new_tokens: decode budget (>= 1).
        arrival_time: simulated-clock arrival timestamp in seconds.
        priority: scheduling class; *lower* values are admitted first.
        pruning: per-request cascade schedule.  The default
            :data:`INHERIT_PRUNING` follows whatever the serving engine
            was configured with; a :class:`~repro.config.PruningConfig`
            overrides it for this request only, and ``None`` forces the
            dense path.  Heterogeneous traces (requests with different
            schedules in one trace) are what make the cluster router's
            schedule-bound cost estimates meaningful.
    """

    request_id: int
    prompt_ids: np.ndarray
    max_new_tokens: int
    arrival_time: float = 0.0
    priority: int = 0
    pruning: object = INHERIT_PRUNING

    def __post_init__(self) -> None:
        self.prompt_ids = np.asarray(self.prompt_ids, dtype=np.int64)
        if self.prompt_ids.ndim != 1 or len(self.prompt_ids) == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D sequence")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_ids)

    @property
    def total_len(self) -> int:
        """Worst-case sequence length (prompt + full decode budget)."""
        return self.prompt_len + self.max_new_tokens


#: Record fields only :func:`transition` writes.
_LIFECYCLE_FIELDS = frozenset({
    "status", "admit_time", "first_token_time", "finish_time",
    "phase", "phase_start", "admitted_before",
})


@dataclass
class RequestRecord:
    """Lifecycle timestamps, output and schedule plan of one request.

    ``status``, the three timestamps and the ``phase`` bookkeeping are
    written by :func:`transition` alone; assigning them raises.
    ``plan`` is what every serving module reads instead of replaying
    the request's cascade schedule (see the field).
    """

    request: Request
    status: RequestStatus = RequestStatus.QUEUED
    admit_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Where the request is in :data:`LIFECYCLE`: ``unrouted`` (owned
    #: by no engine — fresh, or handed back by a drain), ``pending``
    #: (submitted, not yet visible to the queue), one of
    #: :data:`SPAN_PHASES`, or terminal ``finished`` / ``failed``.
    phase: str = "unrouted"
    #: Simulated time the current phase began — the start of the span
    #: the next phase-changing event closes.
    phase_start: float = 0.0
    #: True once any admission cycle began, kept across requeues (the
    #: timestamps above describe the *current* cycle only).
    admitted_before: bool = False
    token_ids: List[int] = field(default_factory=list)
    #: Simulated inter-token gap of each decode token: clock delta from
    #: the previous committed token of *this* request to this one.  The
    #: gap includes any stall the scheduler imposed between the two
    #: steps (e.g. another request's whole-prompt chunk), which is what
    #: makes decode-latency percentiles sensitive to head-of-line
    #: blocking.  The first token's latency is ``time_to_first_token``.
    token_latencies: List[float] = field(default_factory=list)
    #: Times this request was preempted (optimistic admission releasing
    #: its pages under pool pressure).  Cumulative across preempt /
    #: requeue cycles — the requeue reset does *not* clear it.
    n_preemptions: int = 0
    #: Prompt and decode tokens discarded by preemptions and recomputed
    #: from scratch on readmission.  Greedy decoding replays the exact
    #: same stream, so this is pure latency cost, never token loss.
    recompute_tokens: int = 0
    #: Livelock guard: set when the request is preempted, cleared the
    #: next time it commits any work (a prefill chunk or a decode
    #: token).  A protected request is never selected as a preemption
    #: victim, so no request can be preempted twice without progress.
    preempt_protected: bool = False
    #: Placement retries *scheduled* after a failed placement (cluster
    #: mode; the ``retry`` lifecycle event).  Bounded by the cluster's
    #: retry budget; exhaustion fails the request cleanly.
    n_retries: int = 0
    #: KV-page corruption strikes survived: each one quarantined the
    #: sequence's pages and recomputed it from scratch (greedy decoding
    #: replays the identical stream, so corruption costs latency, never
    #: tokens).
    n_corruptions: int = 0
    #: Set when the degradation ladder escalated this request to a more
    #: aggressive cascade-pruning schedule under pool pressure.  A
    #: degraded request still receives its full decode budget, but its
    #: token stream is not comparable to a fault-free run's.
    degraded: bool = False
    #: The escalated schedule applied by the degradation ladder; when
    #: set, :meth:`ServingEngine.plan_for` resolves it instead of the
    #: request's own schedule.  Lives on the record (not the request)
    #: so it survives cross-replica requeues.
    pruning_override: Optional[object] = None
    #: The request's cascade schedule replayed for the engine that
    #: holds it: keep counts, head counts and worst-case KV bounds per
    #: layer.  Built by :meth:`ServingEngine.submit` (again only when
    #: the degradation ladder installs ``pruning_override``) and read —
    #: never re-derived — by admission, pool billing, the cost model
    #: and the backlog estimates.
    plan: Optional[SequencePlan] = None
    #: Terminal failure reason for ``FAILED`` records: ``"unplaceable"``
    #: (no surviving replica can ever hold the reservation),
    #: ``"retry_budget"`` (placement retries exhausted), ``"deadline"``
    #: (per-request deadline expired before admission), or ``"shed"``
    #: (best-effort load dropped by the degradation ladder).
    failure: Optional[str] = None

    @property
    def queue_wait(self) -> float:
        """Seconds spent waiting for admission (pool + batch pressure)."""
        if self.admit_time is None:
            raise ValueError("request was never admitted")
        return self.admit_time - self.request.arrival_time

    @property
    def time_to_first_token(self) -> float:
        if self.first_token_time is None:
            raise ValueError("request produced no tokens")
        return self.first_token_time - self.request.arrival_time

    @property
    def n_generated(self) -> int:
        return len(self.token_ids)

    def __setattr__(self, name: str, value: object) -> None:
        if name in _LIFECYCLE_FIELDS and name in self.__dict__:
            raise AttributeError(
                f"RequestRecord.{name} is written by transition() only"
            )
        object.__setattr__(self, name, value)


class RequestQueue:
    """Priority + FIFO queue over not-yet-admitted requests.

    Pop order is ``(priority, arrival_time, push order)``.  The third
    key is a monotonic per-queue counter stamped at :meth:`push`, so
    requests that tie on priority *and* arrival time pop exactly in the
    order they entered the queue — never by request id and never by
    comparing request payloads (which are not orderable).  Requeued
    requests (a drained cluster replica pushing its in-flight work back
    through the router) therefore line up behind equal-priority
    originals instead of jumping the line.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._push_counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, request: Request) -> None:
        heapq.heappush(
            self._heap,
            (
                request.priority,
                request.arrival_time,
                next(self._push_counter),
                request,
            ),
        )

    def peek(self) -> Request:
        if not self._heap:
            raise IndexError("queue is empty")
        return self._heap[0][3]

    def pop(self) -> Request:
        if not self._heap:
            raise IndexError("queue is empty")
        return heapq.heappop(self._heap)[3]

    def as_ordered_list(self) -> Sequence[Request]:
        """Waiting requests in admission order (non-destructive)."""
        return [entry[3] for entry in sorted(self._heap)]

    def remove(self, request: Request) -> bool:
        """Drop one waiting request (deadline expiry / load shedding).

        Returns False if the request is not in the queue.  The
        remaining entries keep their original push counters, so
        relative pop order is untouched.
        """
        for i, entry in enumerate(self._heap):
            if entry[3] is request:
                last = self._heap.pop()
                if i < len(self._heap):
                    self._heap[i] = last
                    heapq.heapify(self._heap)
                return True
        return False

    def drain(self) -> List[Request]:
        """Pop every waiting request, in admission order."""
        drained = [entry[3] for entry in sorted(self._heap)]
        self._heap.clear()
        return drained


class IllegalTransitionError(RuntimeError):
    """A lifecycle event was applied in a phase its row does not list."""


#: Phases that hold an open span (named after the phase) on the
#: request's trace track.
SPAN_PHASES = ("queued", "prefill", "decode")


@dataclass(frozen=True)
class Transition:
    """One row of :data:`LIFECYCLE` (or of the fleet's
    :data:`repro.faults.REPLICA_LIFECYCLE`, which reads ``axis``,
    ``ledger`` and ``effect`` too).

    Attributes:
        sources: phases the event is legal in.
        target: next phase (``None`` = stay; the open span carries on).
        status: ``RequestStatus`` set (``None`` = unchanged).
        stamp: record timestamp field set to the event time.
        tally: record tally the event adds one to (``n_retries``, the
            strike tallies, a replica's ``n_recovered``); the row's
            first counter is its metric twin.
        strike: the event discards committed work: ``work_tokens`` is
            booked as ``recompute_tokens`` and the livelock guard
            (``preempt_protected``) armed.
        requeue: reset the record to its pre-admission state — greedy
            decoding replays the identical stream, and the original
            ``arrival_time`` keeps the penalty visible in the tails.
        outcome: ``outcome`` label of the phase span the event closes.
        instants: instants emitted; the first carries the caller's args.
        counters: ``(name, *label_args)`` counters bumped, labelled with
            the emitting engine plus the named event args.
        track: trace track (``None`` = the request's own ``req <id>``).
        axis: record attribute ``sources`` / ``target`` speak of (a
            replica also has a ``pace`` and a ``breaker``).
        ledger: membership steps the replica's shard takes, in order.
        effect: the driver-side work the event triggers, by name.
    """

    sources: Tuple[str, ...]
    target: Optional[str] = None
    status: Optional[RequestStatus] = None
    stamp: Optional[str] = None
    tally: Optional[str] = None
    strike: bool = False
    requeue: bool = False
    outcome: Optional[str] = None
    instants: Tuple[str, ...] = ()
    counters: Tuple[Tuple[str, ...], ...] = ()
    track: Optional[str] = None
    axis: str = "phase"
    ledger: Tuple[str, ...] = ()
    effect: Optional[str] = None


#: Every event of the request lifecycle, by name.  Failing events
#: (``shed`` — the degradation ladder or an expired deadline — and
#: ``route_failed``) take the failure reason as their ``reason`` arg.
LIFECYCLE: Dict[str, Transition] = {
    "submitted": Transition(
        ("unrouted",), "pending", instants=("submitted",),
        counters=(("repro_requests_submitted_total",),),
    ),
    "queued": Transition(("pending",), "queued"),
    "admitted": Transition(
        ("queued",), "prefill", RequestStatus.RUNNING, stamp="admit_time",
        outcome="admitted", instants=("admitted",),
        counters=(("repro_requests_admitted_total",),),
    ),
    "promoted": Transition(
        ("prefill",), "decode", stamp="first_token_time",
        outcome="promoted", instants=("promoted",),
        counters=(("repro_tokens_total",),),
    ),
    "token": Transition(("decode",), counters=(("repro_tokens_total",),)),
    "finished": Transition(
        ("decode",), "finished", RequestStatus.FINISHED, stamp="finish_time",
        outcome="finished", instants=("finished",),
        counters=(("repro_requests_finished_total",),),
    ),
    "preempted": Transition(
        ("prefill", "decode"), "queued", tally="n_preemptions",
        strike=True, requeue=True, outcome="preempted",
        instants=("preempted", "requeued"),
        counters=(("repro_preemptions_total",),),
    ),
    "quarantined": Transition(
        ("prefill", "decode"), "queued", tally="n_corruptions",
        strike=True, requeue=True, outcome="quarantined",
        instants=("quarantined", "requeued"),
        counters=(("repro_corruptions_total",),),
    ),
    "drained": Transition(
        ("pending", "queued", "prefill", "decode"), "unrouted",
        requeue=True, outcome="drained",
    ),
    "shed": Transition(
        ("queued",), "failed", RequestStatus.FAILED, outcome="failed",
        instants=("shed",),
        counters=(("repro_requests_shed_total", "reason"),
                  ("repro_requests_failed_total",)),
    ),
    "repruned": Transition(
        ("queued",), instants=("repruned",),
        counters=(("repro_requests_repruned_total",),),
    ),
    "retry": Transition(
        ("unrouted",), tally="n_retries", instants=("route_retry",),
        counters=(("repro_route_retries_total",),), track="router",
    ),
    "route_failed": Transition(
        ("unrouted",), "failed", RequestStatus.FAILED,
        instants=("route_failed",),
        counters=(("repro_requests_failed_total",),), track="router",
    ),
}


def emit_row(
    row: Transition, now: float, tel, process: str, track: str,
    args: Dict[str, object], amount: float = 1.0, **labels,
) -> None:
    """The telemetry half of a table row, through ``tel`` under
    ``process``: the row's instants on ``track`` (the first carries
    ``args``) and its counters, labelled from ``args`` and ``labels``;
    the first counter moves by ``amount``."""
    for i, name in enumerate(row.instants):
        tel.instant(name, now, process, track, **(args if i == 0 else {}))
    labels.update(args)
    for i, (name, *keys) in enumerate(row.counters):
        tel.count(
            name, amount if i == 0 else 1.0, engine=process,
            **{key: labels[key] for key in keys},
        )


def transition(
    record: RequestRecord, event: str, now: float, tel, process: str,
    **args,
) -> None:
    """Apply one :data:`LIFECYCLE` row to ``record`` at time ``now``.

    The only writer of a record's status, timestamps and phase: checks
    the event is legal in the record's phase
    (:class:`IllegalTransitionError` otherwise), moves the record
    fields the row names, then — through ``tel``
    (:class:`repro.telemetry.Telemetry`), under ``process`` — closes
    the span of the phase it left and emits the row's instants and
    counters.
    """
    row = LIFECYCLE.get(event)
    if row is None or record.phase not in row.sources:
        raise IllegalTransitionError(
            f"request {record.request.request_id}: event {event!r} is not "
            f"legal in phase {record.phase!r}"
        )
    state = vars(record)
    phase, phase_start = record.phase, record.phase_start
    if row.requeue:
        state["admitted_before"] |= record.admit_time is not None
        state.update(
            status=RequestStatus.QUEUED, admit_time=None,
            first_token_time=None, finish_time=None,
        )
        record.token_ids.clear()
        record.token_latencies.clear()
    if row.tally is not None:
        state[row.tally] += 1
    if row.strike:
        record.recompute_tokens += int(args["work_tokens"])
        record.preempt_protected = True
    if row.status is not None:
        state["status"] = row.status
        if row.status is RequestStatus.FAILED:
            record.failure = args["reason"]
    if row.stamp is not None:
        state[row.stamp] = now
    if row.target is not None:
        state["phase"] = row.target
        state["phase_start"] = now
    if not tel.active:
        return
    track = row.track or f"req {record.request.request_id}"
    if row.outcome is not None and phase in SPAN_PHASES:
        tel.span(
            phase, phase_start, now, process, track, outcome=row.outcome
        )
    emit_row(row, now, tel, process, track, args)

"""Critical-path latency attribution: exact per-request blame vectors.

Every completed request's end-to-end latency (terminal event minus
arrival, on the simulated clock) is decomposed into a *blame vector* —
one exact rational duration per cause — by walking the request's phase
spans (:mod:`repro.insight.timeline`) and classifying each covered
segment and each uncovered gap:

========================  ========  =======================================
cause                     phase     what it measures
========================  ========  =======================================
``queue_wait``            queued    first admission wait (pool/batch
                                    pressure, admission stall)
``prefill``               prefill   the surviving prefill (every chunk of
                                    it) that promoted the request
``decode``                decode    the surviving decode — the sum of the
                                    inter-token gaps
``preempt_discard``       varies    prefill/decode work a preemption threw
                                    away (recompute cost)
``preempt_requeue``       queued    re-queue wait after a preemption
``quarantine_discard``    varies    work a KV-corruption quarantine threw
                                    away
``quarantine_requeue``    queued    re-queue wait after a quarantine
``drain_discard``         varies    work a replica drain threw away
``drain_requeue``         queued    drain-to-readmission penalty (re-route
                                    plus the new replica's queue)
``retry_backoff``         offline   time outside any engine: cluster
                                    routing latency and placement retry
                                    backoff
========================  ========  =======================================

Segments are exact :class:`fractions.Fraction` durations on the
exported-microsecond axis, so per-request components sum *bit-exactly*
to the recorded e2e latency — enforced by construction and re-asserted
per request.  Aggregations (per cause, per phase) are sums of exact
rationals and therefore deterministic and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..eval.reporting import Table
from .timeline import RequestTimeline, timelines_from_events

__all__ = [
    "CAUSES",
    "CAUSE_PHASE",
    "BlameVector",
    "TraceAttribution",
    "attribute_timeline",
]

#: Every attribution cause, in report order.
CAUSES = (
    "queue_wait",
    "prefill",
    "decode",
    "preempt_discard",
    "preempt_requeue",
    "quarantine_discard",
    "quarantine_requeue",
    "drain_discard",
    "drain_requeue",
    "retry_backoff",
)

#: Phase each cause's time is spent in.  Discarded work keeps the phase
#: it was discarded from, so it is resolved per segment (``varies``).
CAUSE_PHASE = {
    "queue_wait": "queued",
    "prefill": "prefill",
    "decode": "decode",
    "preempt_discard": "varies",
    "preempt_requeue": "queued",
    "quarantine_discard": "varies",
    "quarantine_requeue": "queued",
    "drain_discard": "varies",
    "drain_requeue": "queued",
    "retry_backoff": "offline",
}

#: Span outcomes that put the request back in a queue (and how the
#: following queued span / gap is then classified).
_DISRUPTION_REQUEUE = {
    "preempted": "preempt_requeue",
    "quarantined": "quarantine_requeue",
    "drained": "drain_requeue",
}

#: Discard cause for a span cut short by a disruption.
_DISRUPTION_DISCARD = {
    "preempted": "preempt_discard",
    "quarantined": "quarantine_discard",
    "drained": "drain_discard",
}

_PHASES = ("queued", "prefill", "decode", "offline")


@dataclass
class BlameVector:
    """One request's exact latency decomposition."""

    request_id: int
    priority: int
    #: ``finished`` / ``shed`` / ``route_failed``.
    terminal: str
    n_tokens: int
    arrival_us: Fraction
    end_us: Fraction
    #: Exact duration per cause, microseconds (every cause present).
    components: Dict[str, Fraction] = field(default_factory=dict)
    #: Exact duration per phase, microseconds (every phase present).
    phases: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def e2e_us(self) -> Fraction:
        return self.end_us - self.arrival_us

    @property
    def dominant_cause(self) -> str:
        """Largest component (ties break in :data:`CAUSES` order)."""
        return max(CAUSES, key=lambda c: (self.components[c], -CAUSES.index(c)))

    def to_dict(self) -> dict:
        """JSON-ready view (durations as float seconds)."""
        return {
            "request_id": self.request_id,
            "priority": self.priority,
            "terminal": self.terminal,
            "n_tokens": self.n_tokens,
            "e2e_s": float(self.e2e_us) / 1e6,
            "components_s": {
                cause: float(self.components[cause]) / 1e6
                for cause in CAUSES
            },
            "phases_s": {
                phase: float(self.phases[phase]) / 1e6
                for phase in _PHASES
            },
        }


def attribute_timeline(tl: RequestTimeline) -> BlameVector:
    """Decompose one complete timeline into its exact blame vector.

    Raises :class:`ValueError` when the timeline is incomplete (no
    arrival or no terminal event) or its spans overlap beyond the
    snapping tolerance — both mean the trace cannot support exact
    attribution for this request.
    """
    if not tl.complete:
        raise ValueError(
            f"request {tl.request_id}: timeline is incomplete "
            f"(arrival={tl.arrival_us}, terminal={tl.terminal}); "
            f"cannot attribute a request the trace never finished"
        )
    components = {cause: Fraction(0) for cause in CAUSES}
    phases = {phase: Fraction(0) for phase in _PHASES}

    def book(cause: str, phase: str, amount: Fraction) -> None:
        components[cause] += amount
        phases[phase] += amount

    cursor = tl.arrival_us
    #: Most recent disruption outcome — classifies the queued span /
    #: gap that follows a preempt, quarantine, or drain.
    disruption: Optional[str] = None
    for span in tl.spans:
        if span.start_us < cursor:
            raise ValueError(
                f"request {tl.request_id}: span {span.describe()} "
                f"overlaps the preceding segment ending at "
                f"{float(cursor)}us; overlapping lifecycle spans cannot "
                f"be attributed exactly"
            )
        if span.start_us > cursor:
            # Uncovered gap: time outside any engine.  After a drain it
            # is the re-route penalty; otherwise routing/retry backoff.
            gap = span.start_us - cursor
            if disruption == "drained":
                book("drain_requeue", "offline", gap)
            else:
                book("retry_backoff", "offline", gap)
        length = span.end_us - span.start_us
        if span.name == "queued":
            if disruption is not None:
                book(_DISRUPTION_REQUEUE[disruption], "queued", length)
            else:
                book("queue_wait", "queued", length)
        elif span.outcome in _DISRUPTION_DISCARD:
            book(_DISRUPTION_DISCARD[span.outcome], span.name, length)
        elif span.name == "prefill":
            book("prefill", "prefill", length)
        else:
            book("decode", "decode", length)
        disruption = (
            span.outcome if span.outcome in _DISRUPTION_REQUEUE
            else disruption
        )
        if span.outcome in ("admitted", "promoted", "finished"):
            disruption = None
        cursor = span.end_us
    if cursor > tl.end_us:
        raise ValueError(
            f"request {tl.request_id}: spans extend to {float(cursor)}us, "
            f"past the terminal event at {float(tl.end_us)}us"
        )
    if cursor < tl.end_us:
        tail = tl.end_us - cursor
        if disruption == "drained":
            book("drain_requeue", "offline", tail)
        else:
            book("retry_backoff", "offline", tail)

    vector = BlameVector(
        request_id=tl.request_id,
        priority=tl.priority,
        terminal=tl.terminal,
        n_tokens=tl.n_tokens,
        arrival_us=tl.arrival_us,
        end_us=tl.end_us,
        components=components,
        phases=phases,
    )
    total = sum(components.values())
    if total != vector.e2e_us:
        raise ValueError(
            f"request {tl.request_id}: blame vector sums to "
            f"{float(total)}us but e2e is {float(vector.e2e_us)}us — "
            f"attribution lost exactness"
        )
    return vector


@dataclass
class TraceAttribution:
    """Blame vectors for every attributable request in one trace."""

    vectors: List[BlameVector]
    #: Requests the trace left in flight (no terminal event): counted,
    #: never silently dropped.
    n_unattributed: int = 0

    @classmethod
    def from_timelines(
        cls, timelines: Dict[int, RequestTimeline]
    ) -> "TraceAttribution":
        vectors = []
        unattributed = 0
        for rid in sorted(timelines):
            tl = timelines[rid]
            if not tl.complete:
                unattributed += 1
                continue
            vectors.append(attribute_timeline(tl))
        return cls(vectors=vectors, n_unattributed=unattributed)

    @classmethod
    def from_events(cls, trace_events) -> "TraceAttribution":
        return cls.from_timelines(timelines_from_events(trace_events))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def cause_totals_us(self) -> Dict[str, Fraction]:
        totals = {cause: Fraction(0) for cause in CAUSES}
        for vector in self.vectors:
            for cause in CAUSES:
                totals[cause] += vector.components[cause]
        return totals

    def phase_totals_us(self) -> Dict[str, Fraction]:
        totals = {phase: Fraction(0) for phase in _PHASES}
        for vector in self.vectors:
            for phase in _PHASES:
                totals[phase] += vector.phases[phase]
        return totals

    def total_e2e_us(self) -> Fraction:
        return sum((v.e2e_us for v in self.vectors), Fraction(0))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic JSON-ready report."""
        total = self.total_e2e_us()
        cause_totals = self.cause_totals_us()
        phase_totals = self.phase_totals_us()
        return {
            "n_requests": len(self.vectors),
            "n_unattributed": self.n_unattributed,
            "total_e2e_s": float(total) / 1e6,
            "causes": {
                cause: {
                    "total_s": float(cause_totals[cause]) / 1e6,
                    "share": (
                        float(cause_totals[cause] / total) if total else 0.0
                    ),
                }
                for cause in CAUSES
            },
            "phases": {
                phase: {
                    "total_s": float(phase_totals[phase]) / 1e6,
                    "share": (
                        float(phase_totals[phase] / total) if total else 0.0
                    ),
                }
                for phase in _PHASES
            },
            "requests": [vector.to_dict() for vector in self.vectors],
        }

    def table(self, top_requests: int = 5) -> List[Table]:
        """Per-cause, per-phase, and worst-request summary tables."""
        total = self.total_e2e_us()
        n = len(self.vectors)
        ms = 1e3
        causes = Table(
            title=(
                f"latency attribution by cause — {n} request(s), "
                f"{float(total) / 1e6 * ms:.1f} ms total e2e"
            ),
            headers=["cause", "total (ms)", "share", "mean/req (ms)"],
        )
        cause_totals = self.cause_totals_us()
        for cause in CAUSES:
            amount = cause_totals[cause]
            causes.add_row(
                cause,
                f"{float(amount) / 1e6 * ms:.2f}",
                f"{float(amount / total) * 100:.1f}%" if total else "n/a",
                f"{float(amount) / 1e6 * ms / n:.2f}" if n else "n/a",
            )
        if self.n_unattributed:
            causes.add_note(
                f"{self.n_unattributed} request(s) had no terminal event "
                f"and were left unattributed"
            )
        phases = Table(
            title="latency attribution by phase",
            headers=["phase", "total (ms)", "share"],
        )
        phase_totals = self.phase_totals_us()
        for phase in _PHASES:
            amount = phase_totals[phase]
            phases.add_row(
                phase,
                f"{float(amount) / 1e6 * ms:.2f}",
                f"{float(amount / total) * 100:.1f}%" if total else "n/a",
            )
        worst = Table(
            title=f"slowest requests (top {top_requests})",
            headers=["request", "e2e (ms)", "dominant cause",
                     "dominant (ms)", "terminal"],
        )
        ranked = sorted(
            self.vectors, key=lambda v: (-v.e2e_us, v.request_id)
        )[:top_requests]
        for vector in ranked:
            cause = vector.dominant_cause
            worst.add_row(
                f"req {vector.request_id}",
                f"{float(vector.e2e_us) / 1e6 * ms:.2f}",
                cause,
                f"{float(vector.components[cause]) / 1e6 * ms:.2f}",
                vector.terminal,
            )
        return [causes, phases, worst]

    def render(self, top_requests: int = 5) -> str:
        return "\n\n".join(
            str(t) for t in self.table(top_requests=top_requests)
        )

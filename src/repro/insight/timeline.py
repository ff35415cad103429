"""Per-request lifecycle timelines reconstructed from trace events.

The attribution engine (:mod:`repro.insight.attribution`) needs, for
every request, the exact tiling of its end-to-end interval by lifecycle
phases: the ``queued`` / ``prefill`` / ``decode`` spans the serving and
cluster engines emit, the instants that bound them (``submitted``,
``promoted``, ``finished``, ``shed``, ``route_failed``), and the
uncovered gaps in between (cluster routing latency, retry backoff,
drain-to-resubmit windows).  This module turns Chrome ``traceEvents``
— a loaded trace file, or ``chrome_trace(tracer)["traceEvents"]`` for
an in-memory :class:`~repro.telemetry.tracer.Tracer` — into that
normalized per-request view.

Exactness model
---------------

Timestamps live in the *microsecond domain* as exact rationals
(:class:`fractions.Fraction` of the exported float microsecond
values); an ``arrival_time`` argument, recorded in seconds, takes the
Chrome exporter's own ``ts = t * 1e6`` conversion bit for bit.

A span's exported end (``ts + dur``) can differ from the next span's
start — or from the terminal instant — by a float ulp, because the
exporter rounds start and duration independently.  :data:`SNAP_EPS_US`
(one simulated nanosecond) bounds that rounding; adjacent boundaries
within it are *snapped* together so phase segments telescope exactly
and blame vectors sum bit-exactly to the recorded e2e latency.  Real
scheduling gaps are several orders of magnitude wider, so snapping can
never swallow one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SNAP_EPS_US",
    "PhaseSpan",
    "RequestTimeline",
    "timelines_from_events",
]

#: Boundary-snapping tolerance in exported microseconds: 1e-3 us = 1
#: simulated nanosecond, far above the float rounding it absorbs (at
#: most a few ulps of a <1e7 us timestamp, ~1e-8 us) and far below any
#: real scheduling gap the simulated clock produces (>= microseconds).
SNAP_EPS_US = Fraction(1, 1000)

#: Request tracks are named ``req <id>`` by the engines.
_TRACK_RE = re.compile(r"^req (\d+)$")

#: Lifecycle phase spans on request tracks — the span-holding phases of
#: :data:`repro.serving.request.LIFECYCLE` (``SPAN_PHASES`` there).
PHASES = ("queued", "prefill", "decode")

#: Instants that terminate a request's timeline: the instants of the
#: table's rows whose next phase is ``finished`` / ``failed``.
_TERMINALS = ("finished", "shed", "route_failed")


@dataclass
class PhaseSpan:
    """One lifecycle phase interval on a request's timeline."""

    name: str
    start_us: Fraction
    end_us: Fraction
    outcome: str
    process: str

    def describe(self) -> str:
        return (
            f"{self.name}[{float(self.start_us)}us..{float(self.end_us)}us"
            f", outcome={self.outcome}, process={self.process}]"
        )


@dataclass
class RequestTimeline:
    """Everything one request did, on the exported-microsecond axis."""

    request_id: int
    priority: int = 0
    prompt_len: int = 0
    max_new_tokens: int = 0
    #: Exact arrival timestamp (``arrival_time * 1e6``); falls back to
    #: the first ``submitted`` instant for traces predating the
    #: ``arrival_time`` span metadata.
    arrival_us: Optional[Fraction] = None
    #: ``submitted`` instant times — one per engine the request visited.
    submit_us: List[Fraction] = field(default_factory=list)
    #: ``promoted`` instants (first token of each admission cycle).
    promoted_us: List[Fraction] = field(default_factory=list)
    spans: List[PhaseSpan] = field(default_factory=list)
    #: ``finished`` / ``shed`` / ``route_failed``, or ``None`` when the
    #: trace ends with the request still in flight (partial run).
    terminal: Optional[str] = None
    end_us: Optional[Fraction] = None
    n_tokens: int = 0
    n_route_retries: int = 0

    @property
    def complete(self) -> bool:
        """Whether the timeline is attributable end to end."""
        return self.arrival_us is not None and self.end_us is not None

    @property
    def failed(self) -> bool:
        return self.terminal in ("shed", "route_failed")

    @property
    def ttft_us(self) -> Optional[Fraction]:
        """First token of the *surviving* admission cycle vs arrival.

        Matches ``RequestRecord.time_to_first_token``: preempt /
        quarantine / drain requeues reset the record's first-token
        time, so the last promotion is the one the stats report.
        """
        if self.arrival_us is None or not self.promoted_us:
            return None
        return self.promoted_us[-1] - self.arrival_us

    def _normalize(self) -> None:
        """Sort spans and snap ulp-sized boundary mismatches (in place).

        Adjacent span boundaries, the arrival vs the first span start,
        and the last span end vs the terminal instant are each snapped
        when within :data:`SNAP_EPS_US`, re-establishing the exact
        telescoping the simulated clock guarantees in seconds.
        """
        self.spans.sort(key=lambda s: (s.start_us, s.end_us, s.name))
        self.submit_us.sort()
        self.promoted_us.sort()
        for prev, nxt in zip(self.spans, self.spans[1:]):
            if abs(nxt.start_us - prev.end_us) <= SNAP_EPS_US:
                prev.end_us = nxt.start_us
        if self.spans and self.arrival_us is not None:
            first = self.spans[0]
            if abs(first.start_us - self.arrival_us) <= SNAP_EPS_US:
                first.start_us = self.arrival_us
        if self.spans and self.end_us is not None:
            last = self.spans[-1]
            if abs(self.end_us - last.end_us) <= SNAP_EPS_US:
                last.end_us = self.end_us


def _us(t: float) -> Fraction:
    """Exact rational of a float timestamp on the exported-us axis."""
    return Fraction(t * 1e6)


def timelines_from_events(
    trace_events: Iterable[dict],
) -> Dict[int, RequestTimeline]:
    """Timelines from Chrome ``traceEvents`` dicts."""
    trace_events = list(trace_events)
    procs: Dict[int, str] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for event in trace_events:
        ph = event.get("ph")
        if ph == "M":
            args = event.get("args", {})
            if event.get("name") == "process_name":
                procs[event["pid"]] = str(args.get("name", ""))
            elif event.get("name") == "thread_name":
                threads[(event["pid"], event.get("tid", 0))] = str(
                    args.get("name", "")
                )
    timelines: Dict[int, RequestTimeline] = {}

    def timeline(rid: int) -> RequestTimeline:
        if rid not in timelines:
            timelines[rid] = RequestTimeline(request_id=rid)
        return timelines[rid]

    for event in trace_events:
        ph = event.get("ph")
        if ph not in ("X", "i"):
            continue
        name = event.get("name", "")
        args = event.get("args", {})
        pid = event.get("pid")
        start = Fraction(event["ts"])
        match = _TRACK_RE.match(threads.get((pid, event.get("tid", 0)), ""))
        if match is None:
            # Fleet router instants carry the request id in their args.
            if ph == "i" and name == "route_failed" and "request_id" in args:
                tl = timeline(int(args["request_id"]))
                tl.terminal = "route_failed"
                tl.end_us = start
                if "arrival_time" in args and tl.arrival_us is None:
                    tl.arrival_us = _us(float(args["arrival_time"]))
            elif ph == "i" and name == "route_retry" \
                    and "request_id" in args:
                timeline(int(args["request_id"])).n_route_retries += 1
            continue
        tl = timeline(int(match.group(1)))
        if ph == "X" and name in PHASES:
            tl.spans.append(PhaseSpan(
                name=name, start_us=start,
                end_us=start + Fraction(event.get("dur", 0.0)),
                outcome=str(args.get("outcome", "")),
                process=procs.get(pid, str(pid)),
            ))
        elif ph == "i":
            if name == "submitted":
                tl.submit_us.append(start)
                tl.priority = int(args.get("priority", tl.priority))
                tl.prompt_len = int(args.get("prompt_len", tl.prompt_len))
                tl.max_new_tokens = int(
                    args.get("max_new_tokens", tl.max_new_tokens)
                )
                if "arrival_time" in args:
                    tl.arrival_us = _us(float(args["arrival_time"]))
            elif name == "promoted":
                tl.promoted_us.append(start)
            elif name in _TERMINALS:
                tl.terminal = name
                tl.end_us = start
                if name == "finished":
                    tl.n_tokens = int(args.get("n_tokens", 0))

    for tl in timelines.values():
        if tl.arrival_us is None and tl.submit_us:
            tl.arrival_us = min(tl.submit_us)
        tl._normalize()
    return dict(sorted(timelines.items()))

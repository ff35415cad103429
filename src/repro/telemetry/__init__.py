"""repro.telemetry — deterministic observability for the serving fleet.

Package guide
=============

The serving stack (PRs 1-5) runs on a simulated clock, which makes a
run a *reproducible schedule*: the same trace in always yields the same
admissions, preemptions, and token streams out.  This package turns
that property into observability artifacts that are themselves
reproducible:

``tracer``
    :class:`Tracer` — span/instant/counter events on the simulated
    timeline.  Each request's lifecycle spans and instants come from
    one table (:data:`repro.serving.request.LIFECYCLE`, rendered in
    the serving guide's "Request lifecycle" section), the KV
    pool emits alloc/evict/preempt events through its observer hook,
    the cluster router emits per-replica scored decisions, and a
    replica's drain / fail / recover / straggler / breaker events come
    from the fleet's own table
    (:data:`repro.faults.REPLICA_LIFECYCLE`).

``metrics``
    :class:`MetricsRegistry` — Prometheus-style counters, gauges, and
    histograms plus a per-step time series (live batch size, pool
    occupancy, pruning savings, step FLOPs, backlog).  Exports itself as
    JSONL (:meth:`MetricsRegistry.to_jsonl`) and text exposition
    (:meth:`MetricsRegistry.prometheus_text`).

``profiler``
    :class:`HotPathProfiler` — the one *wall-clock* component,
    instrumenting the ``PackedDecodeBackend`` stages.  Kept out of the
    deterministic artifacts on purpose.

``export``
    :func:`chrome_trace_json` — Chrome trace-event / Perfetto JSON,
    byte-identical across identical runs.

``report``
    :func:`trace_report` — the ``repro trace-report`` summarizer:
    per-phase time breakdown, pruning-savings timeline, preemption and
    requeue storms.

The facade
==========

Emitters take a single :class:`Telemetry` object::

    tel = Telemetry(trace=True, metrics=True, profile=False)
    engine = ServingEngine(..., telemetry=tel)
    ...
    write_text("trace.json", chrome_trace_json(tel.tracer), "trace")

With telemetry off (the default everywhere), emitters receive
:data:`NULL_TELEMETRY`, whose ``active`` flag is ``False`` and whose
:meth:`~Telemetry.instant` / :meth:`~Telemetry.span` /
:meth:`~Telemetry.count` helpers return at their sink guard; the
per-step sample is built only under ``active``.  The inertness tests
pin bit-identical token streams with telemetry on vs. off.
"""

from __future__ import annotations

from typing import Optional

from .export import (
    chrome_trace,
    chrome_trace_json,
    write_text,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import HotPathProfiler
from .report import (
    TraceOverlapError,
    load_chrome_trace,
    trace_report,
    validate_chrome_trace,
)
from .tracer import TraceEvent, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "TraceOverlapError",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HotPathProfiler",
    "chrome_trace",
    "chrome_trace_json",
    "write_text",
    "validate_chrome_trace",
    "load_chrome_trace",
    "trace_report",
]


class Telemetry:
    """Bundle of sinks an emitter writes to.

    Each component is ``None`` when its flag is off; ``active`` is the
    single guard hot paths check before emitting trace events or metric
    samples.  The profiler is intentionally excluded from ``active`` —
    it hooks the backend directly and does not affect event emission.
    """

    __slots__ = ("tracer", "metrics", "profiler")

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
    ) -> None:
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.profiler: Optional[HotPathProfiler] = (
            HotPathProfiler() if profile else None
        )

    @property
    def active(self) -> bool:
        """True when trace events or metric samples should be emitted."""
        return self.tracer is not None or self.metrics is not None

    # Emission helpers: the tracer / metrics ``None`` guards live here,
    # so emitters state *what* happened once and never branch on which
    # sinks are installed.
    def instant(
        self, name: str, t: float, process: str, track: str, **args
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, t, process, track, **args)

    def span(
        self, name: str, start: float, end: float, process: str,
        track: str, **args,
    ) -> None:
        if self.tracer is not None:
            self.tracer.span(name, start, end, process, track, **args)

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def __repr__(self) -> str:
        return (
            f"Telemetry(trace={self.tracer is not None}, "
            f"metrics={self.metrics is not None}, "
            f"profile={self.profiler is not None})"
        )


#: Shared inert instance — the default ``telemetry`` everywhere.
NULL_TELEMETRY = Telemetry(trace=False, metrics=False, profile=False)

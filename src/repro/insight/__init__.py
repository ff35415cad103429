"""Latency attribution, SLO attainment, and perf-regression tracking.

``repro.insight`` is the *analysis* layer over :mod:`repro.telemetry`:
it consumes traces, request records, and bench results the serving
stack already produces and turns them into verdicts.  It is strictly
read-only: engines neither import it nor hold a policy, so the caller
computes SLO verdicts from the records a run returns, and no stat or
token of the run can depend on them.

Three subsystems:

* :mod:`~repro.insight.timeline` + :mod:`~repro.insight.attribution` —
  **critical-path latency attribution**.  Rebuilds each request's
  lifecycle from trace events and decomposes its end-to-end latency
  into an *exact* blame vector over ten causes (queue wait, prefill,
  decode, preempt/quarantine/drain discard and requeue, retry backoff).
  Arithmetic is :class:`fractions.Fraction`-exact in the exported
  microsecond domain: per-cause and per-phase totals sum bit-exactly to
  the recorded e2e latency, and any trace that cannot be tiled raises
  instead of guessing.  CLI: ``repro attribution TRACE`` (part of
  ``repro slo-report``'s text output too).

* :mod:`~repro.insight.slo` — **declarative SLOs**.
  ``CLASS:METRIC:pPCT:TARGET_MS`` objectives (e.g. ``0:ttft:p95:150``,
  ``all:e2e:p99:2000``) evaluated over simulated time: measured
  percentile, attainment, and error-budget burn rate per tumbling
  window.  ``repro serve`` / ``serve-cluster --slo`` evaluate the
  run's records (``policy.evaluate_records(stats.records,
  stats.makespan_s)``; a cluster's are ``stats.fleet``'s) into
  ``ServingStats.slo`` / ``ClusterStats.slo``; ``repro slo-report``
  evaluates a trace offline.

* :mod:`~repro.insight.history` — **continuous perf tracking**.
  Benches append normalized, timestamp-free records to
  ``benchmarks/results/history/*.jsonl``; ``repro bench-compare``
  judges the latest run against the median of history with noise-aware
  (median + MAD) thresholds and fails CI on regression.

Everything here inherits the simulated-clock determinism contract:
identical runs produce byte-identical reports, histories, and JSON
artifacts.
"""

from .attribution import CAUSES, BlameVector, TraceAttribution
from .history import (
    CompareReport,
    append_history,
    compare_all,
    compare_history,
    load_history,
    metric,
)
from .slo import (
    RequestSample,
    SLOObjective,
    SLOPolicy,
    SLOReport,
    samples_from_records,
    samples_from_timelines,
)
from .timeline import (
    PhaseSpan,
    RequestTimeline,
    timelines_from_events,
)

__all__ = [
    "CAUSES",
    "BlameVector",
    "CompareReport",
    "PhaseSpan",
    "RequestSample",
    "RequestTimeline",
    "SLOObjective",
    "SLOPolicy",
    "SLOReport",
    "TraceAttribution",
    "append_history",
    "compare_all",
    "compare_history",
    "load_history",
    "metric",
    "samples_from_records",
    "samples_from_timelines",
    "timelines_from_events",
]

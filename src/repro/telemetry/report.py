"""Trace summarization behind the ``repro trace-report`` CLI.

Consumes a Chrome trace-event file written by ``--trace-out`` (any
conforming ``traceEvents`` JSON works) and renders:

* **per-phase breakdown** — wall-of-simulated-time spent in each
  request lifecycle phase (``queued`` / ``prefill`` / ``decode``),
  with counts, totals, means, and maxima;
* **pruning-savings timeline** — the fleet-cumulative
  ``reclaimed_pages`` counter over simulated time (pages cascade
  pruning drained back to the pool mid-generation), as a series table
  and an ASCII chart;
* **preemption / requeue storms** — totals plus the busiest time
  window, so an admission-headroom misconfiguration (the thrash regime
  the ROADMAP documents) is visible at a glance.

``validate_chrome_trace`` doubles as the format-validity gate used by
the tests: every event must carry the Chrome-required keys with the
right types before the report trusts the file.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from ..eval.reporting import Table

__all__ = [
    "TraceOverlapError",
    "validate_chrome_trace",
    "load_chrome_trace",
    "trace_report",
]


class TraceOverlapError(ValueError):
    """Two spans on one track overlap in time.

    Every track the engines emit is a sequential lane (one request's
    lifecycle, one pool's events): spans on it must tile, never
    overlap.  An overlap means an unbalanced span or a clock bug
    upstream, and would silently corrupt any per-track time accounting
    built on the trace — latency attribution in particular — so the
    validator rejects the file, naming both offending spans.
    """

#: Request lifecycle phases, in pipeline order.
_PHASES = ("queued", "prefill", "decode")
#: Events counted as scheduler disruption for the storm analysis.
_STORM_EVENTS = ("preempted", "requeued", "replica_drain", "replica_fail")
#: Number of equal time windows the storm analysis buckets events into.
_STORM_BINS = 20


def validate_chrome_trace(trace: dict) -> List[dict]:
    """Check trace-event structure; returns the event list.

    Raises ``ValueError`` on anything Chrome/Perfetto would reject:
    a missing ``traceEvents`` list, events without a phase, phase-
    specific required fields (``ts``/``dur``), or non-integer pid/tid.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("not a Chrome trace: no traceEvents list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"traceEvents[{i}] has no phase ('ph')")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{i}] has no name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"traceEvents[{i}] has no integer pid")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"traceEvents[{i}] has no numeric ts")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ValueError(
                f"traceEvents[{i}] is a complete event with no dur"
            )
    _check_track_overlaps(events)
    return events


#: Overlap tolerance in exported microseconds: the exporter rounds a
#: span's ts and dur independently, so two abutting spans can disagree
#: by a float ulp.  1e-3 us (one simulated nanosecond) absorbs that
#: without masking any real overlap.
_OVERLAP_EPS_US = 1e-3


def _check_track_overlaps(events: Sequence[dict]) -> None:
    """Reject overlapping spans on any single (pid, tid) track."""
    tracks: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        start = float(event["ts"])
        tracks.setdefault((event["pid"], event.get("tid", 0)), []).append(
            (start, start + float(event["dur"]), event["name"])
        )
    thread_names = _thread_names(events)
    for key in sorted(tracks):
        spans = sorted(tracks[key])
        for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
            if s1 < e0 - _OVERLAP_EPS_US:
                track = thread_names.get(key) or f"pid {key[0]} tid {key[1]}"
                raise TraceOverlapError(
                    f"overlapping spans on track {track!r}: "
                    f"{n0!r} [{s0}us..{e0}us] overlaps "
                    f"{n1!r} [{s1}us..{e1}us]"
                )


def _thread_names(events: Sequence[dict]) -> Dict[Tuple[int, int], str]:
    names: Dict[Tuple[int, int], str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[(event["pid"], event.get("tid", 0))] = event.get(
                "args", {}
            ).get("name", "?")
    return names


def load_chrome_trace(path: str) -> List[dict]:
    """Read and validate a trace file; returns its events."""
    with open(path) as fh:
        try:
            trace = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return validate_chrome_trace(trace)


def _process_names(events: Sequence[dict]) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event.get("args", {}).get("name", "?")
    return names


def _table(**kwargs) -> Table:
    # Imported on use: ``repro.eval`` imports the serving engine, which
    # imports this package.
    from ..eval.reporting import Table

    return Table(**kwargs)


def _phase_table(events: Sequence[dict]) -> Table:
    spans: Dict[str, List[float]] = {}
    outcomes: Dict[str, Dict[str, int]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event["name"]
        spans.setdefault(name, []).append(float(event["dur"]))
        outcome = event.get("args", {}).get("outcome")
        if outcome:
            counts = outcomes.setdefault(name, {})
            counts[outcome] = counts.get(outcome, 0) + 1
    t = _table(
        title="per-phase time breakdown (simulated)",
        headers=["phase", "spans", "total ms", "mean ms", "max ms",
                 "share", "outcomes"],
    )
    ordered = [p for p in _PHASES if p in spans]
    ordered += sorted(set(spans) - set(_PHASES))
    grand_total = sum(sum(d) for d in spans.values()) or 1.0
    for name in ordered:
        durs = spans[name]
        total = sum(durs)
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(outcomes.get(name, {}).items())
        )
        t.add_row(
            name, str(len(durs)), f"{total / 1e3:.3f}",
            f"{total / len(durs) / 1e3:.3f}", f"{max(durs) / 1e3:.3f}",
            f"{total / grand_total:.1%}", rendered or "-",
        )
    if not spans:
        t.add_note("trace contains no phase spans")
    t.add_note("span durations are simulated-clock; ts unit is us")
    return t


def _savings_series(
    events: Sequence[dict],
) -> Tuple[List[float], List[float]]:
    """Fleet-cumulative reclaimed pages over simulated time.

    Each process's ``kv_pool`` counter reports *its* cumulative
    ``reclaimed_pages``; the fleet series carries the sum of every
    process's last-known value at each sample point.
    """
    last: Dict[int, float] = {}
    ts: List[float] = []
    totals: List[float] = []
    samples = [
        e for e in events
        if e.get("ph") == "C" and e["name"] == "kv_pool"
        and "reclaimed_pages" in e.get("args", {})
    ]
    for event in sorted(samples, key=lambda e: (e["ts"], e["pid"])):
        last[event["pid"]] = float(event["args"]["reclaimed_pages"])
        ts.append(float(event["ts"]) / 1e3)  # ms
        totals.append(sum(last.values()))
    return ts, totals


def _savings_section(events: Sequence[dict]) -> str:
    ts, totals = _savings_series(events)
    if not ts:
        return "pruning-savings timeline: no kv_pool counter samples\n"
    t = _table(
        title="pruning savings (pages reclaimed over time)",
        headers=["metric", "value"],
    )
    t.add_row("samples", str(len(ts)))
    t.add_row("first reclaim (ms)", next(
        (f"{x:.3f}" for x, y in zip(ts, totals) if y > 0), "never"
    ))
    t.add_row("final pages reclaimed", f"{totals[-1]:.0f}")
    lines = [t.render()]
    if totals[-1] > 0 and len(ts) > 1:
        from ..eval.charts import line_chart

        lines.append("")
        lines.append(line_chart(
            ts, totals,
            title="cumulative KV pages reclaimed by pruning",
            x_label="ms", y_label="pages",
        ))
    return "\n".join(lines) + "\n"


def _storm_table(events: Sequence[dict]) -> Table:
    hits = [
        e for e in events
        if e.get("ph") == "i" and e["name"] in _STORM_EVENTS
    ]
    t = _table(
        title="preemption / requeue storms",
        headers=["event", "count", "peak window", "window at (ms)"],
    )
    if not hits:
        t.add_note("no preemption, requeue, or drain events in trace")
        return t
    t_max = max(float(e["ts"]) for e in hits) or 1.0
    width = t_max / _STORM_BINS
    for name in _STORM_EVENTS:
        stamps = [float(e["ts"]) for e in hits if e["name"] == name]
        if not stamps:
            continue
        bins = [0] * _STORM_BINS
        for ts in stamps:
            bins[min(int(ts / width), _STORM_BINS - 1)] += 1
        peak = max(bins)
        at = bins.index(peak) * width / 1e3
        t.add_row(name, str(len(stamps)), str(peak), f"{at:.3f}")
    t.add_note(
        f"peak window = most events in any of {_STORM_BINS} equal "
        f"slices of the trace"
    )
    return t


def trace_report(path: str) -> str:
    """Render the full trace summary for one trace file."""
    events = load_chrome_trace(path)
    processes = _process_names(events)
    n_spans = sum(1 for e in events if e.get("ph") == "X")
    n_instants = sum(1 for e in events if e.get("ph") == "i")
    n_counters = sum(1 for e in events if e.get("ph") == "C")
    header = _table(
        title=f"trace report — {path}",
        headers=["metric", "value"],
    )
    header.add_row("processes", ", ".join(
        processes[pid] for pid in sorted(processes)
    ) or "-")
    header.add_row("spans / instants / counters",
                   f"{n_spans} / {n_instants} / {n_counters}")
    sections = [
        header.render(),
        _phase_table(events).render(),
        _savings_section(events).rstrip("\n"),
        _storm_table(events).render(),
    ]
    return "\n\n".join(sections) + "\n"

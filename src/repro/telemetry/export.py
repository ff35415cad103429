"""Exporter: Chrome trace-event JSON.

The Chrome trace-event format (also consumed by Perfetto's legacy
importer) is a JSON object with a ``traceEvents`` list.  The exporter
maps the tracer's model onto it:

* each ``process`` (engine/replica name, ``fleet``) becomes a pid with
  a ``process_name`` metadata event;
* each ``track`` within a process (one per request, plus ``pool`` /
  ``router`` / ``scheduler``) becomes a tid with a ``thread_name``
  metadata event;
* spans export as ``"X"`` complete events (``ts``/``dur`` in
  microseconds of simulated time), instants as ``"i"`` thread-scoped
  instant events, counters as ``"C"`` counter events whose args render
  as stacked series in the viewer.

Everything serializes with sorted keys, fixed separators, and a
trailing newline, so a deterministic run produces a byte-identical
file — the property the determinism tests pin.

``open_sink``/``write_text`` implement the CLI's ``PATH | -`` contract:
``-`` writes to stdout instead of a file.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_text",
]

#: Microseconds per simulated second (Chrome ``ts`` unit).
_US = 1e6


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's events as a Chrome trace-event dict.

    pid/tid numbers are assigned in first-appearance order, which is
    deterministic for a deterministic run; metadata events naming every
    process and thread come first, then the payload events in emission
    order.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    meta: List[dict] = []
    payload: List[dict] = []

    def pid_of(process: str) -> int:
        pid = pids.get(process)
        if pid is None:
            pid = len(pids) + 1
            pids[process] = pid
            meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
            meta.append({
                "ph": "M", "name": "process_sort_index", "pid": pid,
                "tid": 0, "args": {"sort_index": pid},
            })
        return pid

    def tid_of(process: str, track: str) -> int:
        pid = pid_of(process)
        key = (process, track)
        tid = tids.get(key)
        if tid is None:
            tid = sum(1 for (p, _) in tids if p == process) + 1
            tids[key] = tid
            meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return tid

    for event in tracer.events:
        args = event.args_dict
        if event.kind == "span":
            payload.append({
                "ph": "X", "name": event.name, "cat": "sim",
                "pid": pid_of(event.process),
                "tid": tid_of(event.process, event.track),
                "ts": event.t * _US, "dur": event.dur * _US,
                "args": args,
            })
        elif event.kind == "instant":
            payload.append({
                "ph": "i", "name": event.name, "cat": "sim", "s": "t",
                "pid": pid_of(event.process),
                "tid": tid_of(event.process, event.track),
                "ts": event.t * _US, "args": args,
            })
        elif event.kind == "counter":
            payload.append({
                "ph": "C", "name": event.name, "cat": "sim",
                "pid": pid_of(event.process), "tid": 0,
                "ts": event.t * _US, "args": args,
            })
        else:  # pragma: no cover - Tracer only emits the three kinds
            raise ValueError(f"unknown event kind {event.kind!r}")

    return {
        "displayTimeUnit": "ms",
        "metadata": {
            "clock": "simulated",
            "tool": "repro.telemetry",
        },
        "traceEvents": meta + payload,
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Byte-deterministic serialization of :func:`chrome_trace`."""
    return json.dumps(
        chrome_trace(tracer), sort_keys=True, separators=(",", ":")
    ) + "\n"


def write_text(path: str, text: str, label: str) -> None:
    """Write ``text`` to ``path``, with ``-`` meaning stdout.

    File writes are announced on stdout (mirroring ``--stats-json``);
    stdout writes are emitted verbatim so the artifact stays parseable
    when piped.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    print(f"{label} written to {path}")

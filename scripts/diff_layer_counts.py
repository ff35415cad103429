#!/usr/bin/env python3
"""Diff the deterministic per-layer metrics of two traced benchmark runs.

    python3 benchmarks/e2e/run.py --workload W --trace 1 --seed 7 > A.txt   # parent
    python3 benchmarks/e2e/run.py --workload W --trace 1 --seed 7 > B.txt   # change
    python scripts/diff_layer_counts.py A.txt B.txt \\
        --equal '*.calls' --equal serving.stats.sim_tok_s \\
        --except nn.kv_cache.read.calls

Each file holds the standard output of one ``run.py --trace 1`` run (or
just its last line, the JSON verdict).  Every metric whose unit is a
count or a share — the ``.calls`` counters and the ratios of counts,
which repeat exactly from run to run — is compared, and each one that
differs is printed with both values.  ``--equal`` pins metrics (names
or ``fnmatch`` patterns, any unit) that must not have moved: the exit
status is 1 if one did, 2 if a pattern names no metric of the runs, 0
otherwise.  ``--except`` takes metrics out of what ``--equal`` pins —
the counters a change is meant to move — and prints each with both
values, moved or not.  Timings (``.self_s`` and the like) are never
compared: they are what ``run.py --compare`` judges over many runs.

This reads the benchmark's output only and imports nothing from it.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Dict, List, Optional

#: Units of the metrics that repeat exactly between runs of one commit.
EXACT_UNITS = ("count", "share")


def load_metrics(path: str) -> Dict[str, dict]:
    """``name -> {"value", "unit"}`` from the last line of ``path``."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty")
    try:
        verdict = json.loads(lines[-1])
        return verdict["metrics"]
    except (ValueError, KeyError, TypeError):
        raise SystemExit(
            f"{path}: last line is not a run.py verdict with 'metrics'"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("a", help="verdict of the first run (the parent)")
    parser.add_argument("b", help="verdict of the second run (the change)")
    parser.add_argument(
        "--equal", action="append", default=[], metavar="NAME",
        help="metric name or fnmatch pattern that must be equal in both "
             "(repeatable)",
    )
    parser.add_argument(
        "--except", dest="excepted", action="append", default=[],
        metavar="NAME",
        help="metric name or fnmatch pattern to print but not judge by "
             "--equal (repeatable)",
    )
    args = parser.parse_args(argv)
    a, b = load_metrics(args.a), load_metrics(args.b)
    names = sorted(set(a) | set(b))

    selected = {}
    for flag, patterns in [
        ("--except", args.excepted), ("--equal", args.equal),
    ]:
        selected[flag] = set()
        for pattern in patterns:
            matched = fnmatch.filter(names, pattern)
            if not matched:
                print(f"{flag} {pattern}: no such metric", file=sys.stderr)
                return 2
            selected[flag].update(matched)
    excepted = selected["--except"]
    pinned = selected["--equal"] - excepted

    def value(metrics, name):
        return metrics[name]["value"] if name in metrics else None

    moved = []
    for name in names:
        unit = (a.get(name) or b.get(name))["unit"]
        compared = unit in EXACT_UNITS or name in pinned or name in excepted
        if not compared:
            continue
        before, after = value(a, name), value(b, name)
        if before != after:
            moved.append(name)
        if before != after or name in excepted:
            flag = (
                "  [excepted by --except]" if name in excepted
                else "  [pinned by --equal]" if name in pinned else ""
            )
            print(f"{name}: {before!r} -> {after!r} ({unit}){flag}")
    broken = [name for name in moved if name in pinned]
    print(
        f"{len(moved)} of {len(names)} metrics differ; "
        f"{len(broken)} of {len(pinned)} pinned by --equal moved"
    )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

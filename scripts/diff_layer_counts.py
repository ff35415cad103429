#!/usr/bin/env python3
"""Diff the deterministic per-layer metrics of two traced benchmark runs.

    python3 benchmarks/e2e/run.py --workload W --trace 1 --seed 7 > A.txt   # parent
    python3 benchmarks/e2e/run.py --workload W --trace 1 --seed 7 > B.txt   # change
    python scripts/diff_layer_counts.py A.txt B.txt \\
        --equal '*.calls' --equal serving.stats.sim_tok_s \\
        --except nn.kv_cache.read.calls
    python scripts/diff_layer_counts.py --parent ../parent --change . \\
        --workload all --seed 7 --equal '*.calls'

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

The second form makes the runs itself: ``python3 benchmarks/e2e/run.py
--workload W --trace 1 --seed N`` in each checkout, for every
``--workload`` (repeatable; ``all`` names every workload of the
*change* checkout's ``BENCHMARK.json``), and judges each pair as above
under a heading of its own.  A run that exits non-zero or prints no
verdict is reported and counts as status 1; the exit status is the
worst of the workloads'.

Standard library only; this reads the benchmark's output and imports
nothing from it.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

COMMAND = ["python3", "benchmarks/e2e/run.py"]

#: Units of the metrics that repeat exactly between runs of one commit.
EXACT_UNITS = ("count", "share")


def parse_metrics(text: str, source: str) -> Dict[str, dict]:
    """``name -> {"value", "unit"}`` from the last line of a run's
    output; ``SystemExit`` naming ``source`` when there is no verdict."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{source}: empty")
    try:
        return json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, TypeError):
        raise SystemExit(
            f"{source}: last line is not a run.py verdict with 'metrics'"
        )


def load_metrics(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        return parse_metrics(handle.read(), path)


def run_metrics(checkout: Path, workload: str, seed: int) -> Dict[str, dict]:
    """The metrics of one traced run of ``workload`` in ``checkout``."""
    done = subprocess.run(
        COMMAND + ["--workload", workload, "--trace", "1",
                   "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    source = f"{checkout} {workload}"
    if done.returncode != 0:
        raise SystemExit(f"{source}: run exited {done.returncode}")
    return parse_metrics(done.stdout, source)


def compare(a: Dict[str, dict], b: Dict[str, dict], equal: List[str],
            excepted: List[str]) -> int:
    """Print what moved between ``a`` and ``b``; the exit status."""
    names = sorted(set(a) | set(b))
    selected = {}
    for flag, patterns in [("--except", excepted), ("--equal", equal)]:
        selected[flag] = set()
        for pattern in patterns:
            matched = fnmatch.filter(names, pattern)
            if not matched:
                print(f"{flag} {pattern}: no such metric", file=sys.stderr)
                return 2
            selected[flag].update(matched)
    unpinned = selected["--except"]
    pinned = selected["--equal"] - unpinned

    def value(metrics, name):
        return metrics[name]["value"] if name in metrics else None

    moved = []
    for name in names:
        unit = (a.get(name) or b.get(name))["unit"]
        compared = unit in EXACT_UNITS or name in pinned or name in unpinned
        if not compared:
            continue
        before, after = value(a, name), value(b, name)
        if before != after:
            moved.append(name)
        if before != after or name in unpinned:
            flag = (
                "  [excepted by --except]" if name in unpinned
                else "  [pinned by --equal]" if name in pinned else ""
            )
            print(f"{name}: {before!r} -> {after!r} ({unit}){flag}")
    broken = [name for name in moved if name in pinned]
    print(
        f"{len(moved)} of {len(names)} metrics differ; "
        f"{len(broken)} of {len(pinned)} pinned by --equal moved"
    )
    return 1 if broken else 0


def run_all(args, parser) -> int:
    """The second form: run and judge every workload asked for."""
    specs = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in specs["workloads"]]
    workloads: List[str] = []
    for name in args.workload:
        for workload in known if name == "all" else [name]:
            if workload not in known:
                parser.error(f"unknown workload {workload!r}; choose from "
                             f"{', '.join(known)} or 'all'")
            if workload not in workloads:
                workloads.append(workload)
    worst = 0
    for workload in workloads:
        print(f"== {workload} (seed {args.seed})", flush=True)
        try:
            status = compare(
                run_metrics(args.parent, workload, args.seed),
                run_metrics(args.change, workload, args.seed),
                args.equal, args.excepted,
            )
        except SystemExit as failed:
            print(f"{failed}: FAILED")
            status = 1
        worst = max(worst, status)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("a", nargs="?",
                        help="verdict of the first run (the parent)")
    parser.add_argument("b", nargs="?",
                        help="verdict of the second run (the change)")
    parser.add_argument("--parent", type=Path,
                        help="checkout to run as the parent")
    parser.add_argument("--change", type=Path,
                        help="checkout to run as the change")
    parser.add_argument(
        "--workload", action="append", default=[],
        help="a workload of BENCHMARK.json, or 'all'; repeatable "
             "(with --parent / --change)",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the runs (with --parent / --change)")
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
    if args.parent or args.change:
        if not (args.parent and args.change and args.workload):
            parser.error("--parent and --change need each other and "
                         "--workload")
        if args.a or args.b:
            parser.error("give two verdict files or --parent / --change")
        return run_all(args, parser)
    if not (args.a and args.b):
        parser.error("give two verdict files or --parent / --change")
    return compare(load_metrics(args.a), load_metrics(args.b),
                   args.equal, args.excepted)


if __name__ == "__main__":
    sys.exit(main())

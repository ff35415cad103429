#!/usr/bin/env python3
"""Alternating parent / change runs of one benchmark workload.

    python3 scripts/paired_runs.py --parent ../parent --change . \\
        --workload decode_spatten_fp32 --pairs 10 --seed 29
    python3 scripts/paired_runs.py --parent ../parent --change . \\
        --workload all --pairs 3 --seed 7

runs ``python3 benchmarks/e2e/run.py --workload W --seconds S --trace 0
--seed N`` in each checkout — ``S`` the benchmark's own ``run_seconds``
— ``--pairs`` times, alternating which side goes first, and reads only
the last line of each run's standard output (the JSON verdict).
``--workload`` repeats, and ``all`` names every workload of
``BENCHMARK.json``; the workloads run one after the other, each with
its own table.  Per end-to-end metric a table prints both sides'
medians and quartiles, the pairs each side won, whether the change
stays inside the metric's bound (``unresolved`` when the parent's own
quartiles lie further apart than the bound and the change does not beat
every parent run), and the verdict of the claim rule: a
gain counts when the change wins at least nine tenths of the pairs
(ties count for neither side) and the medians differ, in the better
direction, by more than the distance between the parent's quartiles.
Run length, names, directions and bounds come from the *change*
checkout's ``BENCHMARK.json``.  A run that exits non-zero (or prints no
verdict) is reported ``NOT CORRECT`` and its pair leaves the medians;
the study goes on.  Exit status 1 if any run of any workload was not
``correct``, failed a request, or a metric left its bound; 0 otherwise.

Standard library only; this imports nothing from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

COMMAND = ["python3", "benchmarks/e2e/run.py"]


def run_once(checkout: Path, workload: str, seconds: float,
             seed: int) -> Optional[dict]:
    """One untraced run in ``checkout``; its verdict (the last line), or
    ``None`` when the run exited non-zero or printed no verdict."""
    done = subprocess.run(
        COMMAND + ["--workload", workload, "--seconds", str(seconds),
                   "--trace", "0", "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(samples: List[float]) -> tuple:
    """``(q1, median, q3)``; one sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def judge(spec: dict, parent: List[float], change: List[float]) -> dict:
    """One metric's row: medians, quartiles, wins, bound and claim."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    scale = abs(p_med) or 1.0
    if -gain / scale > spec["bound"]:
        bound = "OUTSIDE"
    elif (p_q3 - p_q1) / scale > spec["bound"] and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        # The parent's own runs spread wider than the bound resolves.
        bound = "unresolved against"
    else:
        bound = "inside"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "losses": losses, "relative": gain / scale,
        "bound": bound,
        "gain": wins * 10 >= len(parent) * 9 and gain > p_q3 - p_q1,
    }


def study(sides: Dict[str, Path], specs: dict, workload: str, pairs: int,
          seed: int) -> bool:
    """``pairs`` alternating pairs of ``workload`` and its table; whether
    every run was correct, failed nothing and stayed inside the bounds."""
    samples: Dict[str, Dict[str, List[float]]] = {
        side: {spec["name"]: [] for spec in specs["end_to_end"]}
        for side in sides
    }
    clean = True
    kept = 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        verdicts = {}
        for side in order:
            verdict = verdicts[side] = run_once(
                sides[side], workload, specs["run_seconds"], seed
            )
            ok = verdict is not None and verdict["correct"] and not (
                verdict["failed"]
            )
            clean &= ok
            values = (
                "exited without a verdict" if verdict is None
                else " ".join(
                    f"{name}={verdict['metrics'][name]['value']:.4g}"
                    for name in samples[side]
                )
            )
            print(f"{workload} pair {pair + 1} {side:6s} {values}"
                  + ("" if ok else "  NOT CORRECT"), flush=True)
        # A pair with a run that gave no verdict leaves the medians.
        if all(verdict is not None for verdict in verdicts.values()):
            kept += 1
            for side, verdict in verdicts.items():
                for name, values in samples[side].items():
                    values.append(verdict["metrics"][name]["value"])

    print(f"\n{workload}, seed {seed}, {kept} of {pairs} pairs at "
          f"--seconds {specs['run_seconds']:g}: median [q1, q3]")
    for spec in specs["end_to_end"]:
        name = spec["name"]
        if not kept:
            print(f"  {name}: no pair to judge")
            continue
        row = judge(spec, samples["parent"][name], samples["change"][name])
        clean &= row["bound"] != "OUTSIDE"
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = row["parent"], row["change"]
        print(
            f"  {name} ({spec['unit']}, {spec['better']} is better): "
            f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] -> "
            f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] "
            f"({row['relative']:+.1%} better); change wins {row['wins']}, "
            f"loses {row['losses']} of {kept}; "
            f"{row['bound']} the {spec['bound']:.0%} bound; "
            f"{'GAIN' if row['gain'] else 'no gain'} by the claim rule"
        )
    print(f"{workload}: every run correct, 0 failed, no metric outside its "
          "bound\n" if clean else f"{workload}: NOT CLEAN, see above\n",
          flush=True)
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument(
        "--workload", action="append", required=True,
        help="a workload of BENCHMARK.json, or 'all'; repeatable",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

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
    sides = {"parent": args.parent, "change": args.change}
    # Every workload runs (and reports) even after one was not clean.
    clean = [study(sides, specs, workload, args.pairs, args.seed)
             for workload in workloads]
    if len(workloads) > 1:
        print("all workloads clean" if all(clean) else "NOT CLEAN: "
              + ", ".join(w for w, ok in zip(workloads, clean) if not ok))
    return 0 if all(clean) else 1


if __name__ == "__main__":
    sys.exit(main())

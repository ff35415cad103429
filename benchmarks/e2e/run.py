#!/usr/bin/env python3
"""End-to-end wall-clock serving benchmark (see README.md beside this file).

Three ways to run it, all from the root of a checkout:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload; the last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) that ``BENCHMARK.json`` names.

``run.py --seed N [--out results.json]``
    Every workload, both metric sets, printed by name with units and
    written as one results file.  Exits 1 if any output check fails.

``run.py --compare A.json B.json``
    Judge two results files against the bounds in ``BENCHMARK.json``.

This process never imports ``numpy``: each workload runs in child
interpreters (``e2e_worker.py``) started with the BLAS/OMP thread caps
below already in their environment, and is waited for before the next
one starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "e2e_worker.py"

#: 128-wide GEMMs gain nothing from threads and lose repeatability.
THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A child that outlives this is killed (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(samples: List[float]) -> dict:
    """Median, quartiles and extremes of a sample list."""
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1
        else [samples[0]] * 3
    )
    return {
        "median": statistics.median(samples), "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples), "n": len(samples),
    }


def _run_worker(args: List[str]) -> dict:
    """Run one child interpreter to completion; parse its last line."""
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env={**os.environ, **THREAD_CAPS}, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, setups: int = SETUPS,
    smoke: bool = False, spans_out: Optional[str] = None,
) -> dict:
    """Measure one workload; returns its entry of the results file.

    The first child does everything; ``setups - 1`` more children only
    set up (import, build, cold repetition), so that ``setup_s`` is a
    median over fresh processes.  ``time.monotonic`` is CLOCK_MONOTONIC,
    which parent and children share.  Each child reports how many
    reference seconds passed per host second of its set-up (``scale``)
    and the host seconds it spent sampling the host-speed kernel.
    """
    args = ["--workload", name, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    full = args + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if spans_out:
        full += ["--spans-out", spans_out]
    children = [full] + [args + ["--seconds", "0", "--setup-only"]] * (setups - 1)
    setup_s, setup_raw_s = [], []
    for i, child_args in enumerate(children):
        spawned = time.monotonic()
        child = _run_worker(child_args)
        if i == 0:
            result = child
        setup = child.pop("setup")
        raw = setup["t_ready"] - spawned - setup["kernel_s"]
        setup_raw_s.append(raw)
        setup_s.append(raw * setup["scale"])
    result["host"]["raw"]["setup_s"] = statistics.median(setup_raw_s)

    samples = {"setup_s": setup_s, **result.pop("samples")}
    pooled = result.pop("pooled")
    end_to_end = {}
    for metric, values in samples.items():
        entry = summarize(values)
        # Step quantiles are taken over the pooled steps of all timed
        # repetitions; everything else is the median of its samples.
        entry["value"] = pooled.get(metric, entry["median"])
        end_to_end[metric] = entry
    end_to_end["step_ms_p50"]["n_steps"] = pooled["n_steps"]
    end_to_end["step_ms_p95"]["n_steps"] = pooled["n_steps"]
    result["end_to_end"] = end_to_end
    result["reps"] = end_to_end["wall_tok_s"]["n"]
    return result


def _correct(result: dict) -> bool:
    checks = result["checks"]
    return not checks["problems"] and checks["failed"] == 0


def _print_metrics(spec: dict, result: dict) -> None:
    """Every measured metric by name, with its unit."""
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['reps']} timed repetitions)")
    for metric in spec["end_to_end"]:
        entry = result["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<44}{entry['value']:>14.4f} "
              f"{metric['unit']:<6} [q1 {entry['q1']:.4f}, "
              f"q3 {entry['q3']:.4f}, n {entry['n']}]")
    for metric in spec["per_layer"] if result["per_layer"] else ():
        value = result["per_layer"][metric["name"]]
        print(f"  {metric['name']:<44}{value:>14.6g} {metric['unit']}")
    host = result["host"]
    print(f"  host slowdown {host['slowdown']:.3f} [q1 "
          f"{host['slowdown_q1']:.3f}, q3 {host['slowdown_q3']:.3f}] over "
          f"{host['n_samples']} kernel samples; sensitivity " + ", ".join(
              f"{name} {value}" for name, value in host["sensitivity"].items())
          + "; the clock read " + ", ".join(
              f"{name} {value:.4f}" for name, value in host["raw"].items()))
    checks = result["checks"]
    print(f"  checks: {checks['attempted']} requests attempted, "
          f"{checks['failed']} failed, stream_match "
          f"{checks['stream_match']:.3f}, "
          f"{'ok' if _correct(result) else checks['problems']}")


def cmd_workload(args) -> int:
    """The driver's contract: one workload, one JSON line last."""
    spec = load_spec()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setups=1 if args.trace or args.smoke else SETUPS,
        smoke=args.smoke, spans_out=args.spans_out,
    )
    _print_metrics(spec, result)
    if args.trace:
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]],
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": _correct(result),
        "attempted": result["checks"]["attempted"],
        "failed": result["checks"]["failed"],
        "metrics": metrics,
    }))
    return 0


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cmd_all(args) -> int:
    """Every workload, traced; print all metrics, write the results file."""
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads: Dict[str, dict] = {}
    for entry in spec["workloads"]:
        result = run_workload(
            entry["name"], args.seed, seconds, trace=True,
            setups=1 if args.smoke else SETUPS, smoke=args.smoke,
        )
        _print_metrics(spec, result)
        workloads[entry["name"]] = result
    out = Path(args.out or HERE / "results" / f"e2e_seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "benchmark": "benchmarks/e2e",
        "claim": None,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "workloads": workloads,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    bad = [name for name, result in workloads.items() if not _correct(result)]
    if bad:
        print(f"output checks FAILED on: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


def compare(spec: dict, first: dict, second: dict) -> List[dict]:
    """Judge ``second`` against ``first``, one row per comparison.

    A timing row is a ``breach`` when the second median is worse than
    the first by more than the metric's bound, and ``unresolved`` when
    it is within the bound but either file's own quartile range is wider
    than the bound (the run-to-run spread cannot support "unchanged").
    A breach whose quartile ranges still overlap is marked so.  Output
    checks and ``.calls`` counts must agree exactly.
    """
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in spec["end_to_end"]:
            ea, eb = (r["end_to_end"][metric["name"]] for r in (a, b))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (eb["value"] - ea["value"]) / ea["value"]
            spread = max((e["q3"] - e["q1"]) / e["median"] for e in (ea, eb))
            overlap = ea["q1"] <= eb["q3"] and eb["q1"] <= ea["q3"]
            if worse > metric["bound"]:
                status = "breach" + (" (quartiles overlap)" if overlap else "")
            elif spread > metric["bound"]:
                status = "unresolved"
            else:
                status = "ok"
            rows.append({
                "workload": name, "metric": metric["name"],
                "first": ea["value"], "second": eb["value"], "worse": worse,
                "bound": metric["bound"], "status": status,
            })
        exact = {
            "checks.failed": [r["checks"]["failed"] for r in (a, b)],
            "checks.stream_match": [
                r["checks"]["stream_match"] for r in (a, b)],
        }
        if a["per_layer"] and b["per_layer"]:
            for key in a["per_layer"]:
                if key.endswith(".calls"):
                    exact[key] = [a["per_layer"][key], b["per_layer"][key]]
        for key, (va, vb) in exact.items():
            if va != vb:
                rows.append({
                    "workload": name, "metric": key, "first": va,
                    "second": vb, "worse": None, "bound": 0,
                    "status": "breach (must repeat exactly)",
                })
    return rows


def cmd_compare(args) -> int:
    spec = load_spec()
    first, second = (json.loads(Path(p).read_text()) for p in args.compare)
    rows = compare(spec, first, second)
    print(f"{'workload':<22}{'metric':<16}{'first':>12}{'second':>12}"
          f"{'worse':>9}{'bound':>7}  status")
    for row in rows:
        worse = "" if row["worse"] is None else f"{row['worse']:+.3f}"
        print(f"{row['workload']:<22}{row['metric']:<16}"
              f"{row['first']:>12.4f}{row['second']:>12.4f}{worse:>9}"
              f"{row['bound']:>7.2f}  {row['status']}")
    breaches = sum(row["status"].startswith("breach") for row in rows)
    unresolved = sum(row["status"] == "unresolved" for row in rows)
    print(f"{breaches} breach(es), {unresolved} unresolved, "
          f"{len(rows) - breaches - unresolved} ok")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces, one repetition (tier-1 smoke)")
    parser.add_argument("--out", help="results file (all-workloads mode)")
    parser.add_argument("--spans-out",
                        help="write the traced repetition's raw spans here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return cmd_compare(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return cmd_workload(args)
    return cmd_all(args)


if __name__ == "__main__":
    sys.exit(main())

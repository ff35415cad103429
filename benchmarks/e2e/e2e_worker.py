"""Measure one workload inside this (fresh, single-threaded) interpreter.

``run.py`` starts this file as a child process per workload — with the
BLAS/OMP thread caps already in the environment, because they must be
set before ``numpy`` loads — and reads one JSON object from the last
line of its standard output.  The phases are those of the run protocol
in ``README.md``: set-up (import, build, one cold repetition), timed
repetitions with spans off, verification, and optionally one traced
repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.cluster import ClusterEngine, ShardedKVPool  # noqa: E402
from repro.core.pipeline import SpAttenExecutor  # noqa: E402
from repro.nn import DenseExecutor  # noqa: E402
from repro.serving import KVMemoryPool, ServingEngine  # noqa: E402
from repro.serving.request import (  # noqa: E402
    INHERIT_PRUNING,
    Request,
    RequestStatus,
)
from repro.telemetry import Telemetry  # noqa: E402

from e2e_spans import LAYER_GROUPS, SpanRecorder  # noqa: E402
from e2e_workloads import (  # noqa: E402
    FLEET,
    PAGE_TOKENS,
    PREFILL_CHUNK,
    SMOKE_REQUESTS,
    WORKLOADS,
    Workload,
    build_trace,
    build_world,
)

#: Host-speed kernel.  The sandbox's speed swings by up to 2x within
#: seconds (neighbouring tenants; the process's own CPU share stays
#: ~98 %), which no statistic over one 20 s run removes.  So a fixed
#: NumPy micro-kernel, whose work never changes, is timed after every
#: step, and every timing is read in seconds *at reference host speed*
#: (see "Host-speed normalisation" in README.md).  This is the kernel's
#: duration on the sandbox in its usual state.
KERNEL_REF_S = 0.3e-3
#: Timed repetitions never number fewer than this, whatever ``--seconds``.
MIN_REPS = 5
#: Requests replayed through solo ``model.generate`` to check a fleet run.
FLEET_REFERENCE_SAMPLE = 32


@dataclass
class Repetition:
    """What one drain of the trace produced and cost."""

    #: ``perf_counter_ns`` interval of the whole repetition (pool and
    #: engine construction, submit, drain, finish, audit).
    wall_ns: Tuple[int, int]
    #: ``perf_counter`` stamps around the drain loop
    #: (``ClusterEngine.run`` for fleets).
    drain: Tuple[float, float]
    #: Host seconds of the drain loop, host-speed samples taken out.
    drain_s: float
    #: ``perf_counter`` stamps around every ``ServingEngine.step``.
    steps: List[Tuple[float, float]]
    #: ``to_dict()`` of the run's stats (no per-request records).
    stats: dict
    #: The (fleet-level) ``ServingStats`` object.
    summary: object
    #: request id -> committed token stream.
    streams: Dict[int, List[int]]
    #: Output tokens of requests FINISHED with their full budget.
    n_tokens: int
    #: Requests not FINISHED with exactly ``max_new_tokens`` tokens.
    n_failed: int
    tracer_events: int
    #: Ledger problems found after the drain (empty when clean).
    problems: List[str]

    @property
    def step_s(self) -> List[float]:
        """Host seconds of every ``ServingEngine.step``."""
        return [end - start for start, end in self.steps]


class HostClock:
    """Reads ``perf_counter`` stamps in seconds at reference host speed.

    Every :meth:`sample` times the fixed kernel (a softmax, a partition
    and a strided gather over a few hundred floats: the
    interpreter-and-small-array mix the serving loop is made of).
    Between two samples the host's slowdown is taken as the mean of
    theirs, and host time passes at ``slowdown ** -sensitivity``
    reference seconds a second; while a sample runs, no reference time
    passes.  ``sensitivity`` is the share of a kernel slowdown that the
    measured code sees (fitted per workload and metric, see
    ``e2e_workloads.Workload.host_sensitivity``).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((8, 96), dtype=np.float32)
        self._cols = rng.permutation(96)[:40]
        # The kernel writes into these, so that what it times is the
        # arithmetic and the interpreter, not the allocator.
        self._y = np.empty_like(self._x)
        self._row = np.empty((8, 1), dtype=np.float32)
        self._picked = np.empty((8, 40), dtype=np.float32)
        self._wide = np.empty((8, 40), dtype=np.float64)
        self._col = np.empty(40, dtype=np.float64)
        #: (start, end) stamps of every kernel run, in time order.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        """Time the kernel once; returns the stamp at which it ended."""
        x, y, row, cols = self._x, self._y, self._row, self._cols
        picked, wide, col = self._picked, self._wide, self._col
        start = perf_counter()
        for _ in range(24):
            x.max(axis=-1, keepdims=True, out=row)
            np.subtract(x, row, out=y)
            np.exp(y, out=y)
            y.sum(axis=-1, keepdims=True, out=row)
            np.divide(y, row, out=y)
            y.partition(40, axis=-1)
            np.take(y, cols, axis=-1, out=picked)
            np.copyto(wide, picked)
            wide.sum(axis=0, out=col)
        end = perf_counter()
        self.samples.append((start, end))
        return end

    def slowdowns(self) -> np.ndarray:
        """Every sample's duration over the kernel's reference duration."""
        starts, ends = np.array(self.samples).T
        return (ends - starts) / KERNEL_REF_S

    def reference_seconds(self, stamps, sensitivity: float) -> np.ndarray:
        """Reference time elapsed at each stamp (from the first sample).

        Stamps must lie between the first and the last sample.
        """
        starts, ends = np.array(self.samples).T
        slowdown = self.slowdowns()
        rate = (0.5 * (slowdown[:-1] + slowdown[1:])) ** -sensitivity
        elapsed = np.concatenate(
            [[0.0], np.cumsum((starts[1:] - ends[:-1]) * rate)]
        )
        # Breakpoints s0, e0, s1, e1, ...: flat across each sample.
        return np.interp(
            stamps, np.column_stack([starts, ends]).ravel(),
            np.repeat(elapsed, 2),
        )

    def kernel_seconds(self, start: float, end: float) -> float:
        """Host seconds the kernel itself took between two stamps."""
        return sum(e - s for s, e in self.samples if start <= s and e <= end)


@contextmanager
def _timed_engine_steps(steps: List[Tuple[float, float]], clock):
    """Time ``ServingEngine.step`` from outside (two ``perf_counter``s).

    The only shim allowed around timed repetitions: ``ClusterEngine.run``
    owns the fleet's step loop, so its steps cannot be timed (nor the
    host-speed kernel sampled between them) by the caller the way a
    single engine's are.
    """
    original = ServingEngine.step

    def step(self, horizon=None):
        start = perf_counter()
        try:
            return original(self, horizon)
        finally:
            end = perf_counter()
            steps.append((start, end))
            if clock:
                clock.sample()

    ServingEngine.step = step
    try:
        yield
    finally:
        ServingEngine.step = original


def run_repetition(
    world, workload: Workload, requests: List[Request],
    numerics: Optional[str] = None, clock: Optional[HostClock] = None,
) -> Repetition:
    """Drain ``requests`` once through a fresh pool and engine.

    With a ``clock``, the host-speed kernel is sampled just before the
    drain and after every step.  (After *every* step, not whenever some
    time has passed: a schedule that depends on timing reorders the
    heap's small blocks from run to run and with them the peak RSS, by
    4 % on ``decode_dense_fp32``.)
    """
    config, model, _ = world
    numerics = numerics or workload.numerics
    # Engines sit in reference cycles; without this, how many earlier
    # repetitions' KV arenas are still alive (and billed to peak RSS)
    # depends on when the cyclic collector last happened to run.
    gc.collect()
    budget = workload.pool_kib * 1024
    steps: List[Tuple[float, float]] = []
    tracer_events = 0
    wall_start = perf_counter_ns()
    if workload.n_replicas:
        pool = ShardedKVPool(
            config, total_budget_bytes=budget,
            n_replicas=workload.n_replicas, page_tokens=PAGE_TOKENS,
        )
        telemetry = Telemetry(trace=True, metrics=True)
        cluster = ClusterEngine(
            model, pool, pruning=workload.pruning,
            prefill_chunk=PREFILL_CHUNK, numerics=numerics,
            telemetry=telemetry, **FLEET,
        )
        with _timed_engine_steps(steps, clock):
            start = clock.sample() if clock else perf_counter()
            stats = cluster.run(requests)
            end = perf_counter()
        summary = stats.fleet
        tracer_events = len(telemetry.tracer)
    else:
        pool = KVMemoryPool(config, budget_bytes=budget, page_tokens=PAGE_TOKENS)
        engine = ServingEngine(
            model, pool, pruning=workload.pruning,
            prefill_chunk=PREFILL_CHUNK, numerics=numerics,
        )
        engine.start()
        for request in requests:  # already in arrival order
            engine.submit(request)
        start = clock.sample() if clock else perf_counter()
        while engine.has_work:
            step_start = perf_counter()
            engine.step()
            step_end = perf_counter()
            steps.append((step_start, step_end))
            if clock:
                clock.sample()
        end = perf_counter()
        stats = summary = engine.finish()
    drain_s = end - start
    if clock:
        clock.sample()
        drain_s -= clock.kernel_seconds(start, end)
    problems = []
    try:
        pool.audit()
    except Exception as exc:  # any ledger error is a failed check
        problems.append(f"pool audit: {exc!r}")
    if pool.allocated_pages:
        problems.append(f"{pool.allocated_pages} pages still allocated")
    wall_end = perf_counter_ns()
    finished = [
        r for r in summary.records
        if r.status is RequestStatus.FINISHED
        and r.n_generated == r.request.max_new_tokens
    ]
    return Repetition(
        wall_ns=(wall_start, wall_end),
        drain=(start, end),
        drain_s=drain_s,
        steps=steps,
        stats=stats.to_dict(),
        summary=summary,
        streams={
            r.request.request_id: list(r.token_ids) for r in summary.records
        },
        n_tokens=sum(r.n_generated for r in finished),
        n_failed=len(requests) - len(finished),
        tracer_events=tracer_events,
        problems=problems,
    )


def reference_streams(
    world, workload: Workload, requests: List[Request], seed: int
) -> Dict[int, List[int]]:
    """Greedy streams the workload's outputs are compared against.

    Single-engine workloads replay the whole trace on the ``exact``
    tier.  The fleet already runs ``exact``, so it is checked against
    solo ``model.generate`` with a fresh executor on a seeded sample.
    """
    if not workload.n_replicas:
        return run_repetition(world, workload, requests, "exact").streams
    model = world[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))
    sample = rng.choice(
        len(requests), size=min(FLEET_REFERENCE_SAMPLE, len(requests)),
        replace=False,
    )
    streams = {}
    for idx in sorted(sample):
        request = requests[idx]
        pruning = (
            workload.pruning if request.pruning is INHERIT_PRUNING
            else request.pruning
        )
        executor = DenseExecutor() if pruning is None else SpAttenExecutor(pruning)
        streams[request.request_id] = model.generate(
            request.prompt_ids, request.max_new_tokens, executor
        ).token_ids
    return streams


#: Counts and ratios read at the layer boundaries, beside the spans:
#: (name, unit, better).
COUNTER_METRICS = (
    ("serving.engine.steps", "count", "lower"),
    ("serving.engine.batch_mean", "seqs", "higher"),
    ("serving.memory_pool.preemptions", "count", "lower"),
    # recomputed / (prompt + output tokens served): wasted work
    ("serving.memory_pool.recompute_share", "share", "lower"),
    ("serving.memory_pool.occupancy_peak", "share", "lower"),
    ("serving.memory_pool.reclaimed_pages", "count", "higher"),
    # KV columns held / columns an unpruned cache would hold, over
    # every sequence x layer x decode step
    ("core.pipeline.kv_kept_share", "share", "lower"),
    ("core.pipeline.attend_calls_per_step", "1/step", "lower"),
    # useful / padded columns of a [B, max length] arena per layer
    ("nn.batched_attention.arena_fill", "share", "higher"),
    ("serving.stats.sim_tok_s", "tok/s", "higher"),
    # simulated makespan / host drain seconds (1.0 = faithful clock)
    ("serving.stats.sim_over_wall", "ratio", "higher"),
    ("cluster.engine.outside_step_share", "share", "lower"),
    ("telemetry.tracer.events", "count", "lower"),
    # traced drain / median untraced drain - 1
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.cold_over_warm", "ratio", "lower"),
    ("bench.unattributed_s", "s", "lower"),
)


def per_layer_spec() -> List[dict]:
    """Name, unit and direction of every per-layer metric, in order."""
    spec = []
    for group in LAYER_GROUPS:
        spec.append({"name": f"{group}.calls", "unit": "count",
                     "better": "lower"})
        spec.append({"name": f"{group}.self_s", "unit": "s",
                     "better": "lower"})
    spec += [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in COUNTER_METRICS
    ]
    return spec


class DecodeBatchCounts:
    """Counts read from ``decode_step_batch``'s arguments, per call."""

    def __init__(self) -> None:
        self.kept = 0    # KV columns held, over sequences x layers
        self.dense = 0   # columns an unpruned cache would hold
        self.padded = 0  # columns of a [B, max length] arena per layer

    def __call__(self, args, kwargs) -> None:
        _model, _token_ids, positions, executors = args[:4]
        lengths = np.array([e.kv_lengths() for e in executors])  # [B, L]
        self.kept += int(lengths.sum())
        self.dense += int(np.sum(positions)) * lengths.shape[1]
        self.padded += int(lengths.max(axis=0).sum()) * lengths.shape[0]


def per_layer_metrics(
    timed: List[Repetition], cold: Repetition, traced: Repetition,
    spans: dict, counts: DecodeBatchCounts,
) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition."""
    out: Dict[str, float] = {}
    for group, entry in spans["groups"].items():
        out[f"{group}.calls"] = entry["calls"]
        out[f"{group}.self_s"] = entry["self_ns"] / 1e9
    stats = traced.summary
    n_steps = len(traced.step_s)
    warm_drain = statistics.median(r.drain_s for r in timed)
    served = sum(
        r.request.prompt_len + r.n_generated for r in stats.records
    )
    out["serving.engine.steps"] = n_steps
    out["serving.engine.batch_mean"] = stats.mean_batch_size
    out["serving.memory_pool.preemptions"] = stats.n_preemptions
    out["serving.memory_pool.recompute_share"] = (
        stats.recompute_tokens / served
    )
    out["serving.memory_pool.occupancy_peak"] = stats.occupancy_peak
    out["serving.memory_pool.reclaimed_pages"] = stats.reclaimed_pages
    out["core.pipeline.kv_kept_share"] = counts.kept / counts.dense
    out["core.pipeline.attend_calls_per_step"] = (
        spans["groups"]["core.pipeline.decode_attend_packed"]["calls"]
        / n_steps
    )
    out["nn.batched_attention.arena_fill"] = counts.kept / counts.padded
    out["serving.stats.sim_tok_s"] = stats.throughput_tps
    out["serving.stats.sim_over_wall"] = stats.makespan_s / warm_drain
    out["cluster.engine.outside_step_share"] = statistics.median(
        1.0 - sum(r.step_s) / r.drain_s for r in timed
    )
    out["telemetry.tracer.events"] = traced.tracer_events
    out["bench.trace_overhead_share"] = traced.drain_s / warm_drain - 1.0
    out["bench.cold_over_warm"] = cold.drain_s / warm_drain
    out["bench.unattributed_s"] = spans["unattributed_ns"] / 1e9
    return out


def environment() -> dict:
    """What the numbers were measured on (recorded in the results)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        # The caps run.py put in this process's environment.
        "thread_caps": {
            var: value for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
    }


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool,
    smoke: bool = False, spans_path: Optional[str] = None,
    setup_only: bool = False,
) -> dict:
    """Run every phase for one workload; returns the result object."""
    clock = HostClock()
    sensitivity = workload.host_sensitivity
    setup_start = clock.sample()
    world = build_world(workload)
    clock.sample()
    n_requests = SMOKE_REQUESTS if smoke else workload.n_requests
    requests = build_trace(workload, world[2], seed, n_requests)
    cold = run_repetition(world, workload, requests, clock=clock)
    t_ready = time.monotonic()
    setup_end = perf_counter()
    ref_start, ref_end = clock.reference_seconds(
        [setup_start, setup_end], sensitivity["wall_tok_s"]
    )
    kernel_s = clock.kernel_seconds(setup_start, setup_end)
    setup = {
        "t_ready": t_ready,
        # Host seconds of set-up that went into host-speed samples.
        "kernel_s": kernel_s,
        # Reference seconds per host second over the sampled part of
        # set-up (all of it but the imports).
        "scale": (ref_end - ref_start) / (setup_end - setup_start - kernel_s),
    }
    if setup_only:
        return {"setup": setup}

    min_reps = 1 if smoke else MIN_REPS
    timed: List[Repetition] = []
    first_sample = len(clock.samples)
    start = perf_counter()
    while len(timed) < min_reps or perf_counter() - start < seconds:
        timed.append(run_repetition(world, workload, requests, clock=clock))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowdowns = clock.slowdowns()[first_sample:]

    problems = list(cold.problems)
    runs = [cold] + timed
    if any(r.stats != cold.stats or r.streams != cold.streams for r in timed):
        problems.append("repetitions disagree on stats or token streams")
    reference = reference_streams(world, workload, requests, seed)
    stream_match = sum(
        cold.streams[rid] == ref for rid, ref in reference.items()
    ) / len(reference)
    if stream_match < workload.min_stream_match:
        problems.append(
            f"stream_match {stream_match:.3f} is below the workload's "
            f"floor of {workload.min_stream_match}"
        )

    per_layer = traced_wall_s = None
    if trace:
        counts = DecodeBatchCounts()
        with SpanRecorder(
            before={"nn.transformer.decode_step_batch": counts}
        ) as recorder:
            traced = run_repetition(world, workload, requests)
        spans = recorder.summarize(*traced.wall_ns)
        if spans_path:
            recorder.write(spans_path, traced.wall_ns[0])
        runs.append(traced)
        traced_wall_s = spans["wall_ns"] / 1e9
        if traced.stats != cold.stats or traced.streams != cold.streams:
            problems.append("span shims perturbed stats or token streams")
        per_layer = per_layer_metrics(timed, cold, traced, spans, counts)
        if per_layer["serving.engine.step.calls"] != len(cold.step_s):
            problems.append("traced step count differs from untraced")
        for group in workload.zero_call_groups:
            if per_layer[f"{group}.calls"]:
                problems.append(f"{group} ran on {workload.name}")
    for rep in runs[1:]:
        problems += rep.problems

    # Per timed repetition, raw (what the clock read) and at reference
    # host speed.
    raw_steps_ms = np.concatenate([r.step_s for r in timed]) * 1e3
    raw_tok_s = [r.n_tokens / r.drain_s for r in timed]
    tok_s = [
        r.n_tokens / float(np.diff(
            clock.reference_seconds(r.drain, sensitivity["wall_tok_s"])
        )[0])
        for r in timed
    ]

    def step_quantile(metric: str, q: float) -> Tuple[List[float], float]:
        """``q`` of the steps' reference milliseconds: per timed
        repetition, and over the steps of all of them."""
        reps = [
            np.diff(
                clock.reference_seconds(r.steps, sensitivity[metric]), axis=1
            )[:, 0] * 1e3
            for r in timed
        ]
        return (
            [float(np.percentile(ms, q)) for ms in reps],
            float(np.percentile(np.concatenate(reps), q)),
        )

    p50_reps, p50_pooled = step_quantile("step_ms_p50", 50)
    p95_reps, p95_pooled = step_quantile("step_ms_p95", 95)
    return {
        "workload": workload.name,
        "seed": seed,
        "n_requests": n_requests,
        "setup": setup,
        "environment": environment(),
        "host": {
            # Of the kernel samples taken during the timed repetitions.
            "slowdown": float(np.median(slowdowns)),
            "slowdown_q1": float(np.percentile(slowdowns, 25)),
            "slowdown_q3": float(np.percentile(slowdowns, 75)),
            "sensitivity": sensitivity,
            "n_samples": len(slowdowns),
            "raw": {
                "wall_tok_s": statistics.median(raw_tok_s),
                "step_ms_p50": float(np.percentile(raw_steps_ms, 50)),
                "step_ms_p95": float(np.percentile(raw_steps_ms, 95)),
            },
        },
        # One sample per timed repetition (one per process for RSS),
        # at reference host speed.
        "samples": {
            "wall_tok_s": tok_s,
            "step_ms_p50": p50_reps,
            "step_ms_p95": p95_reps,
            "peak_rss_mib": [peak_rss_mib],
        },
        # Step quantiles over the steps of all timed repetitions.
        "pooled": {
            "step_ms_p50": p50_pooled,
            "step_ms_p95": p95_pooled,
            "n_steps": len(raw_steps_ms),
        },
        "per_layer": per_layer,
        "traced_wall_s": traced_wall_s,
        "checks": {
            "attempted": n_requests * len(runs),
            "failed": sum(r.n_failed for r in runs),
            "stream_match": stream_match,
            "problems": problems,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, spans_path=args.spans_out,
        setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

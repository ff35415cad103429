"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.cli list                 # show available experiments
    python -m repro.cli run fig14 table4     # run specific experiments
    python -m repro.cli run all              # everything (a few minutes)
    python -m repro.cli serve --mode both    # continuous-batching serving
    python -m repro.cli serve-cluster --replicas 3 --policy pruning_aware

Each experiment prints the same rows the paper's table or figure
reports, with the paper's numbers quoted in the table notes.  The
``serve`` subcommand runs a synthetic Poisson arrival trace through the
continuous-batching engine (:mod:`repro.serving`) and prints its
:class:`~repro.serving.ServingStats` report.  Its defaults match the
flag defaults below: 16 requests arriving at 200 req/s (simulated),
served with chunked prefill (32-token chunks; ``--prefill-chunk 0``
commits each prompt whole in one mixed step, stalling the live batch
for it).  ``serve-cluster`` routes
the trace across N replicas (:mod:`repro.cluster`) with a pluggable
policy over a sharded KV pool; ``--drain-at TIME:REPLICA`` retires a
replica mid-run and requeues its in-flight requests through the
router, ``--fail-at`` does the same while marking the replica failed
in the fleet report, and ``--recover-at`` rejoins a retired replica
(its empty shard re-registers with the ledger and it takes traffic
again — drain -> recover -> fail sequences are validated as one
schedule).  Chaos testing layers on top: ``--chaos-seed N`` generates
a deterministic fault plan (replica crash/recover cycles, transient
straggler windows, KV-page corruption strikes) at the
``--chaos-profile`` intensity (light / moderate / heavy), arms
heartbeat failure detection with the router's circuit breaker, and
enables the graceful-degradation ladder (shed best-effort load, then
escalate queued requests to a more aggressive cascade schedule,
before the preemption backstop).  ``--deadline-ms`` fails requests
cleanly past a per-request deadline, and ``--retry-budget`` bounds
placement retry-with-exponential-backoff when a request momentarily
fits no active replica (budget exhaustion fails the request — never a
dead loop).  See the "Fault tolerance & chaos testing" section of the
serving guide (``docs/serving.md``).  Both serving subcommands accept
``--admission optimistic`` (admit against actual pool usage plus
``--headroom-pages``, preempting under pressure with
``--preempt-policy``; see :mod:`repro.serving.preemption`) and
``--stats-json PATH`` to archive the report as machine-readable JSON.

Shared trace/model shape flags: ``--requests`` / ``--rate`` set the
Poisson arrival trace, ``--prompt-len`` and ``--max-new LO HI`` the
per-request token shape, ``--priorities`` the number of scheduling
classes, ``--layers`` the serving model depth, ``--seed`` the
trace/model seed, and ``--token-keep`` the final-layer keep fraction
of the cascade schedule (spatten mode).  Pool geometry comes from
``--pool-kib`` (total budget; ``--replica-budget-kib`` overrides the
even per-replica split in serve-cluster) and ``--page-tokens`` (KV
columns per page).  ``serve-cluster --traffic {mixed,uniform}`` picks
the skewed per-request schedule mix or plain uniform traffic.
``--numerics {exact,fp32,int8}`` picks the decode-path numerics-ladder
tier: ``exact`` (default) keeps fp64 bit identity with the looped
oracle, ``fp32`` and ``int8`` trade declared accuracy budgets for
decode-step speed (the tier lands in the stats report's ``numerics``
field; see the "Numerics ladder" section of the serving guide,
``docs/serving.md``).

``repro lint`` runs the :mod:`repro.analysis` static-analysis pass —
determinism, clock-domain, and CLI-doc drift rules — over the tree
(default ``src/repro``), exiting 1 on any unsuppressed finding.
``--format json`` switches the console report, ``--out PATH``
archives the JSON report for CI, ``--rules ID,ID`` restricts the run,
and ``--list-rules`` prints the catalog.  Tier-1 and CI gate on it; see
the "Static analysis" section of the serving guide
(``docs/serving.md``) for the rule catalog and suppression syntax.

Observability (``repro.telemetry``) is off by default and adds zero
overhead until asked for.  Both serving subcommands take:

* ``--trace-out PATH`` — Chrome trace-event JSON of the whole run
  (request lifecycle spans, pool/router/ledger instants, batch and KV
  counter tracks); open in ``chrome://tracing`` or Perfetto, or feed
  it to ``repro trace-report``.
* ``--metrics-out PATH`` — JSONL time-series, one sample per engine
  step (batch size, pool occupancy, pruning savings, step FLOPs,
  backlog).
* ``--prom-out PATH`` — final counter/gauge/histogram state in
  Prometheus text exposition format.
* ``--profile`` — wall-clock hot-path profile of the packed backend's
  decode step (``decode_*`` stages) and prompt pass (``prefill_*``
  stages), printed after the report (wall time, *not* simulated time;
  excluded from the deterministic artifacts above).
* ``--audit-every N`` — run the KV pool's invariant audit every N
  engine steps (fleet-ledger audit in serve-cluster), surfaced as the
  ``repro_pool_audits_total`` counter.

Every PATH accepts ``-`` for stdout (single-mode runs only — ``serve
--mode both`` writes one file per mode by suffixing the mode before
the extension: ``trace.json`` becomes ``trace.dense.json`` and
``trace.spatten.json``).  ``--stats-json -`` streams the report JSON
to stdout the same way.  Trace and metrics files are timestamped by
the *simulated* clock, so identical runs produce byte-identical
artifacts.  ``repro trace-report PATH`` renders a per-phase time
breakdown, the pruning-savings timeline, and a preemption/requeue
storm table from a trace file without a browser.

SLOs and latency attribution (:mod:`repro.insight`): both serving
subcommands accept repeated ``--slo CLASS:METRIC:pPCT:TARGET_MS``
objectives (e.g. ``--slo 0:ttft:p95:150 --slo all:e2e:p99:2000``),
which the CLI evaluates over the records a run returns, on the
simulated clock over ``--slo-window-ms`` tumbling windows; attainment
lands in the stats report's ``slo`` section.
``repro slo-report TRACE --slo SPEC`` evaluates the same objectives
*offline* over a ``--trace-out`` file with the exact critical-path
latency attribution (exit 1 when an objective is missed), and ``repro
bench-compare`` gates each benchmark's newest history record against
the median of its earlier ones (``--history DIR`` points it away from
``benchmarks/results/history/``; exit 1 on regression).  Both share
the ``--format`` / ``--out`` conventions of ``repro lint``.  See the
"SLOs, latency attribution & regression tracking" section of the
serving guide (``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from .eval import experiments as perf
from .eval import quality_experiments as quality
from .eval.charts import bar_chart, line_chart


def _fig19_with_chart():
    result = perf.fig19_design_space()
    print(result.table)
    print()
    print(line_chart(
        list(result.parallelism_gflops.keys()),
        list(result.parallelism_gflops.values()),
        title="top-k parallelism vs GFLOPS (saturates at 16)",
        x_label="parallelism", y_label="GFLOPS", log_x=True,
    ))
    return result


def _fig20_with_chart():
    result = perf.fig20_speedup_breakdown()
    print(result.table)
    print()
    print(bar_chart(
        dict(zip(result.stage_names, result.cumulative_speedup)),
        title="cumulative speedup over TITAN Xp (log scale)",
        log_scale=True, unit="x",
    ))
    return result


def _fig21_with_chart():
    result = quality.fig21_accuracy_tradeoff()
    print(result.table)
    print()
    print(line_chart(
        result.token_ratios, [l * 100 for l in result.token_losses],
        title="token pruning ratio vs accuracy delta (%)",
        x_label="ratio", y_label="%",
    ))
    return result


def _table_experiment(fn: Callable):
    def run():
        result = fn()
        print(result if not hasattr(result, "table") else result.table)
        if hasattr(result, "fig17_table"):
            print()
            print(result.fig17_table)
        return result

    return run


EXPERIMENTS: Dict[str, Callable] = {
    "headline": _table_experiment(perf.headline_reductions),
    "fig01": _table_experiment(quality.fig01_cascade_pruning),
    "fig02": _table_experiment(perf.fig02_latency_breakdown),
    "fig07": _table_experiment(quality.fig07_quant_error),
    "table1": _table_experiment(perf.table1_architecture),
    "table2": _table_experiment(perf.table2_power),
    "fig13": _table_experiment(perf.fig13_breakdowns),
    "fig14": _table_experiment(perf.fig14_speedup_energy),
    "table3": _table_experiment(perf.table3_prior_art),
    "table4": _table_experiment(perf.table4_e2e_breakdown),
    "fig15": _table_experiment(perf.fig15_e2e_speedup),
    "fig16": _table_experiment(perf.fig16_hat_codesign),
    "fig18": _table_experiment(perf.fig18_roofline),
    "fig19": _fig19_with_chart,
    "fig20": _fig20_with_chart,
    "fig21": _fig21_with_chart,
    "fig22": _table_experiment(quality.fig22_visualization),
    "fig23": _table_experiment(quality.fig23_importance_map),
    "topk": _table_experiment(perf.topk_engine_comparison),
    "ablation": _table_experiment(perf.ablation_pruning_components),
    "gpu-pruning": _table_experiment(perf.gpu_token_pruning),
}


def serving_command(args) -> int:
    """``serve`` / ``serve-cluster``: serve a synthetic arrival trace with
    the continuous-batching engine, or across N replicas behind the
    cluster router."""
    from .serving import PoolExhausted

    run = _serve if args.command == "serve" else _serve_cluster
    try:
        return run(args)
    except (ValueError, PoolExhausted) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def trace_report_command(args) -> int:
    """Render an analysis report from a saved Chrome trace file."""
    from .telemetry import trace_report

    try:
        print(trace_report(args.path))
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 2
    return 0


def slo_report_command(args) -> int:
    """Evaluate SLOs + latency attribution over a saved trace file."""
    from .insight import SLOPolicy, TraceAttribution, timelines_from_events
    from .telemetry import load_chrome_trace

    try:
        policy = SLOPolicy.from_specs(
            args.slo, window_s=args.slo_window_ms / 1e3
        )
        events = load_chrome_trace(args.path)
        timelines = timelines_from_events(events)
        makespan_us = max(
            (tl.end_us for tl in timelines.values()
             if tl.end_us is not None),
            default=0,
        )
        report = policy.evaluate_timelines(timelines, float(makespan_us) / 1e6)
        attribution = TraceAttribution.from_timelines(timelines)
    except (OSError, ValueError) as exc:
        print(f"slo-report: {exc}", file=sys.stderr)
        return 2
    _emit_report(
        args,
        {"slo": report.to_dict(), "attribution": attribution.to_dict()},
        report.render() + "\n\n" + attribution.render(),
    )
    return 0 if report.attained is not False else 1


def _emit_report(args, doc: dict, text: str) -> None:
    """Print a report the way ``--format`` asks; archive it at ``--out``."""
    import json

    rendered = json.dumps(doc, indent=2, sort_keys=True)
    print(rendered if args.format == "json" else text)
    if args.out:
        # The archived report is always the JSON rendering (CI artifact).
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")


def bench_compare_command(args) -> int:
    """Gate on benchmark history: latest run vs median of earlier runs."""
    from .insight import compare_all

    try:
        report = compare_all(args.history, args.names or None)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: {exc}", file=sys.stderr)
        return 2
    _emit_report(args, report.to_dict(), report.render())
    return report.exit_code


def lint_command(args) -> int:
    """Run the repro.analysis static lint pass over the tree."""
    from .analysis import (
        LintEngine,
        all_rule_classes,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule_id, cls in all_rule_classes().items():
            print(f"{rule_id:24s} [{cls.family}] {cls.description}")
        return 0
    try:
        rules = (
            [r for r in args.rules.split(",") if r.strip()]
            if args.rules else None
        )
        engine = LintEngine(rules=rules)
        result = engine.run(args.paths or None)
    except (OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    rendered = (
        render_json(result) if args.format == "json" else
        render_text(result) + "\n"
    )
    sys.stdout.write(rendered)
    if args.out:
        # The archived report is always the JSON rendering — CI uploads
        # it as a build artifact regardless of the console format.
        with open(args.out, "w") as fh:
            fh.write(render_json(result))
    return result.exit_code


def _build_telemetry(args):
    """Construct a Telemetry sink from the CLI flags, or None when off.

    ``--audit-every`` alone does not build one: the audit cadence works
    telemetry-free (the engine counts steps regardless), it just loses
    its counter.
    """
    if not (args.trace_out or args.metrics_out or args.prom_out
            or args.profile):
        return None
    from .telemetry import Telemetry

    return Telemetry(
        trace=bool(args.trace_out),
        metrics=bool(args.metrics_out or args.prom_out),
        profile=bool(args.profile),
    )


def _build_slo(args):
    """Construct an SLOPolicy from repeated --slo flags, or None."""
    if not args.slo:
        return None
    from .insight import SLOPolicy

    return SLOPolicy.from_specs(args.slo, window_s=args.slo_window_ms / 1e3)


def _sink_path(path, mode, multi_mode: bool):
    """Resolve one artifact path for one mode of a (possibly 2-mode) run.

    Multi-mode runs suffix the mode before the file name's extension
    (``trace.json`` -> ``trace.dense.json``, ``runs.v2/trace`` ->
    ``runs.v2/trace.dense``); ``-`` (stdout) cannot be shared by two
    modes and is rejected up front by :func:`_check_stdout_sinks`.
    """
    if path is None or not multi_mode:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{mode}{ext}"


def _check_stdout_sinks(args, multi_mode: bool) -> None:
    if not multi_mode:
        return
    stdout_flags = [
        flag
        for flag, value in (
            ("--trace-out", args.trace_out),
            ("--metrics-out", args.metrics_out),
            ("--prom-out", args.prom_out),
            ("--stats-json", args.stats_json),
        )
        if value == "-"
    ]
    if stdout_flags:
        raise ValueError(
            f"{', '.join(stdout_flags)}: '-' (stdout) only works with a "
            f"single mode; --mode both would interleave two documents "
            f"(pick --mode dense or --mode spatten, or give a file path)"
        )


def _write_telemetry(args, telemetry, mode, multi_mode: bool) -> None:
    """Flush one run's telemetry artifacts to their sinks."""
    if telemetry is None:
        return
    from .telemetry import MetricsRegistry, chrome_trace_json, write_text

    for path, render, sink, label in (
        (args.trace_out, chrome_trace_json, telemetry.tracer, "trace"),
        (args.metrics_out, MetricsRegistry.to_jsonl, telemetry.metrics,
         "metrics"),
        (args.prom_out, MetricsRegistry.prometheus_text, telemetry.metrics,
         "prometheus metrics"),
    ):
        if path:
            write_text(_sink_path(path, mode, multi_mode), render(sink), label)
    if args.profile and telemetry.profiler is not None:
        print()
        print(telemetry.profiler.table())


def _serving_world(args, longest_prompt: int):
    """The model config, model, LM corpus and cascade schedule both
    serving subcommands run, sized for ``longest_prompt``."""
    from .config import PruningConfig
    from .workloads import serving_lm_world

    config, model, corpus = serving_lm_world(
        n_layers=args.layers,
        max_seq_len=max(256, longest_prompt + args.max_new[1] + 1),
        corpus_tokens=max(4096, 8 * longest_prompt),
        seed=args.seed,
        corpus_seed=args.seed + 1,
    )
    pruning = PruningConfig(
        token_keep_final=args.token_keep, head_keep_final=0.75, value_keep=0.9
    )
    return config, model, corpus, pruning


def _uniform_trace(args, corpus):
    """The Poisson arrival trace of identically shaped requests."""
    from .workloads import synthetic_request_trace

    return synthetic_request_trace(
        corpus,
        n_requests=args.requests,
        rate_per_s=args.rate,
        prompt_len=args.prompt_len,
        max_new_tokens=tuple(args.max_new),
        n_priorities=args.priorities,
        seed=args.seed,
    )


def _engine_flags(args) -> dict:
    """Engine keywords both serving subcommands take from shared flags."""
    return dict(
        # 0 = the engine's default: one chunk spanning the whole prompt.
        prefill_chunk=args.prefill_chunk or None,
        admission=args.admission,
        numerics=args.numerics,
        preempt_policy=args.preempt_policy,
        headroom_pages=args.headroom_pages,
        audit_every=args.audit_every,
    )


def _serve(args) -> int:
    from .serving import KVMemoryPool, ServingEngine

    config, model, corpus, pruning = _serving_world(args, args.prompt_len)
    requests = _uniform_trace(args, corpus)
    modes = (
        [("dense", None), ("spatten", pruning)]
        if args.mode == "both"
        else [(args.mode, pruning if args.mode == "spatten" else None)]
    )
    multi_mode = len(modes) > 1
    _check_stdout_sinks(args, multi_mode)
    slo = _build_slo(args)
    throughputs = {}
    stats_by_mode = {}
    for mode, mode_pruning in modes:
        pool = KVMemoryPool(
            config, budget_bytes=args.pool_kib * 1024,
            page_tokens=args.page_tokens,
        )
        # One Telemetry per mode: a --mode both run writes one trace /
        # metrics document per mode instead of interleaving them.
        telemetry = _build_telemetry(args)
        engine = ServingEngine(
            model, pool, pruning=mode_pruning, telemetry=telemetry,
            **_engine_flags(args),
        )
        stats = engine.run(requests)
        if slo is not None:
            stats.slo = slo.evaluate_records(
                stats.records, stats.makespan_s
            ).to_dict()
        throughputs[mode] = stats.throughput_tps
        stats_by_mode[mode] = stats
        print()
        print(stats.table())
        _write_telemetry(args, telemetry, mode, multi_mode)
    if len(throughputs) == 2:
        ratio = throughputs["spatten"] / throughputs["dense"]
        print(f"\nspatten/dense throughput at the same pool budget: {ratio:.2f}x")
    if args.stats_json:
        _write_stats_json(
            args.stats_json,
            {mode: stats.to_dict() for mode, stats in stats_by_mode.items()},
        )
    return 0


def _write_stats_json(path: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    print(f"\nstats written to {path}")


def _parse_fault_events(specs, kind: str):
    """Parse one repeated ``--<kind>-at TIME:REPLICA`` flag into events."""
    from .faults import FaultEvent

    events = []
    for spec in specs or ():
        try:
            time_s, _, idx_s = spec.partition(":")
            events.append(FaultEvent(float(time_s), int(idx_s), kind))
        except ValueError:
            raise ValueError(
                f"--{kind}-at expects TIME:REPLICA (e.g. 0.05:1), "
                f"got {spec!r}"
            )
    return events


def _serve_cluster(args) -> int:
    from .cluster import ClusterEngine, ShardedKVPool
    from .config import PruningConfig
    from .workloads import TrafficClass, heterogeneous_request_trace

    if args.replicas < 1:
        raise ValueError("--replicas must be >= 1")
    long_prompt = (
        args.prompt_len if args.traffic == "uniform" else 3 * args.prompt_len
    )
    config, model, corpus, pruning = _serving_world(args, long_prompt)
    if args.traffic == "uniform":
        requests = _uniform_trace(args, corpus)
        engine_pruning = pruning if args.mode == "spatten" else None
    else:
        # Skewed mix: mostly cheap heavily-pruned requests, a minority
        # of long dense ones — the trace shape schedule-aware routing
        # is built for.
        classes = [
            TrafficClass(
                "pruned-short", weight=0.75, prompt_len=args.prompt_len,
                max_new_tokens=tuple(args.max_new), pruning=pruning,
            ),
            TrafficClass(
                "dense-long", weight=0.25, prompt_len=long_prompt,
                max_new_tokens=tuple(args.max_new), pruning=None,
            ),
        ]
        requests = heterogeneous_request_trace(
            corpus, classes, n_requests=args.requests, rate_per_s=args.rate,
            seed=args.seed,
        )
        engine_pruning = None  # every request carries its own schedule
    if args.replica_budget_kib:
        pool = ShardedKVPool(
            config,
            replica_budgets_bytes=[args.replica_budget_kib * 1024]
            * args.replicas,
            page_tokens=args.page_tokens,
        )
    else:
        pool = ShardedKVPool(
            config, total_budget_bytes=args.pool_kib * 1024,
            n_replicas=args.replicas, page_tokens=args.page_tokens,
        )
    telemetry = _build_telemetry(args)
    faults = [
        event
        for kind in ("drain", "fail", "recover")
        for event in _parse_fault_events(getattr(args, f"{kind}_at"), kind)
    ]
    fault_plan = None
    heartbeat_timeout_s = None
    degradation = None
    if args.chaos_seed is not None:
        from .faults import FaultPlan
        from .serving import DegradationPolicy

        # Plan horizon: the nominal arrival window plus settle time.
        horizon_s = args.requests / args.rate + 1.0
        fault_plan = FaultPlan.generate(
            args.chaos_seed, args.replicas, horizon_s,
            profile=args.chaos_profile,
        )
        faults += fault_plan.events
        heartbeat_timeout_s = fault_plan.heartbeat_timeout_s
        degradation = DegradationPolicy(
            reprune=PruningConfig(
                token_keep_final=max(0.15, args.token_keep - 0.1),
                head_keep_final=0.625, value_keep=0.9,
            ),
        )
    slo = _build_slo(args)
    cluster = ClusterEngine(
        model, pool,
        policy=args.policy,
        pruning=engine_pruning,
        **_engine_flags(args),
        faults=faults,
        heartbeat_timeout_s=heartbeat_timeout_s,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        retry_budget=args.retry_budget,
        degradation=degradation,
        telemetry=telemetry,
    )
    if fault_plan is not None:
        counts = ", ".join(
            f"{kind}={n}" for kind, n in fault_plan.counts().items() if n
        )
        print(f"chaos plan (seed {args.chaos_seed}, "
              f"{args.chaos_profile}): {counts or 'no events'}")
    stats = cluster.run(requests)
    if slo is not None:
        stats.slo = slo.evaluate_records(
            stats.fleet.records, stats.fleet.makespan_s
        ).to_dict()
    print()
    print(stats.table())
    _write_telemetry(args, telemetry, "cluster", multi_mode=False)
    if args.stats_json:
        _write_stats_json(args.stats_json, stats.to_dict())
    return 0


def _add_serving_flags(parser) -> None:
    """Flags shared by the `serve` and `serve-cluster` subcommands."""
    parser.add_argument("--requests", type=int, default=16,
                        help="number of requests in the trace")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="Poisson arrival rate (req per simulated second)")
    parser.add_argument("--prefill-chunk", type=int, default=32,
                        help="prompt tokens committed per mixed step; 0 "
                             "commits each prompt whole in one step (one "
                             "chunk spanning any prompt, which stalls the "
                             "live decode batch for it)")
    parser.add_argument("--numerics", choices=("exact", "fp32", "int8"),
                        default="exact",
                        help="numerics-ladder tier of the decode hot path: "
                             "'exact' keeps fp64 bit identity with the "
                             "looped oracle (default); 'fp32' runs the fp32 "
                             "batched masked-softmax core over fp32 KV "
                             "planes; 'int8' stores int8 KV codes with "
                             "per-row fp32 scales (4x less KV DRAM) at a "
                             "declared accuracy budget — see "
                             "repro.nn.numerics and benchmarks/"
                             "bench_numerics.py")
    parser.add_argument("--admission", choices=("reserve", "optimistic"),
                        default="reserve",
                        help="'reserve' bills each request its worst-case "
                             "schedule-bound KV reservation for its whole "
                             "lifetime (default); 'optimistic' admits "
                             "against actual pool usage plus "
                             "--headroom-pages and preempts under pressure "
                             "(recompute-on-preempt: greedy replay is "
                             "bit-identical, so preemption costs latency, "
                             "never tokens)")
    parser.add_argument("--preempt-policy",
                        choices=("lowest_priority", "most_pages",
                                 "latest_arrival"),
                        default="lowest_priority",
                        help="victim selection under pool pressure "
                             "(optimistic admission only)")
    parser.add_argument("--headroom-pages", type=int, default=12,
                        help="pool pages kept unbilled at optimistic "
                             "admission — slack for resident sequences' "
                             "decode growth before preemption steps in.  "
                             "0 is fully optimistic and can thrash on "
                             "preemption recompute (see the ROADMAP "
                             "ceiling note); the default matches the "
                             "benchmarked sweet spot")
    parser.add_argument("--pool-kib", type=int, default=768,
                        help="total KV memory-pool budget in KiB (split "
                             "evenly across replicas in serve-cluster)")
    parser.add_argument("--page-tokens", type=int, default=16,
                        help="KV columns per pool page")
    parser.add_argument("--prompt-len", type=int, default=48,
                        help="prompt length in tokens")
    parser.add_argument("--max-new", type=int, nargs=2, default=(8, 24),
                        metavar=("LO", "HI"), help="decode-budget range")
    parser.add_argument("--token-keep", type=float, default=0.35,
                        help="final-layer token keep fraction (spatten mode)")
    parser.add_argument("--priorities", type=int, default=1,
                        help="number of scheduling priority classes")
    parser.add_argument("--layers", type=int, default=6,
                        help="transformer depth of the serving model")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace/model seed")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="also write the run's stats report as JSON "
                             "('-' streams it to stdout)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(simulated-clock timestamps; open in "
                             "chrome://tracing / Perfetto or feed to "
                             "`repro trace-report`; '-' for stdout)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write per-step metrics samples as JSONL "
                             "('-' for stdout)")
    parser.add_argument("--prom-out", metavar="PATH", default=None,
                        help="write final metrics in Prometheus text "
                             "exposition format ('-' for stdout)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the packed backend's decode step "
                             "and prompt pass (wall clock, printed after "
                             "the report)")
    parser.add_argument("--audit-every", type=int, metavar="N", default=None,
                        help="run the KV pool invariant audit every N "
                             "engine steps (global ledger audit in "
                             "serve-cluster); counted in telemetry as "
                             "repro_pool_audits_total")
    parser.add_argument("--slo", action="append", metavar="SPEC", default=None,
                        help="declare an SLO objective as CLASS:METRIC:pPCT:"
                             "TARGET_MS (CLASS is a priority tier or 'all'; "
                             "METRIC is ttft/tpot/e2e), e.g. 0:ttft:p95:150 "
                             "or all:e2e:p99:2000; repeatable.  The stats "
                             "report gains an 'slo' section with attainment "
                             "and error-budget burn (simulated clock; core "
                             "stats stay bit-identical)")
    parser.add_argument("--slo-window-ms", type=float, default=100.0,
                        metavar="W",
                        help="tumbling window width (simulated ms) for SLO "
                             "error-budget burn-rate accounting")


def _add_report_flags(parser) -> None:
    """``--format`` / ``--out`` of lint, slo-report and bench-compare."""
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="console report format")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the JSON report to PATH "
                             "(CI archives it as a build artifact)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpAtten (HPCA 2021) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run experiments by name (or 'all')")
    run.add_argument("names", nargs="+", help="experiment names or 'all'")
    serve = sub.add_parser(
        "serve", help="run a synthetic arrival trace through repro.serving"
    )
    _add_serving_flags(serve)
    serve.add_argument("--mode", choices=("dense", "spatten", "both"),
                       default="both", help="attention path(s) to serve with")
    cluster = sub.add_parser(
        "serve-cluster",
        help="run a trace across N serving replicas (repro.cluster): "
             "pluggable routing over a sharded KV pool",
    )
    _add_serving_flags(cluster)
    # The mixed trace carries 3x-longer dense prompts and every shard
    # must hold a whole dense reservation, so the fleet default budget
    # is larger than single-engine serve's.
    cluster.set_defaults(pool_kib=4096)
    cluster.add_argument("--replicas", type=int, default=2,
                         help="number of serving-engine replicas")
    cluster.add_argument("--policy",
                         choices=("round_robin", "least_loaded",
                                  "pruning_aware"),
                         default="pruning_aware",
                         help="request-to-replica routing policy")
    cluster.add_argument("--traffic", choices=("mixed", "uniform"),
                         default="mixed",
                         help="'mixed' draws a skewed per-request schedule "
                              "mix (75%% short pruned / 25%% long dense); "
                              "'uniform' mirrors plain `repro serve` traffic "
                              "(every request inherits --mode)")
    cluster.add_argument("--mode", choices=("dense", "spatten"),
                         default="spatten",
                         help="engine-default schedule for uniform traffic")
    cluster.add_argument("--replica-budget-kib", type=int, default=0,
                         help="per-replica KV budget in KiB (overrides the "
                              "even split of --pool-kib)")
    cluster.add_argument("--drain-at", action="append", metavar="TIME:REPLICA",
                         help="gracefully drain a replica at a simulated "
                              "time; its in-flight requests requeue through "
                              "the router (repeatable)")
    cluster.add_argument("--fail-at", action="append", metavar="TIME:REPLICA",
                         help="like --drain-at but marks the replica failed "
                              "in the fleet report (repeatable)")
    cluster.add_argument("--recover-at", action="append",
                         metavar="TIME:REPLICA",
                         help="rejoin a previously drained/failed replica at "
                              "a simulated time: its empty shard re-registers "
                              "with the global ledger and the router places "
                              "new work on it again (repeatable)")
    cluster.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                         help="generate a deterministic fault plan from this "
                              "seed (crash/recover cycles, straggler windows, "
                              "KV-page corruption) and arm heartbeat failure "
                              "detection plus the graceful-degradation "
                              "ladder; identical seed + profile + fleet "
                              "shape replays identical faults")
    cluster.add_argument("--chaos-profile",
                         choices=("light", "moderate", "heavy"),
                         default="moderate",
                         help="fault-plan intensity for --chaos-seed")
    cluster.add_argument("--deadline-ms", type=float, default=0.0,
                         help="per-request deadline in simulated ms, "
                              "measured from arrival; a request not admitted "
                              "in time fails cleanly (0 disables)")
    cluster.add_argument("--retry-budget", type=int, default=2,
                         help="placement retries (exponential backoff) for a "
                              "request that momentarily fits no active "
                              "replica; exhaustion fails it cleanly")
    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis determinism lint pass "
             "(exit 1 on unsuppressed findings)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src/repro)")
    _add_report_flags(lint)
    lint.add_argument("--rules", metavar="ID,ID,...", default=None,
                      help="comma-separated rule ids to run "
                           "(default: every registered rule)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    report = sub.add_parser(
        "trace-report",
        help="analyze a trace file written by --trace-out: per-phase time "
             "breakdown, pruning-savings timeline, preemption/requeue storms",
    )
    report.add_argument("path", help="Chrome trace-event JSON file")
    slo_report = sub.add_parser(
        "slo-report",
        help="evaluate SLO attainment and exact critical-path latency "
             "attribution over a trace file written by --trace-out",
    )
    slo_report.add_argument("path", help="Chrome trace-event JSON file")
    slo_report.add_argument("--slo", action="append", metavar="SPEC",
                            required=True,
                            help="SLO objective as CLASS:METRIC:pPCT:"
                                 "TARGET_MS (repeatable; see `serve --slo`)")
    slo_report.add_argument("--slo-window-ms", type=float, default=100.0,
                            metavar="W",
                            help="tumbling window width (simulated ms) for "
                                 "burn-rate accounting")
    _add_report_flags(slo_report)
    compare = sub.add_parser(
        "bench-compare",
        help="gate on benchmark history: judge each bench's latest "
             "record against the median of its earlier ones with "
             "noise-aware thresholds (exit 1 on regression)",
    )
    compare.add_argument("names", nargs="*", metavar="BENCH",
                         help="bench histories to compare (default: every "
                              "*.jsonl under the history directory; naming "
                              "a bench with no history file fails)")
    compare.add_argument("--history", metavar="DIR",
                         default="benchmarks/results/history",
                         help="history directory of per-bench JSONL files")
    _add_report_flags(compare)
    args = parser.parse_args(argv)

    commands = {
        "serve": serving_command, "serve-cluster": serving_command,
        "lint": lint_command, "trace-report": trace_report_command,
        "slo-report": slo_report_command,
        "bench-compare": bench_compare_command,
    }
    if args.command in commands:
        return commands[args.command](args)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        # repro: allow[det-wallclock] -- operator-facing progress timing
        # for `repro run`; printed to the console only, never lands in
        # a deterministic artifact.
        start = time.time()
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        EXPERIMENTS[name]()
        # repro: allow[det-wallclock] -- same console-only progress timing
        print(f"[{name} done in {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

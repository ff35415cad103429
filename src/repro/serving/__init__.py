"""Continuous-batching inference serving with a pruning-aware KV pool.

SpAtten's cascade token pruning frees KV-cache columns *mid-generation*
("once a token is pruned, the QKV of it will never be used in all the
following heads and layers").  This package turns that property into a
serving-level win: a paged KV memory pool whose admission control knows
the pruning schedule, so SpAtten-pruned sequences reserve — and hold —
a fraction of the dense KV footprint, letting more concurrent requests
share the same memory budget.

Layers of the subsystem
-----------------------

* :mod:`~repro.serving.request` — :class:`Request` (prompt, decode
  budget, arrival time, priority), per-request lifecycle
  :class:`RequestRecord`, and the priority/FIFO :class:`RequestQueue`.
* :mod:`~repro.serving.memory_pool` — :class:`KVMemoryPool`: fixed-size
  pages per layer, schedule-aware worst-case reservations for admission
  control, chunk-by-chunk page growth while a prompt prefills, and page
  reclamation as cascade pruning evicts columns.  A second, *optimistic*
  admission plane bills actual usage instead of the worst case (see
  "Admission modes & preemption" below).
* :mod:`~repro.serving.preemption` — deterministic victim selection
  (:class:`~repro.serving.preemption.PreemptionPolicy`) for
  optimistic-admission pool pressure: ``lowest_priority``,
  ``most_pages``, or ``latest_arrival``, all skipping victims the
  livelock guard protects.
* :mod:`~repro.serving.engine` — :class:`ServingEngine`: a three-phase
  mixed-step scheduler.  Each iteration ingests arrivals, **reserves**
  pool pages for every queue-head request that fits (no prompt work
  yet), then runs one **mixed step**: a prefill chunk
  (``prefill_chunk`` tokens, batched across every admitted-but-not-live
  sequence via :meth:`repro.nn.transformer.TransformerModel.
  prefill_chunk_batch`) together with one batched decode step over all
  live sequences (:meth:`~repro.nn.transformer.TransformerModel.
  decode_step_batch`).  A sequence is **promoted** to the decode set
  when its final chunk commits; finished sequences retire and their
  pages free immediately.  Chunking removes the head-of-line prefill
  stall — a long prompt no longer freezes the live decode batch — while
  committing bit-identical token streams to the monolithic path (which
  remains available as ``prefill_chunk=None`` for comparison).
* :mod:`~repro.serving.stats` — the simulated clock, the step-time
  :class:`CostModel` (schedule-aware prefill FLOPs, per-chunk charges,
  and the single-overhead mixed step), and the :class:`ServingStats`
  report (throughput, p50/p95 queue wait, TTFT and inter-token decode
  latency, pool occupancy, reclamation).
* :mod:`repro.nn.batched_attention` — the **packed decode backend**
  every engine decodes through.  Every mixed step's decode attention
  runs with fused batch-level Q/K/V and output-FC matmuls plus a
  central attention core over zero-copy views of preallocated KV
  buffers, instead of ``B × n_layers`` single-row ``run_layer`` calls.
  The per-sequence looped path stays in the model
  (``TransformerModel.decode_step_batch(backend=None)``) as the
  bit-identity oracle the identity tests and
  ``benchmarks/bench_decode_step.py`` compare against.

KV storage model
----------------

:class:`~repro.nn.kv_cache.LayerKVCache` separates *live length* from
*capacity*: K/V buffers are preallocated and grown by amortized
doubling at page granularity (``page_tokens`` columns, the same unit
:class:`KVMemoryPool` budgets in), so one appended decode token is an
O(1) in-place write instead of an O(L) ``np.concatenate`` — O(L²) copy
traffic over a generation.  The pool accounts *live* columns: each
engine step syncs a sequence's real per-layer cache lengths and the
pool allocates exactly ``ceil(live / page_tokens)`` pages, while
cascade eviction compacts the buffer in place and drains whole pages
back to the free list.  Buffer *capacity* may run ahead of the
allocated pages (the doubling policy preallocates up to ~2× the live
columns to amortize growth copies;
:attr:`~repro.nn.kv_cache.LayerKVCache.capacity_nbytes` vs
:attr:`~repro.nn.kv_cache.LayerKVCache.nbytes` reports the
difference) — the byte budget the pool enforces is a bound on live KV
state, not on the preallocated headroom.
Chunked dense prefill reserves the full prompt width up front and pads
K/V with zero-copy views (:meth:`~repro.nn.kv_cache.LayerKVCache.
padded_to`) rather than per-chunk concatenations.

Admission modes & preemption
----------------------------

``ServingEngine(admission=...)`` selects how requests are billed
against the pool:

* ``"reserve"`` (default) — the PR-1 contract: a request reserves its
  schedule-bound *worst-case* pages at admission and holds that
  reservation until it retires.  Nothing can ever be forced out of
  memory, but pages reclaimed by mid-generation pruning cannot admit
  new work that was refused at reservation time — under load the
  engine idles capacity the cascade schedule provably freed.
* ``"optimistic"`` — admission bills only the request's post-prefill
  prompt footprint plus a configurable ``headroom_pages`` against the
  pool's *actual* usage (optimistic accounts track
  ``max(prompt floor, allocated)`` and shrink as pruning evicts, so
  reclaimed pages become admissible capacity immediately).  Future
  decode growth is deliberately unbilled; when it materializes and the
  next step's projected growth would overflow the pool, the engine
  **preempts**: a victim chosen by the ``preempt_policy``
  (``lowest_priority`` / ``most_pages`` / ``latest_arrival``,
  :mod:`repro.serving.preemption`) releases its pages and requeues for
  **recompute-on-preempt**.  Greedy decoding replays a bit-identical
  stream, so preemption costs latency, never tokens — the same
  invariant cluster drains established.  Safety properties:

  - a preempted request is *protected* until it commits new work (a
    prefill chunk or decode token), so no request is preempted twice
    without progress — the livelock guard;
  - a lone resident sequence is never preempted: ``submit`` still
    validates that the worst-case bound fits the whole pool, so the
    last sequence standing always runs to completion;
  - the pool audits its ledger (``KVMemoryPool.audit``) after every
    preemption cycle, and preemption counters
    (``ServingStats.n_preemptions`` / ``recompute_tokens``,
    per-request on :class:`RequestRecord`) keep the recompute cost
    visible in the report.

``benchmarks/bench_preemption.py`` sweeps both admission modes at a
fixed pool budget on a pruning-heavy trace: optimistic admission +
preemption strictly improves throughput and TTFT p95 over
reservation-only admission, with bit-identical per-request outputs.
The CLI surfaces all of it: ``repro serve --admission optimistic
--preempt-policy most_pages --headroom-pages 8``.

Quick start
-----------

Run a synthetic arrival trace from the command line (defaults: 16
requests at 200 req/s, chunked prefill of 32 tokens; ``--prefill-chunk
0`` restores the stalling monolithic behaviour)::

    PYTHONPATH=src python -m repro.cli serve --requests 16 --rate 200 \\
        --pool-kib 768 --mode both

or drive the engine directly::

    from repro.config import GPT2_SMALL, PruningConfig
    from repro.serving import KVMemoryPool, ServingEngine
    from repro.workloads import (
        accuracy_scale_config, build_task_model, build_vocabulary,
        make_lm_corpus, synthetic_request_trace,
    )

    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(GPT2_SMALL, len(vocab), n_layers=6,
                                   d_model=128, n_heads=8, max_seq_len=256)
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=2048, seed=2)
    requests = synthetic_request_trace(corpus, n_requests=8, rate_per_s=4.0)

    pool = KVMemoryPool(config, budget_bytes=768 * 1024)
    engine = ServingEngine(model, pool,
                           pruning=PruningConfig(token_keep_final=0.4),
                           prefill_chunk=16)
    print(engine.run(requests).table())

The benchmark ``benchmarks/bench_serving_throughput.py`` compares dense
and SpAtten-pruned serving across arrival rates at a matched budget,
and sweeps chunked against monolithic prefill to quantify the TTFT and
decode-latency-p95 win under load.

Numerics ladder
---------------

The repo's founding contract is *bit identity*: every serving path
reproduces the per-sequence fp64 looped oracle to the last ulp.  That
contract caps the packed decode backend near ~2× — OpenBLAS reductions
are padding-variant, so a bit-identical batched core must keep
exact-length per-sequence matmuls and softmax denominators.  SpAtten's
own progressive quantization (paper Section III-D) spends an *accuracy
budget* instead of a bit budget; :mod:`repro.nn.numerics` ports that
philosophy to the hot path as an explicit, operator-visible axis:

========  ==========================================================
tier      prompt pass and decode hot path
========  ==========================================================
`exact`   the default — fp64 compute, fp64 KV, per-sequence
          exact-length attention cores: bit-identical to the oracle
`fp32`    fp32 KV planes + one padded ``[B, h, 1, max_len]``
          masked-softmax attention over a shared scratch arena and a
          vectorized fp32 FFN; prompts summarized in fp32
`int8`    same batched core over int8 KV codes with per-(head ×
          column) fp32 scales (:func:`repro.core.quantization.
          quantize_rows`) — 4× less KV DRAM than fp32; prompts
          summarized in fp32 and quantized from it
========  ==========================================================

The tier governs both stages, as SpAtten prunes and quantizes both
(paper Section III, Fig. 3).  Off `exact` the backend owns the prompt
pass too (:meth:`~repro.nn.batched_attention.PackedDecodeBackend.
prefill_chunk_policy`): every prompt row of a step — dense chunks and
the whole-sentence SpAtten cascades completing in it — shares one
compute-dtype layer stack (fused QKV GEMM, masked softmax, LayerNorm,
tanh/gelu FFN, LM head), K/V reach the caches from those rows (int8
quantizes the live heads from fp32), and only token / head importance
stays fp64, because the cumulative scores are the ranking truth.  A
chunked prompt then agrees with a one-chunk prompt to the tier's
tolerance, not bit for bit.  ``prefill(backend=None)`` and the `exact`
tier remain the fp64 oracle.

SpAtten sequences ride the same ladder.  On `exact`, and wherever a
request carries progressive quantization (its LSB refetch is decided
per row from that row's own probabilities), each sequence runs its own
core per layer — the oracle the identity tests compare against.  On
`fp32` / `int8` every other SpAtten sequence takes the backend's
*pruned core*: one :class:`~repro.core.batched_cascade.CascadeBatch`
per step holds the batch's importance scores, live token / head masks
and schedule targets as ``[B, ...]`` planes, and each layer's cascade
— ranked-mask token and head pruning, KV eviction, masked softmax,
local value pruning, A·V, importance accumulation — runs as array
operations over the padded batch.  The route is a function of the tier
and of ``quant`` alone; decisions are the per-sequence functions'
(one selection rule, :mod:`repro.core.topk`), and each sequence's
:class:`~repro.nn.kv_cache.LayerKVCache` stays the truth for
``kv_lengths()``, eviction counts and pool pages.

Select a tier with ``ServingEngine(numerics=...)`` /
``ClusterEngine(numerics=...)`` or CLI ``--numerics
{exact,fp32,int8}``.  The engine builds its backend and every
executor from that one policy; a backend handed executors of another
tier raises :class:`~repro.nn.numerics.NumericsMismatchError`.  The
tier lands in
the stats report's ``numerics`` field and the
``repro_numerics_steps_total`` telemetry counter.  Every non-exact
tier declares its quality budget (max mean KL from the oracle's
next-token distribution, min argmax-match rate);
``benchmarks/bench_numerics.py`` sweeps the ladder, measures
decode-step and prompt-pass speedup and distribution drift against the
fp64 oracle, and exits non-zero when a tier exceeds its declared budget — the
ladder is only allowed to be fast where it is provably accurate
enough.

Cluster mode
------------

:mod:`repro.cluster` layers multi-replica serving on top of this
package; the engine exposes the hooks it drives:

* **Stepwise API** — ``run()`` is a thin loop over
  :meth:`~repro.serving.engine.ServingEngine.start` /
  :meth:`~repro.serving.engine.ServingEngine.submit` /
  :meth:`~repro.serving.engine.ServingEngine.step` /
  :meth:`~repro.serving.engine.ServingEngine.finish`.  A cluster
  driver steps N engines on *parallel simulated timelines*, delivering
  each request at its arrival through a routing policy
  (``round_robin``, ``least_loaded``, or the schedule-aware
  ``pruning_aware``) and capping idle clock jumps at the next global
  event.  Because both paths share the same hooks, a single-replica
  cluster is bit-identical to plain ``run()`` — same tokens, same
  stats.
* **Per-request schedules** — :attr:`~repro.serving.request.Request.
  pruning` lets every request carry its own cascade schedule (the
  default inherits the engine's; ``None`` forces dense).  Executors,
  pool reservations, and cost-model charges all resolve per request,
  which is what heterogeneous traces
  (:func:`repro.workloads.heterogeneous_request_trace`) and
  schedule-bound routing cost estimates
  (:meth:`~repro.serving.engine.ServingEngine.request_flops_estimate`,
  :meth:`~repro.serving.engine.ServingEngine.outstanding_flops`,
  :meth:`~repro.serving.engine.ServingEngine.outstanding_page_seconds`)
  are built on.
* **Sharded ledger accounting** — each replica owns a private
  :class:`KVMemoryPool` shard; :class:`repro.cluster.ShardedKVPool`
  aggregates them under a global page ledger whose ``audit()``
  guarantees every live sequence is billed by exactly one shard and
  retired shards hold nothing.
* **Drain semantics** — :meth:`~repro.serving.engine.ServingEngine.
  drain` pre-empts everything in flight (queued, prefilling, live):
  pool pages release immediately, records reset to pre-admission
  state, and the cluster re-routes the requests with their *original*
  arrival times, so the drain penalty stays visible in queue-wait and
  TTFT percentiles while greedy decoding guarantees the requeued
  requests commit identical token streams (no token loss).

``benchmarks/bench_cluster_scaling.py`` sweeps replica count × routing
policy at a fixed total budget; ``repro serve-cluster`` is the CLI
surface (``--drain-at TIME:REPLICA`` exercises mid-run drains).

Fault tolerance & chaos testing
-------------------------------

:mod:`repro.faults` turns the drain machinery into a full chaos
engine: every fault is an event on the *simulated* clock, generated
from a seeded Generator, so a ``(seed, profile)`` pair replays to
byte-identical fleet behaviour — chaos runs are as deterministic as
fault-free ones.

**Fault taxonomy** (:class:`repro.faults.FaultEvent`):

* ``fail`` / ``drain`` — replica crash or graceful retirement.  The
  shard leaves the ledger's active set; in-flight work requeues
  through the router with original arrival times (latency penalty,
  never token loss).
* ``recover`` — the crashed replica rejoins: its empty shard
  re-registers with the :class:`~repro.cluster.ShardedKVPool` ledger
  under the same audit that governed its departure, and the router
  places new work on it again.  Event sequences are validated up
  front (:func:`repro.faults.validate_fault_events`): drain ->
  recover -> fail on one replica is legal; overlapping retire events
  are rejected before anything runs.
* ``slow_start`` / ``slow_end`` — a transient straggler: the
  replica's :class:`CostModel` step times stretch by the window's
  factor (``ServingEngine.set_slowdown``).  Clock-only — token
  streams are untouched, and the never-slowed run multiplies by
  exactly 1.0, which is bitwise-exact in IEEE arithmetic.
* ``corrupt`` — one stored KV-page checksum flips on the target
  shard.  :class:`KVMemoryPool` keeps a per-page checksum plane in
  lockstep with its allocations; the owning engine detects the
  mismatch on its next step, **quarantines** the victim sequence
  (pages released under audit), and requeues it for recompute —
  greedy decoding replays the identical stream.

**Hardening**, layered on :class:`repro.cluster.ClusterEngine`:

* heartbeat failure detection (:class:`repro.faults.
  HeartbeatMonitor`) on the simulated clock — a replica whose last
  observed step activity lags routing time (the straggler-inside-a-
  stretched-step signature) opens a **circuit breaker** in the
  router, steering new placements away until it is seen alive, while
  never blocking placement when every candidate is suspected;
* per-request **deadlines** (``--deadline-ms``) and placement
  **retry with exponential backoff** under a bounded retry budget
  (``--retry-budget``) — a request displaced by a fleet-wide crash
  backs off, lands on a replica that recovered in the interim, or
  fails cleanly when the budget or deadline is exhausted (a FAILED
  record in the report, never a dead loop);
* a **graceful-degradation ladder**
  (:class:`~repro.serving.degradation.DegradationPolicy`) under
  sustained pool pressure: *shed* the worst best-effort queued
  request, then *reprune* the queued head-of-line request to a more
  aggressive cascade schedule (strictly fewer pages, applied only
  before admission so delivered tokens are never invalidated), with
  optimistic-admission *preemption* as the backstop — shed ->
  reprune -> preempt, each rung observable in telemetry.

**Writing a FaultPlan**: script events by hand
(``FaultPlan(n_replicas=2, events=(FaultEvent(0.02, 0, "fail"),
FaultEvent(0.05, 0, "recover")))``) or generate one
(``FaultPlan.generate(seed, n_replicas, horizon_s,
profile="moderate")`` — crash/recover cycles and straggler windows
laid out on a forward time walk per replica, so generated plans are
always legal).  The CLI surface is ``repro serve-cluster
--chaos-seed N --chaos-profile moderate`` (plus scripted
``--recover-at TIME:REPLICA``); fleet health lands in
:class:`~repro.cluster.stats.ClusterStats` as availability, goodput,
MTTR, recovery/retry/breaker counters.  ``benchmarks/bench_chaos.py``
is the soak harness: fault-plan seeds × intensity, per-run ledger
audits, zero token loss for non-failed requests, and bit-identical
surviving streams vs the fault-free run.

Observability
-------------

:mod:`repro.telemetry` instruments every layer above without changing
any of it.  ``ServingEngine(telemetry=Telemetry())`` (and the same
keyword on :class:`repro.cluster.ClusterEngine`) turns on three
independent sinks:

* **Tracing** — a :class:`~repro.telemetry.Tracer` records the full
  request lifecycle on the *simulated* clock: a ``queued`` span from
  submission to admission, a ``prefill`` span per chunked prefill, a
  ``decode`` span to retirement, with ``preempted`` / ``requeued`` /
  ``drained`` outcomes when those paths fire.  Pool transactions
  (admit / sync / release / preempt-release), router decisions with
  per-replica scores, and sharded-ledger drain/fail transitions land
  on their own tracks.  :func:`~repro.telemetry.chrome_trace_json`
  exports Chrome trace-event JSON for ``chrome://tracing`` /
  Perfetto; ``repro trace-report PATH`` renders a terminal report
  (per-phase time breakdown, pruning-savings timeline,
  preemption/requeue storms) from the same file.
* **Metrics** — a :class:`~repro.telemetry.MetricsRegistry` samples
  every engine step (live batch, pool occupancy, step FLOPs, backlog,
  and the *pruning savings* series: schedule-bound worst-case pages
  minus live usage — the capacity the cascade schedule freed) and
  keeps Prometheus-style counters/gauges/histograms.  Export as JSONL
  time-series (:func:`~repro.telemetry.metrics_jsonl`) or Prometheus
  text exposition (:func:`~repro.telemetry.prometheus_text`).
* **Profiling** — :class:`~repro.telemetry.HotPathProfiler` times the
  packed backend's stages in *wall-clock* seconds: the decode step's
  (QKV projection; dense, pruned and per-sequence attention cores,
  with the pruned rows' batched pruning control as its own stage;
  output FC) and the prompt pass's (``prefill_chunk_proj``,
  ``prefill_core``, ``prefill_ffn`` — on every tier).  Deliberately
  separate from the simulated clock and excluded from the
  deterministic artifacts.

Two invariants the test suite enforces (``tests/test_telemetry.py``):
telemetry is **inert** — on or off, token streams and stats are
bit-identical (the default ``NULL_TELEMETRY`` sink costs nothing on
the hot path) — and trace/metrics exports are **byte-deterministic**
across identical runs, because every timestamp comes from the
simulated clock.  ``audit_every=N`` (CLI ``--audit-every``)
additionally runs the pool's ledger audit every N steps, counted as
``repro_pool_audits_total``.

Request lifecycle
-----------------

Everything a request does between arrival and its terminal state is
one row of one table, :data:`repro.serving.request.LIFECYCLE`, applied
by one function, :func:`repro.serving.request.transition` — the only
writer of a record's ``status``, ``admit_time`` / ``first_token_time``
/ ``finish_time`` and ``phase`` (assigning them anywhere else raises).
An event outside its legal phases raises
:class:`~repro.serving.request.IllegalTransitionError`.  The record
carries which phase is open and since when, so the event that leaves a
``queued`` / ``prefill`` / ``decode`` phase closes exactly that span,
labelled with the row's outcome; span balance and record/trace
agreement hold by construction.  Counters are
``repro_<name>_total{engine=...}``:

============  ================  ========  ===========  =====================  ==================================
event         legal in          next      span         instants               counters
============  ================  ========  ===========  =====================  ==================================
submitted     unrouted          pending   —            submitted              requests_submitted
queued        pending           queued    —            —                      —
admitted      queued            prefill   admitted     admitted               requests_admitted
promoted      prefill           decode    promoted     promoted               tokens
token         decode            —         —            —                      tokens
finished      decode            finished  finished     finished               requests_finished
preempted     prefill, decode   queued    preempted    preempted, requeued    preemptions
quarantined   prefill, decode   queued    quarantined  quarantined, requeued  corruptions
drained       pending … decode  unrouted  drained      —                      —
shed          queued            failed    failed       shed                   requests_shed{reason}, requests_failed
repruned      queued            —         —            repruned               requests_repruned
route_failed  unrouted          failed    —            route_failed           requests_failed
============  ================  ========  ===========  =====================  ==================================

``unrouted`` records belong to no engine (fresh, or handed back by a
drain for re-routing); ``pending`` ones were submitted but are not yet
visible to the queue, and hold no span — ``queued`` is applied at the
time the request became visible, so the queue wait starts there.
``preempted`` / ``quarantined`` / ``drained`` also reset the record to
its pre-admission state (timestamps and tokens cleared, tallies kept);
the two strikes book the discarded work as ``recompute_tokens`` and arm
the livelock guard.  ``shed`` covers the degradation ladder and an
expired ``deadline_s`` (the ``reason`` arg; a request that was ever
admitted is exempt from the deadline).  ``route_failed`` is emitted by
the cluster on the ``fleet`` process's ``router`` track.

SLOs, latency attribution & regression tracking
-----------------------------------------------

:mod:`repro.insight` is the analysis layer on top of the telemetry
above: it turns traces, request records, and bench results into
verdicts, without perturbing anything (engines never import it, and
the same inertness contract applies — insight on vs off leaves token
streams and core stats bit-identical).

**Critical-path latency attribution.**  Every request's end-to-end
latency decomposes into an *exact* blame vector — the lifecycle spans
and instants in a trace tile its arrival-to-terminal interval with no
slack, and :class:`repro.insight.TraceAttribution` does the
arithmetic in :class:`fractions.Fraction` so the per-cause and
per-phase totals sum bit-exactly to the recorded e2e latency (any
trace that cannot be tiled raises instead of guessing).  The cause
taxonomy:

===================  ========  ==============================================
cause                phase     books the time a request spent...
===================  ========  ==============================================
queue_wait           queued    waiting for admission, no disruption pending
prefill              prefill   committing prompt chunks
decode               decode    generating tokens (inter-token gaps included)
preempt_discard      varies    in work discarded by a preemption
preempt_requeue      queued    re-waiting (and recomputing) after preemption
quarantine_discard   varies    in work discarded by a KV-corruption strike
quarantine_requeue   queued    re-waiting after quarantine recompute
drain_discard        varies    in work discarded by a replica drain/fail
drain_requeue        queued    re-waiting after a drain requeued it
retry_backoff        offline   in placement retry backoff (cluster router)
===================  ========  ==============================================

(*varies*: a discard keeps the phase of the span it voided — a
preempted decode books its discarded time under the decode phase.)

**Declarative SLOs.**  :class:`repro.insight.SLOPolicy` holds
objectives written ``CLASS:METRIC:pPCT:TARGET_MS`` — traffic class
(a priority tier or ``all``), metric (``ttft`` / ``tpot`` / ``e2e``),
percentile, and a simulated-millisecond target, e.g. ``0:ttft:p95:150``
or ``all:e2e:p99:2000``.  Evaluation reports the measured percentile
(NaN-honest: no samples renders ``n/a`` / JSON ``null``), attainment,
and error-budget burn rate per tumbling simulated-clock window (burn
> 1 means the window spent violation budget, ``1 - pct/100``, faster
than the objective allows; failed requests violate every objective on
their tier).  Wire it in with ``ServingEngine(slo=policy)`` /
``ClusterEngine(slo=policy)`` or CLI ``--slo SPEC`` (repeatable,
window via ``--slo-window-ms``) — attainment lands in the stats
report's ``slo`` section — or evaluate a saved trace offline:
``repro slo-report TRACE --slo SPEC`` prints attainment plus the full
attribution breakdown and exits 1 on a missed objective.

**Continuous perf tracking.**  The bench smoke suite appends each
run's headline numbers to ``benchmarks/results/history/*.jsonl`` via
:func:`repro.insight.append_history` — normalized, timestamp-free
records (a re-run with identical numbers appends nothing, so history
only grows when the numbers move).  ``repro bench-compare`` judges
each bench's newest record against the *median* of its earlier ones
with noise-aware thresholds (``max(rel_tol, 3 * MAD / |median|)`` per
metric, failing only in the metric's bad direction) and exits 1 on
regression; ``--history DIR`` selects the directory, and tier-1/CI
run it after the smoke benches as a hard gate.

Static analysis
---------------

Both contracts above — byte-determinism and ledger conservation — are
also enforced *before* anything runs, by the :mod:`repro.analysis` lint
pass.  ``repro lint`` (or ``python -m repro.cli lint``) scans
``src/repro`` with AST-based rules and exits non-zero on any
unsuppressed violation; ``scripts/run_tier1.sh`` and CI run it as a
hard gate ahead of the test suite, archiving the JSON report (CLI
``--out PATH``, console ``--format json``) under
``benchmarks/results/lint_report.json``.  Rule catalog:

* **determinism** — ``det-wallclock`` (``time.time`` /
  ``perf_counter`` / ``datetime.now`` and friends outside the
  sanctioned wall-clock module, :mod:`repro.telemetry.profiler`);
  ``det-global-rng`` (bare ``random`` or legacy ``numpy.random.*``
  global state instead of a seeded ``default_rng`` Generator);
  ``det-env-read`` (``os.environ`` / ``os.getenv`` feeding behavior
  that should come from explicit config); ``det-set-order``
  (iterating a set into ordered output — list/tuple/enumerate/join/
  for — without ``sorted``); ``det-dtype-literal`` (hard-coded
  ``np.float64`` / ``dtype=float`` in the numerics-ladder-governed
  hot-path modules — the decode path's dtype is
  :class:`repro.nn.numerics.NumericsPolicy` state, and the deliberate
  fp64 oracle paths carry reasoned suppressions).
* **clock-domain** — ``clock-domain-import``: the manifest in
  :mod:`repro.analysis.manifest` assigns each module a ``simulated``,
  ``wall``, or ``neutral`` clock domain by dotted prefix; an import
  edge directly between the ``simulated`` and ``wall`` domains is a
  violation (bridge through a ``neutral`` module instead).
* **accounting** — ``acct-observer-notify``: every public mutating
  method of ``KVMemoryPool`` / ``ShardedKVPool`` must reach the
  ``observer`` hook (directly or via a same-class call);
  ``acct-audit-test``: each such method must be exercised by at least
  one test that also asserts ``audit()``.
* **drift** — ``drift-cli-doc``: ``--<name>`` flag tokens in the CLI/guide
  docstrings must match ``argparse`` definitions in ``repro.cli``,
  both directions; ``drift-stats-schema``: ``ServingStats`` /
  ``ClusterStats.to_dict`` keys and ``STATS_SCHEMA_VERSION`` must
  match the checked-in golden ``benchmarks/results/
  stats_schema_v2.json`` (``tests/test_analysis.py`` round-trips the
  same contract at runtime).
Suppressions are explicit and always carry a reason::

    start = time.time()  # repro: allow[det-wallclock] -- console-only

A standalone ``# repro: allow[rule-id] -- reason`` comment covers the
next code line; ``# repro: allow-file[rule-id] -- reason`` covers the
whole module.  A suppression without a reason (or a malformed
``# repro:`` directive) is itself a violation via the self-policing
``lint-suppression`` rule.  To add a rule: subclass
:class:`repro.analysis.Rule` in a ``rules_*`` module, decorate with
``@register``, implement ``check_module(module)`` for per-file checks
or ``check_repo(index)`` + ``anchors`` for cross-file checks, list the
module in :func:`repro.analysis.all_rule_classes`, and add a
fire/stay-silent fixture pair to ``tests/test_analysis.py``.
"""

from .degradation import DegradationPolicy
from .engine import (
    ADMISSION_MODES,
    LiveSequence,
    PrefillingSequence,
    ServingEngine,
    greedy_sampler,
)
from .memory_pool import (
    KVMemoryPool,
    PoolExhausted,
    prefill_kv_lengths,
    pruned_kv_bounds,
)
from .preemption import (
    PREEMPTION_POLICIES,
    PreemptionCandidate,
    PreemptionEvent,
    PreemptionPolicy,
)
from .request import (
    INHERIT_PRUNING,
    LIFECYCLE,
    IllegalTransitionError,
    Request,
    RequestQueue,
    RequestRecord,
    RequestStatus,
    transition,
)
from .stats import CostModel, ServingStats, SimulatedClock

__all__ = [
    "ADMISSION_MODES",
    "DegradationPolicy",
    "INHERIT_PRUNING",
    "LiveSequence",
    "PREEMPTION_POLICIES",
    "PrefillingSequence",
    "PreemptionCandidate",
    "PreemptionEvent",
    "PreemptionPolicy",
    "ServingEngine",
    "greedy_sampler",
    "KVMemoryPool",
    "PoolExhausted",
    "prefill_kv_lengths",
    "pruned_kv_bounds",
    "Request",
    "RequestQueue",
    "RequestRecord",
    "RequestStatus",
    "IllegalTransitionError",
    "LIFECYCLE",
    "transition",
    "CostModel",
    "ServingStats",
    "SimulatedClock",
]

"""Tests for the observability layer (repro.telemetry).

The contract under test, in order of importance:

* **inert** — telemetry on vs off produces bit-identical token
  streams, in both dense and SpAtten modes, single-engine and
  cluster;
* **deterministic** — two identical runs write byte-identical trace
  and metrics files (simulated-clock timestamps only);
* **valid** — the trace export is well-formed Chrome trace-event JSON
  (checked by the same validator ``repro trace-report`` uses);
* **complete** — the request lifecycle (queued -> prefill -> decode),
  pool events, router decisions, ledger transitions, preemptions, and
  the pruning-savings counter all actually appear in the trace.
"""

import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import pytest

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.faults import FaultEvent
from repro.serving import KVMemoryPool, ServingEngine
from repro.serving.stats import STATS_SCHEMA_VERSION
from repro.telemetry import (
    NULL_TELEMETRY,
    HotPathProfiler,
    MetricsRegistry,
    Telemetry,
    TraceOverlapError,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    trace_report,
    validate_chrome_trace,
)
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    make_lm_corpus,
    synthetic_request_trace,
)

PROMPT_LEN = 24
PRUNING = PruningConfig(token_keep_final=0.4, head_keep_final=0.75,
                        value_keep=0.9)


@pytest.fixture(scope="module")
def serving_setup():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
        max_seq_len=160,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=2048, seed=2)
    return config, model, corpus


def make_pool(config, pages=64, page_tokens=8):
    return KVMemoryPool(
        config,
        budget_bytes=pages * page_tokens * 2 * config.n_heads
        * config.head_dim * config.bytes_per_element,
        page_tokens=page_tokens,
    )


def make_sharded(config, total_pages=128, n_replicas=2, page_tokens=8):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return ShardedKVPool(
        config,
        total_budget_bytes=total_pages * page_tokens * per_token,
        n_replicas=n_replicas,
        page_tokens=page_tokens,
    )


def trace(corpus, n=8, rate=2000.0, max_new=(6, 12), seed=3):
    return synthetic_request_trace(
        corpus, n_requests=n, rate_per_s=rate, prompt_len=PROMPT_LEN,
        max_new_tokens=max_new, seed=seed,
    )


def tokens_by_id(stats):
    return {r.request.request_id: list(r.token_ids) for r in stats.records}


def run_engine(setup, requests, telemetry=None, pruning=PRUNING, pages=64,
               **kwargs):
    config, model, _ = setup
    pool = make_pool(config, pages=pages)
    engine = ServingEngine(
        model, pool, pruning=pruning, prefill_chunk=8,
        telemetry=telemetry, **kwargs,
    )
    return engine.run(requests), engine


# ----------------------------------------------------------------------
# Unit: tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_events_and_lookup(self):
        tr = Tracer()
        tr.instant("hit", t=1.0, process="engine", track="pool", pages=3)
        tr.span("work", start=0.5, end=2.0, process="engine",
                track="req 0", outcome="ok")
        tr.counter("kv", t=1.5, process="engine", allocated=7)
        assert len(tr) == 3
        assert [e.name for e in tr.named("hit")] == ["hit"]
        span = tr.named("work")[0]
        assert span.kind == "span"
        assert span.dur == pytest.approx(1.5)
        assert span.args_dict == {"outcome": "ok"}
        assert tr.processes == ["engine"]

    def test_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="end"):
            tr.span("bad", start=2.0, end=1.0, process="p", track="t")

    def test_process_order_is_first_appearance(self):
        tr = Tracer()
        tr.instant("a", t=0.0, process="fleet", track="x")
        tr.instant("b", t=1.0, process="replica0", track="x")
        tr.instant("c", t=2.0, process="fleet", track="x")
        assert tr.processes == ["fleet", "replica0"]


# ----------------------------------------------------------------------
# Unit: metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_tokens_total", engine="e0")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("repro_live", engine="e0")
        g.set(3)
        g.set(1)
        assert g.value == 1
        h = reg.histogram("repro_lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_labels_key_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("c", mode="dense").inc()
        reg.counter("c", mode="spatten").inc(2)
        # Same name+labels returns the same instrument.
        assert reg.counter("c", mode="dense").value == 1
        assert reg.counter("c", mode="spatten").value == 2

    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_tokens_total", engine="e0").inc(3)
        reg.histogram("repro_step_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.prometheus_text()
        assert "# TYPE repro_tokens_total counter" in text
        assert 'repro_tokens_total{engine="e0"} 3' in text
        # le buckets are cumulative and end at +Inf.
        assert 'le="+Inf"' in text
        assert "repro_step_seconds_count 1" in text
        assert "repro_step_seconds_sum 0.5" in text

    def test_histogram_quantile_interpolates(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(0.1, 0.5, 1.0))
        for v in (0.05, 0.2, 0.3, 0.6):
            h.observe(v)
        # Rank 2 of 4 lands mid-bucket (0.1, 0.5]: linear interpolation
        # across the two observations stored there.
        assert h.quantile(0.5) == pytest.approx(0.3)
        assert h.quantile(0.25) == pytest.approx(0.1)
        # The estimate is deterministic: same histogram, same answer.
        assert h.quantile(0.5) == h.quantile(0.5)

    def test_histogram_quantile_empty_is_nan(self):
        from repro.serving.stats import _null_if_nan, format_quantiles

        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(0.1, 1.0))
        value = h.quantile(0.95)
        assert math.isnan(value)
        # The standard renderers show the unknown quantile as n/a (text)
        # and null (JSON) — never as a fake zero.
        assert "n/a" in format_quantiles([value])
        assert _null_if_nan(value) is None
        assert json.dumps({"p95": _null_if_nan(value)}) == '{"p95": null}'

    def test_histogram_quantile_inf_bucket_reports_last_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(0.1, 1.0))
        h.observe(50.0)  # lands in +Inf: no finite edge to interpolate
        assert h.quantile(0.99) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_samples_require_timestamp_and_export_jsonl(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="t"):
            reg.record_sample({"live": 3})
        reg.record_sample({"t": 0.25, "live": 3})
        lines = reg.to_jsonl().strip().splitlines()
        assert json.loads(lines[0]) == {"t": 0.25, "live": 3}


# ----------------------------------------------------------------------
# Unit: telemetry bundle / null sink
# ----------------------------------------------------------------------
class TestTelemetryBundle:
    def test_null_telemetry_is_inactive(self):
        assert not NULL_TELEMETRY.active
        assert NULL_TELEMETRY.tracer is None
        assert NULL_TELEMETRY.metrics is None
        assert NULL_TELEMETRY.profiler is None

    def test_profile_alone_is_not_active(self):
        # The profiler times wall clock, not the simulated run; it must
        # not drag the (allocation-heavy) trace/metrics path in.
        tel = Telemetry(trace=False, metrics=False, profile=True)
        assert not tel.active
        assert isinstance(tel.profiler, HotPathProfiler)

    def test_default_is_trace_and_metrics(self):
        tel = Telemetry()
        assert tel.active
        assert tel.tracer is not None and tel.metrics is not None
        assert tel.profiler is None


# ----------------------------------------------------------------------
# Inertness: telemetry must never change the computation
# ----------------------------------------------------------------------
class TestInertness:
    @pytest.mark.parametrize("pruning", [None, PRUNING],
                             ids=["dense", "spatten"])
    def test_engine_tokens_identical_on_off(self, serving_setup, pruning):
        requests = trace(serving_setup[2])
        off, _ = run_engine(serving_setup, requests, telemetry=None,
                            pruning=pruning)
        on, _ = run_engine(serving_setup, requests, telemetry=Telemetry(),
                           pruning=pruning)
        assert tokens_by_id(on) == tokens_by_id(off)
        assert on.to_dict() == off.to_dict()

    def test_cluster_tokens_identical_on_off(self, serving_setup):
        config, model, corpus = serving_setup
        requests = trace(corpus, n=10)

        def run(telemetry):
            cluster = ClusterEngine(
                model, make_sharded(config), policy="pruning_aware",
                pruning=PRUNING, prefill_chunk=8, telemetry=telemetry,
                faults=[FaultEvent(0.015, 1, "drain")],
            )
            return cluster.run(requests)

        off = run(None)
        on = run(Telemetry())
        assert tokens_by_id(on.fleet) == tokens_by_id(off.fleet)


# ----------------------------------------------------------------------
# Determinism: identical runs -> byte-identical artifacts
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("pruning", [None, PRUNING],
                             ids=["dense", "spatten"])
    def test_engine_artifacts_byte_identical(self, serving_setup, pruning):
        requests = trace(serving_setup[2])

        def artifacts():
            tel = Telemetry()
            run_engine(serving_setup, requests, telemetry=tel,
                       pruning=pruning, audit_every=2)
            return (chrome_trace_json(tel.tracer),
                    tel.metrics.to_jsonl(),
                    tel.metrics.prometheus_text())

        assert artifacts() == artifacts()

    def test_cluster_artifacts_byte_identical(self, serving_setup):
        config, model, corpus = serving_setup
        requests = trace(corpus, n=10)

        def artifacts():
            tel = Telemetry()
            cluster = ClusterEngine(
                model, make_sharded(config), policy="pruning_aware",
                pruning=PRUNING, prefill_chunk=8, telemetry=tel,
                audit_every=3, faults=[FaultEvent(0.015, 1, "drain")],
            )
            cluster.run(requests)
            return chrome_trace_json(tel.tracer), tel.metrics.to_jsonl()

        assert artifacts() == artifacts()


# ----------------------------------------------------------------------
# Trace content + Chrome format validity
# ----------------------------------------------------------------------
class TestTraceContent:
    @pytest.fixture(scope="class")
    def traced_run(self, serving_setup):
        tel = Telemetry()
        requests = trace(serving_setup[2])
        stats, engine = run_engine(serving_setup, requests, telemetry=tel,
                                   audit_every=2)
        return tel, stats, engine

    def test_chrome_trace_is_valid(self, traced_run):
        tel, _, _ = traced_run
        doc = json.loads(chrome_trace_json(tel.tracer))
        events = validate_chrome_trace(doc)
        phases = {e["ph"] for e in events}
        # Metadata, complete spans, instants, and counters all present.
        assert {"M", "X", "i", "C"} <= phases
        # Spans carry microsecond timestamps on the simulated clock.
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert math.isfinite(e["ts"])

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="ph"):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})

    def test_request_lifecycle_spans(self, traced_run):
        tel, stats, _ = traced_run
        n = len(stats.records)
        for phase in ("queued", "prefill", "decode"):
            spans = tel.tracer.named(phase)
            assert len(spans) == n
            assert all(s.kind == "span" for s in spans)
        outcomes = {s.args_dict["outcome"]
                    for s in tel.tracer.named("decode")}
        assert outcomes == {"finished"}
        # Every request got its own track.
        tracks = {s.track for s in tel.tracer.named("decode")}
        assert tracks == {f"req {r.request.request_id}"
                          for r in stats.records}

    def test_pool_events_and_counters(self, traced_run):
        tel, stats, engine = traced_run
        assert tel.tracer.named("pool_admit")
        assert tel.tracer.named("pool_release")
        kv = tel.tracer.named("kv_pool")
        assert kv and all(e.kind == "counter" for e in kv)
        # The savings counter ends at the pool's final reclaim total.
        assert kv[-1].args_dict["reclaimed_pages"] == stats.reclaimed_pages
        # Audits ran and were counted.
        audits = tel.metrics.counter("repro_pool_audits_total",
                                     engine=engine.name)
        assert audits.value >= 1

    def test_pruning_savings_nonzero_under_spatten(self, traced_run):
        tel, _, _ = traced_run
        saved = [e.args_dict["saved_pages"]
                 for e in tel.tracer.named("kv_pool")]
        # Worst-case reservations exceed live pruned usage at least
        # once in a SpAtten run — that gap *is* the savings series.
        assert max(saved) > 0

    def test_preemption_events(self, serving_setup):
        tel = Telemetry()
        requests = trace(serving_setup[2], n=16, max_new=(12, 24), seed=11)
        stats, _ = run_engine(
            serving_setup, requests, telemetry=tel, pages=36,
            admission="optimistic",
        )
        assert stats.n_preemptions > 0
        preempted = tel.tracer.named("preempted")
        assert len(preempted) == stats.n_preemptions
        assert len(tel.tracer.named("requeued")) == stats.n_preemptions
        assert all(e.args_dict["pages_freed"] >= 0 for e in preempted)

    def test_cluster_router_and_ledger_events(self, serving_setup):
        config, model, corpus = serving_setup
        tel = Telemetry()
        requests = trace(corpus, n=10)
        cluster = ClusterEngine(
            model, make_sharded(config), policy="pruning_aware",
            pruning=PRUNING, prefill_chunk=8, telemetry=tel,
            faults=[FaultEvent(0.015, 1, "drain")],
        )
        stats = cluster.run(requests)
        routed = tel.tracer.named("routed")
        # Every placement (including requeues) was recorded with
        # per-candidate scores.
        assert len(routed) == sum(stats.routed_counts)
        first = routed[0].args_dict
        assert first["policy"] == "pruning_aware"
        assert "replica0" in first and isinstance(first["replica0"], float)
        assert tel.tracer.named("replica_drain")
        assert tel.tracer.named("ledger_drain")
        assert "fleet" in tel.tracer.processes
        # The fleet-global audit counter is separate from per-replica.
        fleet_pool = tel.tracer.named("fleet_pool")
        assert fleet_pool and fleet_pool[-1].process == "fleet"


# ----------------------------------------------------------------------
# audit-every cadence
# ----------------------------------------------------------------------
class TestPoolObserver:
    def test_inert_engine_clears_a_stale_observer(self, serving_setup):
        """A pool a traced engine drove must stop notifying it once a
        telemetry-off engine takes the pool over."""
        config, model, corpus = serving_setup
        requests = trace(corpus, n=4)
        pool = make_pool(config)
        tel = Telemetry()
        traced = ServingEngine(model, pool, pruning=PRUNING, prefill_chunk=8,
                               telemetry=tel)
        traced.run(requests)
        assert pool.observer is traced
        n_events = len(tel.tracer)
        ServingEngine(model, pool, pruning=PRUNING,
                      prefill_chunk=8).run(requests)
        assert pool.observer is None
        assert len(tel.tracer) == n_events


class TestAuditEvery:
    def test_rejects_nonpositive(self, serving_setup):
        config, model, _ = serving_setup
        with pytest.raises(ValueError, match="audit_every"):
            ServingEngine(model, make_pool(config), audit_every=0)

    def test_runs_without_telemetry(self, serving_setup):
        # The audit cadence must not require telemetry: auditing every
        # step with the sink off still validates every invariant.
        requests = trace(serving_setup[2])
        stats, _ = run_engine(serving_setup, requests, telemetry=None,
                              audit_every=1)
        assert stats.n_requests == len(requests)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def _count_steps(monkeypatch):
    """Count the model's step calls: ``"mixed"``, decode steps carrying
    the step's prompt chunks (``decode_step_batch(..., prefill=...)``),
    and ``"prompt"``, ``prefill_chunk_batch`` calls — what a mixed step
    still makes on the exact tier, and only a step without decode rows
    makes off it."""
    from repro.nn import TransformerModel

    counts = {"mixed": 0, "prompt": 0}
    decode, prompt = (TransformerModel.decode_step_batch,
                      TransformerModel.prefill_chunk_batch)

    def decode_spy(model, *args, prefill=None, **kwargs):
        counts["mixed"] += prefill is not None
        return decode(model, *args, prefill=prefill, **kwargs)

    def prompt_spy(model, *args, **kwargs):
        counts["prompt"] += 1
        return prompt(model, *args, **kwargs)

    monkeypatch.setattr(TransformerModel, "decode_step_batch", decode_spy)
    monkeypatch.setattr(TransformerModel, "prefill_chunk_batch", prompt_spy)
    return counts


def _prompt_core_stage(numerics, pruning):
    """The profiler stage of a prompt step's attention core: a dense
    chunk's own core, a pruned store block's off the exact tier, a
    SpAtten sentence's own (``"custom"``) core on it."""
    if pruning is None:
        return "prefill_dense_core"
    return "prefill_custom_core" if numerics == "exact" else (
        "prefill_pruned_core"
    )


class TestProfiler:
    def test_packed_backend_stages_recorded(self, serving_setup):
        tel = Telemetry(profile=True)
        requests = trace(serving_setup[2], n=6)
        run_engine(serving_setup, requests, telemetry=tel)
        prof = tel.profiler
        assert prof.calls("decode_qkv_proj") > 0
        assert prof.total_seconds > 0
        assert "decode_qkv_proj" in str(prof.table())

    @pytest.mark.parametrize("numerics", ["exact", "fp32"])
    @pytest.mark.parametrize("pruning", [None, PRUNING],
                             ids=["dense", "spatten"])
    def test_prompt_pass_stages_recorded(self, serving_setup, numerics,
                                         pruning):
        """The prompt pass is attributed on every tier: the backend's
        stack runs it on each."""
        tel = Telemetry(profile=True)
        requests = trace(serving_setup[2], n=4)
        run_engine(serving_setup, requests, telemetry=tel, pruning=pruning,
                   numerics=numerics)
        prof = tel.profiler
        n_layers = serving_setup[0].n_layers
        # The attention half is named by the core that ran it (the
        # split the decode step has).
        core = _prompt_core_stage(numerics, pruning)
        assert prof.calls("prefill_ffn") > 0
        assert prof.calls(core) >= prof.calls("prefill_ffn")
        assert prof.calls(core) % n_layers == 0
        assert prof.calls("prefill_chunk_proj") > 0
        assert "prefill_ffn" in str(prof.table())

    @pytest.mark.parametrize("pruning", [None, PRUNING],
                             ids=["dense", "spatten"])
    def test_decode_stages_sum_to_the_step(self, serving_setup, pruning,
                                           monkeypatch):
        """The SpanRecorder identity moved inside the opaque span: on a
        non-exact tier the ``decode_*`` stages account for the whole
        ``decode_step`` but an ``unattributed`` remainder the table
        shows, held under 5 % of the step — the value control carved out
        of the pruned core, once a layer, included.  Prompts arrive while
        others decode, so some steps carry prompt rows too: such a mixed
        step is one ``decode_step`` whose prompt parts' cores (and value
        control) are its stages too, and runs one FFN half a layer."""
        counts = _count_steps(monkeypatch)
        tel = Telemetry(profile=True)
        requests = trace(serving_setup[2], n=10, max_new=(16, 24))
        run_engine(serving_setup, requests, telemetry=tel, pruning=pruning,
                   numerics="fp32")
        prof = tel.profiler
        n_layers = serving_setup[0].n_layers
        steps = prof.calls("decode_step")
        assert 0 < counts["mixed"] < steps
        assert prof.calls("prefill_step") == counts["prompt"]
        assert prof.calls("decode_setup") == steps
        assert prof.calls("decode_lm_head") == steps
        assert prof.calls("decode_ffn") == steps * n_layers
        core = "decode_dense_core" if pruning is None else "decode_pruned_core"
        assert prof.calls(core) == steps * n_layers
        # Prompt cores ran in the mixed steps as well as in the prompt
        # steps' layers (one part or block a layer at this scale).
        prompt_core = _prompt_core_stage("fp32", pruning)
        assert prof.calls(prompt_core) > prof.calls("prefill_ffn")
        # The cascade's own statements are a stage of their own, which a
        # dense block never runs.
        assert prof.calls("decode_value_control") == (
            0 if pruning is None else steps * n_layers
        )
        assert (prof.seconds("decode_value_control") > 0) == (
            pruning is not None
        )
        # The pruned rows' control is resident: nothing is committed.
        assert prof.calls("decode_commit") == 0
        unattributed = prof.unattributed_seconds("decode_step")
        assert 0 <= unattributed <= 0.05 * prof.seconds("decode_step")
        rows = {row[0]: row for row in prof.as_rows()}
        assert "decode_step" not in rows
        assert rows["unattributed (decode_step)"][2] == unattributed
        assert sum(row[3] for row in rows.values()) == pytest.approx(1.0)
        assert "unattributed (decode_step)" in str(prof.table())

    @pytest.mark.parametrize("pruning, numerics", [
        pytest.param(pruning, numerics, id=name + suffix)
        for name, pruning in (("dense", None), ("spatten", PRUNING))
        for numerics, suffix in (("fp32", ""), ("exact", "-exact"))
    ])
    def test_prefill_stages_sum_to_the_step(self, serving_setup, pruning,
                                            numerics, monkeypatch):
        """The same identity for the prompt pass, on every tier: the
        ``prefill_*`` stages tile every ``prefill_step``.  Off the exact
        tier a step that also decodes is a ``decode_step`` (its prompt
        cores keep their ``prefill_*`` names), so ``prefill_step`` counts
        the steps without decode rows; the exact tier still runs a prompt
        step of its own after each decode step that carries chunks."""
        counts = _count_steps(monkeypatch)
        tel = Telemetry(profile=True)
        requests = trace(serving_setup[2], n=10, max_new=(2, 4))
        run_engine(serving_setup, requests, telemetry=tel, pruning=pruning,
                   numerics=numerics)
        prof = tel.profiler
        n_layers = serving_setup[0].n_layers
        steps = prof.calls("prefill_step")
        assert counts["mixed"] > 0 and steps == counts["prompt"]
        if numerics == "exact":
            assert steps > counts["mixed"]
        assert steps > 0 and prof.calls("prefill_setup") == steps
        assert prof.calls("prefill_lm_head") == steps
        core = _prompt_core_stage(numerics, pruning)
        # Every layer of a step with rows runs each stage once (chunks
        # of a pruned prompt before its last carry no rows).
        layers = prof.calls("prefill_ffn")
        assert 0 < layers <= steps * n_layers and layers % n_layers == 0
        assert prof.calls("prefill_prune_control") == layers
        assert prof.calls("prefill_chunk_proj") == layers
        assert prof.calls(core) >= layers
        # Only a pruned store block carves value control out of its core.
        assert prof.calls("prefill_value_control") == (
            prof.calls(core) if core == "prefill_pruned_core" else 0
        )
        assert prof.calls("prefill_commit") == 0
        unattributed = prof.unattributed_seconds("prefill_step")
        assert 0 <= unattributed <= 0.05 * prof.seconds("prefill_step")
        rows = {row[0]: row for row in prof.as_rows()}
        assert "prefill_step" not in rows
        assert rows["unattributed (prefill_step)"][2] == unattributed
        assert sum(row[3] for row in rows.values()) == pytest.approx(1.0)
        assert "unattributed (prefill_step)" in str(prof.table())

    @staticmethod
    def _documented_stages():
        """The profiler module's catalog: the names heading each bullet,
        off the exact tier and on it."""
        from repro.telemetry import profiler

        off, on = profiler.__doc__.split("Stages on the exact tier")
        off = off.split("Stages off the exact tier")[1]
        return tuple(
            {
                name
                for line in text.splitlines() if line.startswith("* ")
                for name in re.findall(r"``(\w+)``", line.split(" — ")[0])
            }
            for text in (off, on)
        )

    @pytest.mark.parametrize("numerics", ["exact", "fp32", "int8"])
    def test_recorded_stages_are_the_documented_ones(
        self, serving_setup, numerics
    ):
        """Chunked prompts and decode steps of a batch of dense, pruned
        and progressive-quant rows — and decode steps that carry another
        such batch's prompt chunks — record exactly the stages the
        profiler's catalog lists for the tier."""
        from repro.config import QuantConfig
        from repro.core.pipeline import SpAttenExecutor
        from repro.nn import PackedDecodeBackend
        from repro.nn.transformer import DenseExecutor

        _, model, corpus = serving_setup
        backend = PackedDecodeBackend(model, numerics=numerics)
        backend.profiler = prof = HotPathProfiler()
        quant = QuantConfig(msb_bits=6, lsb_bits=4, progressive=True,
                            threshold=0.1)

        def batch():
            return [
                DenseExecutor(numerics=numerics),
                SpAttenExecutor(PRUNING, numerics=numerics),
                SpAttenExecutor(PRUNING, quant, numerics=numerics),
            ]

        executors = batch()
        states = [
            model.prefill_begin(corpus[:PROMPT_LEN].tolist(), executor)
            for executor in executors
        ]
        while not all(state.done for state in states):
            model.prefill_chunk_batch(
                [state for state in states if not state.done], 8,
                backend=backend,
            )
        arriving = [
            model.prefill_begin(corpus[:PROMPT_LEN].tolist(), executor)
            for executor in batch()
        ]
        for step in range(PROMPT_LEN // 8 + 1):
            live = [state for state in arriving if not state.done]
            model.decode_step_batch(
                [1, 2, 3], [PROMPT_LEN + step] * 3, executors,
                backend=backend, prefill=(live, 8) if live else None,
            )
        assert all(state.done for state in arriving)
        off, on = self._documented_stages()
        assert set(prof.stages) == (on if numerics == "exact" else off)

    def test_exact_tier_records_no_step_total(self, serving_setup):
        """The exact decode step belongs to the model's own stack: no
        total, so no remainder row; its prompt step is the backend's."""
        tel = Telemetry(profile=True)
        run_engine(serving_setup, trace(serving_setup[2], n=4), telemetry=tel)
        assert tel.profiler.calls("decode_step") == 0
        assert tel.profiler.calls("prefill_step") > 0
        table = str(tel.profiler.table())
        assert "unattributed (decode_step)" not in table
        assert "unattributed (prefill_step)" in table

    def test_unit_timing(self):
        prof = HotPathProfiler()
        t0 = prof.start()
        prof.stop("stage_a", t0)
        assert prof.calls("stage_a") == 1
        assert prof.seconds("stage_a") >= 0


# ----------------------------------------------------------------------
# trace-report rendering
# ----------------------------------------------------------------------
class TestTraceReport:
    def test_report_sections(self, serving_setup, tmp_path):
        tel = Telemetry()
        requests = trace(serving_setup[2])
        stats, _ = run_engine(serving_setup, requests, telemetry=tel)
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace_json(tel.tracer))
        text = trace_report(str(path))
        assert "per-phase time breakdown" in text
        for phase in ("queued", "prefill", "decode"):
            assert phase in text
        assert "pruning savings" in text
        assert f"final pages reclaimed  {stats.reclaimed_pages}" in text

    def test_report_shows_storms(self, serving_setup, tmp_path):
        tel = Telemetry()
        requests = trace(serving_setup[2], n=16, max_new=(12, 24), seed=11)
        run_engine(serving_setup, requests, telemetry=tel, pages=36,
                   admission="optimistic")
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace_json(tel.tracer))
        text = trace_report(str(path))
        assert "preempted" in text
        assert "requeued" in text

    def test_report_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": "nope"}')
        with pytest.raises(ValueError):
            trace_report(str(path))

    def test_cli_renders_cluster_fault_trace(self, serving_setup, tmp_path,
                                             capsys):
        from repro.cli import main

        config, model, corpus = serving_setup
        tel = Telemetry()
        cluster = ClusterEngine(
            model, make_sharded(config), pruning=PRUNING, prefill_chunk=8,
            faults=[FaultEvent(0.004, 0, "fail"),
                    FaultEvent(0.02, 0, "recover")],
            telemetry=tel,
        )
        cluster.run(trace(corpus, n=10))
        path = tmp_path / "cluster_trace.json"
        path.write_text(chrome_trace_json(tel.tracer))
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase time breakdown" in out
        assert "replica" in out

    def test_cli_handles_empty_trace_cleanly(self, tmp_path, capsys):
        # An empty-but-valid trace renders as "nothing to report", not a
        # stack trace: exit 0 with every section present.
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no phase spans" in out
        assert "Traceback" not in out

    def test_cli_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": "nope"}')
        assert main(["trace-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace-report:" in err
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# Trace validator: overlapping spans on one track (satellite)
# ----------------------------------------------------------------------
class TestTraceValidator:
    def overlap_doc(self, start2=1.0):
        """Two spans on one track; overlapping when start2 < 2.0."""
        return {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "prefill",
             "ts": 0.0, "dur": 2.0, "args": {}},
            {"ph": "X", "pid": 1, "tid": 1, "name": "decode",
             "ts": start2, "dur": 2.0, "args": {}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "req 0"}},
        ]}

    def test_rejects_overlapping_spans_naming_both(self):
        with pytest.raises(TraceOverlapError) as excinfo:
            validate_chrome_trace(self.overlap_doc())
        message = str(excinfo.value)
        assert "'prefill'" in message and "'decode'" in message
        assert "req 0" in message
        # It is also a ValueError, so existing catch-sites keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_accepts_back_to_back_spans(self):
        assert validate_chrome_trace(self.overlap_doc(start2=2.0))

    def test_accepts_overlap_across_distinct_tracks(self):
        doc = self.overlap_doc()
        doc["traceEvents"][1]["tid"] = 2  # same times, different track
        assert validate_chrome_trace(doc)

    def test_real_traces_have_no_overlaps(self, serving_setup):
        # The engines' lifecycle emission keeps every track's spans
        # disjoint; the validator must stay silent on a real run.
        tel = Telemetry()
        requests = trace(serving_setup[2], n=16, max_new=(12, 24), seed=11)
        run_engine(serving_setup, requests, telemetry=tel, pages=36,
                   admission="optimistic")
        assert validate_chrome_trace(json.loads(chrome_trace_json(tel.tracer)))


# ----------------------------------------------------------------------
# Stats schema version (satellite)
# ----------------------------------------------------------------------
class TestSchemaVersion:
    def test_serving_stats_round_trip(self, serving_setup):
        requests = trace(serving_setup[2], n=4)
        stats, _ = run_engine(serving_setup, requests)
        doc = json.loads(stats.to_json())
        assert doc["schema_version"] == STATS_SCHEMA_VERSION
        assert doc["n_requests"] == stats.n_requests
        # Strict JSON round trip: no NaN leaks.
        assert json.loads(json.dumps(doc)) == doc

    def test_cluster_stats_round_trip(self, serving_setup):
        config, model, corpus = serving_setup
        cluster = ClusterEngine(
            model, make_sharded(config), policy="round_robin",
            pruning=PRUNING, prefill_chunk=8,
        )
        stats = cluster.run(trace(corpus, n=6))
        doc = json.loads(stats.to_json())
        assert doc["schema_version"] == STATS_SCHEMA_VERSION
        assert doc["fleet"]["schema_version"] == STATS_SCHEMA_VERSION
        for replica in doc["replicas"]:
            assert replica["schema_version"] == STATS_SCHEMA_VERSION


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    BASE = ["--requests", "4", "--layers", "2", "--max-new", "3", "6"]
    SERVE = ["serve", "--mode", "spatten"] + BASE
    SERVE_BOTH = ["serve", "--mode", "both"] + BASE

    def test_stats_json_stdout(self, capsys):
        from repro.cli import main
        assert main(self.SERVE + ["--stats-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["spatten"]["schema_version"] == STATS_SCHEMA_VERSION

    def test_trace_stdout_single_mode(self, capsys):
        from repro.cli import main
        assert main(self.SERVE + ["--trace-out", "-"]) == 0
        out = capsys.readouterr().out
        # The trace document is the single compact-JSON line at the end.
        doc = json.loads(out.strip().splitlines()[-1])
        assert validate_chrome_trace(doc)

    def test_stdout_rejected_for_both_modes(self, capsys):
        from repro.cli import main
        assert main(self.SERVE_BOTH + ["--trace-out", "-"]) == 2
        assert "single mode" in capsys.readouterr().err

    def test_both_modes_suffix_filenames(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.json"
        assert main(self.SERVE_BOTH + ["--trace-out", str(out)]) == 0
        for mode in ("dense", "spatten"):
            written = tmp_path / f"trace.{mode}.json"
            assert validate_chrome_trace(json.loads(written.read_text()))
        # A dot in a directory name is not an extension.
        dotted = tmp_path / "runs.v2"
        dotted.mkdir()
        assert main(
            self.SERVE_BOTH + ["--trace-out", str(dotted / "trace")]
        ) == 0
        for mode in ("dense", "spatten"):
            written = dotted / f"trace.{mode}"
            assert validate_chrome_trace(json.loads(written.read_text()))

    def test_trace_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.json"
        assert main(self.SERVE + ["--trace-out", str(out),
                                  "--audit-every", "2"]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "per-phase time breakdown" in text

    def test_trace_report_missing_file(self, capsys):
        from repro.cli import main
        assert main(["trace-report", "/nonexistent/trace.json"]) == 2
        assert "trace-report" in capsys.readouterr().err


def test_every_subpackage_imports_first():
    """Each ``repro`` subpackage — and each telemetry module — imports
    as the first ``repro`` import of an interpreter: no import cycle
    needs another module to have been imported before it."""
    import repro

    names = [f"repro.{module.name}" for module in pkgutil.iter_modules(
        repro.__path__
    )] + [
        f"repro.telemetry.{name}"
        for name in ("export", "metrics", "profiler", "report", "tracer")
    ]
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for module in [m for m in sys.modules\n"
        "                   if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[module]\n"
        "    importlib.import_module(name)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr

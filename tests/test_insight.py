"""Tests for the repro.insight analysis layer.

The contract under test, in order of importance:

* **exact** — every request's blame vector sums *bit-exactly* (as
  Fractions in the exported-microsecond domain) to its recorded
  end-to-end latency, for dense and SpAtten modes, single-engine and
  cluster, with preemption and chaos in play, across multiple seeds;
* **free** — SLO verdicts are computed by the caller from the records
  a run returns (engines hold no policy), and identical runs render
  byte-identical slo-report and bench-compare output;
* **source-agnostic** — attribution from the live tracer and from the
  exported Chrome trace file agree exactly;
* **gating** — the bench-compare regression gate demonstrably fails on
  a synthetic regression and passes on real, deterministic history.
"""

import json
from fractions import Fraction

import pytest

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.faults import FaultEvent, FaultPlan
from repro.serving import KVMemoryPool, ServingEngine
from repro.telemetry import Telemetry, chrome_trace, chrome_trace_json
from repro.insight import (
    CAUSES,
    SLOObjective,
    SLOPolicy,
    RequestSample,
    TraceAttribution,
    append_history,
    compare_all,
    compare_history,
    load_history,
    metric,
    timelines_from_events,
)
from repro.cli import main as cli_main
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
def world():
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


def run_preempting_engine(world, seed, pruning=PRUNING, telemetry=None):
    """The preemption-heavy recipe: optimistic admission on a tight
    pool forces preempt/requeue cycles for most seeds."""
    config, model, corpus = world
    requests = trace(corpus, n=16, max_new=(12, 24), seed=seed)
    engine = ServingEngine(
        model, make_pool(config, pages=36), pruning=pruning,
        prefill_chunk=8, admission="optimistic", telemetry=telemetry,
    )
    return engine.run(requests), engine


def run_chaos_cluster(world, seed, telemetry=None):
    """Cluster run with a mid-flight replica failure + recovery."""
    config, model, corpus = world
    requests = trace(corpus, n=12, max_new=(8, 16), seed=seed)
    cluster = ClusterEngine(
        model, make_sharded(config), pruning=PRUNING, prefill_chunk=8,
        faults=[FaultEvent(0.004, 0, "fail"), FaultEvent(0.02, 0, "recover")],
        telemetry=telemetry,
    )
    return cluster.run(requests), cluster


def assert_exact(attribution, records=None):
    """Every vector's components and phases sum bit-exactly to its e2e,
    and (when records are given) e2e matches the engine's own record."""
    assert attribution.vectors, "attribution produced no vectors"
    by_id = {}
    if records is not None:
        by_id = {r.request.request_id: r for r in records}
    for vector in attribution.vectors:
        total = sum(vector.components.values(), Fraction(0))
        assert total == vector.e2e_us, (
            f"request {vector.request_id}: components sum {float(total)}us "
            f"!= e2e {float(vector.e2e_us)}us"
        )
        assert sum(vector.phases.values(), Fraction(0)) == vector.e2e_us
        record = by_id.get(vector.request_id)
        if record is not None and record.finish_time is not None:
            expected = Fraction(record.finish_time * 1e6) \
                - Fraction(record.request.arrival_time * 1e6)
            assert vector.e2e_us == expected, (
                f"request {vector.request_id}: trace e2e disagrees with "
                f"the engine record"
            )


def attribution_of(tel):
    """Blame vectors of a run's trace, read as the exporter writes it."""
    return TraceAttribution.from_events(chrome_trace(tel.tracer)["traceEvents"])


def total_cause(attribution, cause):
    return sum(
        (v.components[cause] for v in attribution.vectors), Fraction(0)
    )


# ----------------------------------------------------------------------
# Attribution exactness — the tentpole acceptance bar
# ----------------------------------------------------------------------
class TestAttributionExactness:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("mode", ["dense", "spatten"])
    def test_engine_with_preemption_sums_exactly(self, world, seed, mode):
        tel = Telemetry()
        pruning = PRUNING if mode == "spatten" else None
        stats, _ = run_preempting_engine(world, seed, pruning=pruning,
                                         telemetry=tel)
        attribution = attribution_of(tel)
        assert len(attribution.vectors) == len(stats.records)
        assert_exact(attribution, stats.records)
        if stats.n_preemptions:
            assert total_cause(attribution, "preempt_discard") > 0
            assert total_cause(attribution, "preempt_requeue") > 0

    def test_preemption_is_actually_exercised(self, world):
        # The sweep above must not pass vacuously: at least one seed
        # preempts in SpAtten mode under the tight-pool recipe.
        tel = Telemetry()
        stats, _ = run_preempting_engine(world, 11, telemetry=tel)
        assert stats.n_preemptions > 0

    @pytest.mark.parametrize("seed", [5, 9, 13])
    def test_cluster_with_chaos_sums_exactly(self, world, seed):
        tel = Telemetry()
        stats, _ = run_chaos_cluster(world, seed, telemetry=tel)
        attribution = attribution_of(tel)
        assert len(attribution.vectors) == len(stats.fleet.records)
        assert_exact(attribution, stats.fleet.records)

    def test_quarantine_blame_under_corruption_plan(self, world):
        config, model, corpus = world
        tel = Telemetry()
        plan = FaultPlan(n_replicas=2, events=(
            FaultEvent(0.004, 0, "corrupt", u_seq=0.3),
            FaultEvent(0.008, 1, "corrupt", u_seq=0.6),
        ))
        requests = trace(corpus, n=12, max_new=(8, 16), seed=5)
        cluster = ClusterEngine(
            model, make_sharded(config), pruning=PRUNING, prefill_chunk=8,
            faults=plan.events, telemetry=tel,
        )
        stats = cluster.run(requests)
        attribution = attribution_of(tel)
        assert_exact(attribution, stats.fleet.records)
        # Not vacuous: the explicit plan really corrupted pages, and
        # the discarded work shows up as quarantine blame.
        assert total_cause(attribution, "quarantine_discard") > 0

    def test_every_cause_key_is_always_present(self, world):
        tel = Telemetry()
        run_preempting_engine(world, 3, telemetry=tel)
        attribution = attribution_of(tel)
        for vector in attribution.vectors:
            assert tuple(vector.components) == CAUSES

    def test_render_is_deterministic(self, world):
        tel = Telemetry()
        run_preempting_engine(world, 3, telemetry=tel)
        a = attribution_of(tel)
        b = attribution_of(tel)
        assert a.render() == b.render()


# ----------------------------------------------------------------------
# Observability is free — insight on vs off
# ----------------------------------------------------------------------
class TestInsightIsFree:
    POLICY = SLOPolicy.from_specs(["all:ttft:p95:50", "all:e2e:p99:400"])

    def test_slo_evaluation_is_reproducible(self, world):
        stats, _ = run_preempting_engine(world, 7)
        one = self.POLICY.evaluate_records(stats.records, stats.makespan_s)
        two = self.POLICY.evaluate_records(stats.records, stats.makespan_s)
        assert one.to_dict() == two.to_dict()
        assert one.render() == two.render()


# ----------------------------------------------------------------------
# SLO engine semantics
# ----------------------------------------------------------------------
def sample(request_id, arrival, ttft=None, tpot=None, e2e=None,
           failed=False, priority=0):
    return RequestSample(
        request_id=request_id, priority=priority, arrival_s=arrival,
        ttft_s=ttft, tpot_s=tpot, e2e_s=e2e, failed=failed,
    )


class TestSLOEngine:
    def test_parse_round_trips_the_name(self):
        obj = SLOObjective.parse("0:ttft:p95:150")
        assert (obj.tier, obj.metric, obj.percentile) == (0, "ttft", 95.0)
        assert obj.target_s == pytest.approx(0.150)
        assert obj.name == "0:ttft:p95:150ms"
        assert SLOObjective.parse("all:e2e:p99:2000").tier is None

    @pytest.mark.parametrize("spec", [
        "e2e:p99:2000",              # missing tier
        "all:walltime:p99:2000",     # unknown metric
        "all:e2e:99:2000",           # percentile missing the p
        "all:e2e:p0:2000",           # out-of-range percentile
        "all:e2e:p99:zero",          # non-numeric target
        "fast:e2e:p99:2000",         # non-integer tier
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            SLOObjective.parse(spec)

    def test_attainment_and_violations(self):
        policy = SLOPolicy.from_specs(["all:e2e:p50:100"], window_s=1.0)
        samples = [
            sample(0, 0.0, e2e=0.05),
            sample(1, 0.1, e2e=0.09),
            sample(2, 0.2, e2e=0.50),
        ]
        report = policy.evaluate_samples(samples, makespan_s=1.0)
        result = report.results[0]
        assert report.attained is True  # p50 of (50, 90, 500)ms = 90ms
        assert result["n_violations"] == 1
        assert result["attainment"] == pytest.approx(2 / 3)

    def test_failed_requests_violate_every_objective(self):
        policy = SLOPolicy.from_specs(["all:e2e:p50:100"], window_s=1.0)
        report = policy.evaluate_samples(
            [sample(0, 0.0, e2e=0.05), sample(1, 0.1, failed=True)],
            makespan_s=1.0,
        )
        assert report.results[0]["n_violations"] == 1
        assert report.results[0]["n_samples"] == 2

    def test_undefined_metric_is_out_of_scope(self):
        # A 1-token request has no TPOT: it neither attains nor violates.
        policy = SLOPolicy.from_specs(["all:tpot:p99:10"], window_s=1.0)
        report = policy.evaluate_samples(
            [sample(0, 0.0, tpot=None, e2e=0.05)], makespan_s=1.0,
        )
        assert report.results[0]["n_samples"] == 0
        assert report.attained is None

    def test_tier_scoping(self):
        policy = SLOPolicy.from_specs(["1:e2e:p50:100"], window_s=1.0)
        report = policy.evaluate_samples(
            [sample(0, 0.0, e2e=9.0, priority=0),   # wrong tier: ignored
             sample(1, 0.1, e2e=0.05, priority=1)],
            makespan_s=1.0,
        )
        assert report.results[0]["n_samples"] == 1
        assert report.attained is True

    def test_burn_rate_windows(self):
        # p50 => 50% error budget; window 0: 0/1 violations (burn 0),
        # window 1: 1/1 violations (burn 2x > 1 => burning).
        policy = SLOPolicy.from_specs(["all:e2e:p50:100"], window_s=0.1)
        report = policy.evaluate_samples(
            [sample(0, 0.05, e2e=0.01), sample(1, 0.15, e2e=9.0)],
            makespan_s=1.0,
        )
        result = report.results[0]
        assert result["n_windows"] == 2
        assert result["n_burning_windows"] == 1
        assert result["burn_rate_worst"] == pytest.approx(2.0)
        assert result["burn_window_start_s"] == pytest.approx(0.1)

    def test_report_json_is_strict(self):
        # NaN / inf never leak into the JSON document (json.dumps with
        # allow_nan=False must succeed).
        policy = SLOPolicy.from_specs(["all:e2e:p100:100"], window_s=1.0)
        report = policy.evaluate_samples(
            [sample(0, 0.0, failed=True)], makespan_s=1.0,
        )
        json.dumps(report.to_dict(), allow_nan=False)
        assert report.attained is None  # failures only: no measurement

    def test_missed_objective_renders_no(self):
        policy = SLOPolicy.from_specs(["all:e2e:p50:1"], window_s=1.0)
        report = policy.evaluate_samples(
            [sample(0, 0.0, e2e=5.0)], makespan_s=1.0,
        )
        assert report.attained is False
        assert "NO" in report.render()
        assert "MISSED" in report.render()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(objectives=())
        with pytest.raises(ValueError):
            SLOPolicy.from_specs(["all:e2e:p99:100"], window_s=0.0)


# ----------------------------------------------------------------------
# Benchmark history + regression gate
# ----------------------------------------------------------------------
class TestHistory:
    def test_metric_validation(self):
        assert metric(1.5, "x", "lower")["direction"] == "lower"
        with pytest.raises(ValueError):
            metric(1.5, "x", "sideways")
        with pytest.raises(ValueError):
            metric(1.5, "x", rel_tol=0.0)
        with pytest.raises(ValueError):
            metric(float("nan"), "x")

    def test_append_skips_identical_records(self, tmp_path):
        for _ in range(3):
            path = append_history(tmp_path, "b", {"m": metric(1.0, "x")})
        assert len(load_history(path)) == 1
        append_history(tmp_path, "b", {"m": metric(2.0, "x")})
        assert len(load_history(path)) == 2

    def test_records_carry_no_wall_clock(self, tmp_path):
        path = append_history(tmp_path, "b", {"m": metric(1.0, "x")},
                              context={"n": 8})
        (record,) = load_history(path)
        assert sorted(record) == ["bench", "context", "metrics", "schema"]

    def test_load_rejects_garbage_and_schema_drift(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="b.jsonl:1"):
            load_history(path)
        path.write_text('{"schema": 99, "bench": "b", "metrics": {}}\n')
        with pytest.raises(ValueError, match="schema"):
            load_history(path)

    def history(self, tmp_path, values, direction="higher", rel_tol=0.05):
        for value in values:
            # append-iff-different would collapse equal neighbours; the
            # fixture values are distinct so each lands as one record.
            append_history(tmp_path, "b",
                           {"m": metric(value, "x", direction, rel_tol)})
        return load_history(tmp_path / "b.jsonl")

    def test_single_record_is_its_own_baseline(self, tmp_path):
        (verdict,) = compare_history(self.history(tmp_path, [1.0]))
        assert verdict["status"] == "baseline"
        report = compare_all(tmp_path)
        assert report.exit_code == 0

    def test_regression_fails_only_in_the_bad_direction(self, tmp_path):
        # "higher is better" metric dropping 20% regresses...
        verdicts = compare_history(
            self.history(tmp_path, [1.0, 1.01, 0.99, 0.8]))
        assert verdicts[0]["status"] == "regressed"
        # ...while the same drop on a "lower is better" metric improves.
        verdicts = compare_history(
            self.history(tmp_path / "flip", [1.0, 1.01, 0.99, 0.8],
                         direction="lower"))
        assert verdicts[0]["status"] == "improved"

    def test_noise_aware_tolerance_widens_for_wobbly_metrics(self, tmp_path):
        # Historic wobble ~ +-10% around 1.0: MAD-derived tolerance
        # (3 * 0.1) lets a 20% dip pass that the 5% floor would fail.
        records = self.history(tmp_path, [0.9, 1.1, 1.0, 0.9, 1.1, 0.8])
        (verdict,) = compare_history(records)
        assert verdict["tolerance"] > 0.05
        assert verdict["status"] == "ok"

    def test_stable_metric_is_held_to_the_floor(self, tmp_path):
        records = self.history(tmp_path, [1.0, 1.0001, 0.9999, 0.9])
        (verdict,) = compare_history(records)
        assert verdict["tolerance"] == pytest.approx(0.05, rel=0.1)
        assert verdict["status"] == "regressed"

    def test_missing_named_bench_fails_the_gate(self, tmp_path):
        self.history(tmp_path, [1.0])
        report = compare_all(tmp_path, benches=["b", "ghost"])
        assert report.missing == ["ghost"]
        assert report.exit_code == 1
        assert "MISSING" in report.render()


# ----------------------------------------------------------------------
# CLI surface: slo-report + bench-compare
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_trace(world, tmp_path_factory):
    """One preemption-heavy traced run exported to a Chrome trace file."""
    tel = Telemetry()
    stats, _ = run_preempting_engine(world, 7, telemetry=tel)
    path = tmp_path_factory.mktemp("insight") / "trace.json"
    path.write_text(chrome_trace_json(tel.tracer))
    return path, stats


class TestSloReportCli:
    def test_text_report_and_exit_zero(self, served_trace, capsys):
        path, _ = served_trace
        rc = cli_main(["slo-report", str(path), "--slo", "all:e2e:p99:5000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLO attainment" in out
        assert "latency attribution by cause" in out

    def test_missed_objective_exits_one(self, served_trace, capsys):
        path, _ = served_trace
        # Nothing finishes in a microsecond: the objective must miss.
        rc = cli_main(["slo-report", str(path),
                       "--slo", "all:e2e:p99:0.001"])
        capsys.readouterr()
        assert rc == 1

    def test_output_is_byte_identical_across_runs(self, served_trace,
                                                  tmp_path, capsys):
        path, _ = served_trace
        args = ["slo-report", str(path), "--slo", "all:ttft:p95:50",
                "--slo", "all:e2e:p99:5000"]
        outputs, docs = [], []
        for index in range(2):
            out_path = tmp_path / f"report{index}.json"
            assert cli_main(args + ["--out", str(out_path)]) == 0
            outputs.append(capsys.readouterr().out)
            docs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert docs[0] == docs[1]

    def test_json_document_matches_engine_slo(self, served_trace, world,
                                              tmp_path, capsys):
        # The trace-derived SLO verdicts equal the engine's own: the
        # trace carries enough to reproduce the live evaluation.
        path, _ = served_trace
        policy = SLOPolicy.from_specs(
            ["all:ttft:p95:50", "all:e2e:p99:400"])
        stats, _ = run_preempting_engine(world, 7)
        report = policy.evaluate_records(stats.records, stats.makespan_s)
        out_path = tmp_path / "slo.json"
        cli_main(["slo-report", str(path), "--slo", "all:ttft:p95:50",
                  "--slo", "all:e2e:p99:400", "--format", "json",
                  "--out", str(out_path)])
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        trace_objs = {o["objective"]: o for o in doc["slo"]["objectives"]}
        live_objs = {
            o["objective"]: o for o in report.to_dict()["objectives"]
        }
        for name, live in live_objs.items():
            for key in ("n_samples", "n_violations", "attained",
                        "measured_s"):
                assert trace_objs[name][key] == live[key], (name, key)

    def test_bad_spec_exits_two(self, served_trace, capsys):
        path, _ = served_trace
        rc = cli_main(["slo-report", str(path), "--slo", "nope"])
        assert rc == 2
        assert "slo-report:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = cli_main(["slo-report", str(tmp_path / "ghost.json"),
                       "--slo", "all:e2e:p99:100"])
        assert rc == 2
        assert "slo-report:" in capsys.readouterr().err


class TestBenchCompareCli:
    def seeded(self, tmp_path, values):
        for value in values:
            append_history(tmp_path, "tps",
                           {"m": metric(value, "tok/s", "higher")})
        return tmp_path

    def test_clean_history_passes(self, tmp_path, capsys):
        history = self.seeded(tmp_path, [100.0, 101.0, 99.0, 100.5])
        rc = cli_main(["bench-compare", "--history", str(history)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 regression(s)" in out

    def test_synthetic_regression_fails(self, tmp_path, capsys):
        history = self.seeded(tmp_path, [100.0, 101.0, 99.0, 70.0])
        rc = cli_main(["bench-compare", "--history", str(history)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "regressed" in out

    def test_json_out_and_missing_bench(self, tmp_path, capsys):
        history = self.seeded(tmp_path, [100.0])
        out_path = tmp_path / "compare.json"
        rc = cli_main(["bench-compare", "ghost", "tps",
                       "--history", str(history),
                       "--format", "json", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 1
        doc = json.loads(out_path.read_text())
        assert doc["missing"] == ["ghost"]
        assert doc["verdicts"][0]["status"] == "baseline"

    def test_checked_in_baselines_pass(self, capsys):
        # The real gate over the repo's committed history: the numbers
        # the smoke benches just published must not regress themselves.
        rc = cli_main(["bench-compare",
                       "--history", "benchmarks/results/history"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 regression(s)" in out

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        history = self.seeded(tmp_path, [100.0, 99.0, 70.0])
        outputs = []
        for _ in range(2):
            cli_main(["bench-compare", "--history", str(history)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Trace-derived timelines (shared plumbing)
# ----------------------------------------------------------------------
class TestTimelines:
    def test_timelines_cover_every_record(self, world):
        tel = Telemetry()
        stats, _ = run_preempting_engine(world, 3, telemetry=tel)
        timelines = timelines_from_events(
            chrome_trace(tel.tracer)["traceEvents"]
        )
        assert sorted(timelines) == sorted(
            r.request.request_id for r in stats.records
        )
        for tl in timelines.values():
            assert tl.complete

"""Tests for the deterministic chaos subsystem (repro.faults).

Covers the fault-plan grammar and its validator, heartbeat failure
detection, the KV-page checksum/quarantine plane, replica
recovery/rejoin, stragglers, deadlines and retry budgets, the
graceful-degradation ladder, NaN-aware failure reporting, and the
seed-sweep chaos soak (smoke) that proves every chaos run keeps the
ledgers clean, loses no tokens, and replays byte-identically.
"""

import json
import math

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.faults import (
    CHAOS_PROFILES,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    HeartbeatMonitor,
    IllegalReplicaEvent,
    validate_fault_events,
)
from repro.serving import (
    DegradationPolicy,
    KVMemoryPool,
    PoolExhausted,
    Request,
    RequestRecord,
    RequestStatus,
    ServingEngine,
    ServingStats,
    transition,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    lm_prompts,
    make_lm_corpus,
    synthetic_request_trace,
)

PROMPT_LEN = 24
AGGRESSIVE = PruningConfig(token_keep_final=0.3, head_keep_final=0.625,
                           value_keep=0.9)


@pytest.fixture(scope="module")
def chaos_setup():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
        max_seq_len=160,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=2048, seed=2)
    return config, model, corpus


def page_budget(config, pages, page_tokens=8):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return pages * page_tokens * per_token


def make_sharded(config, total_pages=128, n_replicas=2, page_tokens=8):
    return ShardedKVPool(
        config,
        total_budget_bytes=page_budget(config, total_pages, page_tokens),
        n_replicas=n_replicas,
        page_tokens=page_tokens,
    )


def make_trace(corpus, n=10, rate=400.0, seed=5, max_new=(8, 16)):
    return synthetic_request_trace(
        corpus, n_requests=n, rate_per_s=rate, prompt_len=PROMPT_LEN,
        max_new_tokens=max_new, seed=seed,
    )


def tokens_by_id(stats):
    """request_id -> token stream for every FINISHED record."""
    return {
        r.request.request_id: list(r.token_ids)
        for r in stats.fleet.records
        if r.status is RequestStatus.FINISHED
    }


def assert_zero_token_loss(stats):
    """Every non-failed request delivered its full decode budget."""
    for r in stats.fleet.records:
        assert r.status in (RequestStatus.FINISHED, RequestStatus.FAILED)
        if r.status is RequestStatus.FINISHED:
            assert r.n_generated == r.request.max_new_tokens


class TestFaultPlanGrammar:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            validate_fault_events([FaultEvent(0.1, 0, "meteor")], 1)

    def test_unknown_replica_rejected(self):
        with pytest.raises(ValueError, match="unknown replica 3"):
            validate_fault_events([FaultEvent(0.1, 3, "drain")], 2)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_fault_events([FaultEvent(-0.1, 0, "fail")], 1)

    def test_nan_time_rejected(self):
        """NaN compares false both ways: a ``time < 0`` test would pass
        it on to the fleet's event heap, which it corrupts."""
        with pytest.raises(ValueError, match="non-negative"):
            validate_fault_events([FaultEvent(float("nan"), 0, "drain")], 1)

    # Which sequences are legal is REPLICA_LIFECYCLE's to say and
    # tests/test_fleet_machine.py's to walk (in firing order); here, a
    # schedule handed over out of order, one cell of the named error
    # and the payload checks.
    def test_drain_recover_fail_sequence_is_legal(self):
        ordered = validate_fault_events(
            [
                FaultEvent(0.3, 0, "fail"),
                FaultEvent(0.1, 0, "drain"),
                FaultEvent(0.2, 0, "recover"),
            ],
            1,
        )
        assert [e.kind for e in ordered] == ["drain", "recover", "fail"]

    def test_straggler_window_grammar(self):
        with pytest.raises(ValueError, match="factor must be >= 1"):
            validate_fault_events(
                [FaultEvent(0.1, 0, "slow_start", factor=0.5)], 1
            )
        with pytest.raises(IllegalReplicaEvent, match="replica 1: event "
                           "'slow_end' is not legal in phase 'steady'") as err:
            validate_fault_events([FaultEvent(0.1, 1, "slow_end")], 2)
        assert (err.value.replica, err.value.phase, err.value.event) \
            == (1, "steady", "slow_end")

    def test_corrupt_coordinates_bounded(self):
        with pytest.raises(ValueError, match="lie in"):
            validate_fault_events(
                [FaultEvent(0.1, 0, "corrupt", u_seq=1.5)], 1
            )

    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(7, n_replicas=3, horizon_s=0.5)
        b = FaultPlan.generate(7, n_replicas=3, horizon_s=0.5)
        assert a.events == b.events
        c = FaultPlan.generate(8, n_replicas=3, horizon_s=0.5)
        assert a.events != c.events
        assert set(a.counts()) <= set(FAULT_KINDS)
        # Generated plans are always grammatical.
        validate_fault_events(a.events, 3)

    def test_profiles_cover_all_intensities(self):
        assert set(CHAOS_PROFILES) == {"light", "moderate", "heavy"}
        for profile in CHAOS_PROFILES:
            plan = FaultPlan.generate(
                3, n_replicas=2, horizon_s=1.0, profile=profile
            )
            assert plan.profile == profile
            assert plan.heartbeat_timeout_s > 0
        with pytest.raises(ValueError, match="unknown chaos profile"):
            FaultPlan.generate(0, n_replicas=1, horizon_s=1.0,
                               profile="apocalyptic")


class TestHeartbeat:
    def test_suspicion_after_timeout(self):
        mon = HeartbeatMonitor(timeout_s=0.05)
        mon.note_alive(0, 0.0)
        assert not mon.suspected(0, 0.04)
        assert mon.suspected(0, 0.06)

    def test_completed_step_refreshes_liveness(self):
        mon = HeartbeatMonitor(timeout_s=0.05)
        mon.note_alive(0, 0.0)
        mon.note_step(0, 0.01, 0.03)
        assert mon.last_seen(0, 0.04) == 0.03
        assert not mon.suspected(0, 0.07)

    def test_inflight_step_counts_from_its_start(self):
        # A step still executing at t pins last_seen to its start, so a
        # straggler stuck in one long step eventually turns suspect.
        mon = HeartbeatMonitor(timeout_s=0.05)
        mon.note_alive(0, 0.0)
        mon.note_step(0, 0.01, 0.5)
        assert mon.last_seen(0, 0.1) == 0.01
        assert mon.suspected(0, 0.1)


class TestChecksumPlane:
    def _start_one(self, chaos_setup, pages=64):
        config, model, corpus = chaos_setup
        from repro.serving import KVMemoryPool

        pool = KVMemoryPool(config, page_budget(config, pages),
                            page_tokens=8)
        engine = ServingEngine(model, pool, prefill_chunk=16)
        [request] = make_trace(corpus, n=1, seed=9, max_new=(8, 8))
        engine.start()
        engine.submit(request)
        while not engine.live:
            engine.step()
        return engine, pool, request

    def test_corrupt_page_is_detected_and_quarantined(self, chaos_setup):
        engine, pool, request = self._start_one(chaos_setup)
        seq_id = engine.live[0].seq_id
        per_layer = pool.allocated_pages_per_layer(seq_id)
        layer = next(i for i, n in enumerate(per_layer) if n > 0)
        pool.corrupt_page(seq_id, layer, 0)
        assert (layer, 0) in pool.corrupted_pages(seq_id)
        assert seq_id in pool.verify_checksums()
        released = pool.quarantine_release(seq_id)
        assert released > 0
        assert seq_id not in pool.tracked_sequences
        assert pool.n_quarantined == 1
        pool.audit()

    def test_engine_recomputes_after_corruption(self, chaos_setup):
        config, model, corpus = chaos_setup
        from repro.serving import KVMemoryPool

        [request] = make_trace(corpus, n=1, seed=9, max_new=(8, 8))
        clean_pool = KVMemoryPool(config, page_budget(config, 64),
                                  page_tokens=8)
        clean = ServingEngine(model, clean_pool, prefill_chunk=16)
        clean_stats = clean.run([request])
        clean_tokens = list(clean_stats.records[0].token_ids)

        engine, pool, request = self._start_one(chaos_setup)
        # Decode a couple of tokens, then flip a page under the engine.
        for _ in range(2):
            engine.step()
        seq_id = engine.live[0].seq_id
        per_layer = pool.allocated_pages_per_layer(seq_id)
        layer = next(i for i, n in enumerate(per_layer) if n > 0)
        pool.corrupt_page(seq_id, layer, 0)
        while engine.has_work:
            engine.step()
        engine.drain()
        stats = engine.finish()
        record = stats.records[0]
        assert record.status is RequestStatus.FINISHED
        assert record.n_corruptions == 1
        assert record.recompute_tokens > 0
        assert stats.n_corruptions == 1
        # Greedy decoding replays the identical stream: corruption
        # costs latency, never tokens.
        assert list(record.token_ids) == clean_tokens
        pool.audit()


class TestRecovery:
    def test_pool_recover_rejoins_clean_shard(self, chaos_setup):
        config, _, _ = chaos_setup
        pool = make_sharded(config, total_pages=64, n_replicas=2)
        pool.fail(0)
        assert not pool.is_active(0)
        pool.recover(0)
        assert pool.is_active(0) and not pool.is_failed(0)
        assert pool.n_active == 2
        pool.audit()
        with pytest.raises(ValueError, match="not legal in phase 'active'"):
            pool.recover(0)

    def test_rejoin_needs_an_empty_shard(self, chaos_setup):
        config, _, _ = chaos_setup
        pool = make_sharded(config, total_pages=64, n_replicas=2)
        pool.shard(0).admit(7, [PROMPT_LEN] * config.n_layers)
        pool.drain(0)
        before = pool.ledger()
        with pytest.raises(IllegalReplicaEvent, match="still holds 12 "
                           "reserved / 0 allocated pages"):
            pool.recover(0)
        assert pool.ledger() == before
        pool.shard(0).release(7)
        pool.recover(0)
        pool.audit()

    def test_crashed_replica_rejoins_without_token_loss(self, chaos_setup):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=10, seed=5)

        baseline = ClusterEngine(
            model, make_sharded(config), policy="least_loaded"
        ).run(requests)
        base_tokens = tokens_by_id(baseline)

        pool = make_sharded(config)
        engine = ClusterEngine(
            model, pool, policy="least_loaded",
            faults=[FaultEvent(0.005, 0, "fail"),
                    FaultEvent(0.02, 0, "recover")],
            retry_budget=3, retry_backoff_s=0.01,
            heartbeat_timeout_s=0.05, audit_every=1,
        )
        stats = engine.run(requests)
        pool.audit()
        assert stats.n_recovered == 1
        assert stats.n_failed_requests == 0
        assert stats.availability < 1.0
        assert stats.mttr_s == pytest.approx(0.015)
        assert_zero_token_loss(stats)
        # Every surviving stream is bit-identical to the fault-free run.
        assert tokens_by_id(stats) == base_tokens
        # Fleet-health rows render and serialize.
        table = str(stats.table())
        assert "availability" in table and "recovered" in table
        doc = json.loads(stats.to_json())
        assert doc["n_recovered"] == 1 and doc["availability"] < 1.0

    def test_goodput_counts_only_finished_tokens(self, chaos_setup):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=6, seed=5)
        stats = ClusterEngine(
            model, make_sharded(config), policy="least_loaded"
        ).run(requests)
        finished = sum(
            r.n_generated for r in stats.fleet.records
            if r.status is RequestStatus.FINISHED
        )
        assert stats.goodput_tps == pytest.approx(
            finished / stats.fleet.makespan_s
        )


class TestStragglers:
    def test_slow_window_stretches_makespan_not_tokens(self, chaos_setup):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=8, seed=5)
        baseline = ClusterEngine(
            model, make_sharded(config), policy="round_robin"
        ).run(requests)
        plan = FaultPlan(
            n_replicas=2,
            events=(
                FaultEvent(0.0, 0, "slow_start", factor=6.0),
                FaultEvent(0.5, 0, "slow_end"),
            ),
        )
        stats = ClusterEngine(
            model, make_sharded(config), policy="round_robin",
            faults=plan.events,
        ).run(requests)
        assert stats.fleet.makespan_s > baseline.fleet.makespan_s
        assert stats.n_failed_requests == 0
        assert tokens_by_id(stats) == tokens_by_id(baseline)


class TestDeadlinesAndRetries:
    def test_retry_budget_exhaustion_fails_cleanly(self, chaos_setup):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=4, seed=5)
        pool = make_sharded(config)
        stats = ClusterEngine(
            model, pool, policy="least_loaded",
            faults=[FaultEvent(0.0, 0, "fail"), FaultEvent(0.0, 1, "fail")],
            retry_budget=2, retry_backoff_s=0.01,
        ).run(requests)
        pool.audit()
        records = stats.fleet.records
        assert all(r.status is RequestStatus.FAILED for r in records)
        assert all(r.failure == "retry_budget" for r in records)
        assert all(r.n_retries == 2 for r in records)
        assert stats.n_retries == 8
        assert stats.n_failed_requests == len(requests)

    def test_a_deadline_that_cuts_the_backoff_ladder_counts_no_retry(
        self, chaos_setup
    ):
        """Regression: a retry whose backoff lands past the deadline is
        never scheduled, so it is no retry — the record tally, the
        fleet stat, the counter and the ``route_retry`` instants agree
        (the tally used to be bumped before the deadline check: 12)."""
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=6, seed=5)
        span = requests[-1].arrival_time
        tel = Telemetry()
        stats = ClusterEngine(
            model, make_sharded(config), policy="least_loaded",
            faults=[FaultEvent(0.0, 0, "fail"), FaultEvent(0.0, 1, "fail")],
            retry_budget=3, retry_backoff_s=span, deadline_s=1.5 * span,
            telemetry=tel,
        ).run(requests)
        records = stats.fleet.records
        # Retry 1 fires one span after arrival; retry 2 would fire two
        # spans after that, past the deadline.
        assert all(r.failure == "deadline" for r in records)
        assert [r.n_retries for r in records] == [1] * 6
        assert stats.n_retries == 6
        assert len(tel.tracer.named("route_retry")) == 6
        retries = tel.metrics.counter(
            "repro_route_retries_total", engine="fleet")
        assert retries.value == 6

    def test_recovery_lands_before_retries_exhaust(self, chaos_setup):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=4, seed=5)
        stats = ClusterEngine(
            model, make_sharded(config), policy="least_loaded",
            faults=[FaultEvent(0.0, 0, "fail"), FaultEvent(0.0, 1, "fail"),
                    FaultEvent(0.01, 0, "recover")],
            retry_budget=8, retry_backoff_s=0.01,
        ).run(requests)
        assert stats.n_failed_requests == 0
        assert stats.n_recovered == 1
        assert stats.n_retries > 0
        assert_zero_token_loss(stats)

    def test_deadline_expires_queued_requests(self, chaos_setup):
        config, model, corpus = chaos_setup
        # A tiny fleet and a long backlog: late arrivals blow their
        # admission deadline while queued and fail with "deadline".
        requests = make_trace(corpus, n=12, rate=5000.0, seed=5,
                              max_new=(10, 16))
        stats = ClusterEngine(
            model, make_sharded(config, total_pages=48, n_replicas=2),
            policy="least_loaded", deadline_s=0.003,
        ).run(requests)
        failed = [
            r for r in stats.fleet.records
            if r.status is RequestStatus.FAILED
        ]
        assert failed and all(r.failure == "deadline" for r in failed)
        assert stats.n_failed_requests == len(failed)
        assert stats.fleet.n_shed == len(failed)
        assert_zero_token_loss(stats)


class TestFailureReporting:
    """Satellite: FAILED requests surface as n/a, never vanish."""

    def _failed_record(self, request_id=0, priority=0):
        request = Request(request_id, np.arange(1, 9),
                          max_new_tokens=4, priority=priority)
        record = RequestRecord(request)
        transition(record, "route_failed", 0.0, NULL_TELEMETRY, "fleet",
                   reason="unplaceable")
        return record

    def _stats(self, records):
        return ServingStats.from_run(
            mode="dense", records=records, makespan_s=1.0,
            batch_sizes=[], occupancy_samples=[], pool_pages=8,
            pool_page_tokens=8, occupancy_peak=0.0, reclaimed_pages=0,
            reclaimed_tokens=0,
        )

    def test_all_failed_run_reports_na_not_perfect_latency(self):
        stats = self._stats([self._failed_record(i) for i in range(3)])
        assert stats.n_failed_requests == 3
        assert stats.n_unadmitted == 0
        assert math.isnan(stats.ttft_p50)
        assert "n/a" in str(stats.table())
        doc = stats.to_dict()
        assert doc["ttft_p50"] is None
        json.dumps(doc)  # strict JSON, no bare NaN

    def test_per_tier_breakdown_counts_failures(self):
        records = [
            self._failed_record(0, priority=1),
            self._failed_record(1, priority=1),
        ]
        stats = self._stats(records)
        [tier] = stats.tiers
        assert tier["priority"] == 1
        assert tier["n_requests"] == 2
        assert tier["n_finished"] == 0
        assert tier["n_failed_requests"] == 2
        doc = stats.to_dict()
        assert doc["tiers"][0]["ttft_p50"] is None


class TestDegradation:
    def test_policy_pressure_gate(self):
        policy = DegradationPolicy(free_page_frac=0.25, sustain_steps=2)
        assert policy.pressured(free_pages=3, total_pages=16, queue_len=2)
        assert not policy.pressured(free_pages=8, total_pages=16,
                                    queue_len=2)
        assert not policy.pressured(free_pages=3, total_pages=16,
                                    queue_len=0)

    def _pressured_run(self, chaos_setup, degradation, n=12):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=n, rate=8000.0, seed=5,
                              max_new=(10, 16))
        # Alternate best-effort (priority 1) and interactive tiers.
        requests = [
            Request(r.request_id, r.prompt_ids, r.max_new_tokens,
                    r.arrival_time, priority=r.request_id % 2)
            for r in requests
        ]
        pool = make_sharded(config, total_pages=48, n_replicas=2)
        stats = ClusterEngine(
            model, pool, policy="least_loaded", degradation=degradation,
        ).run(requests)
        pool.audit()
        return stats

    def test_shed_drops_best_effort_load_first(self, chaos_setup):
        stats = self._pressured_run(
            chaos_setup,
            DegradationPolicy(free_page_frac=0.5, sustain_steps=2,
                              shed_priority_floor=1),
        )
        shed = [
            r for r in stats.fleet.records if r.failure == "shed"
        ]
        assert shed
        assert all(r.request.priority >= 1 for r in shed)
        assert stats.fleet.n_shed >= len(shed)
        assert_zero_token_loss(stats)

    def test_reprune_escalates_schedule_but_keeps_tokens(self, chaos_setup):
        stats = self._pressured_run(
            chaos_setup,
            DegradationPolicy(free_page_frac=0.5, sustain_steps=2,
                              shed_priority_floor=2,  # nothing sheddable
                              reprune=AGGRESSIVE),
        )
        degraded = [r for r in stats.fleet.records if r.degraded]
        assert degraded
        assert all(r.pruning_override is AGGRESSIVE for r in degraded)
        assert stats.fleet.n_repruned == len(degraded)
        # Degraded requests still deliver the full decode budget.
        assert_zero_token_loss(stats)
        assert all(
            r.status is RequestStatus.FINISHED for r in degraded
        )

    #: 64-token prompt + 32 new tokens on the 4-layer model at 16-token
    #: pages: 24 pages dense, 16 under this escalated schedule.
    ESCALATED = PruningConfig(token_keep_final=0.25, head_keep_final=0.5)

    def test_submit_validates_the_override_the_record_carries(
        self, chaos_setup
    ):
        """A repruned request handed to another engine is validated,
        priced and billed at the escalated schedule on its record, not
        at the request's own (which this 20-page pool can never hold)."""
        config, model, corpus = chaos_setup
        pool = KVMemoryPool(
            config, page_budget(config, 20, page_tokens=16), page_tokens=16
        )
        engine = ServingEngine(model, pool)
        request = Request(0, lm_prompts(corpus, 64, 1, seed=3)[0], 32)
        record = RequestRecord(request)
        record.pruning_override = self.ESCALATED
        own = engine.plan_for(request)
        escalated = engine.plan_for(request, record)
        assert pool.pages_for_lengths(own.kv_bounds) == 24
        assert pool.pages_for_lengths(escalated.kv_bounds) == 16
        assert engine.placement_pages_estimate(request, own) is None
        assert engine.placement_pages_estimate(request, escalated) == 16
        engine.start()
        with pytest.raises(PoolExhausted):
            engine.submit(request)  # no record: its own dense schedule
        assert engine.submit(request, record) is record
        assert record.plan == escalated
        while engine.has_work:
            engine.step()
        assert record.status is RequestStatus.FINISHED
        assert record.n_generated == 32
        pool.audit()

    def test_drained_repruned_request_lands_where_its_override_fits(
        self, chaos_setup
    ):
        """Replica 0 (24 pages) reprunes the waiting request 1 under
        pressure and is then drained; replica 1 (20 pages) can hold
        request 1 only at its escalated schedule, so the router must
        price the record's override — request 1 lands and finishes,
        while the never-repruned dense request 0 is unplaceable."""
        config, model, corpus = chaos_setup
        pool = ShardedKVPool(
            config, n_replicas=2, page_tokens=16,
            replica_budgets_bytes=[
                page_budget(config, pages, page_tokens=16)
                for pages in (24, 20)
            ],
        )
        prompts = lm_prompts(corpus, 64, 2, seed=3)
        cluster = ClusterEngine(
            model, pool, policy="least_loaded",
            degradation=DegradationPolicy(
                free_page_frac=0.5, sustain_steps=2,
                shed_priority_floor=2,  # nothing sheddable
                reprune=self.ESCALATED,
            ),
            faults=[FaultEvent(0.002, 0, "drain")],
        )
        stats = cluster.run([
            Request(0, prompts[0], 32, arrival_time=0.0),
            Request(1, prompts[1], 32, arrival_time=1e-4),
        ])
        pool.audit()
        dense, repruned = sorted(
            stats.fleet.records, key=lambda r: r.request.request_id
        )
        assert repruned.pruning_override is self.ESCALATED
        assert repruned.status is RequestStatus.FINISHED
        assert repruned.n_generated == 32
        assert dense.failure == "unplaceable"
        assert cluster.failed_requests == [0]


class TestChaosSoak:
    @pytest.mark.smoke
    def test_seed_sweep_keeps_ledgers_clean_and_replays_identically(
        self, chaos_setup
    ):
        config, model, corpus = chaos_setup
        requests = make_trace(corpus, n=8, rate=600.0, seed=11,
                              max_new=(6, 10))
        baseline = ClusterEngine(
            model, make_sharded(config), policy="least_loaded"
        ).run(requests)
        base_tokens = tokens_by_id(baseline)

        def run_once(plan):
            pool = make_sharded(config)
            stats = ClusterEngine(
                model, pool, policy="least_loaded", faults=plan.events,
                heartbeat_timeout_s=plan.heartbeat_timeout_s,
                retry_budget=3, retry_backoff_s=0.01, audit_every=1,
            ).run(requests)
            pool.audit()
            return stats

        horizon = requests[-1].arrival_time + 0.05
        for seed in range(10):
            plan = FaultPlan.generate(
                seed, n_replicas=2, horizon_s=horizon, profile="moderate"
            )
            stats = run_once(plan)
            assert_zero_token_loss(stats)
            # Surviving non-degraded streams match the fault-free run
            # bit for bit.
            for r in stats.fleet.records:
                if r.status is RequestStatus.FINISHED and not r.degraded:
                    assert list(r.token_ids) == \
                        base_tokens[r.request.request_id], f"seed {seed}"
            # Deterministic replay: identical stats document.
            replay = run_once(plan)
            assert replay.to_json() == stats.to_json(), f"seed {seed}"


class TestChaosOnPolicyTiers:
    """The chaos soak's world (``benchmarks/bench_chaos.py``) on the
    fp32 and int8 tiers, where dense and pruned sequences are rows of
    the backends' row tables: crashes, recoveries, stragglers and
    corruption quarantine lose no token, keep the ledgers clean, leave
    the surviving streams the tier's fault-free ones, and leave no
    resident row behind."""

    @pytest.fixture(scope="class")
    def soak_world(self):
        vocab = build_vocabulary(size=512, n_classes=4, seed=0)
        config = accuracy_scale_config(
            GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
            max_seq_len=160,
        )
        model, _ = build_task_model(config, vocab, "lm", seed=0)
        corpus = make_lm_corpus(vocab, n_tokens=4096, seed=2)
        trace = synthetic_request_trace(
            corpus, n_requests=24, rate_per_s=1200.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(8, 16), seed=11,
        )
        # Every other request dense, the rest on the engine's schedule.
        requests = [
            Request(r.request_id, r.prompt_ids, r.max_new_tokens,
                    r.arrival_time,
                    pruning=None if r.request_id % 2 else AGGRESSIVE)
            for r in trace
        ]
        return config, model, requests

    @staticmethod
    def _run(world, tier, plan=None):
        config, model, requests = world
        pool = make_sharded(config)
        cluster = ClusterEngine(
            model, pool, policy="least_loaded", numerics=tier,
            faults=plan.events if plan is not None else (),
            heartbeat_timeout_s=(
                plan.heartbeat_timeout_s if plan is not None else None
            ),
            retry_budget=4, retry_backoff_s=0.01, audit_every=1,
        )
        stats = cluster.run(requests)
        pool.audit()
        styles = set()
        for replica in cluster.replicas:
            tables = replica.engine._backend._tables
            styles.update(tables)
            for table in tables.values():
                assert not table.seats, "a row outlived the run"
        assert styles == {"dense", "pruned"}, "both tables saw traffic"
        return stats

    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    def test_moderate_and_heavy_plans_lose_no_token(self, soak_world, tier):
        baseline = self._run(soak_world, tier)
        base_tokens = tokens_by_id(baseline)
        assert len(base_tokens) == len(soak_world[2])
        horizon = soak_world[2][-1].arrival_time + 0.05
        for profile in ("moderate", "heavy"):
            plan = FaultPlan.generate(
                3, n_replicas=2, horizon_s=horizon, profile=profile
            )
            stats = self._run(soak_world, tier, plan)
            assert_zero_token_loss(stats)
            for r in stats.fleet.records:
                if r.status is RequestStatus.FINISHED and not r.degraded:
                    assert list(r.token_ids) == (
                        base_tokens[r.request.request_id]
                    ), f"{tier} {profile}"

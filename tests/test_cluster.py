"""Tests for multi-replica serving (repro.cluster)."""

import json

import numpy as np
import pytest

from repro.cluster import (
    ROUTING_POLICIES,
    ClusterEngine,
    ClusterRouter,
    Replica,
    ShardedKVPool,
)
from repro.config import GPT2_SMALL, PruningConfig
from repro.core import SequencePlan
from repro.faults import FaultEvent, IllegalReplicaEvent
from repro.serving import (
    KVMemoryPool,
    PoolExhausted,
    Request,
    RequestStatus,
    ServingEngine,
)
from repro.workloads import (
    TrafficClass,
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    heterogeneous_request_trace,
    lm_prompts,
    make_lm_corpus,
    synthetic_request_trace,
)

PROMPT_LEN = 24
PRUNING = PruningConfig(token_keep_final=0.4, head_keep_final=0.75,
                        value_keep=0.9)
AGGRESSIVE = PruningConfig(token_keep_final=0.3, head_keep_final=0.625,
                           value_keep=0.9)


@pytest.fixture(scope="module")
def cluster_setup():
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
    pool = ShardedKVPool(
        config,
        total_budget_bytes=page_budget(config, total_pages, page_tokens),
        n_replicas=n_replicas,
        page_tokens=page_tokens,
    )
    assert pool.total_pages == total_pages
    return pool


def skewed_requests(config, corpus, n=12, rate=800.0, seed=31):
    classes = [
        TrafficClass("pruned-short", weight=0.7, prompt_len=16,
                     max_new_tokens=(3, 6), pruning=AGGRESSIVE),
        TrafficClass("dense-long", weight=0.3, prompt_len=48,
                     max_new_tokens=(3, 6), pruning=None),
    ]
    return heterogeneous_request_trace(
        corpus, classes, n_requests=n, rate_per_s=rate, seed=seed
    )


class TestHeterogeneousTraffic:
    def classes(self):
        return [
            TrafficClass("cheap", weight=3.0, prompt_len=16,
                         max_new_tokens=(2, 4), pruning=AGGRESSIVE),
            TrafficClass("dense", weight=1.0, prompt_len=48,
                         max_new_tokens=(4, 8), pruning=None, priority=1),
        ]

    def test_trace_mixes_classes_with_their_schedules(self, cluster_setup):
        _, _, corpus = cluster_setup
        requests = heterogeneous_request_trace(
            corpus, self.classes(), n_requests=40, rate_per_s=100.0, seed=9
        )
        assert len(requests) == 40
        assert [r.request_id for r in requests] == list(range(40))
        cheap = [r for r in requests if r.prompt_len == 16]
        dense = [r for r in requests if r.prompt_len == 48]
        assert len(cheap) + len(dense) == 40
        # The 3:1 weighting shows up in the mix (loose bound, fixed seed).
        assert len(cheap) > len(dense)
        assert all(r.pruning is AGGRESSIVE for r in cheap)
        assert all(r.pruning is None for r in dense)
        assert all(r.priority == 1 for r in dense)
        assert all(2 <= r.max_new_tokens <= 4 for r in cheap)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)

    def test_trace_is_reproducible(self, cluster_setup):
        _, _, corpus = cluster_setup
        a = heterogeneous_request_trace(
            corpus, self.classes(), n_requests=12, rate_per_s=50.0, seed=4
        )
        b = heterogeneous_request_trace(
            corpus, self.classes(), n_requests=12, rate_per_s=50.0, seed=4
        )
        assert [(r.arrival_time, r.max_new_tokens, list(r.prompt_ids))
                for r in a] == \
               [(r.arrival_time, r.max_new_tokens, list(r.prompt_ids))
                for r in b]

    def test_validation(self, cluster_setup):
        _, _, corpus = cluster_setup
        with pytest.raises(ValueError, match="TrafficClass"):
            heterogeneous_request_trace(corpus, [], 4, 10.0)
        with pytest.raises(ValueError, match="weight"):
            TrafficClass("x", weight=0.0, prompt_len=8, max_new_tokens=(1, 2))
        with pytest.raises(ValueError, match="max_new_tokens"):
            TrafficClass("x", weight=1.0, prompt_len=8, max_new_tokens=(4, 2))
        with pytest.raises(ValueError, match="n_requests"):
            heterogeneous_request_trace(corpus, self.classes(), 0, 10.0)


class TestShardedKVPool:
    def test_even_split_and_per_replica_budgets(self, cluster_setup):
        config, _, _ = cluster_setup
        pool = make_sharded(config, total_pages=96, n_replicas=3)
        assert [s.n_pages for s in pool.shards] == [32, 32, 32]
        hetero = ShardedKVPool(
            config,
            replica_budgets_bytes=[
                page_budget(config, 16), page_budget(config, 48),
            ],
            page_tokens=8,
        )
        assert [s.n_pages for s in hetero.shards] == [16, 48]
        assert hetero.total_pages == 64

    def test_constructor_validation(self, cluster_setup):
        config, _, _ = cluster_setup
        with pytest.raises(ValueError, match="n_replicas"):
            ShardedKVPool(config, total_budget_bytes=1 << 20)
        with pytest.raises(ValueError, match="n_replicas"):
            ShardedKVPool(config, total_budget_bytes=1 << 20, n_replicas=0)
        with pytest.raises(ValueError, match="disagrees"):
            ShardedKVPool(
                config, n_replicas=3,
                replica_budgets_bytes=[1 << 20, 1 << 20],
            )

    def test_global_ledger_views(self, cluster_setup):
        config, _, _ = cluster_setup
        pool = make_sharded(config, total_pages=64, n_replicas=2)
        pool.shard(0).admit(1, [PROMPT_LEN + 8] * config.n_layers)
        pool.shard(1).admit(
            2, SequencePlan.build(PRUNING, config, PROMPT_LEN, 8).kv_bounds
        )
        assert pool.n_sequences == 2
        assert pool.reserved_pages == (
            pool.shard(0).reserved_pages + pool.shard(1).reserved_pages
        )
        pool.shard(0).sync(1, [8] * config.n_layers)
        assert pool.allocated_pages == pool.shard(0).allocated_pages
        assert 0 < pool.global_occupancy < 1
        pool.audit()  # both live sequences billed exactly once

    def test_audit_catches_double_billing(self, cluster_setup):
        config, _, _ = cluster_setup
        pool = make_sharded(config)
        bounds = [PROMPT_LEN + 4] * config.n_layers
        pool.shard(0).admit(7, bounds)
        pool.shard(1).admit(7, bounds)  # same id on two shards
        with pytest.raises(PoolExhausted, match="billed by replica 0 and"):
            pool.audit()

    def test_audit_catches_nonempty_retired_shard(self, cluster_setup):
        config, _, _ = cluster_setup
        pool = make_sharded(config)
        pool.shard(0).admit(3, [PROMPT_LEN + 4] * config.n_layers)
        pool.drain(0)
        with pytest.raises(PoolExhausted, match="retired replica 0"):
            pool.audit()
        pool.shard(0).release(3)
        pool.audit()

    def test_drain_and_fail_lifecycle(self, cluster_setup):
        config, _, _ = cluster_setup
        pool = make_sharded(config, n_replicas=3, total_pages=96)
        before = pool.free_reservation_pages
        pool.drain(1)
        assert pool.active_indices == [0, 2]
        assert not pool.is_active(1) and not pool.is_failed(1)
        # A retired shard's pages are stranded, not placeable.
        assert pool.free_reservation_pages == before - pool.shard(1).n_pages
        pool.fail(2)
        assert pool.is_failed(2)
        assert pool.n_active == 1
        with pytest.raises(ValueError, match="replica 1: event 'drain' is "
                                             "not legal in phase 'drained'"):
            pool.drain(1)
        with pytest.raises(IndexError):
            pool.drain(5)


class TestClusterRouter:
    def make_replicas(self, cluster_setup, pages=(32, 32)):
        config, model, _ = cluster_setup
        replicas = []
        for i, n_pages in enumerate(pages):
            shard = KVMemoryPool(
                config, page_budget(config, n_pages), page_tokens=8
            )
            engine = ServingEngine(model, shard, prefill_chunk=8)
            engine.start()
            replicas.append(Replica(index=i, engine=engine, shard=shard))
        return config, replicas

    def request(self, config, rid=0, prompt_len=PROMPT_LEN, max_new=4,
                pruning=None):
        return Request(rid, np.arange(1, prompt_len + 1), max_new,
                       pruning=pruning)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="routing policy"):
            ClusterRouter("fastest")
        assert set(ROUTING_POLICIES) == {
            "round_robin", "least_loaded", "pruning_aware"
        }

    def test_round_robin_cycles(self, cluster_setup):
        config, replicas = self.make_replicas(cluster_setup)
        router = ClusterRouter("round_robin")
        picks = [
            router.choose(self.request(config, rid), replicas).index
            for rid in range(4)
        ]
        assert picks == [0, 1, 0, 1]
        assert [r.n_routed for r in replicas] == [2, 2]

    def test_least_loaded_prefers_free_pages(self, cluster_setup):
        config, replicas = self.make_replicas(cluster_setup, pages=(32, 32))
        replicas[0].shard.admit(99, [PROMPT_LEN + 8] * config.n_layers)
        router = ClusterRouter("least_loaded")
        assert router.choose(self.request(config), replicas).index == 1

    def test_oversized_request_skips_small_shard(self, cluster_setup):
        config, replicas = self.make_replicas(cluster_setup, pages=(8, 64))
        # Needs more pages than shard 0 will ever hold.
        big = self.request(config, prompt_len=40, max_new=24)
        for policy in ROUTING_POLICIES:
            assert ClusterRouter(policy).choose(big, replicas).index == 1

    def test_no_feasible_replica_raises(self, cluster_setup):
        config, replicas = self.make_replicas(cluster_setup, pages=(8, 8))
        big = self.request(config, prompt_len=40, max_new=24)
        with pytest.raises(PoolExhausted, match="fits no active replica"):
            ClusterRouter("round_robin").choose(big, replicas)

    def test_pruning_aware_prefers_lighter_backlog(self, cluster_setup):
        config, replicas = self.make_replicas(cluster_setup, pages=(64, 64))
        # Replica 0 already owes a big dense request; replica 1 is idle.
        replicas[0].engine.submit(
            self.request(config, rid=90, prompt_len=40, max_new=40)
        )
        router = ClusterRouter("pruning_aware")
        cheap = self.request(config, rid=1, prompt_len=8, max_new=2,
                             pruning=AGGRESSIVE)
        assert router.choose(cheap, replicas).index == 1

    def test_pruning_aware_key_is_schedule_bound(self, cluster_setup):
        """The score separates dense from pruned and busy from idle."""
        config, replicas = self.make_replicas(cluster_setup, pages=(64, 64))
        router = ClusterRouter("pruning_aware")
        dense = self.request(config, rid=1, prompt_len=40, max_new=20)
        pruned = self.request(config, rid=2, prompt_len=40, max_new=20,
                              pruning=AGGRESSIVE)
        idle = replicas[0]

        def key(request, replica):
            plan = replica.engine.plan_for(request)
            need = replica.engine.placement_pages_estimate(request, plan)
            return router._pruning_aware_key(plan, replica, need), need

        dense_key, dense_need = key(dense, idle)
        pruned_key, pruned_need = key(pruned, idle)
        # Same prompt and budget: the pruned request's schedule-bound
        # cost (pages and FLOPs) is strictly cheaper.
        assert pruned_key[0] < dense_key[0]
        assert pruned_need < dense_need
        # Backlog raises the same request's score on a busier replica.
        replicas[1].engine.submit(
            self.request(config, rid=95, prompt_len=40, max_new=40)
        )
        busy_key, _ = key(dense, replicas[1])
        assert busy_key[0] > dense_key[0]


class TestClusterEngine:
    def run_cluster(self, cluster_setup, requests, n_replicas=2,
                    policy="round_robin", total_pages=128, pruning=None,
                    prefill_chunk=8, **kwargs):
        config, model, _ = cluster_setup
        pool = make_sharded(
            config, total_pages=total_pages, n_replicas=n_replicas
        )
        cluster = ClusterEngine(
            model, pool, policy=policy, pruning=pruning,
            prefill_chunk=prefill_chunk, **kwargs
        )
        return cluster.run(requests), pool

    @pytest.mark.parametrize("pruning", [None, PRUNING],
                             ids=["dense", "spatten"])
    @pytest.mark.parametrize("prefill_chunk", [None, 8],
                             ids=["whole-prompt", "chunked"])
    def test_single_replica_matches_plain_engine(
        self, cluster_setup, pruning, prefill_chunk
    ):
        """The acceptance bar: N=1 serve-cluster == plain serve."""
        config, model, corpus = cluster_setup
        requests = synthetic_request_trace(
            corpus, n_requests=8, rate_per_s=500.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(3, 6), seed=7,
        )
        plain = ServingEngine(
            model, KVMemoryPool(config, page_budget(config, 64), 8),
            pruning=pruning, prefill_chunk=prefill_chunk,
        ).run(requests)
        pool = make_sharded(config, total_pages=64, n_replicas=1)
        stats = ClusterEngine(
            model, pool, policy="pruning_aware", pruning=pruning,
            prefill_chunk=prefill_chunk,
        ).run(requests)
        replica = stats.replicas[0]
        assert (
            [r.token_ids for r in plain.records]
            == [r.token_ids for r in replica.records]
        )
        assert plain.to_dict() == replica.to_dict()
        assert stats.fleet.n_tokens == plain.n_tokens
        assert stats.fleet.ttft_p95 == plain.ttft_p95

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_skewed_traffic_fully_served_every_policy(
        self, cluster_setup, policy
    ):
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus)
        stats, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2, policy=policy
        )
        assert stats.fleet.n_requests == len(requests)
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )
        assert stats.fleet.n_unadmitted == 0
        assert sum(stats.routed_counts) == len(requests)
        assert pool.n_sequences == 0  # every reservation released
        pool.audit()

    def test_policies_commit_identical_tokens(self, cluster_setup):
        """Routing moves work around; greedy decoding stays greedy."""
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus)
        streams = {}
        for policy in ROUTING_POLICIES:
            stats, _ = self.run_cluster(
                cluster_setup, requests, n_replicas=2, policy=policy
            )
            streams[policy] = [r.token_ids for r in stats.fleet.records]
        assert streams["round_robin"] == streams["least_loaded"]
        assert streams["round_robin"] == streams["pruning_aware"]

    def test_all_replicas_full_backpressure(self, cluster_setup):
        """When every shard is reserved out, arrivals wait — and the
        cluster works through the queue without dropping anything."""
        config, model, corpus = cluster_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 6, seed=43)
        requests = [
            Request(i, prompts[i], 4, arrival_time=0.0)
            for i in range(6)
        ]
        # Each shard fits exactly one dense reservation:
        # ceil(28/8)=4 pages x 4 layers = 16 pages per request.
        stats, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2, total_pages=32,
        )
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )
        waits = sorted(r.queue_wait for r in stats.fleet.records)
        # Two requests admit immediately (one per replica); the other
        # four wait for a predecessor to retire.
        assert waits[0] == pytest.approx(0.0)
        assert waits[1] == pytest.approx(0.0)
        assert all(w > 0 for w in waits[2:])
        assert stats.fleet.queue_wait_p95 > 0
        pool.audit()

    @pytest.mark.parametrize("numerics", ["exact", "fp32", "int8"])
    def test_mid_run_drain_requeues_without_token_loss(
        self, cluster_setup, numerics
    ):
        """On every tier: the skewed trace mixes dense and pruned rows
        in one batch, so off ``exact`` a drain vacates rows of both
        styles' stores (int8: scale planes included)."""
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus, n=10, rate=2000.0)
        baseline, _ = self.run_cluster(
            cluster_setup, requests, n_replicas=2, policy="least_loaded",
            numerics=numerics,
        )
        # Drain replica 0 while it still has work in flight.
        drain_t = baseline.fleet.makespan_s / 3
        stats, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2, policy="least_loaded",
            faults=[FaultEvent(drain_t, 0, "drain")], numerics=numerics,
        )
        assert stats.n_requeued > 0
        assert stats.n_drained == 1 and stats.n_failed == 0
        assert stats.n_active_replicas == 1
        # No token loss: every request still delivers its full budget,
        # and greedy decoding makes the streams identical to the
        # drain-free run.
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )
        assert (
            [r.token_ids for r in stats.fleet.records]
            == [r.token_ids for r in baseline.fleet.records]
        )
        # No double-billed pages: the drained shard is empty and the
        # ledger audit holds (run() already audited; re-check).
        assert pool.shard(0).reserved_pages == 0
        assert pool.shard(0).allocated_pages == 0
        pool.audit()
        # The drain penalty is visible: displaced requests waited longer.
        assert stats.fleet.queue_wait_p95 >= baseline.fleet.queue_wait_p95

    def test_late_drain_does_not_inflate_makespan(self, cluster_setup):
        """A drain long after the work finished is administrative only:
        the fleet keeps its real makespan and throughput (regression:
        the retire event used to drag the replica clock forward)."""
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus, n=6, rate=2000.0)
        baseline, _ = self.run_cluster(cluster_setup, requests, n_replicas=2)
        late, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2,
            faults=[FaultEvent(baseline.fleet.makespan_s + 10.0, 0, "drain")],
        )
        assert late.n_requeued == 0
        assert late.n_drained == 1
        assert late.fleet.makespan_s == baseline.fleet.makespan_s
        assert late.fleet.throughput_tps == baseline.fleet.throughput_tps
        assert (
            late.replicas[0].makespan_s == baseline.replicas[0].makespan_s
        )
        pool.audit()

    def test_fail_flagged_in_report(self, cluster_setup):
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus, n=6, rate=2000.0)
        stats, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2,
            faults=[FaultEvent(1e-4, 1, "fail")],
        )
        assert stats.n_failed == 1 and stats.n_drained == 0
        assert pool.is_failed(1)
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )

    def test_draining_every_replica_fails_requests_cleanly(
        self, cluster_setup
    ):
        """A fleet-wide drain must not crash or dead-loop: work that no
        surviving replica can take is failed cleanly, its ledger pages
        stay released, and the report counts the failures.  (This used
        to raise PoolExhausted mid-run, losing every other record.)"""
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus, n=6, rate=2000.0)
        stats, pool = self.run_cluster(
            cluster_setup, requests, n_replicas=2,
            faults=[FaultEvent(1e-4, 0, "drain"),
                    FaultEvent(2e-4, 1, "drain")],
        )
        pool.audit()
        assert stats.n_failed_requests > 0
        assert stats.n_failed_requests == stats.fleet.n_failed_requests
        failed = [
            r for r in stats.fleet.records
            if r.status is RequestStatus.FAILED
        ]
        assert len(failed) == stats.n_failed_requests
        assert all(r.admit_time is None and not r.token_ids for r in failed)

    def test_never_placeable_requeue_fails_cleanly(self, cluster_setup):
        """Regression: draining the only shard big enough for an
        in-flight request used to crash the run (or leak its pages)
        when the requeue fit no surviving replica.  The request must
        fail cleanly, its ledger pages must return, and every other
        request must still be served to completion."""
        config, model, corpus = cluster_setup
        # Replica 0 is the only shard that can hold the big request.
        pool = ShardedKVPool(
            config,
            replica_budgets_bytes=[
                page_budget(config, 64), page_budget(config, 24),
            ],
            page_tokens=8,
        )
        small = [
            Request(i, lm_prompts(corpus, 8, 1, seed=30 + i)[0],
                    max_new_tokens=4, arrival_time=i * 1e-5)
            for i in range(4)
        ]
        big = Request(4, lm_prompts(corpus, 40, 1, seed=40)[0],
                      max_new_tokens=20, arrival_time=2e-5)
        cluster = ClusterEngine(
            model, pool, policy="round_robin", prefill_chunk=8,
            faults=[FaultEvent(1e-4, 0, "drain")],
        )
        stats = cluster.run(small + [big])
        pool.audit()
        assert cluster.failed_requests == [4]
        assert stats.n_failed_requests == 1
        big_record = next(
            r for r in stats.fleet.records if r.request.request_id == 4
        )
        assert big_record.status is RequestStatus.FAILED
        assert big_record.admit_time is None and not big_record.token_ids
        # The retired shard holds nothing and every small request is
        # fully served despite the drain.
        assert pool.shard(0).n_sequences == 0
        for r in stats.fleet.records:
            if r.request.request_id != 4:
                assert r.n_generated == r.request.max_new_tokens

    def test_retire_event_validation(self, cluster_setup):
        config, model, corpus = cluster_setup
        pool = make_sharded(config)
        with pytest.raises(ValueError, match="unknown replica"):
            ClusterEngine(model, pool, faults=[FaultEvent(0.1, 9, "drain")])
        with pytest.raises(ValueError, match="non-negative"):
            ClusterEngine(model, pool, faults=[FaultEvent(-0.1, 0, "drain")])
        # Overlapping retire events (no recover in between) are
        # rejected; a drain -> recover -> fail sequence is legal.
        drain, recover, fail = (
            FaultEvent(t, 0, kind) for t, kind in
            ((0.1, "drain"), (0.15, "recover"), (0.2, "fail"))
        )
        with pytest.raises(ValueError, match="'fail' is not legal in phase "
                                             "'drained'"):
            ClusterEngine(model, pool, faults=[drain, fail])
        with pytest.raises(IllegalReplicaEvent, match="phase 'active'"):
            ClusterEngine(model, pool, faults=[recover])
        ClusterEngine(model, pool, faults=[fail, drain, recover])

    def test_infeasible_request_rejected_up_front(self, cluster_setup):
        config, model, corpus = cluster_setup
        prompt = lm_prompts(corpus, 40, 1, seed=19)[0]
        requests = [Request(0, prompt, 60, arrival_time=0.0)]
        with pytest.raises(PoolExhausted, match="fits no replica"):
            self.run_cluster(
                cluster_setup, requests, n_replicas=2, total_pages=32
            )

    def test_duplicate_request_ids_rejected(self, cluster_setup):
        config, model, corpus = cluster_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=23)[0]
        with pytest.raises(ValueError, match="unique"):
            self.run_cluster(
                cluster_setup,
                [Request(0, prompt, 2), Request(0, prompt, 2)],
            )

    def test_per_request_schedule_overrides_engine_default(
        self, cluster_setup
    ):
        config, model, corpus = cluster_setup
        pool = make_sharded(config)
        engine = ClusterEngine(
            model, pool, pruning=PRUNING
        ).replicas[0].engine
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=3)[0]
        inherit = Request(0, prompt, 4)
        forced_dense = Request(1, prompt, 4, pruning=None)
        override = Request(2, prompt, 4, pruning=AGGRESSIVE)
        assert engine.plan_for(inherit).pruning is PRUNING
        assert engine.plan_for(forced_dense).pruning is None
        assert engine.plan_for(override).pruning is AGGRESSIVE
        # The pool reservation follows the per-request schedule.
        shard = pool.shard(0)
        assert shard.pages_for_lengths(
            engine.plan_for(override).kv_bounds
        ) < shard.pages_for_lengths(engine.plan_for(forced_dense).kv_bounds)

    def test_cluster_stats_json_roundtrip(self, cluster_setup):
        config, model, corpus = cluster_setup
        requests = skewed_requests(config, corpus, n=6)
        stats, _ = self.run_cluster(cluster_setup, requests, n_replicas=2)
        payload = json.loads(stats.to_json())
        assert payload["n_replicas"] == 2
        assert payload["fleet"]["n_requests"] == 6
        assert len(payload["replicas"]) == 2
        assert "records" not in payload["fleet"]
        assert "cluster report" in str(stats.table())

    def test_run_is_reentrant(self, cluster_setup):
        """A second run() reports itself alone: the cluster's tallies and
        the router's start over, as each replica's do in start()."""
        config, model, corpus = cluster_setup
        requests = synthetic_request_trace(
            corpus, n_requests=6, rate_per_s=800.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(3, 6), seed=5,
        )
        cluster = ClusterEngine(
            model, make_sharded(config), policy="round_robin", prefill_chunk=8,
            heartbeat_timeout_s=0.0002,
        )
        first = cluster.run(requests).to_dict()
        assert sum(first["routed_counts"]) == 6 and first["n_breaker_trips"]
        assert cluster.run(requests).to_dict() == first

    def test_spatten_run_is_reentrant(self, cluster_setup):
        """The shards' cumulative counters (reclaimed pages and tokens,
        occupancy peaks) start over with each replica too, so a pruned
        fleet's second run() equals its first."""
        config, model, corpus = cluster_setup
        requests = synthetic_request_trace(
            corpus, n_requests=6, rate_per_s=800.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(8, 16), seed=5,
        )
        cluster = ClusterEngine(
            model, make_sharded(config), pruning=PRUNING, numerics="fp32",
            policy="round_robin", prefill_chunk=8,
        )
        first = cluster.run(requests).to_dict()
        assert first["fleet"]["reclaimed_pages"]
        assert first["fleet"]["reclaimed_tokens"]
        assert cluster.run(requests).to_dict() == first


@pytest.mark.smoke
def test_cluster_smoke(cluster_setup):
    """Fast end-to-end: skewed traffic, a drain, full service, clean ledger."""
    config, model, corpus = cluster_setup
    requests = skewed_requests(config, corpus, n=8, rate=1500.0)
    pool = make_sharded(config, total_pages=96, n_replicas=2)
    stats = ClusterEngine(
        model, pool, policy="pruning_aware", prefill_chunk=8,
        faults=[FaultEvent(0.002, 0, "drain")],
    ).run(requests)
    assert all(
        r.n_generated == r.request.max_new_tokens
        for r in stats.fleet.records
    )
    pool.audit()
    assert stats.fleet.throughput_tps > 0

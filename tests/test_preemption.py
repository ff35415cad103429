"""Tests for optimistic admission + preemption (repro.serving).

The invariants under test, matching the subsystem's acceptance bar:

* the pool ledger audits clean across preempt/requeue cycles (the
  engine audits after every preemption; these tests audit again at
  checkpoints);
* greedy recompute-on-preempt is bit-identical: a run that preempts
  commits exactly the token streams of an unpreempted run;
* the livelock guard holds: no request is preempted twice without
  committing work in between;
* optimistic admission survives worst-case backpressure — a dense
  (no-pruning) trace where actual usage meets the worst-case bound —
  without losing tokens or livelocking.
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.faults import FaultEvent
from repro.core import SequencePlan
from repro.serving import (
    KVMemoryPool,
    PoolExhausted,
    PreemptionCandidate,
    PreemptionPolicy,
    Request,
    ServingEngine,
)
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    make_lm_corpus,
    synthetic_request_trace,
)

PROMPT_LEN = 24
PRUNING = PruningConfig(token_keep_final=0.3, head_keep_final=0.625,
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


def make_pool(config, pages, page_tokens=8):
    pool = KVMemoryPool(
        config,
        budget_bytes=pages * page_tokens * 2 * config.n_heads
        * config.head_dim * config.bytes_per_element,
        page_tokens=page_tokens,
    )
    assert pool.n_pages == pages
    return pool


def trace(corpus, n=16, rate=2000.0, max_new=(8, 16), seed=3):
    return synthetic_request_trace(
        corpus, n_requests=n, rate_per_s=rate, prompt_len=PROMPT_LEN,
        max_new_tokens=max_new, seed=seed,
    )


def tokens_by_id(stats):
    return {r.request.request_id: list(r.token_ids) for r in stats.records}


def assert_all_complete(stats):
    for r in stats.records:
        assert r.n_generated == r.request.max_new_tokens


class TestOptimisticPool:
    def test_optimistic_floor_cheaper_than_worst_case(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=64)
        plan = SequencePlan.build(PRUNING, config, PROMPT_LEN, 16)
        floor = pool.pages_for_lengths(plan.token_counts)
        worst = pool.pages_for_lengths(plan.kv_bounds)
        assert 0 < floor < worst

    def test_optimistic_reservation_tracks_actual_usage(self, serving_setup):
        """The bug under repair: reserve-mode reservations never shrink,
        so reclaimed pages cannot admit new work.  Optimistic accounts
        must shrink with the allocation once the prompt has landed."""
        config, _, _ = serving_setup
        pool = make_pool(config, pages=64)
        plan = SequencePlan.build(PRUNING, config, PROMPT_LEN)
        pool.admit_optimistic(1, plan.token_counts)
        floor = pool.reserved_pages_of(1)
        pool.sync(1, [PROMPT_LEN] * config.n_layers)
        assert pool.reserved_pages_of(1) >= floor
        pool.finish_prefill(1)
        grown = pool.reserved_pages_of(1)
        assert grown == pool.allocated_pages_of(1)
        # Cascade eviction shrinks the bill immediately.
        pool.sync(1, [4] * config.n_layers)
        assert pool.reserved_pages_of(1) < grown
        assert pool.reserved_pages_of(1) == pool.allocated_pages_of(1)
        pool.audit()

    def test_headroom_gates_admission(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=16)
        prompt = [PROMPT_LEN] * config.n_layers
        floor = pool.pages_for_lengths(prompt)
        assert pool.can_admit_optimistic(prompt)
        assert not pool.can_admit_optimistic(
            prompt, headroom_pages=16 - floor + 1
        )
        with pytest.raises(PoolExhausted, match="headroom"):
            pool.admit_optimistic(5, prompt, headroom_pages=16 - floor + 1)

    def test_try_grow_signals_pressure_without_mutating(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=8)
        pool.admit_optimistic(1, [8] * config.n_layers)
        pool.sync(1, [8] * config.n_layers)  # 4 layers x 1 page
        before = pool.allocated_pages
        # Growing every layer past the remaining budget must refuse.
        assert not pool.try_grow(1, [8 * 3] * config.n_layers)
        assert pool.allocated_pages == before
        # A fitting growth commits.
        assert pool.try_grow(1, [16] * config.n_layers)
        assert pool.allocated_pages == 8
        pool.audit()

    def test_growth_respects_midprefill_floors(self, serving_setup):
        """Regression: try_grow/pressure_pages gated on *allocated*
        pages only, so another sequence's decode growth could eat the
        pages a mid-prefill sequence's floor had promised — pushing
        total reservations past the pool and crashing the next
        audit().  Growth must be gated on the reserved plane."""
        config, _, _ = serving_setup
        pool = make_pool(config, pages=16)
        # Sequence 1: dense 24-token prompt, floor 12 pages, only 4
        # allocated so far (prompt still committing chunk by chunk).
        pool.admit_optimistic(1, [24] * config.n_layers)
        pool.sync(1, [8] * config.n_layers)
        assert pool.reserved_pages_of(1) == 12
        # Sequence 2 fits the remaining 4 unreserved pages.
        pool.admit_optimistic(2, [8] * config.n_layers)
        pool.sync(2, [8] * config.n_layers)
        # Growing 2 to 8 pages fits *allocations* (4 + 8 <= 16) but
        # would steal 4 pages promised to sequence 1's prefill: refuse.
        assert pool.pressure_pages({2: [16] * config.n_layers}) == 4
        assert not pool.try_grow(2, [16] * config.n_layers)
        assert pool.reserved_pages <= pool.n_pages
        pool.audit()
        # Once sequence 1's prompt lands, its floor is real allocation
        # and the ledger stays exactly at the pool: still no room.
        pool.sync(1, [24] * config.n_layers)
        pool.finish_prefill(1)
        assert pool.reserved_pages == 16
        assert not pool.try_grow(2, [16] * config.n_layers)
        pool.audit()

    def test_pressure_pages_projection(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=8)
        pool.admit_optimistic(1, [8] * config.n_layers)
        pool.sync(1, [8] * config.n_layers)
        assert pool.pressure_pages({}) == 0
        assert pool.pressure_pages({1: [16] * config.n_layers}) == 0
        assert pool.pressure_pages({1: [24] * config.n_layers}) == 4
        # Unknown projected ids are ignored (already preempted).
        assert pool.pressure_pages({99: [999] * config.n_layers}) == 0

    def test_preempt_release_counts_and_clears(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=16)
        pool.admit_optimistic(1, [8] * config.n_layers)
        pool.sync(1, [8] * config.n_layers)
        freed = pool.preempt_release(1)
        assert freed == config.n_layers
        assert pool.n_preempted == 1
        assert pool.preempted_pages == freed
        assert pool.n_sequences == 0
        with pytest.raises(ValueError, match="unknown sequence"):
            pool.preempt_release(1)
        pool.audit()

    def test_audit_catches_corrupt_accounts(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=16)
        pool.admit_optimistic(1, [8] * config.n_layers)
        pool.sync(1, [8] * config.n_layers)
        pool.audit()
        pool._accounts[1].reserved_pages += 1  # simulate a ledger bug
        with pytest.raises(PoolExhausted, match="audit"):
            pool.audit()


class TestPreemptionPolicy:
    CANDIDATES = [
        PreemptionCandidate(seq_id=1, priority=0, arrival_time=0.1, pages=9),
        PreemptionCandidate(seq_id=2, priority=2, arrival_time=0.2, pages=3),
        PreemptionCandidate(seq_id=3, priority=1, arrival_time=0.3, pages=6),
    ]

    def test_policies_pick_their_victim(self):
        assert PreemptionPolicy("lowest_priority").select(
            self.CANDIDATES).seq_id == 2
        assert PreemptionPolicy("most_pages").select(
            self.CANDIDATES).seq_id == 1
        assert PreemptionPolicy("latest_arrival").select(
            self.CANDIDATES).seq_id == 3

    def test_protected_candidates_are_skipped(self):
        shielded = [
            PreemptionCandidate(seq_id=c.seq_id, priority=c.priority,
                                arrival_time=c.arrival_time, pages=c.pages,
                                protected=c.seq_id == 2)
            for c in self.CANDIDATES
        ]
        assert PreemptionPolicy("lowest_priority").select(
            shielded).seq_id == 3
        all_protected = [
            PreemptionCandidate(seq_id=c.seq_id, priority=c.priority,
                                arrival_time=c.arrival_time, pages=c.pages,
                                protected=True)
            for c in self.CANDIDATES
        ]
        assert PreemptionPolicy("most_pages").select(all_protected) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="preemption policy"):
            PreemptionPolicy("coin_flip")


class TestOptimisticEngine:
    def run_engine(self, serving_setup, requests, pages, admission,
                   pruning=PRUNING, **kwargs):
        config, model, _ = serving_setup
        pool = make_pool(config, pages=pages)
        engine = ServingEngine(
            model, pool, pruning=pruning, prefill_chunk=8,
            admission=admission, **kwargs,
        )
        stats = engine.run(requests)
        pool.audit()
        return stats, engine, pool

    def test_invalid_configuration_rejected(self, serving_setup):
        config, model, _ = serving_setup
        pool = make_pool(config, pages=16)
        with pytest.raises(ValueError, match="admission"):
            ServingEngine(model, pool, admission="hopeful")
        with pytest.raises(ValueError, match="headroom"):
            ServingEngine(model, pool, admission="optimistic",
                          headroom_pages=-1)
        with pytest.raises(ValueError, match="preemption policy"):
            ServingEngine(model, pool, preempt_policy="coin_flip")

    def test_validate_rejects_impossible_headroom(self, serving_setup):
        config, model, corpus = serving_setup
        pool = make_pool(config, pages=24)
        engine = ServingEngine(
            model, pool, prefill_chunk=8, admission="optimistic",
            headroom_pages=15,
        )
        # The worst case (20 pages) fits the pool, but the optimistic
        # floor (12) plus headroom (15) never can.
        with pytest.raises(PoolExhausted, match="headroom"):
            engine.run(trace(corpus, n=1))

    def test_optimistic_fixes_admission_starvation(self, serving_setup):
        """The headline claim: at the same tight pool budget on a
        pruning-heavy trace, optimistic admission + preemption strictly
        beats reservation-only admission on throughput and TTFT p95 —
        with bit-identical per-request token streams."""
        _, _, corpus = serving_setup
        requests = trace(corpus, n=16)
        reserve, _, _ = self.run_engine(
            serving_setup, requests, pages=40, admission="reserve")
        optimistic, engine, _ = self.run_engine(
            serving_setup, requests, pages=40, admission="optimistic")
        assert optimistic.throughput_tps > reserve.throughput_tps
        assert optimistic.ttft_p95 < reserve.ttft_p95
        assert tokens_by_id(optimistic) == tokens_by_id(reserve)
        assert_all_complete(optimistic)
        assert optimistic.admission == "optimistic"

    def test_recompute_is_token_identical_under_preemption(
        self, serving_setup
    ):
        """Preemption must actually fire, and the replayed streams must
        match an unpreempted run bit for bit (greedy recompute)."""
        _, _, corpus = serving_setup
        requests = trace(corpus, n=16, max_new=(12, 24), seed=11)
        roomy, _, _ = self.run_engine(
            serving_setup, requests, pages=160, admission="reserve")
        tight, engine, pool = self.run_engine(
            serving_setup, requests, pages=36, admission="optimistic")
        assert tight.n_preemptions > 0
        assert pool.n_preempted == tight.n_preemptions
        assert tight.recompute_tokens > 0
        assert tokens_by_id(tight) == tokens_by_id(roomy)
        assert_all_complete(tight)
        assert len(engine.preemption_log) == tight.n_preemptions

    @pytest.mark.parametrize(
        "policy", ["lowest_priority", "most_pages", "latest_arrival"]
    )
    def test_every_policy_preserves_tokens_and_ledger(
        self, serving_setup, policy
    ):
        _, _, corpus = serving_setup
        requests = trace(corpus, n=12, max_new=(12, 24), seed=13)
        roomy, _, _ = self.run_engine(
            serving_setup, requests, pages=160, admission="reserve")
        tight, engine, _ = self.run_engine(
            serving_setup, requests, pages=36, admission="optimistic",
            preempt_policy=policy)
        assert tokens_by_id(tight) == tokens_by_id(roomy)
        assert_all_complete(tight)
        assert all(e.policy == policy for e in engine.preemption_log)

    def test_livelock_guard_requires_progress_between_preemptions(
        self, serving_setup
    ):
        """No request is preempted twice without progress: after its
        first preemption a request is protected until it commits work,
        so every later preemption of the same request must discard a
        strictly positive amount of recomputed work."""
        _, _, corpus = serving_setup
        requests = trace(corpus, n=16, max_new=(12, 24), seed=11)
        _, engine, _ = self.run_engine(
            serving_setup, requests, pages=36, admission="optimistic")
        assert engine.preemption_log, "scenario must actually preempt"
        seen = set()
        for event in engine.preemption_log:
            if event.request_id in seen:
                assert event.work_tokens > 0, (
                    f"request {event.request_id} re-preempted without "
                    f"progress"
                )
            seen.add(event.request_id)

    def test_backpressure_under_worst_case_dense_trace(self, serving_setup):
        """No-pruning worst case: actual usage meets the worst-case
        bound, so optimism is always wrong and preemption carries the
        whole load.  The run must terminate with zero token loss and a
        clean ledger — backpressure, not collapse."""
        _, _, corpus = serving_setup
        requests = trace(corpus, n=10, max_new=(10, 20), seed=17)
        reserve, _, _ = self.run_engine(
            serving_setup, requests, pages=28, admission="reserve",
            pruning=None)
        optimistic, engine, _ = self.run_engine(
            serving_setup, requests, pages=28, admission="optimistic",
            pruning=None)
        assert optimistic.n_preemptions > 0
        assert tokens_by_id(optimistic) == tokens_by_id(reserve)
        assert_all_complete(optimistic)

    def test_deadline_spares_requests_the_engine_preempted(
        self, serving_setup
    ):
        """``deadline_s`` is time to *first* admission: a request
        admitted in time, then preempted and requeued past the deadline,
        must finish — preemption costs latency, never tokens."""
        _, _, corpus = serving_setup
        stats, _, _ = self.run_engine(
            serving_setup, trace(corpus), pages=48, admission="optimistic",
            pruning=None, deadline_s=0.01)
        failed = [r for r in stats.records if r.failure is not None]
        assert failed  # the deadline still fires on never-admitted work
        assert all(r.failure == "deadline" and r.n_preemptions == 0
                   for r in failed)
        preempted = [r for r in stats.records if r.n_preemptions]
        assert preempted
        assert all(r.n_generated == r.request.max_new_tokens
                   for r in preempted)

    def test_long_prefill_floor_survives_decode_growth(self, serving_setup):
        """Regression companion to the pool-level floor test: a long
        dense prompt committing chunk by chunk while short requests
        decode-grow around it must never blow the reservation invariant
        (the engine audits after every preemption) and must lose no
        tokens."""
        config, model, corpus = serving_setup
        from repro.serving import Request
        from repro.workloads import lm_prompts

        small = [
            Request(i, lm_prompts(corpus, 8, 1, seed=50 + i)[0],
                    max_new_tokens=40, arrival_time=0.0)
            for i in range(4)
        ]
        long_dense = Request(
            9, lm_prompts(corpus, 96, 1, seed=60)[0],
            max_new_tokens=8, arrival_time=1e-4, pruning=None,
        )
        requests = small + [long_dense]
        roomy, _, _ = self.run_engine(
            serving_setup, requests, pages=200, admission="reserve",
            pruning=None)
        tight, _, pool = self.run_engine(
            serving_setup, requests, pages=56, admission="optimistic",
            pruning=None)
        assert tokens_by_id(tight) == tokens_by_id(roomy)
        assert_all_complete(tight)
        assert pool.reserved_pages == 0 and pool.allocated_pages == 0

    def test_whole_prompt_chunk_supports_optimistic_mode(
        self, serving_setup
    ):
        """The default ``prefill_chunk=None`` (one chunk per prompt)
        under optimistic admission and pool pressure."""
        config, model, corpus = serving_setup
        requests = trace(corpus, n=8, seed=19)
        baseline = ServingEngine(
            model, make_pool(config, pages=160), pruning=PRUNING,
        ).run(requests)
        pool = make_pool(config, pages=36)
        engine = ServingEngine(
            model, pool, pruning=PRUNING, admission="optimistic",
        )
        stats = engine.run(requests)
        pool.audit()
        assert tokens_by_id(stats) == tokens_by_id(baseline)
        assert_all_complete(stats)

    def test_headroom_damps_preemptions(self, serving_setup):
        _, _, corpus = serving_setup
        requests = trace(corpus, n=16, max_new=(12, 24), seed=11)
        eager, _, _ = self.run_engine(
            serving_setup, requests, pages=36, admission="optimistic",
            headroom_pages=0)
        damped, _, _ = self.run_engine(
            serving_setup, requests, pages=36, admission="optimistic",
            headroom_pages=8)
        assert damped.n_preemptions <= eager.n_preemptions
        assert tokens_by_id(damped) == tokens_by_id(eager)


class TestOptimisticCluster:
    def budget(self, config, pages, page_tokens=8):
        per_token = (
            2 * config.n_heads * config.head_dim * config.bytes_per_element
        )
        return pages * page_tokens * per_token

    def run_cluster(self, serving_setup, requests, admission,
                    total_pages=72, **kwargs):
        config, model, _ = serving_setup
        pool = ShardedKVPool(
            config, total_budget_bytes=self.budget(config, total_pages),
            n_replicas=2, page_tokens=8,
        )
        cluster = ClusterEngine(
            model, pool, policy="pruning_aware", pruning=PRUNING,
            prefill_chunk=8, admission=admission, **kwargs,
        )
        stats = cluster.run(requests)
        pool.audit()
        return stats, pool

    def test_cluster_threads_admission_mode(self, serving_setup):
        _, _, corpus = serving_setup
        requests = trace(corpus, n=16, max_new=(12, 24), seed=11)
        reserve, _ = self.run_cluster(serving_setup, requests, "reserve")
        optimistic, pool = self.run_cluster(
            serving_setup, requests, "optimistic")
        assert optimistic.fleet.admission == "optimistic"
        assert all(s.admission == "optimistic" for s in optimistic.replicas)
        assert tokens_by_id(optimistic.fleet) == tokens_by_id(reserve.fleet)
        for r in optimistic.fleet.records:
            assert r.n_generated == r.request.max_new_tokens
        assert optimistic.fleet.n_preemptions == pool.n_preempted

    def test_drain_during_optimistic_run_keeps_ledger_clean(
        self, serving_setup
    ):
        _, _, corpus = serving_setup
        requests = trace(corpus, n=12, max_new=(8, 16), seed=23)
        stats, pool = self.run_cluster(
            serving_setup, requests, "optimistic",
            faults=[FaultEvent(2e-3, 0, "drain")],
        )
        assert pool.shard(0).n_sequences == 0
        for r in stats.fleet.records:
            assert r.n_generated == r.request.max_new_tokens

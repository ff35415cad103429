"""Tests for the continuous-batching serving subsystem (repro.serving)."""

import numpy as np
import pytest

from repro.config import GPT2_SMALL, PruningConfig, QuantConfig
from repro.core import SpAttenExecutor
from repro.core import schedule as sched
from repro.core.trace import dense_trace, spatten_trace
from repro.nn.kv_cache import LayerKVCache
from repro.serving import (
    CostModel,
    KVMemoryPool,
    PoolExhausted,
    Request,
    RequestQueue,
    RequestRecord,
    ServingEngine,
    ServingStats,
    SimulatedClock,
    transition,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry, chrome_trace_json
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    lm_prompts,
    make_lm_corpus,
    synthetic_request_trace,
)

PROMPT_LEN = 24
PRUNING = PruningConfig(token_keep_final=0.4, head_keep_final=0.75, value_keep=0.9)


@pytest.fixture(scope="module")
def serving_setup():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
        max_seq_len=160,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=1024, seed=2)
    return config, model, corpus


def plan_of(config, pruning, prompt_len, max_new=0):
    return sched.SequencePlan.build(pruning, config, prompt_len, max_new)


def make_pool(config, pages=64, page_tokens=8):
    pool = KVMemoryPool(
        config,
        budget_bytes=pages * page_tokens * 2 * config.n_heads
        * config.head_dim * config.bytes_per_element,
        page_tokens=page_tokens,
    )
    assert pool.n_pages == pages
    return pool


class TestRequestAndQueue:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(0, [], max_new_tokens=1)
        with pytest.raises(ValueError):
            Request(0, [1, 2], max_new_tokens=0)
        with pytest.raises(ValueError):
            Request(0, [1, 2], max_new_tokens=1, arrival_time=-1.0)

    def test_queue_orders_by_priority_then_arrival(self):
        queue = RequestQueue()
        queue.push(Request(0, [1], 1, arrival_time=0.0, priority=5))
        queue.push(Request(1, [1], 1, arrival_time=1.0, priority=0))
        queue.push(Request(2, [1], 1, arrival_time=0.5, priority=0))
        order = [r.request_id for r in queue.as_ordered_list()]
        assert order == [2, 1, 0]
        assert queue.pop().request_id == 2
        assert queue.peek().request_id == 1
        assert len(queue) == 2

    def test_empty_queue_raises(self):
        queue = RequestQueue()
        with pytest.raises(IndexError):
            queue.peek()
        with pytest.raises(IndexError):
            queue.pop()

    def test_equal_priority_equal_arrival_pops_in_push_order(self):
        """Ties on (priority, arrival) break on the monotonic push
        counter — never on request ids and never by comparing request
        payloads (regression: the heap used to carry the id as the
        tiebreaker, so requeued requests could jump the line)."""
        queue = RequestQueue()
        for rid in (5, 2, 9):  # deliberately not in id order
            queue.push(Request(rid, [1], 1, arrival_time=1.0, priority=3))
        assert [r.request_id for r in queue.as_ordered_list()] == [5, 2, 9]
        assert [queue.pop().request_id for _ in range(3)] == [5, 2, 9]

    def test_queue_drain_returns_admission_order_and_empties(self):
        queue = RequestQueue()
        queue.push(Request(0, [1], 1, arrival_time=0.2, priority=1))
        queue.push(Request(1, [1], 1, arrival_time=0.1, priority=0))
        queue.push(Request(2, [1], 1, arrival_time=0.1, priority=0))
        assert [r.request_id for r in queue.drain()] == [1, 2, 0]
        assert len(queue) == 0


class TestKVBounds:
    def test_dense_bounds_are_full_length(self):
        three = GPT2_SMALL.with_overrides(n_layers=3)
        assert plan_of(three, None, 10, 5).kv_bounds == (15, 15, 15)

    def test_pruned_bounds_replay_the_schedule(self):
        n_layers, prompt, max_new = 6, 40, 10
        bounds = plan_of(
            GPT2_SMALL.with_overrides(n_layers=n_layers), PRUNING, prompt,
            max_new,
        ).kv_bounds
        counts = sched.token_keep_counts(PRUNING, n_layers, prompt)
        fracs = sched.token_keep_fractions(PRUNING, n_layers, prompt)
        for layer in range(n_layers):
            expected = max(
                int(counts[layer]),
                sched.decode_token_target(
                    PRUNING, float(fracs[layer]), prompt + max_new
                ),
            )
            assert bounds[layer] == expected
        assert all(b <= prompt + max_new for b in bounds)
        assert bounds[-1] < prompt + max_new  # deep layers genuinely shrink

    def test_executor_cache_never_exceeds_bounds(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=9)[0]
        max_new = 8
        bounds = plan_of(config, PRUNING, PROMPT_LEN, max_new).kv_bounds
        executor = SpAttenExecutor(PRUNING)
        logits = model.prefill(prompt, executor)
        assert all(
            length <= bound
            for length, bound in zip(executor.kv_lengths(), bounds)
        )
        token = int(np.argmax(logits))
        position = PROMPT_LEN
        for _ in range(max_new - 1):
            logits = model.decode_step_batch([token], [position], [executor])
            assert all(
                length <= bound
                for length, bound in zip(executor.kv_lengths(), bounds)
            )
            token = int(np.argmax(logits[0]))
            position += 1


class TestKVMemoryPool:
    def test_page_bytes_match_layer_cache_accounting(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config)
        cache = LayerKVCache(
            config.n_heads, config.head_dim,
            bytes_per_element=config.bytes_per_element,
        )
        k = np.zeros((config.n_heads, pool.page_tokens, config.head_dim))
        cache.append(k, k, np.arange(pool.page_tokens))
        assert cache.nbytes == pool.page_bytes

    def test_budget_too_small_rejected(self, serving_setup):
        config, _, _ = serving_setup
        with pytest.raises(ValueError):
            KVMemoryPool(config, budget_bytes=1, page_tokens=8)

    def test_admission_accounting(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=20, page_tokens=8)
        bounds = plan_of(config, None, PROMPT_LEN, 8).kv_bounds
        need = pool.pages_for_lengths(bounds)
        assert need == config.n_layers * 4  # ceil(32 / 8) pages per layer
        assert pool.can_admit(bounds)
        pool.admit(0, bounds)
        assert pool.reserved_pages == need
        assert not pool.can_admit(bounds)
        with pytest.raises(PoolExhausted):
            pool.admit(1, bounds)
        with pytest.raises(ValueError):
            pool.admit(0, bounds)  # duplicate id
        with pytest.raises(ValueError):
            pool.admit(2, bounds[:-1])  # must cover every layer
        pool.release(0)
        assert pool.reserved_pages == 0
        assert pool.can_admit(bounds)

    def test_pruned_reservation_is_smaller(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config)
        dense = plan_of(config, None, PROMPT_LEN, 8).kv_bounds
        pruned = plan_of(config, PRUNING, PROMPT_LEN, 8).kv_bounds
        assert pool.pages_for_lengths(pruned) < pool.pages_for_lengths(dense)

    def test_sync_allocates_and_reclaims(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config, pages=32, page_tokens=8)
        pool.admit(0, [PROMPT_LEN + 8] * config.n_layers)
        grown = pool.sync(0, [24, 24, 24, 24])
        assert grown == 0
        assert pool.allocated_pages == 4 * 3
        freed = pool.sync(0, [24, 8, 8, 8])
        assert freed == 3 * 2  # three layers dropped from 3 pages to 1
        assert pool.reclaimed_pages == 6
        assert pool.occupancy == pytest.approx((3 + 3) / 32)
        with pytest.raises(ValueError):
            pool.sync(0, [24, 24])  # must cover every layer

    def test_unknown_sequence_raises_clear_value_error(self, serving_setup):
        config, _, _ = serving_setup
        pool = make_pool(config)
        with pytest.raises(ValueError, match="unknown sequence 7"):
            pool.sync(7, [0] * config.n_layers)
        with pytest.raises(ValueError, match="unknown sequence 9"):
            pool.release(9)
        pool.admit(1, [PROMPT_LEN + 4] * config.n_layers)
        pool.release(1)
        with pytest.raises(ValueError, match="unknown sequence 1"):
            pool.release(1)  # double release
        with pytest.raises(ValueError, match="unknown sequence 1"):
            pool.sync(1, [0] * config.n_layers)


class TestPrefillKVLengths:
    def test_dense_tracks_committed_prefix(self):
        plan = plan_of(GPT2_SMALL.with_overrides(n_layers=3), None, 24)
        assert plan.prefix_kv_lengths(0) == [0, 0, 0]
        assert plan.prefix_kv_lengths(9) == [9, 9, 9]
        assert plan.prefix_kv_lengths(99) == [24, 24, 24]

    def test_pruned_caps_at_summarize_keep_targets(self):
        n_layers, prompt = 6, 40
        counts = sched.token_keep_counts(PRUNING, n_layers, prompt)
        plan = plan_of(
            GPT2_SMALL.with_overrides(n_layers=n_layers), PRUNING, prompt
        )
        assert plan.prefix_kv_lengths(16) == [min(16, int(c)) for c in counts]
        # At full commit, the model matches the executor's real
        # post-summarize cache lengths exactly (= the keep counts).
        assert plan.prefix_kv_lengths(prompt) == [int(c) for c in counts]


class TestBatchedDecodeEquivalence:
    @pytest.mark.parametrize(
        "pruning,quant,prefill_chunk",
        [
            (None, None, None),
            (PRUNING, None, None),
            (PRUNING, QuantConfig(msb_bits=6, lsb_bits=4, progressive=True),
             None),
            (None, None, 8),
            (PRUNING, None, 8),
        ],
        ids=["dense", "pruned", "pruned+quant", "dense-chunked",
             "pruned-chunked"],
    )
    def test_matches_single_sequence_generate(
        self, serving_setup, pruning, quant, prefill_chunk
    ):
        """Engine streams == solo ``model.generate`` (the looped oracle),
        whole-prompt and chunked prefill alike."""
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 3, seed=11)
        max_new = 6
        sequential = []
        for prompt in prompts:
            executor = (
                SpAttenExecutor(pruning, quant) if pruning or quant else None
            )
            sequential.append(
                model.generate(prompt, max_new, executor=executor).token_ids
            )
        requests = [
            Request(i, prompt, max_new, arrival_time=0.0)
            for i, prompt in enumerate(prompts)
        ]
        pool = make_pool(config, pages=256, page_tokens=8)
        engine = ServingEngine(
            model, pool, pruning=pruning, quant=quant,
            prefill_chunk=prefill_chunk,
        )
        stats = engine.run(requests)
        batched = [record.token_ids for record in stats.records]
        assert batched == sequential
        # The three requests genuinely shared decode steps.
        assert stats.mean_batch_size == pytest.approx(3.0)

    def test_decode_step_batch_validates_inputs(self, serving_setup):
        _, model, corpus = serving_setup
        with pytest.raises(ValueError):
            model.decode_step_batch([1, 2], [0], [None])
        with pytest.raises(ValueError):
            model.decode_step_batch([], [], [])


class TestAttentionBackend:
    """Engine-to-backend wiring; stream identity against the looped
    oracle is ``test_matches_single_sequence_generate``."""

    def test_pool_page_size_threads_into_kv_caches(self, serving_setup):
        config, model, _ = serving_setup
        pool = make_pool(config, pages=24, page_tokens=32)
        dense = ServingEngine(model, pool)._make_executor(None)
        model.prefill([1, 2, 3], dense)
        assert dense._cache[0].page_tokens == pool.page_tokens
        spatten = ServingEngine(
            model, pool, pruning=PRUNING
        )._make_executor(PRUNING)
        model.prefill([1, 2, 3], spatten)
        assert spatten._cache[0].page_tokens == pool.page_tokens


class TestServingEngine:
    def run_trace(self, serving_setup, pruning, pages=40, rate=500.0,
                  n_requests=8):
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=n_requests, rate_per_s=rate,
            prompt_len=PROMPT_LEN, max_new_tokens=(4, 8), seed=3,
        )
        pool = make_pool(config, pages=pages, page_tokens=8)
        engine = ServingEngine(model, pool, pruning=pruning)
        return engine.run(requests), requests

    def test_end_to_end_dense(self, serving_setup):
        stats, requests = self.run_trace(serving_setup, pruning=None)
        assert stats.n_requests == len(requests)
        assert stats.n_tokens == sum(
            len(r.token_ids) for r in stats.records
        )
        for record, request in zip(stats.records, requests):
            assert record.n_generated == request.max_new_tokens
            assert record.admit_time >= request.arrival_time
            assert record.finish_time >= record.first_token_time
        assert stats.throughput_tps > 0
        assert stats.queue_wait_p95 >= stats.queue_wait_p50 >= 0
        assert stats.decode_latency_p95 >= stats.decode_latency_p50 > 0
        assert 0 < stats.occupancy_peak <= 1.0
        assert stats.reclaimed_pages == 0
        assert stats.reclaimed_tokens == 0

    def test_second_spatten_run_is_a_fresh_run(self, serving_setup):
        """One engine + pool, the same trace twice: the pool's
        cumulative counters (reclaimed pages and tokens, the occupancy
        peak, preemptions) and the backend's row stores start over in
        ``start()``, so the second report equals the first."""
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=8, rate_per_s=500.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(12, 20), seed=3,
        )
        pool = make_pool(config, pages=28, page_tokens=8)
        engine = ServingEngine(
            model, pool, pruning=PRUNING, numerics="fp32",
            admission="optimistic", prefill_chunk=8,
        )
        first = engine.run(requests).to_dict()
        assert first["reclaimed_pages"] and first["n_preemptions"]
        assert engine.run(requests).to_dict() == first
        pool.audit()

    def test_pruned_serving_reclaims_pages(self, serving_setup):
        stats, _ = self.run_trace(serving_setup, pruning=PRUNING)
        assert stats.reclaimed_tokens > 0
        assert stats.reclaimed_pages > 0
        assert stats.occupancy_peak < 1.0

    def test_admission_blocks_when_pool_exhausted(self, serving_setup):
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 2, seed=13)
        requests = [
            Request(i, prompt, 8, arrival_time=0.0)
            for i, prompt in enumerate(prompts)
        ]
        # Exactly one dense reservation fits: ceil(32/8)=4 pages x 4 layers.
        pool = make_pool(config, pages=16, page_tokens=8)
        engine = ServingEngine(model, pool)
        stats = engine.run(requests)
        first, second = stats.records
        assert first.queue_wait == pytest.approx(0.0)
        assert second.queue_wait > 0
        assert second.admit_time >= first.finish_time
        assert stats.mean_batch_size == pytest.approx(1.0)

    def test_priority_overrides_arrival_order(self, serving_setup):
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 2, seed=17)
        requests = [
            Request(0, prompts[0], 6, arrival_time=0.0, priority=5),
            Request(1, prompts[1], 6, arrival_time=0.0, priority=0),
        ]
        pool = make_pool(config, pages=16, page_tokens=8)  # one at a time
        stats = ServingEngine(model, pool).run(requests)
        low, high = stats.records
        assert high.admit_time < low.admit_time

    def test_request_longer_than_context_rejected_up_front(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=29)[0]
        pool = make_pool(config, pages=512, page_tokens=8)
        engine = ServingEngine(model, pool)
        too_long = config.max_seq_len - PROMPT_LEN + 1
        with pytest.raises(ValueError, match="max_seq_len"):
            engine.run([Request(0, prompt, too_long, arrival_time=0.0)])

    def test_infeasible_request_rejected_up_front(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=19)[0]
        pool = make_pool(config, pages=8, page_tokens=8)
        engine = ServingEngine(model, pool)
        with pytest.raises(PoolExhausted):
            engine.run([Request(0, prompt, 64, arrival_time=0.0)])

    def test_duplicate_request_ids_rejected(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=23)[0]
        pool = make_pool(config)
        with pytest.raises(ValueError):
            ServingEngine(model, pool).run(
                [Request(0, prompt, 2), Request(0, prompt, 2)]
            )

    def test_run_validates_before_mutating_state(self, serving_setup):
        """A bad request anywhere in the trace fails fast and leaves
        the engine reusable (regression: per-submit validation used to
        poison the engine with already-submitted requests)."""
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 2, seed=59)
        good = Request(0, prompts[0], 4, arrival_time=0.0)
        too_long = Request(
            1, prompts[1], config.max_seq_len, arrival_time=0.0
        )
        pool = make_pool(config, pages=64, page_tokens=8)
        engine = ServingEngine(model, pool)
        with pytest.raises(ValueError, match="max_seq_len"):
            engine.run([good, too_long])
        assert not engine.has_work  # nothing was half-submitted
        stats = engine.run([good])
        assert stats.records[0].n_generated == good.max_new_tokens

    def test_schedule_replays_once_per_request_not_per_step(
        self, serving_setup, monkeypatch
    ):
        """After ``submit`` stored each request's plan, serving a mixed
        dense + SpAtten trace replays the schedule exactly once per
        SpAtten prefill — the executor's own init — however many steps,
        blocked admission checks and backlog walks the run takes."""
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=8, rate_per_s=4000.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(4, 8), seed=3,
        )
        for request in requests[::2]:
            request.pruning = None  # dense rows ride the same batch
        # Tight pool + chunked prefill: requests wait at the queue head
        # (an admission check per step) and commit chunk by chunk.
        pool = make_pool(config, pages=32, page_tokens=8)
        engine = ServingEngine(
            model, pool, pruning=PRUNING, prefill_chunk=8, numerics="fp32",
        )
        engine.start()
        for request in requests:
            engine.submit(request)
        replays = []
        counts = sched.token_keep_counts
        monkeypatch.setattr(
            sched, "token_keep_counts",
            lambda *args: replays.append(args) or counts(*args),
        )
        waited = False
        while engine.has_work:
            engine.step()
            waited |= bool(engine.queue) and bool(engine.live)
            engine.outstanding_flops()
            engine.outstanding_page_seconds()
        assert waited  # the admission check did run against a full pool
        stats = engine.finish()
        assert all(
            r.n_generated == r.request.max_new_tokens for r in stats.records
        )
        assert len(replays) == len(requests[1::2])


class TestChunkedServing:
    """The three-phase mixed-step scheduler at every chunk size."""

    @pytest.mark.parametrize(
        "pruning,quant",
        [
            (None, None),
            (PRUNING, None),
            (PRUNING, QuantConfig(msb_bits=6, lsb_bits=4, progressive=True)),
        ],
        ids=["dense", "pruned", "pruned+quant"],
    )
    @pytest.mark.parametrize("chunk", [2, 8, 64, None])
    def test_token_streams_bit_identical_to_monolithic(
        self, serving_setup, pruning, quant, chunk
    ):
        """Every chunk size commits the streams of the model's own
        monolithic pass: solo ``model.generate``, one request at a time."""
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=6, rate_per_s=400.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(3, 6), seed=37,
        )
        solo = [
            model.generate(
                r.prompt_ids, r.max_new_tokens,
                executor=(
                    SpAttenExecutor(pruning, quant) if pruning or quant
                    else None
                ),
            ).token_ids
            for r in requests
        ]
        pool = make_pool(config, pages=256, page_tokens=8)
        stats = ServingEngine(
            model, pool, pruning=pruning, quant=quant, prefill_chunk=chunk,
        ).run(requests)
        assert [r.token_ids for r in stats.records] == solo

    def test_none_is_a_chunk_value_not_a_second_scheduler(
        self, serving_setup
    ):
        """``prefill_chunk=None`` *is* ``prefill_chunk=max_seq_len``:
        byte-identical trace and stats, not merely the same tokens."""
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=6, rate_per_s=400.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(3, 6), seed=37,
        )
        artifacts = []
        for chunk in (None, config.max_seq_len):
            tel = Telemetry()
            stats = ServingEngine(
                model, make_pool(config, pages=64, page_tokens=8),
                pruning=PRUNING, prefill_chunk=chunk, telemetry=tel,
            ).run(requests)
            artifacts.append((chrome_trace_json(tel.tracer), stats.to_json()))
        assert artifacts[0] == artifacts[1]

    def test_priority_order_admission_under_pool_contention(
        self, serving_setup
    ):
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 3, seed=41)
        requests = [
            Request(0, prompts[0], 4, arrival_time=0.0, priority=2),
            Request(1, prompts[1], 4, arrival_time=0.0, priority=1),
            Request(2, prompts[2], 4, arrival_time=0.0, priority=0),
        ]
        # Exactly one dense reservation fits at a time.
        pool = make_pool(config, pages=16, page_tokens=8)
        stats = ServingEngine(model, pool, prefill_chunk=8).run(requests)
        by_id = {r.request.request_id: r for r in stats.records}
        # Admission strictly follows priority, not request id / push order.
        assert (
            by_id[2].admit_time < by_id[1].admit_time < by_id[0].admit_time
        )
        # Later admissions wait for the pool, i.e. the predecessor retired.
        assert by_id[1].admit_time >= by_id[2].finish_time
        assert by_id[0].admit_time >= by_id[1].finish_time

    def test_pool_pages_grow_chunk_by_chunk_dense(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=43)[0]
        request = Request(0, prompt, 4, arrival_time=0.0)
        pool = make_pool(config, pages=64, page_tokens=8)
        engine = ServingEngine(model, pool, prefill_chunk=8)
        clock = SimulatedClock()
        engine.start(clock)
        engine.submit(request)
        engine._ingest(clock.now)
        engine._admit_ready(clock)
        assert pool.allocated_pages == 0  # reservation allocates nothing
        for committed in (8, 16, 24):  # PROMPT_LEN == 24
            engine._mixed_step(clock)
            want = config.n_layers * -(-committed // pool.page_tokens)
            assert pool.allocated_pages == want
        assert not engine.prefilling
        assert len(engine.live) == 1  # promoted on the final chunk
        assert engine.live[0].record.first_token_time == clock.now

    def test_pool_pages_grow_chunk_by_chunk_spatten(self, serving_setup):
        config, model, corpus = serving_setup
        prompt = lm_prompts(corpus, PROMPT_LEN, 1, seed=47)[0]
        request = Request(0, prompt, 4, arrival_time=0.0)
        pool = make_pool(config, pages=64, page_tokens=8)
        engine = ServingEngine(model, pool, pruning=PRUNING, prefill_chunk=8)
        clock = SimulatedClock()
        engine.start(clock)
        engine.submit(request)
        engine._ingest(clock.now)
        engine._admit_ready(clock)
        assert pool.allocated_pages == 0
        for committed in (8, 16, 24):
            engine._mixed_step(clock)
            plan = plan_of(config, PRUNING, PROMPT_LEN)
            want = pool.pages_for_lengths(plan.prefix_kv_lengths(committed))
            assert pool.allocated_pages == want
        # The modeled growth converged onto the executor's real pruned
        # cache lengths — nothing was spuriously "reclaimed" mid-prefill.
        assert pool.reclaimed_pages == 0
        assert len(engine.live) == 1

    def test_prefill_never_stalls_live_decode(self, serving_setup):
        """The head-of-line fix, observed directly on inter-token gaps.

        Request 1 arrives while request 0 decodes.  As one whole-prompt
        chunk its prompt lands inside one mixed step, so request 0's
        next inter-token gap swallows the full prefill; chunked, every
        gap stays bounded by a mixed step that carries at most one
        small chunk of the new prompt.
        """
        config, model, corpus = serving_setup
        prompts = lm_prompts(corpus, PROMPT_LEN, 2, seed=53)
        worst = {}
        for label, chunk in (("whole", None), ("chunked", 4)):
            requests = [
                Request(0, prompts[0], 12, arrival_time=0.0),
                Request(1, prompts[1], 4, arrival_time=1e-4),
            ]
            pool = make_pool(config, pages=64, page_tokens=8)
            stats = ServingEngine(model, pool, prefill_chunk=chunk).run(
                requests
            )
            worst[label] = max(stats.records[0].token_latencies)
        prefill_s = CostModel().prefill_time(
            config, plan_of(config, None, PROMPT_LEN)
        )
        assert worst["whole"] > prefill_s  # the stall is visible...
        assert worst["chunked"] < worst["whole"]  # ...and chunking removes it

    def test_invalid_prefill_chunk_rejected(self, serving_setup):
        config, model, _ = serving_setup
        pool = make_pool(config)
        with pytest.raises(ValueError, match="prefill_chunk"):
            ServingEngine(model, pool, prefill_chunk=0)


def drive(record, **events):
    """Walk a bare record through lifecycle events (name=time)."""
    for event, t in events.items():
        transition(record, event, t, NULL_TELEMETRY, "engine")


class TestStatsPartialRuns:
    def test_from_run_skips_and_counts_unadmitted_records(self):
        served = RequestRecord(Request(0, [1, 2], 2, arrival_time=0.1))
        drive(served, submitted=0.1, queued=0.1, admitted=0.5, promoted=0.7)
        served.token_ids = [3, 4]
        served.token_latencies = [0.1]
        stranded = RequestRecord(Request(1, [1, 2], 2, arrival_time=0.2))
        stats = ServingStats.from_run(
            mode="dense", records=[served, stranded], makespan_s=1.0,
            batch_sizes=[1], occupancy_samples=[0.5], pool_pages=4,
            pool_page_tokens=8, occupancy_peak=0.5, reclaimed_pages=0,
            reclaimed_tokens=0,
        )
        assert stats.n_unadmitted == 1
        assert stats.n_requests == 2
        assert stats.queue_wait_p50 == pytest.approx(0.4)
        assert stats.ttft_p95 == pytest.approx(0.6)
        assert "never admitted" in str(stats.table())

    def test_fully_served_runs_report_no_unadmitted(self):
        record = RequestRecord(Request(0, [1], 1, arrival_time=0.0))
        drive(record, submitted=0.0, queued=0.0, admitted=0.0, promoted=0.1)
        record.token_ids = [5]
        stats = ServingStats.from_run(
            mode="dense", records=[record], makespan_s=0.2, batch_sizes=[1],
            occupancy_samples=[0.1], pool_pages=4, pool_page_tokens=8,
            occupancy_peak=0.1, reclaimed_pages=0, reclaimed_tokens=0,
        )
        assert stats.n_unadmitted == 0
        assert "never admitted" not in str(stats.table())


class TestStatsPercentilesAndJson:
    def run_stats(self, serving_setup):
        config, model, corpus = serving_setup
        requests = synthetic_request_trace(
            corpus, n_requests=8, rate_per_s=800.0, prompt_len=PROMPT_LEN,
            max_new_tokens=(4, 8), seed=61,
        )
        pool = make_pool(config, pages=64, page_tokens=8)
        return ServingEngine(model, pool, prefill_chunk=8).run(requests)

    def test_p99_reported_alongside_p50_p95(self, serving_setup):
        stats = self.run_stats(serving_setup)
        assert stats.queue_wait_p99 >= stats.queue_wait_p95
        assert stats.ttft_p99 >= stats.ttft_p95 >= stats.ttft_p50 > 0
        assert (
            stats.decode_latency_p99
            >= stats.decode_latency_p95
            >= stats.decode_latency_p50
            > 0
        )
        assert "p50/p95/p99" in str(stats.table())

    def test_to_json_roundtrips_scalars_without_records(self, serving_setup):
        import json

        stats = self.run_stats(serving_setup)
        payload = json.loads(stats.to_json())
        assert payload == stats.to_dict()
        assert "records" not in payload
        assert payload["n_requests"] == stats.n_requests
        assert payload["ttft_p99"] == stats.ttft_p99
        assert payload["throughput_tps"] == pytest.approx(
            stats.throughput_tps
        )

    def empty_run_stats(self):
        """A run where nothing completed: zero records, zero samples."""
        return ServingStats.from_run(
            mode="dense", records=[], makespan_s=0.0, batch_sizes=[],
            occupancy_samples=[], pool_pages=8, pool_page_tokens=8,
            occupancy_peak=0.0, reclaimed_pages=0, reclaimed_tokens=0,
        )

    def test_empty_samples_report_nan_not_zero(self):
        """Regression: _percentile returned 0.0 for empty samples, so a
        run where nothing completed reported *perfect* p50/p95/p99
        latency.  The honest answer is unknown — NaN."""
        stats = self.empty_run_stats()
        for name in (
            "queue_wait_p50", "queue_wait_p95", "queue_wait_p99",
            "ttft_p50", "ttft_p95", "ttft_p99",
            "decode_latency_p50", "decode_latency_p95",
            "decode_latency_p99",
        ):
            assert np.isnan(getattr(stats, name)), name

    def test_nan_percentiles_render_as_null_and_na(self):
        import json
        import math

        stats = self.empty_run_stats()
        payload = stats.to_dict()
        assert payload["ttft_p95"] is None
        assert payload["queue_wait_p99"] is None
        # Strict JSON: null, never a bare NaN token.
        decoded = json.loads(stats.to_json())
        assert decoded["decode_latency_p50"] is None
        rendered = str(stats.table())
        assert "n/a / n/a / n/a" in rendered
        assert "nan" not in rendered
        # A run *with* samples keeps real numbers end to end.
        full = ServingStats.from_run(
            mode="dense",
            records=[],
            makespan_s=1.0,
            batch_sizes=[2],
            occupancy_samples=[0.5],
            pool_pages=8,
            pool_page_tokens=8,
            occupancy_peak=0.5,
            reclaimed_pages=0,
            reclaimed_tokens=0,
        )
        assert not math.isnan(full.occupancy_mean)


class TestCostModelAndClock:
    def test_clock_is_monotone(self):
        clock = SimulatedClock()
        clock.advance(1.0)
        clock.advance_to(0.5)
        assert clock.now == 1.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_pruning_reduces_decode_flops(self, serving_setup):
        config, _, _ = serving_setup
        cost = CostModel()
        dense = cost.decode_seq_flops(config, [64] * config.n_layers,
                                      config.n_heads)
        pruned = cost.decode_seq_flops(config, [24] * config.n_layers,
                                       config.n_heads - 1)
        assert pruned < dense

    def test_step_overhead_amortises_across_batch(self):
        cost = CostModel()
        one = cost.step_time(1e6, 1)
        eight = cost.step_time(8e6, 8)
        assert eight < 8 * one  # batching amortises the fixed overhead

    def test_prefill_flops_are_schedule_aware(self, serving_setup):
        config, _, _ = serving_setup
        cost = CostModel()
        dense = plan_of(config, None, 48)
        pruned = plan_of(config, PRUNING, 48)
        assert cost.prefill_flops(config, pruned) < cost.prefill_flops(
            config, dense
        )
        assert cost.prefill_time(config, pruned) < cost.prefill_time(
            config, dense
        )

    def test_chunk_flops_sum_below_monolithic_square(self, serving_setup):
        """Chunks charge causal chunk x prefix rectangles, not L x L."""
        config, _, _ = serving_setup
        cost = CostModel()
        for pruning in (None, PRUNING):
            plan = plan_of(config, pruning, 48)
            whole = cost.prefill_flops(config, plan)
            chunked = sum(
                cost.prefill_chunk_flops(config, plan, s, s + 16)
                for s in (0, 16, 32)
            )
            assert chunked < whole
            # A single full-width chunk is exactly the monolithic charge.
            assert cost.prefill_chunk_flops(
                config, plan, 0, 48
            ) == pytest.approx(whole)

    def test_chunk_flops_validate_span(self, serving_setup):
        config, _, _ = serving_setup
        cost = CostModel()
        for start, end in ((-1, 8), (8, 8), (40, 56)):
            with pytest.raises(ValueError):
                cost.prefill_chunk_flops(
                    config, plan_of(config, None, 48), start, end
                )

    def test_mixed_step_degenerates_to_decode_step(self):
        cost = CostModel()
        assert cost.mixed_step_time(0.0, 5e6, 0, 4) == pytest.approx(
            cost.step_time(5e6, 4)
        )
        # Prefill chunks riding along only add their arithmetic + per-seq
        # bookkeeping — no second fixed step overhead.
        mixed = cost.mixed_step_time(2e6, 5e6, 2, 4)
        assert mixed == pytest.approx(
            cost.step_time(5e6, 4) + 2e6 / cost.flops_per_second
            + 2 * cost.seq_overhead_s
        )


class TestTraceKVBytes:
    def test_dense_trace_bytes(self, tiny_decoder_config):
        cfg = tiny_decoder_config
        trace = dense_trace(cfg, seq_len=10, n_generate=2)
        per_token = 2 * cfg.n_heads * cfg.head_dim * cfg.bytes_per_element
        first = trace.steps[0]
        assert trace.kv_bytes_of_step(first) == 10 * per_token
        assert trace.peak_kv_bytes == 12 * per_token
        assert trace.cumulative_kv_bytes == sum(trace.kv_bytes_per_step)

    def test_pruned_trace_holds_fewer_kv_bytes(self, tiny_decoder_config):
        cfg = tiny_decoder_config
        dense = dense_trace(cfg, seq_len=32, n_generate=8)
        pruned = spatten_trace(
            cfg, PRUNING, None, seq_len=32, n_generate=8
        )
        assert pruned.cumulative_kv_bytes < dense.cumulative_kv_bytes
        assert pruned.peak_kv_bytes <= dense.peak_kv_bytes


@pytest.mark.smoke
def test_serving_smoke(serving_setup):
    """Fast end-to-end smoke: pruned serving beats dense at a tight budget."""
    config, model, corpus = serving_setup
    requests = synthetic_request_trace(
        corpus, n_requests=6, rate_per_s=1000.0, prompt_len=PROMPT_LEN,
        max_new_tokens=(4, 6), seed=5,
    )
    results = {}
    for mode, pruning in (("dense", None), ("spatten", PRUNING)):
        pool = make_pool(config, pages=20, page_tokens=8)
        results[mode] = ServingEngine(model, pool, pruning=pruning).run(requests)
    assert results["spatten"].throughput_tps > results["dense"].throughput_tps

"""Tests for the numerics ladder (:mod:`repro.nn.numerics`).

The ladder's contract has three parts, each tested here:

* **Resolution** — tier names, policy pass-through, and the default all
  resolve deterministically; unknown tiers fail loudly.
* **Exact stays exact** — ``numerics="exact"`` changes *nothing*: the
  packed backend and executors remain bit-identical to the looped fp64
  oracle across dense and SpAtten (pruning + progressive quantization)
  rows, exactly as the pre-ladder identity suite asserts.
* **Non-exact tiers are correct, not just fast** — fp32/int8 logits
  track the oracle within tier-appropriate tolerance; the arena's
  steady-state incremental updates agree bit-for-bit with a full
  rebuild from cache truth (exercised via mid-run executor cloning),
  for dense, SpAtten and mixed batches, across evictions, batch
  reorders and recompute-on-resume; the batched SpAtten route commits
  the state the per-sequence route commits; the int8 hot path's
  inlined quantization matches
  :func:`repro.core.quantization.quantize_rows` code-for-code and
  scale-for-scale; and a backend refuses executors of another tier
  by name, in both directions.
"""

import copy

import numpy as np
import pytest

from repro.config import GPT2_SMALL, ModelConfig, PruningConfig, QuantConfig
from repro.core.pipeline import SpAttenExecutor
from repro.nn import PackedDecodeBackend, TransformerModel, random_model
from repro.nn.numerics import (
    EXACT,
    FP32,
    INT8,
    NUMERICS_LADDER,
    NumericsMismatchError,
    NumericsPolicy,
    resolve_numerics,
)
from repro.nn.transformer import DenseExecutor
from repro.serving import KVMemoryPool, ServingEngine
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
)

PRUNING = PruningConfig(
    token_keep_final=0.4, head_keep_final=0.5, value_keep=0.9
)
QUANT = QuantConfig(msb_bits=6, lsb_bits=4, progressive=True, threshold=0.1)


@pytest.fixture(scope="module")
def decoder():
    config = ModelConfig(
        "numerics-decoder", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    return TransformerModel(config, random_model(config, seed=33))


@pytest.fixture(scope="module")
def small_world():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=2, d_model=64, n_heads=4,
        max_seq_len=160,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    pool = KVMemoryPool(
        config,
        budget_bytes=64 * 8 * 2 * config.n_heads * config.head_dim
        * config.bytes_per_element,
        page_tokens=8,
    )
    return config, model, pool


def _executor(kind, numerics=None):
    if kind == "dense":
        return DenseExecutor(numerics=numerics)
    if kind == "spatten":
        return SpAttenExecutor(PRUNING, numerics=numerics)
    if kind == "quant":
        return SpAttenExecutor(PRUNING, QUANT, numerics=numerics)
    raise ValueError(kind)  # pragma: no cover - spec typo guard


def _prompts(model, spec, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, model.config.vocab_size, size=prompt_len).tolist()
        for _, prompt_len in spec
    ]


def _prefilled(model, spec, seed, numerics=None):
    """Executors from ``[(kind, prompt_len), ...]`` at one ladder tier."""
    executors = []
    for (kind, _), prompt in zip(spec, _prompts(model, spec, seed)):
        executor = _executor(kind, numerics)
        model.prefill(prompt, executor)
        executors.append(executor)
    return executors


class TestResolution:
    def test_ladder_names_resolve_to_singletons(self):
        assert resolve_numerics("exact") is EXACT
        assert resolve_numerics("fp32") is FP32
        assert resolve_numerics("int8") is INT8

    def test_none_defaults_to_exact(self):
        assert resolve_numerics(None) is EXACT

    def test_policy_passes_through(self):
        assert resolve_numerics(INT8) is INT8

    def test_unknown_tier_raises_with_choices(self):
        with pytest.raises(ValueError, match="fp32"):
            resolve_numerics("bf16")

    def test_ladder_order_and_flags(self):
        assert NUMERICS_LADDER == ("exact", "fp32", "int8")
        assert EXACT.is_exact and not FP32.is_exact and not INT8.is_exact
        assert INT8.quantized_gemm and not FP32.quantized_gemm

    def test_storage_bytes_fall_back_to_model_width(self):
        assert EXACT.storage_bytes_per_element(2) == 2
        assert FP32.storage_bytes_per_element(2) == 4
        assert INT8.storage_bytes_per_element(2) == 1

    def test_policies_are_frozen(self):
        with pytest.raises(AttributeError):
            EXACT.name = "renamed"

    def test_budgets_tighten_down_the_ladder(self):
        assert EXACT.kl_budget == 0.0 and EXACT.argmax_budget == 1.0
        assert 0.0 < FP32.kl_budget < INT8.kl_budget
        assert 1.0 > FP32.argmax_budget > INT8.argmax_budget

    def test_custom_policy_is_accepted(self):
        custom = NumericsPolicy(
            name="fp32-wide", compute_dtype=np.float32,
            kv_dtype=np.float32, kv_bytes_per_element=4,
            quantized_gemm=False, kl_budget=1e-3, argmax_budget=0.99,
        )
        assert resolve_numerics(custom) is custom
        assert not custom.is_exact


class TestExactTierBitIdentity:
    """``numerics="exact"`` must change nothing, anywhere."""

    @pytest.mark.smoke
    def test_mixed_batch_matches_looped_oracle(self, decoder):
        spec = [("dense", 5), ("spatten", 30), ("quant", 12), ("dense", 23)]
        backend = PackedDecodeBackend(decoder, numerics="exact")
        looped = _prefilled(decoder, spec, seed=3)
        packed = _prefilled(decoder, spec, seed=3, numerics="exact")
        tokens = [7] * len(spec)
        positions = [length for _, length in spec]
        for step in range(6):
            ll = decoder.decode_step_batch(tokens, positions, looped)
            pl = decoder.decode_step_batch(
                tokens, positions, packed, backend=backend
            )
            assert np.array_equal(ll, pl), f"step {step} diverged"
            tokens = [int(np.argmax(row)) for row in ll]
            positions = [p + 1 for p in positions]

    def test_exact_executor_stores_fp64(self, decoder):
        executor = _prefilled(decoder, [("dense", 6)], seed=1,
                              numerics="exact")[0]
        assert executor._cache[0].dtype == np.dtype(np.float64)
        assert executor.numerics.is_exact


class TestNonExactTiers:
    """fp32/int8 are allowed to drift — within tier-sized bounds."""

    def _oracle_and_tier(self, model, spec, tier, n_steps, seed=9):
        policy = resolve_numerics(tier)
        backend = PackedDecodeBackend(model, numerics=policy)
        oracle_execs = _prefilled(model, spec, seed)
        tier_execs = _prefilled(model, spec, seed, numerics=policy)
        tokens = [5] * len(spec)
        positions = [length for _, length in spec]
        pairs = []
        for _ in range(n_steps):
            ol = model.decode_step_batch(tokens, positions, oracle_execs)
            tl = model.decode_step_batch(
                tokens, positions, tier_execs, backend=backend
            )
            pairs.append((ol, np.asarray(tl, dtype=np.float64)))
            # Teacher-force the oracle's choice so inputs stay aligned.
            tokens = [int(np.argmax(row)) for row in ol]
            positions = [p + 1 for p in positions]
        return pairs

    @pytest.mark.smoke
    def test_fp32_tracks_oracle_tightly(self, decoder):
        spec = [("dense", 5), ("dense", 23), ("dense", 11)]
        for ol, tl in self._oracle_and_tier(decoder, spec, "fp32", 6):
            assert np.allclose(tl, ol, rtol=1e-4, atol=1e-4)

    @pytest.mark.smoke
    def test_int8_tracks_oracle_within_budget_scale(self, decoder):
        spec = [("dense", 5), ("dense", 23), ("dense", 11)]
        for ol, tl in self._oracle_and_tier(decoder, spec, "int8", 6):
            rel = np.linalg.norm(tl - ol) / np.linalg.norm(ol)
            assert rel < 0.05, f"int8 logits drifted {rel:.3f} in L2"

    def test_non_exact_spatten_rows_still_prune(self, decoder):
        spec = [("spatten", 48), ("spatten", 36)]
        policy = resolve_numerics("int8")
        backend = PackedDecodeBackend(decoder, numerics=policy)
        execs = _prefilled(decoder, spec, seed=5, numerics=policy)
        tokens, positions = [1, 2], [48, 36]
        for _ in range(10):
            logits = decoder.decode_step_batch(
                tokens, positions, execs, backend=backend
            )
            assert np.isfinite(logits).all()
            tokens = [int(np.argmax(row)) for row in logits]
            positions = [p + 1 for p in positions]
        assert execs[0].evicted_kv_tokens > 0, "schedule never evicted"
        assert execs[0]._cache[0].dtype == np.dtype(np.int8)

    # The dense cases keep the ids they have always had.
    @pytest.mark.parametrize("tier,spec", [
        pytest.param(tier, spec, id=f"{name}{tier}")
        for name, spec in [
            ("", [("dense", 5), ("dense", 23), ("dense", 11)]),
            ("spatten-", [("spatten", 48), ("spatten", 30), ("spatten", 12)]),
            ("mixed-", [("dense", 5), ("spatten", 40), ("dense", 23),
                        ("spatten", 17)]),
        ]
        for tier in ("fp32", "int8")
    ])
    def test_arena_incremental_matches_rebuild_from_truth(
        self, decoder, tier, spec
    ):
        """Incremental packed state == a rebuild from executor truth.

        One batch keeps its backend for the whole run, so its dense
        rows' arena advances by tail writes.  Before every step the
        batch is deep-copied and the copy decoded by a *fresh* backend:
        cloned caches own no arena row (ownership is by identity), so
        that side is rebuilt from cache truth.  Both must produce
        bit-identical logits and leave identical KV lengths — through
        cascade evictions, a batch reorder, and a row recomputed from
        scratch (what preemption and resume does to a sequence) —
        otherwise the backend is drifting from the state it mirrors.
        """
        policy = resolve_numerics(tier)
        backend = PackedDecodeBackend(decoder, numerics=policy)
        prompts = _prompts(decoder, spec, seed=7)
        execs = _prefilled(decoder, spec, seed=7, numerics=policy)
        kinds = [kind for kind, _ in spec]
        streams = [list(prompt) for prompt in prompts]
        tokens = [3] * len(spec)
        positions = [length for _, length in spec]
        for step in range(12):
            if step == 6:  # batch reorder: every row changes arena slot
                order = np.roll(np.arange(len(spec)), 1)
                execs, kinds, streams, tokens, positions = (
                    [seq[i] for i in order]
                    for seq in (execs, kinds, streams, tokens, positions)
                )
            if step == 9:  # resume: row 1 recomputed from its tokens
                execs[1] = _executor(kinds[1], policy)
                decoder.prefill(streams[1], execs[1])
            cloned = copy.deepcopy(execs)
            incremental = decoder.decode_step_batch(
                tokens, positions, execs, backend=backend
            )
            rebuilt = decoder.decode_step_batch(
                tokens, positions, cloned,
                backend=PackedDecodeBackend(decoder, numerics=policy),
            )
            assert np.array_equal(incremental, rebuilt), f"step {step}"
            assert [e.kv_lengths() for e in execs] == [
                e.kv_lengths() for e in cloned
            ]
            for stream, token in zip(streams, tokens):
                stream.append(token)
            tokens = [int(np.argmax(row)) for row in incremental]
            positions = [p + 1 for p in positions]
        if "spatten" in kinds:
            assert max(e.evicted_kv_tokens for e in execs) > 0


class TestBatchedCascadeRoute:
    """fp32/int8 SpAtten rows without progressive quantization run the
    cascade as batch-level array ops; everything they commit must be
    what the per-sequence route commits."""

    SPEC = [("spatten", 48), ("spatten", 36), ("spatten", 20), ("spatten", 7)]

    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    def test_state_matches_per_sequence_route(self, decoder, tier):
        """Same-tier twins, one through the packed backend and one
        through the looped per-sequence ``run_layer`` path, teacher
        forced: cascade state is identical after every step."""
        backend = PackedDecodeBackend(decoder, numerics=tier)
        batched = _prefilled(decoder, self.SPEC, seed=4, numerics=tier)
        looped = _prefilled(decoder, self.SPEC, seed=4, numerics=tier)
        assert {e.packed_decode_style for e in batched} == {"pruned"}
        tokens = [1, 2, 3, 4]
        positions = [length for _, length in self.SPEC]
        for step in range(24):
            decoder.decode_step_batch(
                tokens, positions, batched, backend=backend
            )
            logits = decoder.decode_step_batch(tokens, positions, looped)
            for b, l in zip(batched, looped):
                assert b.kv_lengths() == l.kv_lengths(), step
                assert b.evicted_kv_tokens == l.evicted_kv_tokens
                assert b.n_live_heads == l.n_live_heads
                assert np.array_equal(b._alive_heads, l._alive_heads)
                assert np.array_equal(b._alive_tokens, l._alive_tokens)
                assert b.trace.n_generated == l.trace.n_generated == step + 1
                assert b.trace.count_signature() == l.trace.count_signature()
            tokens = [int(np.argmax(row)) for row in logits]
            positions = [p + 1 for p in positions]
        assert batched[0].evicted_kv_tokens > 0, "schedule never evicted"

    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    def test_engine_ledger_matches_per_sequence_route(
        self, small_world, tier, monkeypatch
    ):
        """Two engines on one trace — SpAtten rows batched in one,
        forced through ``decode_attend_packed`` in the other — hold the
        same per-sequence KV state and a clean pool ledger after N
        steps, and finish with the same streams and stats."""
        from repro.serving.request import Request

        config, model, _ = small_world
        rng = np.random.default_rng(5)
        requests = [
            Request(
                request_id=i,
                prompt_ids=rng.integers(0, config.vocab_size, size=24).tolist(),
                max_new_tokens=int(rng.integers(6, 14)),
                arrival_time=0.0005 * i,
            )
            for i in range(6)
        ]

        def engine_after(n_steps, per_sequence):
            if per_sequence:
                monkeypatch.setattr(
                    SpAttenExecutor, "packed_decode_style",
                    property(lambda self: "custom"),
                )
            pool = KVMemoryPool(
                config, budget_bytes=1 << 20, page_tokens=8
            )
            engine = ServingEngine(
                model, pool, pruning=PRUNING, numerics=tier, prefill_chunk=16
            )
            engine.start()
            for request in requests:
                engine.submit(request)
            for _ in range(n_steps):
                engine.step()
            pool.audit()
            state = {
                seq.seq_id: (
                    seq.executor.kv_lengths(),
                    seq.executor.evicted_kv_tokens,
                    seq.executor.n_live_heads,
                    seq.executor.trace.n_generated,
                    pool.reserved_pages_of(seq.seq_id),
                )
                for seq in engine.live
            }
            while engine.has_work:
                engine.step()
            stats = engine.finish()
            pool.audit()
            assert pool.allocated_pages == 0
            monkeypatch.undo()
            return state, pool, stats

        state_b, pool_b, stats_b = engine_after(8, per_sequence=False)
        state_s, pool_s, stats_s = engine_after(8, per_sequence=True)
        assert state_b and state_b == state_s
        assert stats_b.to_dict() == stats_s.to_dict()
        assert [r.token_ids for r in stats_b.records] == [
            r.token_ids for r in stats_s.records
        ]

    def test_int8_step_columns_equal_quantize_rows(self, decoder):
        """The pruned core's batch quantization (dead heads zeroed
        first) stores the codes and scales ``quantize_rows`` gives."""
        from repro.core.quantization import quantize_rows

        spec = [("spatten", 30), ("spatten", 18)]
        fp32_execs = _prefilled(decoder, spec, seed=11, numerics="fp32")
        int8_execs = _prefilled(decoder, spec, seed=11, numerics="int8")
        tokens, positions = [4, 8], [30, 18]
        decoder.decode_step_batch(
            tokens, positions, fp32_execs,
            backend=PackedDecodeBackend(decoder, numerics="fp32"),
        )
        decoder.decode_step_batch(
            tokens, positions, int8_execs,
            backend=PackedDecodeBackend(decoder, numerics="int8"),
        )
        # Layer 0 consumes identical fp32 inputs on both tiers, so the
        # fp32 cache's new layer-0 column is what the int8 core
        # quantized.
        for ex32, ex8 in zip(fp32_execs, int8_execs):
            assert ex8.n_live_heads < decoder.config.n_heads
            ref_cache, hot_cache = ex32._cache[0], ex8._cache[0]
            pos = len(ref_cache) - 1
            assert len(hot_cache) == len(ref_cache)
            for ref_plane, codes_plane, scales_plane in (
                (ref_cache.keys, hot_cache._keys, hot_cache._kscales),
                (ref_cache.values, hot_cache._values, hot_cache._vscales),
            ):
                want_codes, want_scales = quantize_rows(
                    ref_plane[:, pos, :], bits=8
                )
                assert np.array_equal(codes_plane[:, pos], want_codes)
                assert np.array_equal(scales_plane[:, pos],
                                      want_scales[:, 0])

    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    def test_progressive_quant_rows_keep_the_per_sequence_core(
        self, decoder, tier, monkeypatch
    ):
        """The route is a function of the tier and ``quant`` alone: in
        one non-exact batch the quant row takes ``decode_attend_packed``
        and the plain SpAtten row never does."""
        spec = [("spatten", 20), ("quant", 20), ("dense", 9)]
        execs = _prefilled(decoder, spec, seed=6, numerics=tier)
        assert [e.packed_decode_style for e in execs] == [
            "pruned", "custom", "dense"
        ]
        called = []
        original = SpAttenExecutor.decode_attend_packed

        def spy(self, *args, **kwargs):
            called.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpAttenExecutor, "decode_attend_packed", spy)
        logits = decoder.decode_step_batch(
            [1, 2, 3], [20, 20, 9], execs,
            backend=PackedDecodeBackend(decoder, numerics=tier),
        )
        assert np.isfinite(logits).all()
        assert called == [execs[1]] * decoder.config.n_layers
        exact = _prefilled(decoder, spec[:1], seed=6, numerics="exact")
        assert exact[0].packed_decode_style == "custom"


class TestTierMismatch:
    """One tier across the stack, or a named error — never a silent mix."""

    @pytest.mark.parametrize(
        "backend_tier,executor_tier", [("exact", "fp32"), ("fp32", "exact")]
    )
    def test_backend_refuses_other_tier_executors(
        self, decoder, backend_tier, executor_tier
    ):
        backend = PackedDecodeBackend(decoder, numerics=backend_tier)
        spec = [("dense", 5), ("spatten", 12)]
        execs = _prefilled(decoder, spec, seed=2, numerics=executor_tier)
        lengths = [ex.kv_lengths() for ex in execs]
        with pytest.raises(NumericsMismatchError, match=executor_tier):
            decoder.decode_step_batch([1, 2], [5, 12], execs, backend=backend)
        # Refused before any executor state moved.
        assert [ex.kv_lengths() for ex in execs] == lengths


class TestHotPathQuantization:
    """The int8 decode hot path inlines ``quantize_rows`` — prove it."""

    def test_inline_decode_quantization_matches_quantize_rows(self, decoder):
        from repro.core.quantization import quantize_rows

        spec = [("dense", 9), ("dense", 14)]
        fp32_execs = _prefilled(decoder, spec, seed=11, numerics="fp32")
        int8_execs = _prefilled(decoder, spec, seed=11, numerics="int8")
        fp32_backend = PackedDecodeBackend(decoder, numerics="fp32")
        int8_backend = PackedDecodeBackend(decoder, numerics="int8")
        tokens, positions = [4, 8], [9, 14]
        decoder.decode_step_batch(
            tokens, positions, fp32_execs, backend=fp32_backend
        )
        decoder.decode_step_batch(
            tokens, positions, int8_execs, backend=int8_backend
        )
        # Layer 0 consumes identical fp32 inputs on both tiers (drift
        # only compounds *after* the first attention), so the fp32
        # cache's appended layer-0 column is exactly what the int8 hot
        # path quantized.  Its stored codes and scales must equal a
        # from-scratch quantize_rows of that column, bit for bit.
        for ex32, ex8 in zip(fp32_execs, int8_execs):
            ref_cache = ex32._cache[0]
            hot_cache = ex8._cache[0]
            pos = len(ref_cache) - 1
            for ref_plane, codes_plane, scales_plane in (
                (ref_cache.keys, hot_cache._keys, hot_cache._kscales),
                (ref_cache.values, hot_cache._values, hot_cache._vscales),
            ):
                ref_col = ref_plane[:, pos, :]  # [h, D] fp32
                want_codes, want_scales = quantize_rows(ref_col, bits=8)
                assert np.array_equal(codes_plane[:, pos], want_codes)
                assert np.array_equal(scales_plane[:, pos],
                                      want_scales[:, 0])


class TestServingEngineNumerics:
    def test_unknown_tier_rejected(self, small_world):
        _, model, pool = small_world
        with pytest.raises(ValueError, match="numerics"):
            ServingEngine(model, pool, numerics="fp8")

    def test_engine_threads_policy_into_executors(self, small_world):
        _, model, pool = small_world
        engine = ServingEngine(model, pool, numerics="int8")
        assert engine.numerics is INT8
        executor = engine._make_executor(None)
        assert executor.numerics is INT8

    def test_exact_default_unchanged(self, small_world):
        _, model, pool = small_world
        engine = ServingEngine(model, pool)
        assert engine.numerics.is_exact

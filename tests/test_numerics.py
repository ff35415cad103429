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
* **The prompt pass is on the ladder** — a tier backend summarizes
  prompts in its compute dtype: next-token distributions stay inside
  the tier's declared budgets against the fp64 oracle, chunked and
  one-chunk passes agree, SpAtten keeps the oracle's per-layer token
  and head sets, int8 caches hold ``quantize_rows`` of the K/V the
  pass computed, and ``exact`` / ``backend=None`` remain the oracle.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import GPT2_SMALL, ModelConfig, PruningConfig, QuantConfig
from repro.core.pipeline import SpAttenExecutor
from repro.core.quantization import quantize_rows
from repro.nn import PackedDecodeBackend, TransformerModel, random_model
from repro.nn.batched_attention import _stage_kv_columns
from repro.nn.functional import kl_divergence, softmax
from repro.nn.kv_cache import KVRowStore, LayerKVCache
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
    make_lm_corpus,
    synthetic_request_trace,
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
            kv_dtype=np.float32, kl_budget=1e-3, argmax_budget=0.99,
        )
        assert resolve_numerics(custom) is custom
        assert not custom.is_exact

    def test_policy_fields_follow_the_storage_dtype(self):
        custom = NumericsPolicy(
            name="int8-wide", compute_dtype=np.float32,
            kv_dtype=np.int8, kl_budget=5e-2, argmax_budget=0.99,
        )
        assert custom.quantized_gemm
        assert custom.storage_bytes_per_element(2) == 1
        assert EXACT.storage_bytes_per_element(2) == 2
        assert FP32.storage_bytes_per_element(2) == 4
        assert not FP32.quantized_gemm


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
        rows' arena advances by tail writes.  Before every step each
        pruned sequence's columns are read — the barrier that brings
        them home compacted, as a rebuild holds them, since compaction
        regroups a row's reductions — and the batch is deep-copied and
        the copy decoded by a *fresh* backend: cloned caches own no
        arena row, so that side is rebuilt from cache truth.  Both must
        produce
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
            for executor in execs:
                if executor.packed_decode_style == "pruned":
                    executor.decode_kv_cache(0).keys
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
            # The dense rows stayed resident: tail writes, not rebuilds.
            assert all(
                e.decode_kv_cache(0)._store is not None for e in execs
                if e.packed_decode_style == "dense"
            )
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
            # Through the public accessors (the cache is a handle on a
            # store row): equal scales and equal dequantized columns
            # are equal codes.
            for ref_plane, hot_plane, scales_plane in (
                (ref_cache.keys, hot_cache.keys, hot_cache.key_scales),
                (ref_cache.values, hot_cache.values, hot_cache.value_scales),
            ):
                want_codes, want_scales = quantize_rows(
                    ref_plane[:, pos, :], bits=8
                )
                assert np.array_equal(scales_plane[:, pos],
                                      want_scales[:, 0])
                assert np.array_equal(
                    hot_plane[:, pos],
                    want_codes.astype(np.float32) * want_scales,
                )

    #: A scrambled batch: every style's rows interleave with the others'.
    SCRAMBLED = [("quant", 20), ("dense", 9), ("spatten", 33),
                 ("dense", 26), ("quant", 14), ("spatten", 20),
                 ("spatten", 7), ("dense", 17)]

    @staticmethod
    def _row_state(executor):
        """What a step leaves on an executor: KV lengths and, for
        SpAtten, the live heads and tokens and the trace's counts."""
        state = [executor.kv_lengths()]
        if isinstance(executor, SpAttenExecutor):
            state += [
                executor._alive_heads.tolist(),
                executor._alive_tokens.tolist(),
                executor.trace.count_signature(),
            ]
        return state

    def _prompt_and_decode(self, decoder, tier, spec, prompts, tokens):
        """One prompt step (one chunk spans every prompt) and one decode
        step (of ``tokens``) of ``spec``'s rows as one batch, through one
        backend: ``(prompt logits, decode logits, executors)``."""
        backend = PackedDecodeBackend(decoder, numerics=tier)
        logits, execs = _tier_prefill(
            decoder, backend, [kind for kind, _ in spec], prompts,
            chunk=max(len(prompt) for prompt in prompts),
        )
        step = decoder.decode_step_batch(
            tokens, [length for _, length in spec], execs, backend=backend
        )
        return np.array(logits), step, execs

    @pytest.mark.parametrize("tier", ["exact", "fp32", "int8"])
    def test_progressive_quant_rows_keep_the_per_sequence_core(
        self, decoder, tier, monkeypatch
    ):
        """The route is a function of the tier and ``quant`` alone: in
        one batch the quant rows take ``decode_attend_packed``, the one
        per-sequence core of the prompt step and the decode step alike
        (and off the exact tier the plain SpAtten rows never do) — and
        a row of a scrambled batch of dense, pruned and progressive-quant
        rows comes out of one prompt step and one decode step as it does
        from a batch of its own style: the step puts the batch into
        part order and back, and nothing else of the batch reaches a
        row.  Bit for bit on ``exact``, within the tier's test
        tolerance otherwise."""
        spec = self.SCRAMBLED
        prompts = _prompts(decoder, spec, seed=6)
        tokens = [3 + 5 * i for i in range(len(spec))]
        called = []
        original = SpAttenExecutor.decode_attend_packed

        def spy(self, *args, **kwargs):
            called.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpAttenExecutor, "decode_attend_packed", spy)
        mixed = self._prompt_and_decode(decoder, tier, spec, prompts, tokens)
        styles = [e.packed_decode_style for e in mixed[2]]
        assert styles == [
            {"dense": "dense", "quant": "custom"}.get(
                kind, "custom" if tier == "exact" else "pruned"
            )
            for kind, _ in spec
        ]
        custom = [e for e, style in zip(mixed[2], styles) if style == "custom"]
        assert called == custom * decoder.config.n_layers * 2
        for kind in ("dense", "spatten", "quant"):
            rows = [i for i, (k, _) in enumerate(spec) if k == kind]
            alone = self._prompt_and_decode(
                decoder, tier, [spec[i] for i in rows],
                [prompts[i] for i in rows], [tokens[i] for i in rows],
            )
            for j, i in enumerate(rows):
                for got, want in zip(mixed[:2], alone[:2]):
                    assert got[i].dtype == want[j].dtype
                    if tier == "exact":
                        assert np.array_equal(got[i], want[j]), (kind, i)
                    else:
                        assert np.allclose(
                            got[i], want[j], rtol=1e-4, atol=1e-4
                        ), (kind, i)
                assert self._row_state(mixed[2][i]) == self._row_state(
                    alone[2][j]
                ), (kind, i)


def _tier_prefill(model, backend, kinds, prompts, chunk):
    """Prefill ``prompts`` together through ``backend``, ``chunk`` tokens
    a step; returns ``(logits, executors)``."""
    states = [
        model.prefill_begin(prompt, _executor(kind, backend.policy))
        for kind, prompt in zip(kinds, prompts)
    ]
    logits = [None] * len(states)
    while not all(state.done for state in states):
        open_ = [i for i, state in enumerate(states) if not state.done]
        out = model.prefill_chunk_batch(
            [states[i] for i in open_], chunk, backend=backend
        )
        for i, row in zip(open_, out):
            if row is not None:
                logits[i] = row
    return logits, [state.executor for state in states]


class TestTierPrefill:
    """A non-exact backend runs the prompt pass in its compute dtype."""

    # Ragged lengths: 65 leaves a trailing single-row chunk at chunk 32
    # (absorbed into its predecessor), 1 is a one-row prompt, 40 ends
    # mid-chunk.
    LENGTHS = (96, 65, 40, 1)

    @pytest.fixture(scope="class")
    def world(self):
        vocab = build_vocabulary(size=512, n_classes=4, seed=0)
        config = accuracy_scale_config(
            GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
            max_seq_len=160,
        )
        model, _ = build_task_model(config, vocab, "lm", seed=0)
        corpus = make_lm_corpus(vocab, n_tokens=2048, seed=2)
        rng = np.random.default_rng(21)
        prompts = [
            rng.integers(0, config.vocab_size, size=n).tolist()
            for n in self.LENGTHS
        ]
        return config, model, corpus, prompts

    @pytest.mark.smoke
    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    @pytest.mark.parametrize("kind", ["dense", "spatten"])
    def test_next_token_distribution_within_declared_budget(
        self, world, tier, kind
    ):
        _, model, _, prompts = world
        policy = resolve_numerics(tier)
        backend = PackedDecodeBackend(model, numerics=policy)
        logits, _ = _tier_prefill(
            model, backend, [kind] * len(prompts), prompts, chunk=32
        )
        oracle = [model.prefill(p, _executor(kind)) for p in prompts]
        assert all(row.dtype == policy.compute_dtype for row in logits)
        kl = np.mean([
            kl_divergence(softmax(o), softmax(t))
            for o, t in zip(oracle, logits)
        ])
        match = np.mean([
            int(np.argmax(o)) == int(np.argmax(t))
            for o, t in zip(oracle, logits)
        ])
        assert kl <= policy.kl_budget
        assert match >= policy.argmax_budget

    @pytest.mark.parametrize("tier,tol", [("fp32", 1e-4), ("int8", 1e-4)])
    @pytest.mark.parametrize("kind", ["dense", "spatten"])
    def test_chunked_agrees_with_one_chunk(self, world, tier, tol, kind):
        """Same tier, same prompts: 32-token chunks (batched across the
        ragged prompts) vs each prompt in one chunk on its own."""
        _, model, _, prompts = world
        backend = PackedDecodeBackend(model, numerics=tier)
        kinds = [kind] * len(prompts)
        chunked, chunked_execs = _tier_prefill(
            model, backend, kinds, prompts, chunk=32
        )
        for i, prompt in enumerate(prompts):
            (whole,), (executor,) = _tier_prefill(
                model, backend, [kind], [prompt], chunk=len(prompt)
            )
            assert np.allclose(chunked[i], whole, rtol=tol, atol=tol)
            assert executor.kv_lengths() == chunked_execs[i].kv_lengths()

    def test_plane_budget_splits_the_batch_not_the_result(
        self, world, monkeypatch
    ):
        """The pruned prompts of a step share padded score planes in
        blocks under a scratch budget: one block, two, or one per
        prompt commit the same decisions and the same logits."""
        import repro.nn.batched_attention as batched_attention

        config, model, _, prompts = world
        outcomes = []
        # Two 96-token planes' worth keeps [96, 65] and [40, 1] apart.
        two_planes = 2 * config.n_heads * 96 * 96 * 4
        for budget in (batched_attention._PROMPT_PLANE_BYTES, two_planes, 1):
            monkeypatch.setattr(
                batched_attention, "_PROMPT_PLANE_BYTES", budget
            )
            backend = PackedDecodeBackend(model, numerics="fp32")
            logits, execs = _tier_prefill(
                model, backend, ["spatten"] * len(prompts), prompts,
                chunk=config.max_seq_len,
            )
            outcomes.append((logits, [e.kv_lengths() for e in execs]))
        for logits, kv_lengths in outcomes[1:]:
            assert kv_lengths == outcomes[0][1]
            for mine, theirs in zip(logits, outcomes[0][0]):
                assert np.allclose(mine, theirs, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("tier", ["fp32", "int8"])
    def test_spatten_commits_the_oracle_pruning_decisions(self, world, tier):
        """Importance accumulates in fp64 on every tier, so the tier's
        pass keeps the oracle's tokens and heads at every layer."""
        config, model, _, prompts = world
        prompts = prompts[:3]
        backend = PackedDecodeBackend(model, numerics=tier)
        _, tier_execs = _tier_prefill(
            model, backend, ["spatten"] * len(prompts), prompts, chunk=32
        )
        for prompt, executor in zip(prompts, tier_execs):
            oracle = _executor("spatten")
            model.prefill(prompt, oracle)
            assert executor.kv_lengths() == oracle.kv_lengths()
            assert executor.kv_lengths()[-1] < len(prompt)
            assert np.array_equal(executor._alive_heads, oracle._alive_heads)
            assert len(oracle._alive_heads) < config.n_heads
            assert np.array_equal(executor._alive_mask, oracle._alive_mask)
            assert (executor.trace.count_signature()
                    == oracle.trace.count_signature())
            for layer_idx in range(config.n_layers):
                mine = executor._cache[layer_idx]
                theirs = oracle._cache[layer_idx]
                assert np.array_equal(mine.token_ids, theirs.token_ids)
                # A pruned head's columns are stored as zeros.
                live = lambda cache: np.abs(cache.keys).sum(axis=(1, 2)) > 0
                assert np.array_equal(live(mine), live(theirs))

    @pytest.mark.parametrize("kind", ["dense", "spatten"])
    def test_int8_cache_holds_quantize_rows_of_the_computed_kv(
        self, world, kind, monkeypatch
    ):
        """Codes and scales come from the fp32 K/V the pass computed —
        for SpAtten from the live heads only, the pruned heads' columns
        being what ``quantize_rows`` makes of a zero row.  Neither family
        calls the per-sequence append: every block is quantized in the
        store core, and an fp32 twin computes the columns it quantized.
        A SpAtten prompt block attends to the K/V it has just computed,
        so its twin matches at every layer, pruned heads as zeros; a
        dense block reads its columns back dequantized, so its twin
        matches at the first layer (the embeddings' K/V) and the core's
        own inputs are the computed K/V at every layer."""
        import repro.nn.batched_attention as batched_attention

        config, model, _, prompts = world
        appended = []
        monkeypatch.setattr(
            LayerKVCache, "append",
            lambda cache, *args, **kwargs: appended.append(cache),
        )
        entering = {}
        core = batched_attention._store_core

        def core_spy(backend, store, block, heads, out):
            entering.setdefault(id(store), []).append(np.array(heads[:, 1:]))
            return core(backend, store, block, heads, out)

        monkeypatch.setattr(batched_attention, "_store_core", core_spy)
        backend = PackedDecodeBackend(model, numerics="int8")
        _, (executor,) = _tier_prefill(
            model, backend, [kind], prompts[:1], chunk=32
        )
        style = "pruned" if kind == "spatten" else "dense"
        stores = backend._tables[style].members
        _, (twin,) = _tier_prefill(
            model, PackedDecodeBackend(model, numerics="fp32"),
            [kind], prompts[:1], chunk=32,
        )
        assert not appended
        if kind == "spatten":
            assert len(twin._alive_heads) < config.n_heads
        for layer_idx in range(config.n_layers):
            cache = executor._cache[layer_idx]
            if kind == "spatten" or layer_idx == 0:
                computed = twin._cache[layer_idx]
                k_full, v_full = computed.keys, computed.values
            if kind == "dense":
                # [N, 2, h, D], chunk after chunk, as the core took them.
                kv = np.concatenate(entering[id(stores[layer_idx])])
                if layer_idx == 0:
                    assert np.array_equal(kv[:, 0].transpose(1, 0, 2), k_full)
                    assert np.array_equal(kv[:, 1].transpose(1, 0, 2), v_full)
                k_full, v_full = kv.transpose(1, 2, 0, 3)
            assert k_full.shape[1] == len(cache)
            # Through the public accessors (a store row's cache is a
            # handle on it): equal scales and equal dequantized columns
            # are equal codes.
            for plane, columns, scales in (
                (k_full, cache.keys, cache.key_scales),
                (v_full, cache.values, cache.value_scales),
            ):
                want_codes, want_scales = quantize_rows(plane)
                assert np.array_equal(scales, want_scales[..., 0])
                assert np.array_equal(
                    columns, want_codes.astype(np.float32) * want_scales
                )

    def test_pruned_int8_decode_on_codes_tracks_dequantized_attend(
        self, world, monkeypatch
    ):
        """A pruned int8 decode step attends on its codes, the scales
        folded into the scores and the A·V operand; stores that keep
        dequantized planes — as the dense rows' do — attend on those:
        the dequantize-then-attend route.  Teacher-forced, the two agree
        to the tier's tolerance and keep the same KV lengths, live
        heads and alive masks at every step."""
        config, model, _, prompts = world
        prompts = prompts[:3]
        steps = 16
        tokens = np.random.default_rng(5).integers(
            0, config.vocab_size, size=(steps, len(prompts))
        ).tolist()

        def run(dequantized):
            if dequantized:
                init = KVRowStore.__init__
                monkeypatch.setattr(
                    KVRowStore, "__init__",
                    lambda store, like, dequantized=False: init(
                        store, like, like.quantized
                    ),
                )
            backend = PackedDecodeBackend(model, numerics="int8")
            _, execs = _tier_prefill(
                model, backend, ["spatten"] * len(prompts), prompts,
                chunk=32,
            )
            positions = [len(prompt) for prompt in prompts]
            trail = []
            for step in tokens:
                logits = model.decode_step_batch(
                    step, positions, execs, backend=backend
                )
                trail.append((np.array(logits), [
                    (e.kv_lengths(), e._alive_heads.tolist(),
                     e._alive_mask.tolist())
                    for e in execs
                ]))
                positions = [p + 1 for p in positions]
            stores = backend._tables["pruned"].members[:-1]
            assert {len(store.planes) for store in stores} == {
                6 if dequantized else 4
            }
            monkeypatch.undo()
            return trail, execs

        folded, execs = run(dequantized=False)
        reference, _ = run(dequantized=True)
        assert sum(e.evicted_kv_tokens for e in execs) > 0
        for (mine, my_state), (theirs, their_state) in zip(
            folded, reference
        ):
            assert np.allclose(mine, theirs, rtol=1e-4, atol=1e-4)
            assert my_state == their_state

    def test_exact_backend_and_no_backend_stay_the_oracle(self, world):
        _, model, _, prompts = world
        exact = PackedDecodeBackend(model, numerics="exact")
        for kind in ("dense", "spatten"):
            oracle = [model.prefill(p, _executor(kind)) for p in prompts]
            packed, _ = _tier_prefill(
                model, exact, [kind] * len(prompts), prompts, chunk=32
            )
            for o, t in zip(oracle, packed):
                assert np.array_equal(o, t)
            # Tier executors without a tier backend: fp64 math over
            # tier storage, as before.
            stored = model.prefill(prompts[0], _executor(kind, "fp32"))
            assert stored.dtype == np.float64
            assert np.allclose(stored, oracle[0], rtol=1e-4, atol=1e-4)

    def test_out_of_range_prompt_is_rejected(self, world):
        config, model, _, _ = world
        backend = PackedDecodeBackend(model, numerics="fp32")
        state = model.prefill_begin(
            [1, config.vocab_size], _executor("dense", "fp32")
        )
        with pytest.raises(ValueError, match="vocabulary"):
            model.prefill_chunk_batch([state], 8, backend=backend)
        state = model.prefill_begin(
            [1] * (config.max_seq_len + 1), _executor("dense", "fp32")
        )
        with pytest.raises(ValueError, match="max_seq_len"):
            model.prefill_chunk_batch([state], 1000, backend=backend)

    @pytest.mark.parametrize("route", ["looped", "exact", "fp32"])
    def test_out_of_range_decode_position_is_rejected(self, world, route):
        """Position -1 would read ``pos_embedding[-1]`` and label the new
        column with the row store's ``NO_TOKEN``."""
        config, model, _, prompts = world
        numerics = "exact" if route == "looped" else route
        backend = (
            None if route == "looped"
            else PackedDecodeBackend(model, numerics=numerics)
        )
        executor = _executor("dense", numerics)
        model.prefill(prompts[0], executor)
        for position, match in [
            (-1, "non-negative"), (config.max_seq_len, "max_seq_len"),
        ]:
            with pytest.raises(ValueError, match=match):
                model.decode_step_batch(
                    [4], [position], [executor], backend=backend
                )

    @pytest.mark.parametrize("prefill_chunk", [8, None])
    def test_engine_prompt_pass_runs_at_the_engine_tier(
        self, world, prefill_chunk, monkeypatch
    ):
        """Every chunk size — ``None`` is one chunk spanning any prompt —
        enters the model through the backend on every tier, so the
        prompt pass never silently stays fp64 on fp32."""
        config, model, corpus, _ = world
        calls = []
        step = PackedDecodeBackend.step

        def spy(backend, model_, token_ids, positions, executors, states,
                max_tokens):
            if states:
                calls.append(max_tokens)
            return step(backend, model_, token_ids, positions, executors,
                        states, max_tokens)

        monkeypatch.setattr(PackedDecodeBackend, "step", spy)
        requests = synthetic_request_trace(
            corpus, n_requests=4, rate_per_s=2000.0, prompt_len=24,
            max_new_tokens=(4, 8), seed=3,
        )
        streams = {}
        for tier in ("exact", "fp32"):
            calls.clear()
            pool = KVMemoryPool(
                config,
                budget_bytes=160 * 8 * 2 * config.n_heads * config.head_dim
                * config.bytes_per_element,
                page_tokens=8,
            )
            engine = ServingEngine(
                model, pool, pruning=PRUNING, prefill_chunk=prefill_chunk,
                numerics=tier,
            )
            stats = engine.run(requests)
            streams[tier] = [list(r.token_ids) for r in stats.records]
            assert set(calls) == {prefill_chunk or config.max_seq_len}
        assert streams["fp32"] == streams["exact"]

    SERVED = PruningConfig(
        token_keep_final=0.3, head_keep_final=0.625, value_keep=0.9
    )

    # The SpAtten cells keep the ids they have always had.  "mid-decode"
    # evicts a sequence some steps into its generation; "after-prompt"
    # one whose prompt pass just completed and which has not decoded
    # yet — a pruned row is resident in the backend's stores by then;
    # "mid-prompt" a dense one between two prompt chunks, resident
    # since its first.
    FAMILY_X_TIER_X_WHEN = pytest.mark.parametrize("family,tier,when", [
        pytest.param(
            family, tier, "mid-decode",
            id=tier if family == "spatten" else f"{family}-{tier}",
        )
        for family in ("spatten", "dense")
        for tier in ("fp32", "int8")
    ] + [
        pytest.param("spatten", tier, "after-prompt",
                     id=f"{tier}-after-prompt")
        for tier in ("fp32", "int8")
    ] + [
        pytest.param("dense", tier, when, id=f"dense-{tier}-{when}",
                     marks=pytest.mark.smoke)
        for when in ("after-prompt", "mid-prompt")
        for tier in ("fp32", "int8")
    ])

    def _engine(self, world, family, tier, pages, admission):
        config, model, _, _ = world
        pool = KVMemoryPool(
            config,
            budget_bytes=pages * 8 * 2 * config.n_heads * config.head_dim
            * config.bytes_per_element,
            page_tokens=8,
        )
        engine = ServingEngine(
            model, pool,
            pruning=self.SERVED if family == "spatten" else None,
            prefill_chunk=8, admission=admission, numerics=tier,
        )
        return engine, pool

    @staticmethod
    def _streams(stats):
        assert all(
            r.n_generated == r.request.max_new_tokens for r in stats.records
        )
        return {r.request.request_id: list(r.token_ids) for r in stats.records}

    def _evict_resident_and_replay(self, world, family, tier, when, evict):
        """Run a trace clean, then again with one resident sequence
        evicted by ``evict(engine, pool, victim)`` at ``when``: the
        streams agree, the ledger audits clean and the evicted
        executor, dense or pruned, leaves no row behind in the
        backend's stores.  Returns the faulted run's stats."""
        requests = synthetic_request_trace(
            world[2], n_requests=6, rate_per_s=2000.0, prompt_len=24,
            max_new_tokens=(12, 24), seed=11,
        )
        engine, pool = self._engine(world, family, tier, 160, "reserve")
        clean = self._streams(engine.run(requests))

        engine.start()
        for request in requests:
            engine.submit(request)
        if when == "after-prompt":
            # Promoted by the step its last chunk landed in: the first
            # token is sampled from the prompt's logits, no decode yet.
            while not any(s.record.n_generated == 1 for s in engine.live):
                engine.step()
            victim = next(
                s for s in engine.live if s.record.n_generated == 1
            )
        elif when == "mid-prompt":
            # Chunks of 8 over 24-token prompts: committed, not done.
            while not any(s.state.n_committed for s in engine.prefilling):
                engine.step()
            victim = next(s for s in engine.prefilling if s.state.n_committed)
        else:
            while len(engine.live) < 3:
                engine.step()
            for _ in range(3):
                engine.step()
            victim = engine.live[1]
        caches = [
            victim.executor.decode_kv_cache(layer)
            for layer in range(world[0].n_layers)
        ]
        (table,) = engine._backend._tables.values()  # one style served
        assert all(c._store is s for c, s in zip(caches, table.members))
        evict(engine, pool, victim)
        assert victim not in engine.live + engine.prefilling
        for cache in caches:
            assert cache._store is None
            assert cache._seat is None or cache._seat.table is None
            assert all(cache not in seat.parts for seat in table.seats)
        while engine.has_work:
            engine.step()
        stats = engine.finish()
        pool.audit()
        assert stats.recompute_tokens > 0
        assert self._streams(stats) == clean
        return stats

    @FAMILY_X_TIER_X_WHEN
    def test_preempted_spatten_request_replays_its_stream(
        self, world, family, tier, when
    ):
        """ROADMAP item 12's cross product: family x preemption x tier.
        A preempted request recomputes its prompt through the tier's
        prompt pass and must continue the stream it had."""
        if when != "mid-decode":
            stats = self._evict_resident_and_replay(
                world, family, tier, when,
                lambda engine, pool, victim: engine._preempt(
                    victim, engine.clock
                ),
            )
            assert stats.n_preemptions == 1
            return
        requests = synthetic_request_trace(
            world[2], n_requests=16, rate_per_s=2000.0, prompt_len=24,
            max_new_tokens=(12, 24), seed=11,
        )

        def run(pages, admission):
            engine, pool = self._engine(world, family, tier, pages, admission)
            stats = engine.run(requests)
            pool.audit()
            return stats

        roomy = run(160, "reserve")
        tight = run(36, "optimistic")
        assert tight.n_preemptions > 0 and tight.recompute_tokens > 0
        assert self._streams(tight) == self._streams(roomy)

    @FAMILY_X_TIER_X_WHEN
    def test_quarantined_spatten_request_replays_its_stream(
        self, world, family, tier, when
    ):
        """Family x quarantine x tier: a corrupted page costs its
        sequence a recompute, never a token."""

        def corrupt(engine, pool, victim):
            layer = next(
                i for i, n in enumerate(
                    pool.allocated_pages_per_layer(victim.seq_id)
                ) if n
            )
            pool.corrupt_page(victim.seq_id, layer, 0)
            engine.step()  # detects, quarantines, requeues for recompute
            assert pool.n_quarantined == 1

        stats = self._evict_resident_and_replay(
            world, family, tier, when, corrupt
        )
        assert stats.n_corruptions == 1


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


@st.composite
def _kv_blocks(draw):
    """A block's ``[N, h, D]`` fp32 K and V columns: one-row blocks,
    all-zero rows (scale 1.0) and magnitudes near the top of fp32 (kept
    below the range whose dequantized columns would round to inf)."""
    shape = draw(st.tuples(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 16)
    ))
    top = float(np.float32(1e38))
    finite = st.floats(-top, top, width=32)
    k, v = (
        draw(hnp.arrays(np.float32, shape, elements=finite))
        for _ in "kv"
    )
    for plane in (k, v):
        plane[draw(hnp.arrays(bool, shape[:2]))] = 0.0
    return k, v


class TestHotPathQuantization:
    """The int8 decode hot path inlines ``quantize_rows`` — prove it."""

    @given(block=_kv_blocks())
    @settings(max_examples=80, deadline=None)
    def test_staging_equals_quantize_rows(self, decoder, block):
        """One ``[D, 2·N·h]`` pass stages codes and scales bit-identical
        to ``quantize_rows`` of each row, and the dequantized columns a
        store that keeps them takes, for stores of four and six
        planes."""
        k, v = block
        backend = PackedDecodeBackend(decoder, numerics="int8")
        for n_planes in (4, 6):
            planes = _stage_kv_columns(backend, k, v, n_planes)
            assert len(planes) == n_planes
            for i, columns in enumerate((k, v)):
                want_codes, want_scales = quantize_rows(columns, bits=8)
                codes, scales = planes[i], planes[2 + i]
                assert codes.dtype == np.int8
                assert np.array_equal(codes, want_codes)
                assert scales.dtype == np.float32
                assert np.array_equal(scales, want_scales[..., 0])
                if n_planes == 6:
                    assert np.array_equal(
                        planes[4 + i],
                        want_codes.astype(np.float32) * want_scales,
                    )

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
            for ref_plane, hot_plane, scales_plane in (
                (ref_cache.keys, hot_cache.keys, hot_cache.key_scales),
                (ref_cache.values, hot_cache.values, hot_cache.value_scales),
            ):
                ref_col = ref_plane[:, pos, :]  # [h, D] fp32
                want_codes, want_scales = quantize_rows(ref_col, bits=8)
                # Equal scales and equal dequantized columns are equal
                # codes.
                assert np.array_equal(scales_plane[:, pos],
                                      want_scales[:, 0])
                assert np.array_equal(
                    hot_plane[:, pos],
                    want_codes.astype(np.float32) * want_scales,
                )


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

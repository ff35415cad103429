"""Unit and integration tests for the transformer models."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.nn import (
    DenseExecutor,
    TransformerModel,
    random_model,
    softmax,
)
from repro.nn.attention import causal_mask, scaled_dot_attention


class TestEmbedding:
    def test_embed_shape(self, tiny_encoder):
        x = tiny_encoder.embed([1, 2, 3])
        assert x.shape == (3, 32)

    def test_embed_includes_positions(self, tiny_encoder):
        a = tiny_encoder.embed([5])
        b = tiny_encoder.embed([5], position_offset=3)
        assert not np.allclose(a, b)

    def test_embed_validates_vocab(self, tiny_encoder):
        with pytest.raises(ValueError):
            tiny_encoder.embed([999])

    def test_embed_validates_length(self, tiny_encoder):
        with pytest.raises(ValueError):
            tiny_encoder.embed([0] * 1000)

    def test_embed_rejects_negative_offset(self, tiny_encoder):
        with pytest.raises(ValueError, match="non-negative"):
            tiny_encoder.embed([1, 2], position_offset=-2)

    def test_embed_rejects_2d(self, tiny_encoder):
        with pytest.raises(ValueError):
            tiny_encoder.embed(np.zeros((2, 2), dtype=int))

    def test_embed_rejects_empty_sequence(self, tiny_encoder):
        """An empty prompt used to die with an opaque IndexError on
        ``positions[-1]``; it must raise a named ValueError instead."""
        with pytest.raises(ValueError, match="empty token sequence"):
            tiny_encoder.embed([])
        with pytest.raises(ValueError, match="empty token sequence"):
            tiny_encoder.embed(np.zeros(0, dtype=np.int64))


class TestEncode:
    def test_output_shape(self, tiny_encoder, sample_tokens):
        result = tiny_encoder.encode(sample_tokens)
        assert result.hidden.shape == (len(sample_tokens), 32)
        assert len(result.records) == 4
        assert np.array_equal(result.positions, np.arange(len(sample_tokens)))

    def test_deterministic(self, tiny_encoder, sample_tokens):
        a = tiny_encoder.encode(sample_tokens).hidden
        b = tiny_encoder.encode(sample_tokens).hidden
        assert np.array_equal(a, b)

    def test_pooling_strategies(self, tiny_encoder, sample_tokens):
        result = tiny_encoder.encode(sample_tokens)
        assert result.pooled("cls").shape == (32,)
        assert result.pooled("mean").shape == (32,)
        with pytest.raises(ValueError):
            result.pooled("max")

    def test_config_param_mismatch_rejected(self, tiny_encoder_config):
        params = random_model(tiny_encoder_config, seed=0)
        bad = tiny_encoder_config.with_overrides(n_layers=5)
        with pytest.raises(ValueError):
            TransformerModel(bad, params)


class TestGenerate:
    def test_generates_requested_tokens(self, tiny_decoder, sample_tokens):
        result = tiny_decoder.generate(sample_tokens, n_new_tokens=6)
        assert result.n_generated == 6
        assert all(0 <= t < 64 for t in result.token_ids)

    def test_generate_requires_causal(self, tiny_encoder, sample_tokens):
        with pytest.raises(ValueError):
            tiny_encoder.generate(sample_tokens, 2)

    def test_greedy_is_deterministic(self, tiny_decoder, sample_tokens):
        a = tiny_decoder.generate(sample_tokens, 5).token_ids
        b = tiny_decoder.generate(sample_tokens, 5).token_ids
        assert a == b

    def test_custom_sampler_used(self, tiny_decoder, sample_tokens):
        result = tiny_decoder.generate(
            sample_tokens, 3, sampler=lambda logits: 7
        )
        assert result.token_ids == [7, 7, 7]

    def test_incremental_decode_matches_batch_attention(self, tiny_decoder, rng):
        """KV-cache decoding must equal full causal recomputation.

        Run the summarization over ``prompt + generated`` in one batch
        and check the final next-token distribution matches the one the
        incremental path produced.
        """
        prompt = rng.integers(0, 64, size=10).tolist()
        gen = tiny_decoder.generate(prompt, n_new_tokens=3)
        full_sequence = prompt + gen.token_ids[:2]
        batch_dist = tiny_decoder.next_token_distribution(full_sequence)
        incremental_logits = gen.logits[2]
        assert np.allclose(softmax(incremental_logits), batch_dist, atol=1e-9)


class TestNextTokenDistribution:
    def test_is_distribution(self, tiny_decoder, sample_tokens):
        dist = tiny_decoder.next_token_distribution(sample_tokens)
        assert dist.shape == (64,)
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_requires_causal(self, tiny_encoder, sample_tokens):
        with pytest.raises(ValueError):
            tiny_encoder.next_token_distribution(sample_tokens)


class TestDenseExecutorEquivalence:
    def test_encoder_attention_matches_direct_computation(self, tiny_encoder, rng):
        """The executor path must equal plain scaled-dot attention."""
        tokens = rng.integers(0, 64, size=8).tolist()
        result = tiny_encoder.encode(tokens, executor=DenseExecutor())
        x = tiny_encoder.embed(tokens)
        attn = tiny_encoder.attention(0)
        q = attn.project_q(x)
        k, v = attn.project_kv(x)
        _, probs = scaled_dot_attention(q, k, v)
        assert np.allclose(result.records[0].probs, probs)

    def test_causal_records_have_growing_keys(self, tiny_decoder, sample_tokens):
        """Each decode step attends over one more key: the dense cache
        grows one column per step in every layer."""
        executor = DenseExecutor()
        logits = tiny_decoder.prefill(sample_tokens, executor)
        assert executor.kv_lengths() == [len(sample_tokens)] * 4
        for position in range(len(sample_tokens), len(sample_tokens) + 3):
            logits = tiny_decoder.decode_step_batch(
                [int(np.argmax(logits))], [position], [executor]
            )[0]
            assert executor.kv_lengths() == [position + 1] * 4


class TestChunkedPrefill:
    """Resumable prefill (prefill_begin / prefill_chunk) bit-equivalence."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8, 64])
    def test_dense_chunked_logits_bit_identical(
        self, tiny_decoder, sample_tokens, chunk
    ):
        mono_executor = DenseExecutor()
        mono = tiny_decoder.prefill(sample_tokens, mono_executor)
        executor = DenseExecutor()
        state = tiny_decoder.prefill_begin(sample_tokens, executor)
        logits = None
        while not state.done:
            logits = tiny_decoder.prefill_chunk(state, chunk)
        assert np.array_equal(logits, mono)
        assert np.array_equal(state.logits, mono)
        # The KV caches are byte-for-byte the monolithic ones too.
        for layer in range(tiny_decoder.config.n_layers):
            assert np.array_equal(
                executor._cache[layer].keys, mono_executor._cache[layer].keys
            )
            assert np.array_equal(
                executor._cache[layer].values,
                mono_executor._cache[layer].values,
            )

    def test_single_token_prompt(self, tiny_decoder):
        mono = tiny_decoder.prefill([5], DenseExecutor())
        state = tiny_decoder.prefill_begin([5], DenseExecutor())
        assert np.array_equal(tiny_decoder.prefill_chunk(state, 4), mono)

    def test_batch_mixes_prompt_lengths(self, tiny_decoder, rng):
        prompts = [
            rng.integers(0, 64, size=n).tolist() for n in (5, 11, 20)
        ]
        states = [tiny_decoder.prefill_begin(p) for p in prompts]
        done = {}
        remaining = list(states)
        while remaining:
            for state, logits in zip(
                remaining, tiny_decoder.prefill_chunk_batch(remaining, 4)
            ):
                if logits is not None:
                    done[id(state)] = logits
            remaining = [s for s in remaining if not s.done]
        for prompt, state in zip(prompts, states):
            mono = tiny_decoder.prefill(prompt, DenseExecutor())
            assert np.array_equal(done[id(state)], mono)

    def test_chunked_then_decode_matches_generate(
        self, tiny_decoder, sample_tokens
    ):
        reference = tiny_decoder.generate(sample_tokens, 5).token_ids
        state = tiny_decoder.prefill_begin(sample_tokens)
        logits = None
        while not state.done:
            logits = tiny_decoder.prefill_chunk(state, 7)
        tokens = [int(np.argmax(logits))]
        position = len(sample_tokens)
        for _ in range(4):
            step = tiny_decoder.decode_step_batch(
                [tokens[-1]], [position], [state.executor]
            )
            tokens.append(int(np.argmax(step[0])))
            position += 1
        assert tokens == reference

    def test_spans_never_leave_single_row_chunks(self, tiny_decoder):
        state = tiny_decoder.prefill_begin(list(range(9)))
        spans = []
        while not state.done:
            start, end = state.next_span(4)
            spans.append((start, end))
            tiny_decoder.prefill_chunk(state, 4)
        assert spans == [(0, 4), (4, 9)]  # 1-token orphan absorbed
        # And a chunk size of 1 is silently widened to 2 rows.
        state = tiny_decoder.prefill_begin(list(range(4)))
        assert state.next_span(1) == (0, 2)

    def test_validation(self, tiny_encoder, tiny_decoder, sample_tokens):
        with pytest.raises(ValueError, match="causal"):
            tiny_encoder.prefill_begin(sample_tokens)
        with pytest.raises(ValueError):
            tiny_decoder.prefill_begin([])
        state = tiny_decoder.prefill_begin(sample_tokens)
        with pytest.raises(ValueError, match="max_tokens"):
            tiny_decoder.prefill_chunk(state, 0)
        while not state.done:
            tiny_decoder.prefill_chunk(state, 64)
        with pytest.raises(ValueError, match="complete"):
            tiny_decoder.prefill_chunk(state, 4)

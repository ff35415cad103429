"""Integration tests for the SpAttenExecutor (the full algorithm stack)."""

import numpy as np
import pytest

from repro.config import PruningConfig, QuantConfig
from repro.core import SpAttenExecutor, spatten_trace
from repro.nn import DenseExecutor


@pytest.fixture
def full_stack_executor(moderate_pruning, progressive_quant):
    return SpAttenExecutor(pruning=moderate_pruning, quant=progressive_quant)


class TestEncoderPath:
    def test_identity_when_disabled(self, tiny_encoder, sample_tokens):
        """With pruning and quantization off the executor must reproduce
        dense attention bit-for-bit."""
        dense = tiny_encoder.encode(sample_tokens, executor=DenseExecutor())
        spatten = tiny_encoder.encode(sample_tokens, executor=SpAttenExecutor())
        assert np.allclose(dense.hidden, spatten.hidden, atol=1e-10)
        assert np.array_equal(dense.positions, spatten.positions)

    def test_measured_trace_matches_analytic(
        self, tiny_encoder, sample_tokens, moderate_pruning, progressive_quant
    ):
        executor = SpAttenExecutor(moderate_pruning, progressive_quant)
        tiny_encoder.encode(sample_tokens, executor=executor)
        analytic = spatten_trace(
            tiny_encoder.config, moderate_pruning, progressive_quant,
            len(sample_tokens),
        )
        assert executor.trace.count_signature() == analytic.count_signature()

    def test_cls_always_survives(self, tiny_encoder, sample_tokens):
        executor = SpAttenExecutor(PruningConfig(token_keep_final=0.15))
        result = tiny_encoder.encode(sample_tokens, executor=executor)
        assert 0 in result.positions
        result.pooled("cls")  # must not raise

    def test_cascade_monotonicity(self, tiny_encoder, sample_tokens):
        """Once pruned, a token never reappears: the live sets across
        layers form a decreasing chain."""
        executor = SpAttenExecutor(PruningConfig(token_keep_final=0.3))
        result = tiny_encoder.encode(sample_tokens, executor=executor)
        previous = set(range(len(sample_tokens)))
        for record in result.records:
            current = set(int(t) for t in record.key_token_ids)
            assert current.issubset(previous)
            previous = current

    def test_head_cascade_monotonicity(self, tiny_encoder, sample_tokens):
        executor = SpAttenExecutor(PruningConfig(head_keep_final=0.5))
        result = tiny_encoder.encode(sample_tokens, executor=executor)
        previous = set(range(4))
        for record in result.records:
            current = set(int(h) for h in record.head_ids)
            assert current.issubset(previous)
            previous = current
        assert len(previous) == 2

    def test_moderate_pruning_output_close_to_dense(
        self, tiny_encoder, sample_tokens
    ):
        """Pruning the least-attended half of tokens perturbs the CLS
        feature, but far less than the feature scale."""
        dense = tiny_encoder.encode(sample_tokens).pooled("cls")
        executor = SpAttenExecutor(PruningConfig(token_keep_final=0.6))
        pruned = tiny_encoder.encode(
            sample_tokens, executor=executor
        ).pooled("cls")
        rel_err = np.linalg.norm(pruned - dense) / np.linalg.norm(dense)
        assert rel_err < 0.8

    def test_quantization_only_perturbs_slightly(self, tiny_encoder, sample_tokens):
        dense = tiny_encoder.encode(sample_tokens).hidden
        executor = SpAttenExecutor(
            quant=QuantConfig(msb_bits=12, lsb_bits=4, progressive=False)
        )
        quantized = tiny_encoder.encode(sample_tokens, executor=executor).hidden
        rel = np.abs(quantized - dense).mean() / np.abs(dense).mean()
        assert rel < 0.15

    def test_aggressive_msb_hurts_more_than_full(self, tiny_encoder, sample_tokens):
        dense = tiny_encoder.encode(sample_tokens).hidden

        def error(quant):
            out = tiny_encoder.encode(
                sample_tokens, executor=SpAttenExecutor(quant=quant)
            ).hidden
            return np.abs(out - dense).mean()

        err4 = error(QuantConfig(msb_bits=4, lsb_bits=4, progressive=False))
        err12 = error(QuantConfig(msb_bits=12, lsb_bits=4, progressive=False))
        assert err4 > err12

    def test_progressive_at_least_as_accurate_as_static(
        self, tiny_encoder, sample_tokens
    ):
        dense = tiny_encoder.encode(sample_tokens).hidden

        def error(progressive):
            quant = QuantConfig(
                msb_bits=4, lsb_bits=4, progressive=progressive, threshold=0.5
            )
            out = tiny_encoder.encode(
                sample_tokens, executor=SpAttenExecutor(quant=quant)
            ).hidden
            return np.abs(out - dense).mean()

        assert error(True) <= error(False) + 1e-12

    def test_value_pruning_reported_in_records(self, tiny_encoder, sample_tokens):
        executor = SpAttenExecutor(PruningConfig(value_keep=0.5))
        result = tiny_encoder.encode(sample_tokens, executor=executor)
        for record in result.records:
            assert record.value_kept is not None
            assert np.all(record.value_kept == int(np.ceil(0.5 * record.n_keys)))


class TestDecoderPath:
    def test_identity_when_disabled(self, tiny_decoder, sample_tokens):
        dense = tiny_decoder.generate(sample_tokens, 4)
        spatten = tiny_decoder.generate(
            sample_tokens, 4, executor=SpAttenExecutor()
        )
        assert dense.token_ids == spatten.token_ids
        assert np.allclose(dense.logits[-1], spatten.logits[-1], atol=1e-9)

    def test_measured_trace_matches_analytic(
        self, tiny_decoder, sample_tokens, moderate_pruning, progressive_quant
    ):
        executor = SpAttenExecutor(moderate_pruning, progressive_quant)
        tiny_decoder.generate(sample_tokens, 5, executor=executor)
        analytic = spatten_trace(
            tiny_decoder.config, moderate_pruning, progressive_quant,
            len(sample_tokens), n_generate=5,
        )
        assert executor.trace.count_signature() == analytic.count_signature()

    def test_kv_cache_evicted_on_prune(self, tiny_decoder, sample_tokens):
        pruning = PruningConfig(token_keep_final=0.3)
        executor = SpAttenExecutor(pruning)
        tiny_decoder.generate(sample_tokens, 3, executor=executor)
        total = len(sample_tokens) + 3
        for layer_cache in executor._cache.layers:
            assert len(layer_cache) <= max(round(0.3 * total), 2) + 1

    def test_current_token_protected_in_decode(self, tiny_decoder, sample_tokens):
        pruning = PruningConfig(token_keep_final=0.2)
        executor = SpAttenExecutor(pruning)
        logits = tiny_decoder.prefill(sample_tokens, executor)
        for position in range(len(sample_tokens), len(sample_tokens) + 3):
            logits = tiny_decoder.decode_step_batch(
                [int(np.argmax(logits))], [position], [executor]
            )[0]
            assert executor._alive_mask[position]
            for layer_cache in executor._cache.layers:
                assert position in layer_cache.token_ids

    def test_generation_with_full_stack_runs(
        self, tiny_decoder, sample_tokens, full_stack_executor
    ):
        result = tiny_decoder.generate(
            sample_tokens, 6, executor=full_stack_executor
        )
        assert result.n_generated == 6
        trace = full_stack_executor.trace
        assert trace.n_generated == 6
        assert len(trace.decode_steps) == 6 * 4

    def test_decode_before_summarize_rejected(self, tiny_decoder):
        executor = SpAttenExecutor()
        executor.begin_sequence(tiny_decoder)
        with pytest.raises(RuntimeError):
            executor.run_layer(
                0, tiny_decoder, np.zeros((1, 32)), np.array([0]), "decode"
            )

    def test_unknown_stage_rejected(self, tiny_decoder):
        executor = SpAttenExecutor()
        executor.begin_sequence(tiny_decoder)
        with pytest.raises(ValueError):
            executor.run_layer(
                0, tiny_decoder, np.zeros((1, 32)), np.array([0]), "train"
            )


class TestImportanceSemantics:
    def test_attended_token_survives_next_layer(self, tiny_encoder, rng):
        """Cascade semantics: pruning at layer l+1 uses the scores
        accumulated through layer l, so the token with the largest
        layer-0 column mass must survive layer 1's pruning."""
        tokens = rng.integers(0, 64, size=16).tolist()
        probe = SpAttenExecutor()
        result = tiny_encoder.encode(tokens, executor=probe)
        layer0_mass = result.records[0].probs.sum(axis=(0, 1))
        favourite = int(np.argmax(layer0_mass[1:]) + 1)  # skip CLS slot

        executor = SpAttenExecutor(PruningConfig(token_keep_final=0.25))
        pruned = tiny_encoder.encode(tokens, executor=executor)
        assert favourite in pruned.records[1].key_token_ids

    def test_weak_head_pruned_first(self, tiny_encoder, sample_tokens):
        """Cascade semantics: the head pruned at layer l is the one with
        the smallest magnitude accumulated through layer l-1."""
        probe = SpAttenExecutor()
        result_probe = tiny_encoder.encode(sample_tokens, executor=probe)
        executor = SpAttenExecutor(PruningConfig(head_keep_final=0.75))
        result = tiny_encoder.encode(sample_tokens, executor=executor)
        # Find the layer where the head count first drops.
        counts = [len(r.head_ids) for r in result.records]
        drop_layer = next(
            i for i in range(1, len(counts)) if counts[i] < counts[i - 1]
        )
        magnitudes = np.zeros(4)
        for record in result_probe.records[:drop_layer]:
            magnitudes += np.abs(record.head_outputs).sum(axis=(1, 2))
        weakest = int(np.argmin(magnitudes))
        assert weakest not in result.records[drop_layer].head_ids

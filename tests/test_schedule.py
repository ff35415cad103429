"""Unit tests for the pruning schedules."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, PruningConfig
from repro.core.schedule import (
    SequencePlan,
    decode_token_target,
    decode_token_targets,
    effective_token_keep,
    head_keep_counts,
    head_keep_fractions,
    token_keep_counts,
    token_keep_fractions,
)


class TestTokenSchedule:
    def test_no_pruning_is_all_ones(self):
        fractions = token_keep_fractions(PruningConfig(), 12, 50)
        assert np.all(fractions == 1.0)

    def test_front_layers_unpruned(self):
        config = PruningConfig(token_keep_final=0.3, token_front_frac=0.25)
        fractions = token_keep_fractions(config, 12, 100)
        assert np.all(fractions[:3] == 1.0)
        assert fractions[-1] == pytest.approx(0.3)

    def test_fractions_non_increasing(self):
        config = PruningConfig(token_keep_final=0.2)
        fractions = token_keep_fractions(config, 24, 100)
        assert np.all(np.diff(fractions) <= 1e-12)

    def test_counts_non_increasing_and_floored(self):
        config = PruningConfig(token_keep_final=0.05, min_tokens=3)
        counts = token_keep_counts(config, 12, 40)
        assert np.all(np.diff(counts) <= 0)
        assert counts[-1] >= 3
        assert counts[0] == 40

    def test_counts_for_short_sentence(self):
        config = PruningConfig(token_keep_final=0.1, min_tokens=2)
        counts = token_keep_counts(config, 4, 3)
        assert np.all(counts >= 2)

    def test_single_layer_model(self):
        config = PruningConfig(token_keep_final=0.5)
        counts = token_keep_counts(config, 1, 10)
        assert len(counts) == 1


class TestLengthAdaptive:
    def test_reference_length_unchanged(self):
        config = PruningConfig(
            token_keep_final=0.5, length_adaptive=True, reference_length=128
        )
        assert effective_token_keep(config, 128) == pytest.approx(0.5)

    def test_longer_prunes_more(self):
        config = PruningConfig(
            token_keep_final=0.5, length_adaptive=True, reference_length=128
        )
        assert effective_token_keep(config, 512) < 0.5

    def test_shorter_prunes_less(self):
        config = PruningConfig(
            token_keep_final=0.5, length_adaptive=True, reference_length=128
        )
        assert effective_token_keep(config, 32) > 0.5

    def test_disabled_by_default(self):
        config = PruningConfig(token_keep_final=0.5)
        assert effective_token_keep(config, 512) == 0.5

    def test_floor_respected(self):
        config = PruningConfig(
            token_keep_final=0.1, length_adaptive=True,
            reference_length=16, min_tokens=2,
        )
        keep = effective_token_keep(config, 1024)
        assert keep * 1024 >= 2


class TestHeadSchedule:
    def test_front_fraction_is_larger_for_heads(self):
        """Paper: 30% front layers unpruned for heads vs 15% for tokens."""
        config = PruningConfig(token_keep_final=0.5, head_keep_final=0.5)
        token_f = token_keep_fractions(config, 12, 100)
        head_f = head_keep_fractions(config, 12)
        assert np.sum(head_f == 1.0) > np.sum(token_f == 1.0)

    def test_head_counts_floor_one(self):
        config = PruningConfig(head_keep_final=0.01)
        counts = head_keep_counts(config, 12, 12)
        assert counts[-1] >= 1

    def test_paper_fig1_progression(self):
        """12 -> ~10 -> ~8 heads as in Fig. 1 with keep=0.67."""
        config = PruningConfig(head_keep_final=8.0 / 12.0, head_front_frac=0.2)
        counts = head_keep_counts(config, 3, 12)
        assert counts[0] == 12
        assert counts[-1] == 8
        assert 8 <= counts[1] <= 12


class TestDecodeTarget:
    def test_tracks_total_length(self):
        config = PruningConfig(token_keep_final=0.25)
        assert decode_token_target(config, 0.25, 1000) == 250
        assert decode_token_target(config, 0.25, 1004) == 251

    def test_floor(self):
        config = PruningConfig(token_keep_final=0.25, min_tokens=4)
        assert decode_token_target(config, 0.01, 100) == 4

    def test_no_pruning_fraction(self):
        config = PruningConfig()
        assert decode_token_target(config, 1.0, 57) == 57

    def test_batch_targets_equal_scalar_targets(self):
        """The vectorized form is the scalar one entry for entry —
        including exact halves (0.5 x odd length), where ``round`` and
        ``np.rint`` must both round to even."""
        rng = np.random.default_rng(0)
        fractions = np.concatenate([rng.random(200), np.full(56, 0.5)])
        totals = rng.integers(1, 400, size=len(fractions))
        min_tokens = rng.integers(0, 12, size=len(fractions))
        batch = decode_token_targets(min_tokens, fractions, totals)
        for i in range(len(fractions)):
            config = PruningConfig(min_tokens=int(min_tokens[i]))
            assert batch[i] == decode_token_target(
                config, float(fractions[i]), int(totals[i])
            )


plan_prunings = st.none() | st.builds(
    PruningConfig,
    token_keep_final=st.sampled_from([1.0, 0.75, 0.4, 0.15, 0.02]),
    head_keep_final=st.sampled_from([1.0, 0.75, 0.5, 0.1]),
    token_front_frac=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    head_front_frac=st.sampled_from([0.0, 0.3, 1.0]),
    length_adaptive=st.booleans(),
    reference_length=st.sampled_from([16, 128]),
    min_tokens=st.integers(0, 12),
)


class TestSequencePlan:
    """The plan is the replay, frozen: every field equals the
    standalone schedule function it replaces at its call sites."""

    @given(
        plan_prunings, st.integers(1, 12), st.integers(1, 16),
        st.integers(1, 300), st.integers(0, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_fields_equal_the_functions_they_replace(
        self, pruning, n_layers, n_heads, prompt_len, max_new
    ):
        model = ModelConfig("plan", n_layers, n_heads, 8 * n_heads, 16)
        plan = SequencePlan.build(pruning, model, prompt_len, max_new)
        total = prompt_len + max_new
        assert (plan.pruning, plan.prompt_len, plan.max_new_tokens) == (
            pruning, prompt_len, max_new
        )
        if pruning is None:  # dense: nothing is ever pruned
            counts = [prompt_len] * n_layers
            assert plan.token_fracs == (1.0,) * n_layers
            assert plan.head_counts == (n_heads,) * n_layers
            bounds = [total] * n_layers
        else:
            counts = token_keep_counts(pruning, n_layers, prompt_len).tolist()
            fracs = token_keep_fractions(pruning, n_layers, prompt_len)
            assert plan.token_fracs == tuple(fracs.tolist())
            assert plan.head_counts == tuple(
                head_keep_counts(pruning, n_layers, n_heads).tolist()
            )
            # What serving.memory_pool.pruned_kv_bounds computed.
            bounds = [
                max(counts[layer], decode_token_target(
                    pruning, float(fracs[layer]), total
                ))
                for layer in range(n_layers)
            ]
        assert plan.token_counts == tuple(counts)
        assert plan.kv_bounds == tuple(bounds)
        assert all(type(n) is int for n in plan.token_counts + plan.kv_bounds)
        # What serving.memory_pool.prefill_kv_lengths computed.
        for committed in (0, prompt_len // 2, prompt_len, prompt_len + 7):
            assert plan.prefix_kv_lengths(committed) == [
                min(committed, prompt_len, count) for count in counts
            ]

    def test_plan_is_immutable(self):
        plan = SequencePlan.build(
            PruningConfig(token_keep_final=0.5),
            ModelConfig("plan", 3, 4, 32, 16), 40, 8,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.prompt_len = 1


BOUND_MODEL = ModelConfig(
    "kv-bound", n_layers=3, n_heads=4, d_model=16, d_ff=32, vocab_size=40,
    max_seq_len=96, causal=True,
)


def _eviction_bound(plan: SequencePlan) -> np.ndarray:
    """The most columns eviction lets each layer hold over the plan's
    life: the summarized prompt, or a layer's decode target capped by
    the live set entering a step — what the last layer kept one step
    earlier, plus the new token."""
    pruning, counts = plan.pruning, np.array(plan.token_counts)
    total = plan.prompt_len + plan.max_new_tokens
    fracs = np.array(plan.token_fracs)
    entering = 1 + max(counts[-1], decode_token_target(
        pruning, float(fracs[-1]), total - 1
    ))
    targets = decode_token_targets(pruning.min_tokens, fracs, total)
    return np.maximum(counts, np.minimum(targets, entering))


class TestDecodeKVBound:
    """Eviction is global, so decode KV lengths stay under a bound far
    below ``kv_bounds`` at front layers — on the packed store rows and
    on the looped per-sequence oracle alike."""

    @given(
        st.sampled_from([0.75, 0.4, 0.15]), st.integers(1, 6),
        st.lists(st.tuples(st.integers(2, 40), st.integers(1, 24)),
                 min_size=1, max_size=3),
        st.booleans(), st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_decode_kv_lengths_stay_under_the_eviction_bound(
        self, keep_final, min_tokens, shapes, packed, seed
    ):
        from repro.core.pipeline import SpAttenExecutor
        from repro.nn import TransformerModel, random_model
        from repro.nn.batched_attention import PackedDecodeBackend

        model = TransformerModel(BOUND_MODEL, random_model(BOUND_MODEL, 3))
        pruning = PruningConfig(
            token_keep_final=keep_final, min_tokens=min_tokens,
        )
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, 40, size=n).tolist() for n, _ in shapes]
        numerics = "fp32" if packed else None
        backend = PackedDecodeBackend(model, numerics) if packed else None
        executors = [
            SpAttenExecutor(pruning, numerics=numerics) for _ in shapes
        ]
        if packed:
            states = [
                model.prefill_begin(prompt, executor)
                for prompt, executor in zip(prompts, executors)
            ]
            logits = model.prefill_chunk_batch(
                states, BOUND_MODEL.max_seq_len, backend=backend
            )
        else:
            logits = [
                model.prefill(prompt, executor)
                for prompt, executor in zip(prompts, executors)
            ]
        bounds = [
            _eviction_bound(SequencePlan.build(
                pruning, BOUND_MODEL, len(prompt), max_new
            ))
            for prompt, (_, max_new) in zip(prompts, shapes)
        ]
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [len(prompt) for prompt in prompts]
        budgets = [max_new for _, max_new in shapes]
        rows = list(range(len(shapes)))
        while rows:
            out = model.decode_step_batch(
                [tokens[i] for i in rows], [positions[i] for i in rows],
                [executors[i] for i in rows], backend=backend,
            )
            for j, i in enumerate(rows):
                lengths = executors[i].kv_lengths()
                assert (np.array(lengths) <= bounds[i]).all(), (
                    i, lengths, bounds[i].tolist()
                )
                tokens[i], positions[i] = int(np.argmax(out[j])), positions[i] + 1
                budgets[i] -= 1
            rows = [i for i in rows if budgets[i]]

"""Unit tests for token/head pruning decisions and local value pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.head_pruning import prune_heads
from repro.core.token_pruning import prune_tokens
from repro.core.topk import topk_indices
from repro.core.value_pruning import (
    apply_local_value_pruning,
    local_value_keep_indices,
    value_keep_count,
)
from repro.nn.functional import softmax


class TestPruneTokens:
    def test_keeps_highest_scores(self):
        decision = prune_tokens(
            np.arange(5), np.array([0.1, 0.9, 0.5, 0.8, 0.2]), 2
        )
        assert np.array_equal(decision.kept_ids, [1, 3])
        assert np.array_equal(decision.pruned_ids, [0, 2, 4])

    def test_kept_rows_strictly_increasing(self, rng):
        decision = prune_tokens(np.arange(20), rng.random(20), 7)
        assert np.all(np.diff(decision.kept_rows) > 0)
        assert decision.n_kept == 7

    def test_protected_token_survives_zero_score(self):
        scores = np.array([0.0, 0.9, 0.8, 0.7])
        decision = prune_tokens(np.arange(4), scores, 2, protected_ids=[0])
        assert 0 in decision.kept_ids

    def test_protection_counts_against_budget(self):
        scores = np.array([0.0, 0.9, 0.8])
        decision = prune_tokens(np.arange(3), scores, 2, protected_ids=[0])
        assert decision.n_kept == 2
        assert set(decision.kept_ids) == {0, 1}

    def test_keep_all_when_target_at_or_above_live(self):
        decision = prune_tokens(np.arange(3), np.ones(3), 5)
        assert decision.n_kept == 3
        assert len(decision.pruned_ids) == 0

    def test_protection_can_exceed_target(self):
        decision = prune_tokens(
            np.arange(3), np.ones(3), 1, protected_ids=[0, 2]
        )
        assert decision.n_kept == 2

    def test_live_ids_need_not_start_at_zero(self):
        live = np.array([4, 9, 17])
        decision = prune_tokens(live, np.array([0.5, 0.1, 0.9]), 2)
        assert np.array_equal(decision.kept_ids, [4, 17])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prune_tokens(np.arange(3), np.ones(2), 1)

    @given(st.integers(1, 40), st.integers(0, 45), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_budget_always_met(self, n_live, target, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(n_live)
        decision = prune_tokens(np.arange(n_live), scores, target)
        assert decision.n_kept == min(max(target, 0), n_live)
        # kept + pruned partition the live set
        union = np.sort(np.concatenate([decision.kept_ids, decision.pruned_ids]))
        assert np.array_equal(union, np.arange(n_live))


def _general_token_selection(live_ids, scores, keep_count, protected_ids):
    """``prune_tokens``' general path, the spec of its fast paths: every
    protected id by ``np.isin``, the free slots by ``topk_indices``."""
    protected = np.isin(live_ids, np.asarray(protected_ids, dtype=np.int64))
    n_protected = int(protected.sum())
    keep_count = max(min(max(keep_count, 0), len(live_ids)), n_protected)
    free_rows = np.flatnonzero(~protected)
    chosen = topk_indices(scores[free_rows], keep_count - n_protected)
    kept_rows = np.sort(
        np.concatenate([np.flatnonzero(protected), free_rows[chosen]])
    )
    pruned = np.ones(len(live_ids), dtype=bool)
    pruned[kept_rows] = False
    return kept_rows, live_ids[kept_rows], live_ids[pruned]


class TestPruneTokensFastPath:
    """One protected id (``==`` instead of ``np.isin``) and a surplus of
    one (one reversed ``argmin`` instead of a stable sort) select what
    the general path selects."""

    @given(
        st.integers(1, 40), st.integers(0, 10_000),
        st.sampled_from(["first", "middle", "last", "absent", "two", "none"]),
        st.sampled_from([-1, -2, "any"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_general_selection(self, n_live, seed, where, surplus):
        rng = np.random.default_rng(seed)
        live_ids = np.sort(rng.choice(3 * n_live, n_live, replace=False))
        # Three distinct values: equal minima are the common case.
        scores = rng.integers(0, 3, size=n_live).astype(float)
        absent = int(np.setdiff1d(np.arange(3 * n_live + 1), live_ids)[0])
        protected_ids = {
            "first": [live_ids[0]],
            "middle": [live_ids[n_live // 2]],
            "last": [live_ids[-1]],
            "absent": [absent],
            "two": [live_ids[0], live_ids[-1]],
            "none": [],
        }[where]
        keep_count = (
            int(rng.integers(0, n_live + 2)) if surplus == "any"
            else n_live + surplus
        )
        decision = prune_tokens(live_ids, scores, keep_count, protected_ids)
        expected = _general_token_selection(
            live_ids, scores, keep_count, protected_ids
        )
        got = (decision.kept_rows, decision.kept_ids, decision.pruned_ids)
        for field, want in zip(got, expected):
            assert field.dtype == np.int64
            assert np.array_equal(field, want)


class TestPruneHeads:
    def test_keeps_loudest(self):
        decision = prune_heads(np.arange(4), np.array([3.0, 9.0, 1.0, 5.0]), 2)
        assert np.array_equal(decision.kept_ids, [1, 3])

    def test_minimum_one_head(self):
        decision = prune_heads(np.arange(4), np.ones(4), 0)
        assert decision.n_kept == 1

    def test_no_op_when_target_covers_all(self):
        decision = prune_heads(np.arange(3), np.ones(3), 3)
        assert np.array_equal(decision.kept_ids, np.arange(3))
        assert len(decision.pruned_ids) == 0

    def test_respects_original_head_ids(self):
        live = np.array([1, 4, 7])
        decision = prune_heads(live, np.array([0.1, 0.9, 0.5]), 2)
        assert np.array_equal(decision.kept_ids, [4, 7])


class TestLocalValuePruning:
    def test_keep_count_ceil(self, rng):
        probs = softmax(rng.normal(size=(2, 3, 10)))
        kept = local_value_keep_indices(probs, keep_fraction=0.25)
        assert all(len(k) == 3 for k in kept)  # ceil(0.25 * 10)

    def test_keep_one_minimum(self, rng):
        probs = softmax(rng.normal(size=(1, 1, 4)))
        kept = local_value_keep_indices(probs, keep_fraction=0.01)
        assert len(kept[0]) == 1

    def test_per_head_independence(self):
        probs = np.zeros((2, 1, 4))
        probs[0, 0] = [0.7, 0.1, 0.1, 0.1]
        probs[1, 0] = [0.1, 0.1, 0.1, 0.7]
        kept = local_value_keep_indices(probs, keep_fraction=0.25)
        assert kept[0][0] == 0 and kept[1][0] == 3

    def test_keep_all_is_exact(self, rng):
        probs = softmax(rng.normal(size=(2, 4, 6)))
        values = rng.normal(size=(2, 6, 8))
        kept = local_value_keep_indices(probs, keep_fraction=1.0)
        outputs, counts = apply_local_value_pruning(probs, values, kept)
        assert np.allclose(outputs, probs @ values)
        assert np.all(counts == 6)

    def test_pruned_columns_do_not_contribute(self):
        probs = np.array([[[0.6, 0.4]]])
        values = np.array([[[1.0], [100.0]]])
        kept = [np.array([0])]
        outputs, counts = apply_local_value_pruning(probs, values, kept)
        assert outputs[0, 0, 0] == pytest.approx(0.6)
        assert counts[0] == 1

    def test_invalid_fraction_rejected(self, rng):
        probs = softmax(rng.normal(size=(1, 1, 4)))
        with pytest.raises(ValueError):
            local_value_keep_indices(probs, 0.0)
        with pytest.raises(ValueError):
            local_value_keep_indices(probs, 1.5)

    def test_error_dominated_by_small_probabilities(self, rng):
        """Dropping the lowest-probability V rows changes the output
        less than dropping random rows — the design rationale."""
        probs = softmax(rng.normal(0, 2.0, size=(1, 8, 32)))
        values = rng.normal(size=(1, 32, 16))
        exact = probs @ values
        kept = local_value_keep_indices(probs, keep_fraction=0.5)
        pruned, _ = apply_local_value_pruning(probs, values, kept)
        smart_err = np.abs(exact - pruned).mean()
        rng2 = np.random.default_rng(0)
        random_kept = [np.sort(rng2.choice(32, size=16, replace=False))]
        random_pruned, _ = apply_local_value_pruning(probs, values, random_kept)
        random_err = np.abs(exact - random_pruned).mean()
        assert smart_err < random_err


def _per_head_value_pruning(probs, values, keep_fraction):
    """The per-head loop the plane functions replace, kept as their spec:
    each head ranks its own mass per column with ``topk_indices`` and
    runs its own ``[L0, k] @ [k, D]`` product."""
    count = int(value_keep_count(keep_fraction, probs.shape[2]))
    kept = [topk_indices(head.sum(axis=0), count) for head in probs]
    outputs = np.zeros(
        probs.shape[:2] + values.shape[2:],
        dtype=np.result_type(probs, values),
    )
    for head, columns in enumerate(kept):
        outputs[head] = probs[head][:, columns] @ values[head][columns]
    return kept, outputs


VALUE_EDGE_SHAPES = [
    # (heads, queries, keys, head_dim, keep_fraction)
    (0, 1, 6, 4, 0.5),  # zero heads
    (3, 1, 0, 4, 0.5),  # no keys
    (3, 4, 0, 4, 0.5),
    (2, 1, 7, 4, 1.0),  # keep all
    (2, 5, 7, 4, 1.0),
    (1, 1, 9, 8, 0.3),  # one head
    (1, 6, 9, 8, 0.3),
]


class TestValuePruningParity:
    """``local_value_keep_indices`` + ``apply_local_value_pruning`` are
    bit-identical to the per-head loop: the same kept columns, and the
    same output bits from one batched ``matmul``."""

    @staticmethod
    def _check(probs, values, keep_fraction):
        kept = local_value_keep_indices(probs, keep_fraction)
        outputs, counts = apply_local_value_pruning(probs, values, kept)
        want_kept, want_outputs = _per_head_value_pruning(
            probs, values, keep_fraction
        )
        count = int(value_keep_count(keep_fraction, probs.shape[2]))
        assert kept.shape == (len(probs), count)
        for head, columns in enumerate(want_kept):
            assert np.array_equal(kept[head], columns)
        assert np.array_equal(counts, np.full(len(probs), count))
        assert outputs.dtype == want_outputs.dtype
        assert outputs.shape == want_outputs.shape
        assert outputs.tobytes() == want_outputs.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", VALUE_EDGE_SHAPES)
    def test_edge_shapes(self, shape, dtype, rng):
        n_heads, n_queries, n_keys, head_dim, keep_fraction = shape
        probs = rng.random((n_heads, n_queries, n_keys)).astype(dtype)
        values = rng.normal(size=(n_heads, n_keys, head_dim)).astype(dtype)
        self._check(probs, values, keep_fraction)

    @given(
        st.integers(0, 10_000),
        st.sampled_from([np.float64, np.float32]),
        st.booleans(),
        st.sampled_from([0.05, 0.3, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_head_loop(self, seed, dtype, tied, keep_fraction):
        rng = np.random.default_rng(seed)
        n_heads = int(rng.integers(0, 9))
        n_queries = int(rng.choice([1, int(rng.integers(2, 24))]))
        n_keys = int(rng.integers(0, 48))
        head_dim = int(rng.choice([1, 4, 16]))
        shape = (n_heads, n_queries, n_keys)
        if tied:  # few distinct probabilities: ties straddle every cut
            probs = rng.integers(0, 3, size=shape) / 4.0
        else:
            probs = rng.random(shape)
        values = rng.normal(size=(n_heads, n_keys, head_dim))
        self._check(probs.astype(dtype), values.astype(dtype), keep_fraction)

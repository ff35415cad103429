"""Unit and property tests for the top-k selection algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.topk import (
    drop_one,
    filter_topk,
    quick_select_kth,
    topk_indices,
    topk_mask,
)

score_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestTopkIndices:
    def test_simple_selection(self):
        assert np.array_equal(
            topk_indices(np.array([0.4, 1.0, 0.3, 1.2, 1.7]), 2), [3, 4]
        )

    def test_order_preserved(self):
        indices = topk_indices(np.array([5.0, 1.0, 4.0, 3.0]), 3)
        assert np.all(np.diff(indices) > 0)

    def test_ties_break_toward_earlier(self):
        indices = topk_indices(np.array([1.0, 2.0, 2.0, 2.0]), 2)
        assert np.array_equal(indices, [1, 2])

    def test_k_clipping(self):
        scores = np.array([1.0, 2.0])
        assert len(topk_indices(scores, 0)) == 0
        assert len(topk_indices(scores, 5)) == 2
        assert len(topk_indices(scores, -3)) == 0

    @given(score_arrays, st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_selection(self, scores, k):
        k = min(k, len(scores))
        chosen = topk_indices(scores, k)
        assert len(chosen) == k
        # The selected multiset of values equals the k largest values.
        expected = np.sort(scores)[::-1][:k]
        assert np.allclose(np.sort(scores[chosen])[::-1], expected)


def _lexsort_topk(scores, k):
    """The selection ``topk_indices`` made before it ranked by a stable
    sort: sort by (-score, index), take the first k."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return np.sort(order[:k])


#: Few distinct values, so most draws tie across the cut.
tied_scores = hnp.arrays(
    np.float64, st.integers(1, 24),
    elements=st.integers(0, 3).map(float),
)


class TestOneSelectionRule:
    """The row kernel, the plane kernel and the former lexsort agree."""

    @given(tied_scores, st.data())
    @settings(max_examples=120, deadline=None)
    def test_stable_sort_matches_lexsort(self, scores, data):
        n = len(scores)
        k = data.draw(st.sampled_from(
            sorted({0, 1, n - 1, n, data.draw(st.integers(0, n))})
        ))
        assert np.array_equal(topk_indices(scores, k), _lexsort_topk(scores, k))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 12)),
            elements=st.integers(0, 3).map(float),
        ),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_plane_mask_matches_rows(self, plane, data):
        """Ragged k per row, ties, -inf exclusions and a +inf forced
        entry: every row of the mask is that row's ``topk_indices``."""
        n = plane.shape[-1]
        rows = plane.shape[:-1]
        excluded = data.draw(hnp.arrays(bool, plane.shape))
        excluded[..., 0] = False  # at least one candidate per row
        plane = np.where(excluded, -np.inf, plane)
        plane[..., 0] = np.inf  # protected
        n_candidates = n - np.count_nonzero(excluded, axis=-1)
        k = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, n)))
        k = np.minimum(k, n_candidates)
        mask = topk_mask(plane, k)
        for row in np.ndindex(*rows):
            assert np.array_equal(
                np.flatnonzero(mask[row]), topk_indices(plane[row], k[row])
            ), (plane[row], k[row])
            assert not (mask[row] & excluded[row]).any()

    @given(
        hnp.arrays(
            np.float64, st.tuples(st.integers(1, 6), st.integers(2, 16)),
            elements=st.integers(0, 3).map(float),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_drop_one_is_the_selection_one_short(self, plane, data):
        """Rows whose ``k`` is one short of their candidates — forced
        ties at the minimum, ``-inf`` exclusions, a ``+inf`` protected
        entry: each loses exactly the entry ``topk_indices`` leaves out,
        and ``topk_mask`` agrees."""
        n_rows, n = plane.shape
        rows = np.arange(n_rows)
        protected = data.draw(hnp.arrays(
            np.int64, n_rows, elements=st.integers(0, n - 1)
        ))
        excluded = data.draw(hnp.arrays(bool, plane.shape))
        # The protected entry and one other stay candidates.
        excluded[rows, protected] = excluded[rows, (protected + 1) % n] = False
        tied = data.draw(hnp.arrays(bool, plane.shape))
        plane = np.where(tied, plane.min(axis=1, keepdims=True), plane)
        ranked = np.where(excluded, -np.inf, plane)
        ranked[rows, protected] = np.inf
        k = n - np.count_nonzero(excluded, axis=1) - 1
        loser = drop_one(np.where(excluded, np.inf, ranked))
        kept = ~excluded
        kept[rows, loser] = False
        assert (loser != protected).all()
        for row in rows:
            assert np.array_equal(
                np.flatnonzero(kept[row]), topk_indices(ranked[row], k[row])
            ), (ranked[row], loser[row])
        assert np.array_equal(topk_mask(ranked, k), kept)


class TestQuickSelect:
    def test_paper_example(self):
        # Fig. 9's example: [0.6, 0.1, 0.5, 1.2, 0.6], k=3 -> 0.6, 2 ties.
        value, n_eq, _ = quick_select_kth(
            np.array([0.6, 0.1, 0.5, 1.2, 0.6]), 3
        )
        assert value == pytest.approx(0.6)
        assert n_eq == 2

    def test_k_equals_one_is_max(self):
        value, n_eq, _ = quick_select_kth(np.array([3.0, 9.0, 1.0]), 1)
        assert value == 9.0 and n_eq == 1

    def test_k_equals_n_is_min(self):
        value, _, _ = quick_select_kth(np.array([3.0, 9.0, 1.0]), 3)
        assert value == 1.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            quick_select_kth(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            quick_select_kth(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            quick_select_kth(np.array([]), 1)

    @given(score_arrays, st.integers(1, 64), st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_threshold_contract(self, scores, k, pivot_seed):
        """Algorithm 3's contract: (threshold, tie budget) such that the
        order-preserving filter emits exactly the top-k set.  When the
        FIFO_R partition holds exactly ``target`` elements the returned
        threshold may sit *below* the true k-th largest with a zero tie
        budget — still selecting the correct set."""
        k = min(k, len(scores))
        rng = np.random.default_rng(pivot_seed)
        value, n_eq, stats = quick_select_kth(scores, k, rng)
        kth_true = np.sort(scores)[::-1][k - 1]
        assert value <= kth_true
        if n_eq >= 1:
            assert value == kth_true
        assert n_eq >= 0
        assert stats.n_rounds >= 1
        assert stats.partition_sizes[0] == len(scores)

    @given(score_arrays, st.integers(1, 64), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_filter_yields_exactly_k(self, scores, k, pivot_seed):
        k = min(k, len(scores))
        rng = np.random.default_rng(pivot_seed)
        value, n_eq, _ = quick_select_kth(scores, k, rng)
        kept = filter_topk(scores, value, n_eq)
        assert len(kept) == k
        assert np.array_equal(kept, topk_indices(scores, k))


class TestFilterTopk:
    def test_strictly_greater_always_kept(self):
        kept = filter_topk(np.array([1.0, 5.0, 3.0]), 2.0, 0)
        assert np.array_equal(kept, [1, 2])

    def test_tie_budget_respected(self):
        kept = filter_topk(np.array([2.0, 2.0, 2.0]), 2.0, 2)
        assert np.array_equal(kept, [0, 1])

    def test_negative_budget_treated_as_zero(self):
        kept = filter_topk(np.array([2.0, 3.0]), 2.0, -1)
        assert np.array_equal(kept, [1])

"""Unit and property tests for the hardware top-k engine, the zero
eliminator, and the Batcher sorter baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.topk import topk_indices
from repro.hardware.energy import TOKEN_TOPK_COMPARE_PJ
from repro.hardware.sorter import BatcherSorter, batcher_network, sort_with_network
from repro.hardware.topk_engine import TopKEngine
from repro.hardware.zero_eliminator import ZeroEliminator, shift_network_eliminate

value_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 128),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestZeroEliminator:
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.sampled_from([0.0, 1.0, 2.5, -3.0, 7.0])))
    @settings(max_examples=80, deadline=None)
    def test_shift_network_equals_boolean_compaction(self, values):
        compacted = shift_network_eliminate(values)
        expected = values[values != 0.0]
        assert np.array_equal(compacted, expected)

    def test_paper_example(self):
        # Fig. 10: a0b0cd0e -> abcde
        values = np.array([1.0, 0.0, 2.0, 0.0, 3.0, 4.0, 0.0, 5.0])
        assert np.array_equal(
            shift_network_eliminate(values), [1.0, 2.0, 3.0, 4.0, 5.0]
        )

    def test_all_zeros(self):
        assert len(shift_network_eliminate(np.zeros(8))) == 0

    def test_no_zeros(self):
        values = np.arange(1.0, 9.0)
        assert np.array_equal(shift_network_eliminate(values), values)

    def test_cycle_model(self):
        eliminator = ZeroEliminator(parallelism=16)
        _, cycles = eliminator.eliminate(np.ones(64))
        assert cycles == 64 / 16 + 6  # throughput + log2(64) latency
        assert eliminator.stats.elements == 64

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            ZeroEliminator(parallelism=0)


class TestTopKEngine:
    @given(value_arrays, st.integers(1, 128), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_selection_matches_reference(self, values, k, seed):
        k = min(k, len(values))
        engine = TopKEngine(parallelism=16, seed=seed)
        result = engine.select(values, k)
        assert np.array_equal(result.indices, topk_indices(values, k))

    def test_empty_selection(self):
        engine = TopKEngine()
        result = engine.select(np.array([1.0, 2.0]), 0)
        assert len(result.indices) == 0 and result.cycles == 0

    def test_pass_through_when_k_equals_n(self):
        engine = TopKEngine(parallelism=16)
        result = engine.select(np.arange(32.0), 32)
        assert result.n_rounds == 0
        assert result.cycles == 2  # one streaming pass

    def test_cycles_decrease_with_parallelism(self, rng):
        values = rng.random(1024)
        cycles = {}
        for parallelism in (1, 4, 16):
            engine = TopKEngine(parallelism=parallelism, seed=0)
            cycles[parallelism] = engine.select(values, 512).cycles
        assert cycles[1] > cycles[4] > cycles[16]

    def test_linear_work_on_average(self, rng):
        """Average comparator work is O(n): growing n by 8x grows work
        by roughly 8x, nothing like the n log n of a full sort."""
        engine = TopKEngine(seed=1)
        ops = {}
        for n in (128, 1024):
            totals = [
                engine.select(rng.random(n), n // 2).comparator_ops
                for _ in range(20)
            ]
            ops[n] = np.mean(totals)
        assert ops[1024] / ops[128] < 12.0

    def test_stats_accumulate(self, rng):
        engine = TopKEngine(seed=2)
        engine.select(rng.random(64), 10)
        engine.select(rng.random(64), 10)
        assert engine.stats.selections == 2
        engine.reset()
        assert engine.stats.selections == 0

    def test_expected_cycles_positive_and_monotone(self):
        engine = TopKEngine(parallelism=16)
        assert engine.expected_cycles(0) == 0
        assert 0 < engine.expected_cycles(64) < engine.expected_cycles(1024)

    def test_deterministic_given_seed(self, rng):
        values = rng.random(256)
        a = TopKEngine(seed=5).select(values, 77)
        b = TopKEngine(seed=5).select(values, 77)
        assert a.cycles == b.cycles
        assert np.array_equal(a.indices, b.indices)


class TestBatcherSorter:
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_network_sorts(self, values):
        assert np.array_equal(sort_with_network(values), np.sort(values))

    def test_network_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            batcher_network(12)

    def test_comparator_count_n_log2(self):
        """Odd-even merge sort uses ~n/4 log2(n)(log2(n)+1) comparators."""
        n = 1024
        total = sum(len(stage) for stage in batcher_network(n))
        expected = n / 4 * 10 * 11
        assert total == pytest.approx(expected, rel=0.15)

    def test_topk_via_sort_matches_reference(self, rng):
        values = rng.random(100)
        sorter = BatcherSorter()
        indices, _ = sorter.topk_indices(values, 17)
        assert np.array_equal(indices, topk_indices(values, 17))

    def test_engine_beats_sorter_on_throughput(self):
        """The paper's Section IV-B claim: quick-select top-k has higher
        *average* throughput and lower energy than a full sorting unit.
        (Quick-select is randomised — individual runs can draw unlucky
        pivots — so the claim is statistical, averaged over inputs.)"""
        local_rng = np.random.default_rng(42)
        engine = TopKEngine(parallelism=16, seed=0)
        sorter = BatcherSorter()
        engine_cycles, sorter_cycles, engine_pj, sorter_pj = [], [], [], []
        for _ in range(12):
            values = local_rng.random(1024)
            engine_result = engine.select(values, 512)
            sort_result = sorter.sort(values)
            engine_cycles.append(engine_result.cycles)
            # The sorter additionally streams out the selected indices.
            sorter_cycles.append(sort_result.cycles + 1024 / 16)
            engine_pj.append(
                engine_result.comparator_ops * TOKEN_TOPK_COMPARE_PJ
            )
            sorter_pj.append(sort_result.energy_pj)
        assert np.mean(sorter_cycles) > np.mean(engine_cycles)
        assert np.mean(sorter_pj) > np.mean(engine_pj)

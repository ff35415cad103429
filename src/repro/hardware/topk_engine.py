"""High-parallelism top-k engine (paper Section IV-B, Fig. 9).

The engine finds the k most important tokens/heads with average O(n)
work: a quick-select loop (pivot, comparator arrays, FIFO_L/FIFO_R, zero
eliminators) locates the k-th largest score, then an order-preserving
filter pass emits the survivors.

The simulation is faithful at the round level: every STATE_RUN drains
one FIFO through two ``parallelism``-wide comparator arrays
(``ceil(size / P)`` cycles), zero eliminators compact the survivors
(pipelined, adding their stage latency once), and the START logic picks
the next FIFO exactly as Algorithm 3 does.  The result is bit-identical
to :func:`repro.core.topk.topk_indices`, which unit tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.topk import filter_topk, quick_select_kth
from .energy import TOKEN_TOPK_COMPARE_PJ
from .zero_eliminator import ZeroEliminator

__all__ = ["TopKEngine", "TopKResult", "TopKEngineStats"]


@dataclass
class TopKResult:
    """One selection's outcome and cost."""

    indices: np.ndarray
    kth_value: float
    cycles: float
    n_rounds: int
    comparator_ops: int


@dataclass
class TopKEngineStats:
    selections: int = 0
    total_cycles: float = 0.0
    comparator_ops: int = 0
    energy_pj: float = 0.0
    max_fifo_occupancy: int = 0
    round_sizes: List[int] = field(default_factory=list)


class TopKEngine:
    """Cycle/energy model of the quick-select top-k engine.

    Args:
        parallelism: comparators per array (the paper uses 16, chosen in
            Fig. 19 so the engine is never the pipeline bottleneck).
    """

    #: Capacity of FIFO_L/FIFO_R: a full 1024-token context.  Larger
    #: partitions drain in FIFO-sized chunks; occupancy is tracked.
    FIFO_DEPTH = 1024
    #: Constant cost of the START stage per round.
    PIVOT_CYCLES = 2

    def __init__(self, parallelism: int = 16, seed: int = 0):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.parallelism = parallelism
        self._rng = np.random.default_rng(seed)
        self.eliminator = ZeroEliminator(parallelism=parallelism)
        self.stats = TopKEngineStats()

    def select(self, scores: np.ndarray, k: int) -> TopKResult:
        """Top-k indices of ``scores`` (order-preserving) plus cost."""
        scores = np.asarray(scores, dtype=np.float64)
        n = len(scores)
        if n == 0 or k <= 0:
            return TopKResult(np.zeros(0, dtype=np.int64), float("nan"), 0.0, 0, 0)
        k = min(k, n)

        if k == n:
            # Pass-through: a single streaming pass, no quick-select.
            cycles = math.ceil(n / self.parallelism)
            self._account(cycles, 0, n)
            return TopKResult(np.arange(n, dtype=np.int64), float(scores.min()),
                              float(cycles), 0, 0)

        kth_value, num_eq_keep, qs_stats = quick_select_kth(scores, k, self._rng)

        cycles = 0.0
        comparator_ops = 0
        for round_size in qs_stats.partition_sizes:
            if round_size > self.FIFO_DEPTH:
                # Oversized partitions are processed in FIFO-sized chunks
                # (extra drain passes), costing proportionally more.
                chunks = math.ceil(round_size / self.FIFO_DEPTH)
            else:
                chunks = 1
            cycles += self.PIVOT_CYCLES * chunks
            cycles += math.ceil(round_size / self.parallelism)
            # Two zero eliminators (FIFO_L and FIFO_R sides) are pipelined
            # with the comparators; their stage latency appears once.
            cycles += self.eliminator.latency_cycles(round_size)
            comparator_ops += round_size
            self.stats.round_sizes.append(round_size)
            self.stats.max_fifo_occupancy = max(
                self.stats.max_fifo_occupancy, min(round_size, self.FIFO_DEPTH)
            )

        # Final filtering pass over the buffered inputs + zero eliminate.
        indices = filter_topk(scores, kth_value, num_eq_keep)
        cycles += math.ceil(n / self.parallelism)
        cycles += self.eliminator.latency_cycles(n)
        comparator_ops += n

        self._account(cycles, comparator_ops, n)
        return TopKResult(
            indices, kth_value, float(cycles), qs_stats.n_rounds, comparator_ops
        )

    def _account(self, cycles: float, comparator_ops: int, n: int) -> None:
        self.stats.selections += 1
        self.stats.total_cycles += cycles
        self.stats.comparator_ops += comparator_ops
        self.stats.energy_pj += comparator_ops * TOKEN_TOPK_COMPARE_PJ

    def expected_cycles(self, n: int) -> float:
        """Closed-form expected cost (used by the pipeline scheduler).

        Quick-select processes a geometrically shrinking series of
        partitions, ~2n elements in expectation, plus the final filter
        pass over n elements.
        """
        if n <= 0:
            return 0.0
        expected_rounds = max(1.0, math.log2(max(n, 2)))
        partition_work = 2.0 * n
        cycles = (partition_work + n) / self.parallelism
        cycles += expected_rounds * (
            self.PIVOT_CYCLES + self.eliminator.latency_cycles(n)
        )
        return float(cycles)

    def expected_pass(self, n: int) -> float:
        """One ranked pass over ``n`` scores in closed form: returns its
        :meth:`expected_cycles` and charges the ~3n comparator operations
        that count assumes (2n partitioning, n filtering) as
        :meth:`select` charges its own."""
        cycles = self.expected_cycles(n)
        self._account(cycles, 3 * n, n)
        return cycles

    def reset(self) -> None:
        self.stats = TopKEngineStats()
        self.eliminator.reset()

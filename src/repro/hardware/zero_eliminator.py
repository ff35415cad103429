"""Zero eliminator (paper Section IV-C, Fig. 10).

Compacts the non-zero survivors of a comparator array while preserving
order.  The hardware computes, per element, the number of zeros before
it (prefix sum), then routes elements through ``log2(n)`` shifter
stages: at stage ``r`` an element shifts left by ``2^r`` positions iff
bit ``r`` of its zero count is set.

:func:`shift_network_eliminate` simulates that exact datapath stage by
stage (tests check it against plain boolean compaction);
:class:`ZeroEliminator` wraps it with cycle/energy accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .energy import ZERO_ELIMINATOR_ELEMENT_PJ

__all__ = ["shift_network_eliminate", "ZeroEliminator", "ZeroEliminatorStats"]


def shift_network_eliminate(values: np.ndarray) -> np.ndarray:
    """Order-preserving compaction via the log-stage shift network.

    Returns the non-zero elements, in order, produced by the exact
    shifting schedule of Fig. 10.  Zeros are the "eliminated" fillers the
    comparator arrays leave behind.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        return values.copy()

    nonzero = values != 0.0
    # zeros strictly before each element
    zero_cnt = np.concatenate([[0], np.cumsum(~nonzero)[:-1]]).astype(np.int64)

    n_stages = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    # Working array of (value, zero_cnt) with explicit holes.
    slots_value = values.copy()
    slots_count = zero_cnt.copy()
    slots_live = nonzero.copy()
    for stage in range(n_stages):
        shift = 1 << stage
        new_value = np.zeros_like(slots_value)
        new_count = np.zeros_like(slots_count)
        new_live = np.zeros_like(slots_live)
        for idx in range(n):
            if not slots_live[idx]:
                continue
            if slots_count[idx] & shift:
                dest = idx - shift
            else:
                dest = idx
            if dest < 0 or new_live[dest]:
                raise AssertionError("shift-network collision (routing bug)")
            new_value[dest] = slots_value[idx]
            new_count[dest] = slots_count[idx]
            new_live[dest] = True
        slots_value, slots_count, slots_live = new_value, new_count, new_live

    n_kept = int(nonzero.sum())
    if not np.all(slots_live[:n_kept]):
        raise AssertionError("shift network did not compact to a prefix")
    return slots_value[:n_kept]


@dataclass
class ZeroEliminatorStats:
    elements: int = 0
    invocations: int = 0
    energy_pj: float = 0.0


class ZeroEliminator:
    """Cycle/energy wrapper around the shift network.

    Throughput is ``parallelism`` elements per cycle (the network is
    fully pipelined); latency is ``log2(n)`` stages, charged once per
    invocation.
    """

    def __init__(self, parallelism: int = 16):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.parallelism = parallelism
        self.stats = ZeroEliminatorStats()

    def latency_cycles(self, n: int) -> int:
        return max(1, math.ceil(math.log2(max(n, 2))))

    def eliminate(self, values: np.ndarray) -> Tuple[np.ndarray, float]:
        """Compact ``values``; returns (non-zeros, cycles)."""
        values = np.asarray(values)
        compacted = shift_network_eliminate(values)
        cycles = math.ceil(len(values) / self.parallelism) + self.latency_cycles(
            len(values)
        )
        self.stats.elements += len(values)
        self.stats.invocations += 1
        self.stats.energy_pj += len(values) * ZERO_ELIMINATOR_ELEMENT_PJ
        return compacted, float(cycles)

    def reset(self) -> None:
        self.stats = ZeroEliminatorStats()

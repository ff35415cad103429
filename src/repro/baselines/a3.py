"""A3 accelerator model (Ham et al., HPCA 2020) — prior art of Table III.

A3 approximates attention per query: it pre-sorts every key *dimension*
across all keys, then uses only the largest/smallest pre-specified
number of entries per dimension to estimate attention scores; keys whose
estimated score falls below a threshold are pruned *locally for that
query* before the exact computation.

Three properties the paper contrasts SpAtten against (Table III):

1. all Q/K/V must be fetched from DRAM before pruning can be decided —
   no DRAM-traffic reduction, so memory-bound generative models are not
   accelerated;
2. the per-dimension sort is pre-processing overhead paid per layer;
3. pruning is local to one query within one head — computation outside
   the attention layer (FFN) is untouched.

:func:`a3_attention` implements the algorithm functionally (tests check
it approximates dense attention); :class:`A3CostModel` reproduces the
published efficiency point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..nn.functional import softmax

__all__ = ["A3Stats", "a3_attention", "A3CostModel", "A3_PUBLISHED"]


@dataclass
class A3Stats:
    """Work profile of one A3 attention execution."""

    candidates_scored: int
    keys_kept: int
    keys_total: int
    preprocessing_ops: int

    @property
    def keep_fraction(self) -> float:
        return self.keys_kept / max(self.keys_total, 1)


def a3_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_components: int = 8,
    score_margin: float = 2.0,
) -> Tuple[np.ndarray, A3Stats]:
    """Approximate single-head attention, A3-style.

    Args:
        q: ``[D]`` one query vector.
        k: ``[L, D]`` keys.
        v: ``[L, D]`` values.
        n_components: entries per dimension used for score estimation
            (the paper's pre-specified number of largest/smallest).
        score_margin: keys whose estimated score is within
            ``score_margin`` of the estimated max survive; others are
            pruned locally.

    Returns:
        ``(output [D], A3Stats)``.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_keys, head_dim = k.shape

    # Pre-processing: sort each key dimension over all keys.
    order = np.argsort(k, axis=0)  # [L, D] (ascending)
    preprocessing_ops = int(n_keys * np.log2(max(n_keys, 2)) * head_dim)

    # Score estimation: per dimension d, only the keys holding the
    # n_components largest q_d * k_{j,d} products contribute.
    n_components = min(n_components, n_keys)
    estimates = np.zeros(n_keys)
    candidates_scored = 0
    for dim in range(head_dim):
        if q[dim] >= 0:
            chosen = order[-n_components:, dim]  # largest k values
        else:
            chosen = order[:n_components, dim]  # smallest (most negative)
        estimates[chosen] += q[dim] * k[chosen, dim]
        candidates_scored += n_components

    threshold = estimates.max() - score_margin * np.sqrt(head_dim)
    kept = np.flatnonzero(estimates >= threshold)
    if len(kept) == 0:
        kept = np.array([int(np.argmax(estimates))])

    scores = (k[kept] @ q) / np.sqrt(head_dim)
    probs = softmax(scores)
    output = probs @ v[kept]
    return output, A3Stats(
        candidates_scored=candidates_scored,
        keys_kept=len(kept),
        keys_total=n_keys,
        preprocessing_ops=preprocessing_ops,
    )


@dataclass(frozen=True)
class A3PublishedPoint:
    """Published Table III characteristics of A3."""

    technology: str = "ASIC (40nm)"
    frequency_hz: float = 1.0e9
    n_multipliers: int = 128
    area_mm2: float = 2.08
    throughput_gops: float = 221.0  # 128 GOP/s raw x 1.73 speedup
    energy_efficiency_gop_per_j: float = 269.0
    reduces_dram: bool = False
    supports_head_pruning: bool = False
    supports_token_pruning: bool = False  # only local, per-query key skip
    accelerates_generative: bool = False


A3_PUBLISHED = A3PublishedPoint()


class A3CostModel:
    """Latency/energy of A3 on an attention workload.

    A3 must fetch all Q/K/V before pruning (no DRAM saving) and only
    reduces the attention arithmetic by its measured 1.73x; the
    published effective throughput wraps both effects.
    """

    point = A3_PUBLISHED

    def __init__(self, dram_bandwidth: float = 64.0e9):
        self.dram_bandwidth = dram_bandwidth

    def attention_latency(self, dense_flops: float, dense_bytes: float) -> float:
        """Latency on a dense workload of the given size.

        ``dense_bytes`` are *not* reduced (limitation 1): the fetch and
        the (pruned) compute overlap, so latency is their max.
        """
        compute = dense_flops / (self.point.throughput_gops * 1e9)
        memory = dense_bytes / self.dram_bandwidth
        return max(compute, memory)

    def energy(self, dense_flops: float) -> float:
        return dense_flops / (self.point.energy_efficiency_gop_per_j * 1e9)

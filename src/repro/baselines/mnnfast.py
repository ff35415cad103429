"""MNNFast model (Jang et al., ISCA 2019) — prior art of Table III.

MNNFast prunes only *value* vectors: after softmax, V rows whose
attention probability falls below a threshold are skipped for the
``prob x V`` computation.  Like A3 it must fetch everything first, and
it touches neither keys, heads, nor FFN computation.

The published design is a Zynq-7020 FPGA; Table III projects it to
1 GHz and the paper assumes an optimistic 10x power reduction for an
ASIC port (1 W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..nn.functional import softmax

__all__ = ["MNNFastStats", "mnnfast_attention", "MNNFastCostModel", "MNNFAST_PUBLISHED"]


@dataclass
class MNNFastStats:
    values_kept: int
    values_total: int

    @property
    def keep_fraction(self) -> float:
        return self.values_kept / max(self.values_total, 1)


def mnnfast_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    prob_threshold: float = 0.01,
) -> Tuple[np.ndarray, MNNFastStats]:
    """Single-head attention with MNNFast's local V pruning.

    Probabilities are computed exactly; V rows with
    ``prob < prob_threshold`` are dropped from the weighted sum
    (without renormalisation).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    scores = (k @ q) / np.sqrt(k.shape[1])
    probs = softmax(scores)
    kept = np.flatnonzero(probs >= prob_threshold)
    if len(kept) == 0:
        kept = np.array([int(np.argmax(probs))])
    output = probs[kept] @ v[kept]
    return output, MNNFastStats(values_kept=len(kept), values_total=len(v))


@dataclass(frozen=True)
class MNNFastPublishedPoint:
    """Published/projected Table III characteristics of MNNFast."""

    technology: str = "FPGA (28nm)"
    frequency_hz: float = 1.0e9  # projected
    area_mm2: float = float("nan")  # not reported
    throughput_gops: float = 120.0
    energy_efficiency_gop_per_j: float = 120.0  # 120 GOP/s at ~1 W (ASIC est.)
    reduces_dram: bool = False
    supports_head_pruning: bool = False
    supports_token_pruning: bool = False
    accelerates_generative: bool = False


MNNFAST_PUBLISHED = MNNFastPublishedPoint()


class MNNFastCostModel:
    """Latency/energy of MNNFast on an attention workload (64 GB/s of
    DRAM bandwidth, as SpAtten-1/8)."""

    point = MNNFAST_PUBLISHED
    dram_bandwidth = 64.0e9

    def attention_latency(self, dense_flops: float, dense_bytes: float) -> float:
        compute = dense_flops / (self.point.throughput_gops * 1e9)
        memory = dense_bytes / self.dram_bandwidth
        return max(compute, memory)

    def energy(self, dense_flops: float) -> float:
        return dense_flops / (self.point.energy_efficiency_gop_per_j * 1e9)

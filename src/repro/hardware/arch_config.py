"""SpAtten architectural parameters (paper Table I).

The full-scale design: 1 GHz, 512 multipliers in the Q x K module plus
512 in the attention_prob x V module (2 TFLOPS computation roof), two
196 KB SRAMs for keys and values, a softmax pipeline of parallelism 8,
top-k engines with 16 comparators per array, a 32x16 address crossbar in
front of 16 HBM2 channels of 32 GB/s each (512 GB/s roof).

``SPATTEN_EIGHTH`` is the 1/8-scale variant used for the apples-to-
apples comparison with A3 and MNNFast (Table III: 128 multipliers,
64 GB/s).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["ArchConfig", "SPATTEN_FULL", "SPATTEN_EIGHTH"]


@dataclass(frozen=True)
class ArchConfig:
    """Hardware configuration of one SpAtten instance."""

    name: str = "spatten"
    qk_multipliers: int = 512
    probv_multipliers: int = 512
    softmax_parallelism: int = 8
    topk_parallelism: int = 16
    key_sram_bytes: int = 196 * 1024
    value_sram_bytes: int = 196 * 1024
    hbm_channels: int = 16
    #: Achieved fraction of the datapath's ideal throughput, covering
    #: row-softmax serialisation bubbles, SRAM bank conflicts, control
    #: overhead, and progressive-quantization recompute stalls.
    #: Calibrated so compute-bound BERT lands at the paper's measured
    #: 1.61 TFLOPS dense-equivalent throughput (Fig. 18).
    compute_efficiency: float = 0.57

    # Shared by every instance: scaling keeps the clock, the per-channel
    # bandwidth and the datapath width.
    clock_hz: ClassVar[float] = 1.0e9
    hbm_channel_bandwidth: ClassVar[float] = 32.0e9  # bytes/s per channel
    fifo_depth: ClassVar[int] = 64
    onchip_bits: ClassVar[int] = 12
    #: Achievable fraction of peak DRAM bandwidth under the gather-heavy
    #: access patterns of pruned attention (crossbar keeps channels busy
    #: but row misses and short bursts cost efficiency).  Calibrated so
    #: the memory-bound GPT-2 generation stage lands at the paper's
    #: measured ~0.43 TFLOPS (Fig. 18).
    dram_efficiency: ClassVar[float] = 0.42
    #: Pipeline fill/drain cycles charged once per (layer, stage) pass.
    pipeline_fill_cycles: ClassVar[int] = 96

    def __post_init__(self) -> None:
        if min(self.qk_multipliers, self.probv_multipliers) <= 0:
            raise ValueError("multiplier counts must be positive")

    @property
    def total_multipliers(self) -> int:
        return self.qk_multipliers + self.probv_multipliers

    @property
    def compute_roof_flops(self) -> float:
        """Peak FLOP/s (each multiplier performs one MAC = 2 FLOPs/cycle)."""
        return self.total_multipliers * 2.0 * self.clock_hz

    @property
    def dram_bandwidth(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.hbm_channels * self.hbm_channel_bandwidth

    def scaled(self, factor: float, name: str = None) -> "ArchConfig":
        """A proportionally scaled instance (e.g. 1/8 for Table III).

        Compute resources and memory bandwidth scale together, matching
        the paper's SpAtten-1/8 (128 multipliers, 64 GB/s).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        # Narrow datapaths are easier to keep busy: the utilisation
        # losses folded into compute_efficiency (row-serialisation
        # bubbles, bank conflicts across a 512-wide array) shrink as the
        # array narrows, so small instances run closer to ideal.
        efficiency = self.compute_efficiency
        if factor < 1.0:
            efficiency = min(0.80, efficiency * 1.35)
        return dataclasses.replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            compute_efficiency=efficiency,
            qk_multipliers=max(1, int(round(self.qk_multipliers * factor))),
            probv_multipliers=max(1, int(round(self.probv_multipliers * factor))),
            softmax_parallelism=max(1, int(round(self.softmax_parallelism * factor * 8) / 8)),
            topk_parallelism=max(1, int(round(self.topk_parallelism * factor * 8) / 8)),
            key_sram_bytes=max(1024, int(self.key_sram_bytes * factor)),
            value_sram_bytes=max(1024, int(self.value_sram_bytes * factor)),
            hbm_channels=max(1, int(round(self.hbm_channels * factor))),
        )

    def with_overrides(self, **kwargs) -> "ArchConfig":
        return dataclasses.replace(self, **kwargs)


SPATTEN_FULL = ArchConfig()
SPATTEN_EIGHTH = SPATTEN_FULL.scaled(1.0 / 8.0, name="spatten-1/8")

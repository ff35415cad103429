"""HBM2 memory-system model (the reproduction's Ramulator substitute).

16 pseudo-independent channels, address-interleaved; the Q-K-V fetcher's
crossbar issues at most one request per channel per cycle (Section IV-D:
"There is no memory access conflict because the crossbar generates at
most one memory request for each channel at a time"), so a transfer of
``n`` bytes spread across channels completes in
``ceil(bytes_per_channel / channel_bytes_per_cycle)`` cycles at full
streaming efficiency.  Gather patterns (pruned-token K/V fetches) pay a
row-locality penalty modelled as a fixed efficiency factor plus per-burst
row activations in the energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import (HBM_ACTIVATION_PJ, HBM_PJ_PER_BIT,
                     HBM_STATIC_W_PER_CHANNEL)

__all__ = ["HBMConfig", "HBMModel", "HBMTransfer"]


@dataclass(frozen=True)
class HBMConfig:
    """Channel geometry; energies come from :mod:`.energy`.

    Energy follows the fine-grained-DRAM accounting the paper cites
    (O'Connor et al., MICRO'17): a per-bit transfer cost plus a
    per-activation cost amortised over the bytes of each row burst.
    """

    n_channels: int = 16
    channel_bandwidth: float = 32.0e9  # bytes/s
    clock_hz: float = 1.0e9  # accelerator clock used for cycle conversion
    activation_energy_pj: float = HBM_ACTIVATION_PJ
    random_efficiency: float = 0.70
    # Unannotated, so not fields: every configuration shares them.
    interleave_bytes = 256
    row_bytes = 1024
    sequential_efficiency = 0.95

    @property
    def static_power_w(self) -> float:
        return HBM_STATIC_W_PER_CHANNEL * self.n_channels

    @property
    def bytes_per_cycle_per_channel(self) -> float:
        return self.channel_bandwidth / self.clock_hz

    @property
    def peak_bandwidth(self) -> float:
        return self.n_channels * self.channel_bandwidth


@dataclass
class HBMTransfer:
    """Result of one modelled DRAM transfer."""

    n_bytes: float
    cycles: float
    energy_pj: float
    n_activations: float
    per_channel_bytes: np.ndarray = field(repr=False, default=None)


class HBMModel:
    """Stateful traffic accountant for one HBM stack."""

    def __init__(self, config: HBMConfig):
        self.config = config
        self.total_bytes = 0.0
        self.total_cycles = 0.0
        self.total_energy_pj = 0.0
        self.total_activations = 0.0

    def reset(self) -> None:
        self.total_bytes = 0.0
        self.total_cycles = 0.0
        self.total_energy_pj = 0.0
        self.total_activations = 0.0

    def transfer(self, n_bytes: float, random_access: bool = False) -> HBMTransfer:
        """Model one transfer of ``n_bytes`` spread over the channels.

        Args:
            n_bytes: payload size.
            random_access: gather pattern (pruned K/V fetch) vs stream.
        """
        cfg = self.config
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes == 0:
            return HBMTransfer(0.0, 0.0, 0.0, 0.0, np.zeros(cfg.n_channels))

        # Address interleaving spreads bursts round-robin; the residue
        # makes the busiest channel carry at most one extra burst.
        n_bursts = int(np.ceil(n_bytes / cfg.interleave_bytes))
        per_channel_bursts = np.full(cfg.n_channels, n_bursts // cfg.n_channels)
        per_channel_bursts[: n_bursts % cfg.n_channels] += 1
        per_channel_bytes = per_channel_bursts * float(cfg.interleave_bytes)

        efficiency = (
            cfg.random_efficiency if random_access else cfg.sequential_efficiency
        )
        busiest = float(per_channel_bytes.max())
        cycles = busiest / (cfg.bytes_per_cycle_per_channel * efficiency)

        if random_access:
            # Every burst risks opening a new row.
            activations = float(n_bursts)
        else:
            activations = float(np.ceil(n_bytes / cfg.row_bytes))
        energy = n_bytes * 8.0 * HBM_PJ_PER_BIT
        energy += activations * cfg.activation_energy_pj

        self.total_bytes += float(n_bytes)
        self.total_cycles += cycles
        self.total_energy_pj += energy
        self.total_activations += activations
        return HBMTransfer(
            float(n_bytes), cycles, energy, activations, per_channel_bytes
        )

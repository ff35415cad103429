"""Address/data crossbars between the Q-K-V fetcher and the HBM channels.

Section IV-D: a 32x16 crossbar routes read requests from 32 request
FIFOs to 16 HBM channels (master side larger than slave side), and a
16x32 crossbar returns data in order.  Because the fetcher emits at most
one request per channel per cycle there are no conflicts; throughput is
therefore ``min(n_requests_per_cycle, n_channels)`` routed per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import CROSSBAR_REQUEST_PJ

__all__ = ["Crossbar", "CrossbarStats"]


@dataclass
class CrossbarStats:
    routed_requests: int = 0
    cycles: float = 0.0
    energy_pj: float = 0.0


class Crossbar:
    """Cycle/energy model of an NxM request router."""

    def __init__(self, n_masters: int = 32, n_slaves: int = 16):
        if n_masters <= 0 or n_slaves <= 0:
            raise ValueError("port counts must be positive")
        self.n_masters = n_masters
        self.n_slaves = n_slaves
        self.stats = CrossbarStats()

    def route(self, n_requests: int) -> float:
        """Route ``n_requests`` independent requests; returns cycles.

        With one request per slave per cycle, ``n_slaves`` requests
        complete each cycle.
        """
        if n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        cycles = float(np.ceil(n_requests / self.n_slaves)) if n_requests else 0.0
        self.stats.routed_requests += n_requests
        self.stats.cycles += cycles
        self.stats.energy_pj += n_requests * CROSSBAR_REQUEST_PJ
        return cycles

    def route_channel_requests(self, per_channel: Sequence[int]) -> float:
        """Route per-channel request counts; bottleneck is the busiest slave."""
        per_channel = np.asarray(per_channel)
        if len(per_channel) > self.n_slaves:
            raise ValueError("more channels than slave ports")
        if np.any(per_channel < 0):
            raise ValueError("request counts must be non-negative")
        n_requests = int(per_channel.sum())
        cycles = float(per_channel.max()) if n_requests else 0.0
        self.stats.routed_requests += n_requests
        self.stats.cycles += cycles
        self.stats.energy_pj += n_requests * CROSSBAR_REQUEST_PJ
        return cycles

    def reset(self) -> None:
        self.stats = CrossbarStats()

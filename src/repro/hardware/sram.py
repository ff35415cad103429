"""On-chip SRAM and FIFO models with CACTI-style energy accounting.

The paper's memory system (Section IV-A): two 196 KB SRAMs for keys and
values (double-buffered, sized for a 1024-token context at 12 bits:
2 x 1024 x 64 x 12 bit = 196 KB), 32 address FIFOs of depth 64 behind
the Q-K-V fetcher and 32 data FIFOs before the bitwidth converter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, List, TypeVar

from .energy import SRAM_READ_PJ_PER_BIT, SRAM_WRITE_PJ_PER_BIT

__all__ = ["SRAM", "SRAMStats", "Fifo"]

T = TypeVar("T")


@dataclass
class SRAMStats:
    reads: int = 0
    writes: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    energy_pj: float = 0.0


class SRAM:
    """Capacity-checked scratchpad with access-energy accounting.

    Args:
        capacity_bytes: total size.  The SRAMs are double-buffered, so
            only half of it is usable by a single working set (the other
            half is being filled).
    """

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.stats = SRAMStats()

    @property
    def usable_bytes(self) -> int:
        return self.capacity_bytes // 2

    def fits(self, n_bytes: float) -> bool:
        return n_bytes <= self.usable_bytes

    def write(self, n_bytes: float) -> None:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        self.stats.writes += 1
        self.stats.bytes_written += n_bytes
        self.stats.energy_pj += n_bytes * 8.0 * SRAM_WRITE_PJ_PER_BIT

    def read(self, n_bytes: float) -> None:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        self.stats.reads += 1
        self.stats.bytes_read += n_bytes
        self.stats.energy_pj += n_bytes * 8.0 * SRAM_READ_PJ_PER_BIT

    def reset(self) -> None:
        self.stats = SRAMStats()


class Fifo(Generic[T]):
    """Bounded FIFO mirroring the hardware queues (depth 64 by default).

    Used by the cycle-stepped top-k engine; occupancy overflow raises,
    matching the back-pressure the real design must apply.
    """

    def __init__(self, depth: int = 64):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._items: Deque[T] = deque()
        self.max_occupancy = 0
        self.total_pushes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: T) -> None:
        if self.full:
            raise OverflowError(f"push into full FIFO (depth {self.depth})")
        self._items.append(item)
        self.total_pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))

    def pop(self) -> T:
        if self.empty:
            raise IndexError("pop from empty FIFO")
        return self._items.popleft()

    def drain(self) -> List[T]:
        items = list(self._items)
        self._items.clear()
        return items

    def clear(self) -> None:
        self._items.clear()

"""On-chip bitwidth converter (paper Section IV-D).

DRAM stores attention inputs at 4, 6, 8, 10 or 12 bits (MSB chunk) plus
optional 4-bit LSB chunks; the on-chip datapath is fixed at 12 bits.
The converter selects the right bits out of each fetched word (MUXes),
shifts for unaligned reads, and — when an LSB fetch arrives — recomposes
``(msb << lsb_bits) | lsb`` into the full code.

The functional part operates on integer code arrays so tests can verify
exact recomposition; the cost part counts conversions for energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import CONVERTER_ELEMENT_PJ

__all__ = ["BitwidthConverter", "ConverterStats"]


@dataclass
class ConverterStats:
    elements_converted: int = 0
    energy_pj: float = 0.0


class BitwidthConverter:
    """Convert packed DRAM codes into the fixed on-chip width."""

    def __init__(self, onchip_bits: int = 12):
        if onchip_bits < 4:
            raise ValueError("onchip_bits must be >= 4")
        self.onchip_bits = onchip_bits
        self.stats = ConverterStats()

    def _account(self, n: int) -> None:
        self.stats.elements_converted += n
        self.stats.energy_pj += n * CONVERTER_ELEMENT_PJ

    def account_elements(self, n: int) -> None:
        """Cost-only accounting for elements converted in bulk (the
        simulator knows counts but does not materialise the codes)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._account(int(n))

    def align_msb(self, msb_codes: np.ndarray, msb_bits: int) -> np.ndarray:
        """Left-align MSB-only codes into the on-chip width.

        An ``msb_bits``-wide code occupies the top bits of the 12-bit
        datapath word; low bits are zero until (if ever) LSBs arrive.
        The numerical weight of the code is preserved: shifting left by
        ``onchip - msb`` multiplies by the step ratio.
        """
        msb_codes = np.asarray(msb_codes, dtype=np.int64)
        if msb_bits > self.onchip_bits:
            raise ValueError("msb wider than on-chip datapath")
        self._account(msb_codes.size)
        return msb_codes << (self.onchip_bits - msb_bits)

    def recompose(
        self,
        msb_codes: np.ndarray,
        lsb_codes: np.ndarray,
        msb_bits: int,
        lsb_bits: int,
    ) -> np.ndarray:
        """Combine MSB and LSB chunks into full codes, on-chip aligned."""
        if msb_bits + lsb_bits > self.onchip_bits:
            raise ValueError("msb+lsb exceed on-chip width")
        msb_codes = np.asarray(msb_codes, dtype=np.int64)
        lsb_codes = np.asarray(lsb_codes, dtype=np.int64)
        if msb_codes.shape != lsb_codes.shape:
            raise ValueError("chunk shapes must match")
        full = (msb_codes << lsb_bits) + lsb_codes
        self._account(msb_codes.size)
        return full << (self.onchip_bits - msb_bits - lsb_bits)

    def reset(self) -> None:
        self.stats = ConverterStats()

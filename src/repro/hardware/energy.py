"""Energy and power constants for the 40 nm SpAtten implementation.

The paper derives per-operation energies from Cadence Genus synthesis
(logic), CACTI (SRAMs/FIFOs), 45 nm FPU datasheets (softmax float
pipeline, used as an upper bound for 40 nm), and fine-grained HBM
measurements (DRAM).  We encode the resulting constants; per-benchmark
dynamic energy is then activity x constant, and the Table II /
Fig. 13 breakdowns are asserted against the paper's published splits
(1.36 W logic, 1.24 W SRAM, 5.71 W DRAM, 8.30 W total).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyModel", "EnergyBreakdown", "DEFAULT_ENERGY"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy constants (picojoules)."""

    #: 12-bit multiply + adder-tree share + pipeline registers, per MAC.
    mac_pj: float = 2.3
    #: Softmax per element: dequant scale, 5th-order Taylor exponential
    #: on an FMA, accumulation, division share, requantize.
    softmax_element_pj: float = 36.0
    #: Comparator toggle in the top-k engine / zero eliminator.
    compare_pj: float = 0.26
    #: SRAM access energy (196 KB-class macro at 40 nm).
    sram_read_pj_per_bit: float = 0.22
    sram_write_pj_per_bit: float = 0.26
    #: FIFO push+pop per bit.
    fifo_pj_per_bit: float = 0.22
    #: Crossbar routing per request.
    crossbar_request_pj: float = 2.4
    #: Bitwidth converter per element.
    converter_element_pj: float = 0.11
    #: Importance-score accumulator per probability accumulated.
    accumulate_pj: float = 0.33


@dataclass
class EnergyBreakdown:
    """Joules per subsystem for one simulated workload."""

    compute_logic_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.compute_logic_j + self.sram_j + self.dram_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_logic_j=self.compute_logic_j + other.compute_logic_j,
            sram_j=self.sram_j + other.sram_j,
            dram_j=self.dram_j + other.dram_j,
        )


DEFAULT_ENERGY = EnergyModel()

"""Energy and power constants for the 40 nm SpAtten implementation.

The paper derives per-operation energies from Cadence Genus synthesis
(logic), CACTI (SRAMs/FIFOs), 45 nm FPU datasheets (softmax float
pipeline, used as an upper bound for 40 nm), and fine-grained HBM
measurements (DRAM).  This module is the one table of the resulting
constants: every hardware module reads the ones it charges from here,
and nothing overrides them.  Per-benchmark dynamic energy is then
activity x constant, and the Table II / Fig. 13 breakdowns are asserted
against the paper's published splits (1.36 W logic, 1.24 W SRAM,
5.71 W DRAM, 8.30 W total).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyBreakdown"]

# --- datapath logic (pJ per operation) --------------------------------
#: 12-bit multiply + adder-tree share + pipeline registers, per MAC.
MAC_PJ = 2.3
#: Softmax per element: dequant scale, 5th-order Taylor exponential
#: on an FMA, accumulation, division share, requantize.
SOFTMAX_ELEMENT_PJ = 36.0
#: Importance-score accumulator per probability accumulated.
ACCUMULATE_PJ = 0.33

# --- comparators (pJ per comparison or element) -----------------------
#: One comparator toggle of the token/head top-k engine (Section IV-B),
#: charged by ``TopKEngine`` (``hardware/topk_engine.py``): per
#: comparison in ``select``, and ~3n per ranked pass of n scores in the
#: simulator's closed-form ``expected_pass``.  With the zero
#: eliminator's charge and 0.10 pJ of FIFO traffic per element it sets
#: the engine's power against the Batcher sorter's comparator
#: (SORTER_COMPARE_PJ): the paper reports the engine at 3.5x lower
#: power but publishes no per-comparison energy.
TOKEN_TOPK_COMPARE_PJ = 0.12
#: One comparison of the per-query local value-pruning top-k, charged
#: by ``SpAttenSimulator._value_topk_energy_pj``: two per key and query
#: (partition and filter pass).  The paper publishes no per-comparison
#: energy either; 0.26 pJ is calibrated so the value engine, which
#: makes nearly all of Fig. 13(b)'s "top-k engines" slice, lands on
#: the figure's share.
VALUE_TOPK_COMPARE_PJ = 0.26
#: Zero eliminator (Fig. 10) per element compacted.
ZERO_ELIMINATOR_ELEMENT_PJ = 0.08
#: Compare-exchange of the Batcher odd-even sorter baseline.
SORTER_COMPARE_PJ = 0.14

# --- memory system ----------------------------------------------------
#: SRAM access energy per bit (196 KB-class macro at 40 nm, CACTI).
SRAM_READ_PJ_PER_BIT = 0.22
SRAM_WRITE_PJ_PER_BIT = 0.26
#: FIFO push+pop per bit.
FIFO_PJ_PER_BIT = 0.22
#: Crossbar routing per request.
CROSSBAR_REQUEST_PJ = 2.4
#: Bitwidth converter per element.
CONVERTER_ELEMENT_PJ = 0.11
#: HBM transfer energy per bit and per row activation, after the
#: fine-grained-DRAM accounting the paper cites (O'Connor et al.,
#: MICRO'17).
HBM_PJ_PER_BIT = 3.9
HBM_ACTIVATION_PJ = 909.0
#: HBM background power per channel (refresh, I/O idle, clocking),
#: charged for the whole run duration; dominant at the modest average
#: bandwidths of the benchmark mix, which is how the paper's Table II
#: reaches 5.71 W of DRAM power (16 x 0.2875 = 4.6 W static plus
#: dynamic transfer energy).
HBM_STATIC_W_PER_CHANNEL = 0.2875


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

"""SpAtten-e2e: the FFN-extended accelerator (paper Section V-B).

"We extend our SpAtten to support the FC in the Feed-Forward Network
(FFN) layers by reusing the multiplier arrays.  FC weights are linear
symmetrically quantized to 12 bits and 8 bits and stored on DRAM."

In the GPT-2 generation stage every FC is a matrix-vector product, so
each decode step must stream the full weight set of every layer from
DRAM — the e2e design is therefore weight-bandwidth-bound, which is
exactly the behaviour Table IV reports (FC 92.4% of SpAtten-e2e
latency) and the reason the HAT co-design of Fig. 16 shrinks FFN
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..config import ModelConfig
from ..core.trace import AttentionTrace
from .accelerator import SimReport, SpAttenSimulator
from .arch_config import SPATTEN_FULL
from .energy import MAC_PJ, EnergyBreakdown

__all__ = ["E2EReport", "SpAttenE2ESimulator", "fc_weight_bytes_per_block"]


def fc_weight_bytes_per_block(model: ModelConfig, fc_bits: int) -> float:
    """Weight bytes of one block's FC stack (QKV, output FC, FFN)."""
    d, f = model.d_model, model.d_ff
    n_weights = 4.0 * d * d + 2.0 * d * f
    return n_weights * fc_bits / 8.0


@dataclass
class E2EReport:
    """End-to-end (attention + FC) simulation outcome."""

    attention: SimReport
    fc_cycles: float
    fc_dram_bytes: float
    fc_energy: EnergyBreakdown
    fc_bits: int
    clock_hz: float

    @property
    def total_cycles(self) -> float:
        return self.attention.total_cycles + self.fc_cycles

    @property
    def latency_s(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def attention_latency_s(self) -> float:
        return self.attention.total_cycles / self.clock_hz

    @property
    def fc_latency_s(self) -> float:
        return self.fc_cycles / self.clock_hz

    @property
    def fc_latency_fraction(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.fc_cycles / self.total_cycles

    @property
    def energy(self) -> EnergyBreakdown:
        return self.attention.energy + self.fc_energy

    @property
    def average_power_w(self) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.energy.total_j / self.latency_s


class SpAttenE2ESimulator:
    """SpAtten with FC support via the reused multiplier arrays."""

    def __init__(self, fc_bits: int = 8):
        if fc_bits not in (8, 12):
            raise ValueError("the paper evaluates 8-bit and 12-bit FC weights")
        self.arch = SPATTEN_FULL
        self.fc_bits = fc_bits
        self.attention_sim = SpAttenSimulator(SPATTEN_FULL)

    def _fc_step_cost(
        self, model: ModelConfig, n_rows: int, weights_streamed: bool
    ):
        """Cycles/bytes/energy of one block's FC work on ``n_rows`` rows.

        ``weights_streamed``: in the generation stage (and for each new
        summarization pass) weights stream from DRAM; compute overlaps
        the stream, so cycles are the max of the two.
        """
        arch = self.arch
        d, f = model.d_model, model.d_ff
        macs = float(n_rows) * (4.0 * d * d + 2.0 * d * f)
        compute_cycles = macs / arch.total_multipliers
        weight_bytes = fc_weight_bytes_per_block(model, self.fc_bits)
        if weights_streamed:
            transfer = self.attention_sim.hbm.transfer(
                weight_bytes, random_access=False
            )
            dram_cycles = transfer.cycles
            dram_bytes = weight_bytes
            dram_energy_pj = transfer.energy_pj
        else:
            dram_cycles, dram_bytes, dram_energy_pj = 0.0, 0.0, 0.0
        cycles = max(compute_cycles, dram_cycles)
        compute_energy_pj = macs * MAC_PJ
        return cycles, dram_bytes, compute_energy_pj, dram_energy_pj

    def run_trace(self, trace: AttentionTrace) -> E2EReport:
        """Attention (SpAtten pipeline) + FC (reused multipliers)."""
        attention = self.attention_sim.run_trace(trace)

        fc_cycles = 0.0
        fc_dram_bytes = 0.0
        fc_compute_pj = 0.0
        fc_dram_pj = 0.0
        for step in trace.steps:
            # Summarization processes the whole live sentence per layer,
            # streaming each layer's weights once; each decode step
            # re-streams them for its single row (matrix-vector).
            cycles, dbytes, c_pj, d_pj = self._fc_step_cost(
                trace.model, step.n_queries, weights_streamed=True
            )
            fc_cycles += cycles
            fc_dram_bytes += dbytes
            fc_compute_pj += c_pj
            fc_dram_pj += d_pj

        fc_energy = EnergyBreakdown(
            compute_logic_j=fc_compute_pj * 1e-12,
            sram_j=0.0,
            dram_j=fc_dram_pj * 1e-12,
        )
        return E2EReport(
            attention=attention,
            fc_cycles=fc_cycles,
            fc_dram_bytes=fc_dram_bytes,
            fc_energy=fc_energy,
            fc_bits=self.fc_bits,
            clock_hz=self.arch.clock_hz,
        )

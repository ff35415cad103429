"""DRAM-traffic accounting over workload traces.

Models the SpAtten dataflow of Section IV: the co-processor fetches
Q/K/V from DRAM (they are produced by the host's FC units), holds K and
V of the *surviving* tokens in on-chip SRAM for reuse across queries in
the summarization stage, and writes attention outputs back.

Cascade token pruning removes K/V fetches of pruned tokens, cascade
head pruning removes whole head chunks, local value pruning removes V
vectors, and progressive quantization replaces full-precision fetches
with MSB-only fetches plus an occasional LSB pass.  The *baseline*
traffic (what the 10.0x DRAM-access reduction is measured against) is
the dense fp32 workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import ModelConfig, QuantConfig
from ..core.trace import AttentionTrace, LayerStep

__all__ = ["DramTraffic", "step_attention_bytes", "trace_dram"]

#: Bits per element of the unquantized baseline (fp32, the PyTorch
#: CPU/GPU baselines of Section V-A).
BASELINE_BITS = 32


@dataclass
class DramTraffic:
    """Bytes moved per tensor category."""

    query: float = 0.0
    key: float = 0.0
    value: float = 0.0
    output: float = 0.0

    @property
    def total(self) -> float:
        return self.query + self.key + self.value + self.output

    def __add__(self, other: "DramTraffic") -> "DramTraffic":
        return DramTraffic(
            query=self.query + other.query,
            key=self.key + other.key,
            value=self.value + other.value,
            output=self.output + other.output,
        )


def _fetch_bits(quant: Optional[QuantConfig], lsb_fraction: float) -> float:
    """Average bits fetched per Q/K/V element under the quant setting."""
    if quant is None:
        return float(BASELINE_BITS)
    if not quant.progressive:
        return float(quant.msb_bits)
    return quant.msb_bits + lsb_fraction * quant.lsb_bits


def _output_bits(quant: Optional[QuantConfig]) -> float:
    """Bits per written attention-output element (on-chip width)."""
    if quant is None:
        return float(BASELINE_BITS)
    return float(quant.onchip_bits)


def step_attention_bytes(
    step: LayerStep,
    model: ModelConfig,
    quant: Optional[QuantConfig],
) -> DramTraffic:
    """DRAM bytes of one attention execution.

    * Q: one fetch per live query row (live heads only).
    * K: one fetch per surviving key column per layer — reused across
      queries via the Key SRAM, so not multiplied by L0.
    * V: only the vectors surviving local value pruning.
    * output: written once per query row.
    """
    head_dim = model.head_dim
    fetch_bits = _fetch_bits(quant, step.lsb_fraction)
    out_bits = _output_bits(quant)
    q_elems = step.n_queries * step.n_heads * head_dim
    k_elems = step.n_keys * step.n_heads * head_dim
    v_elems = step.n_values * step.n_heads * head_dim
    out_elems = step.n_queries * step.n_heads * head_dim
    return DramTraffic(
        query=q_elems * fetch_bits / 8.0,
        key=k_elems * fetch_bits / 8.0,
        value=v_elems * fetch_bits / 8.0,
        output=out_elems * out_bits / 8.0,
    )


def trace_dram(
    trace: AttentionTrace,
    quant: Optional[QuantConfig] = "from_trace",
) -> DramTraffic:
    """Aggregate attention DRAM traffic over a trace.

    ``quant`` defaults to the trace's own setting; pass ``None``
    explicitly to cost the same work shape at fp32 (useful for isolating
    pruning's contribution from quantization's).
    """
    if isinstance(quant, str):
        quant = trace.quant
    total = DramTraffic()
    for step in trace.steps:
        total = total + step_attention_bytes(step, trace.model, quant)
    return total

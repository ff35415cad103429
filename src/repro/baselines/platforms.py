"""Analytical cost models of the paper's CPU/GPU baselines.

The paper measures attention latency/power on four general-purpose
platforms (Section V-A): TITAN Xp (server GPU), Jetson Nano (mobile
GPU), Xeon E5-2640 v4 (server CPU), Raspberry Pi 4 ARM A53 (mobile
CPU), running PyTorch fp32 with cuDNN/MKL.

Those platforms are catastrophically inefficient on attention for two
reasons the paper quantifies:

* *low achieved FLOP/s* — Fig. 18 pins TITAN Xp at 0.02 TFLOPS on BERT
  attention and 0.01 TFLOPS on GPT-2 attention (vs a 12 TFLOPS roof),
  because the matmuls are small/batched-by-head and 73% of attention
  time goes to data movement (split/concat/reshape/transpose, Fig. 2);
* *fixed per-invocation overhead* — each attention layer costs a
  sequence of kernel launches (GPU) or framework dispatches (CPU), so
  short-sentence tasks (CoLA, 11 tokens) see speedups near 1000x while
  long ones (SQuAD) see ~80x (Fig. 14's spread).

Each :class:`PlatformSpec` therefore carries achieved-throughput points
anchored on the paper's published data plus a per-layer overhead; the
model is ``sum_steps max(flops/throughput, bytes/bandwidth) +
n_steps * overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import ModelConfig
from ..core.trace import AttentionTrace
from ..eval.dram import BASELINE_BITS
from ..eval.flops import step_flops

__all__ = [
    "PlatformSpec",
    "PlatformReport",
    "TITAN_XP",
    "XEON",
    "JETSON_NANO",
    "RASPBERRY_PI",
    "ALL_PLATFORMS",
    "attention_cost",
    "fc_cost",
]


@dataclass(frozen=True)
class PlatformSpec:
    """One general-purpose platform's attention/FC efficiency envelope.

    Attributes:
        peak_flops: dense-matmul roof (marketing peak, fp32).
        dram_bandwidth: memory bandwidth roof (bytes/s).
        attn_eff_summarize: achieved FLOP/s on batch attention
            (summarization stage; Fig. 18 anchor for the GPU).
        attn_eff_decode: achieved FLOP/s on single-query attention
            (generation stage: vector-matrix, reshape-heavy).
        fc_eff_summarize: achieved FLOP/s on batch FC layers.
        fc_eff_decode: achieved FLOP/s on matrix-vector FC layers
            (bandwidth-bound; anchored on Table IV's 388 ms FC latency
            for GPT-2-Medium on the GPU).
        layer_overhead_summarize_s: fixed cost per attention-layer
            invocation in the batch summarization stage (kernel launches
            / dispatch / reshape data movement).
        layer_overhead_decode_s: fixed cost per attention-layer
            invocation in the generation stage (smaller: fewer and
            lighter kernels per single-query step).
        dynamic_power_w: measured dynamic power running attention
            (total minus idle, Section V-A protocol).
    """

    name: str
    peak_flops: float
    dram_bandwidth: float
    attn_eff_summarize: float
    attn_eff_decode: float
    fc_eff_summarize: float
    fc_eff_decode: float
    layer_overhead_summarize_s: float
    layer_overhead_decode_s: float
    dynamic_power_w: float


# Anchors: attention throughputs from Fig. 18 (0.02 / 0.01 TFLOPS);
# relative platform factors from the Fig. 14 geomeans (347/162 etc.);
# dynamic powers from the energy-vs-speedup ratios of Fig. 14.
TITAN_XP = PlatformSpec(
    name="titan-xp",
    peak_flops=12.1e12,
    dram_bandwidth=547.0e9,
    attn_eff_summarize=0.020e12,
    attn_eff_decode=0.010e12,
    fc_eff_summarize=3.6e12,
    fc_eff_decode=0.050e12,
    layer_overhead_summarize_s=500e-6,
    layer_overhead_decode_s=70e-6,
    dynamic_power_w=61.0,
)

XEON = PlatformSpec(
    name="xeon-e5-2640",
    peak_flops=0.384e12,
    dram_bandwidth=68.0e9,
    attn_eff_summarize=0.020e12 / 2.14,
    attn_eff_decode=0.010e12 / 2.14,
    fc_eff_summarize=0.12e12,
    fc_eff_decode=0.015e12,
    layer_overhead_summarize_s=700e-6,
    layer_overhead_decode_s=150e-6,
    dynamic_power_w=97.0,
)

JETSON_NANO = PlatformSpec(
    name="jetson-nano",
    peak_flops=0.236e12,
    dram_bandwidth=25.6e9,
    attn_eff_summarize=0.020e12 / 6.76,
    attn_eff_decode=0.010e12 / 6.76,
    fc_eff_summarize=0.05e12,
    fc_eff_decode=0.006e12,
    layer_overhead_summarize_s=2.0e-3,
    layer_overhead_decode_s=450e-6,
    dynamic_power_w=3.1,
)

RASPBERRY_PI = PlatformSpec(
    name="raspberry-pi-4",
    peak_flops=0.024e12,
    dram_bandwidth=4.0e9,
    attn_eff_summarize=0.020e12 / 31.3,
    attn_eff_decode=0.010e12 / 31.3,
    fc_eff_summarize=0.008e12,
    fc_eff_decode=0.0012e12,
    layer_overhead_summarize_s=10.0e-3,
    layer_overhead_decode_s=2.2e-3,
    dynamic_power_w=3.1,
)

ALL_PLATFORMS: List[PlatformSpec] = [TITAN_XP, XEON, JETSON_NANO, RASPBERRY_PI]


@dataclass
class PlatformReport:
    """Latency/energy of one workload on one platform."""

    platform: str
    latency_s: float
    energy_j: float
    flops: float
    dram_bytes: float


def _attention_step_bytes(step, model: ModelConfig) -> float:
    """fp32 QKV + output traffic of one dense attention execution."""
    head_dim = model.head_dim
    elems = (
        step.n_queries * step.n_heads * head_dim  # Q
        + 2 * step.n_keys * step.n_heads * head_dim  # K, V
        + step.n_queries * step.n_heads * head_dim  # output
    )
    return elems * BASELINE_BITS / 8.0


def attention_cost(
    spec: PlatformSpec,
    trace: AttentionTrace,
    include_summarize: bool = True,
    include_decode: bool = True,
    gather_overhead: float = 1.0,
) -> PlatformReport:
    """Attention-layer latency/energy of a workload trace on a platform.

    Pass a *dense* trace for the paper's baseline measurements; passing a
    SpAtten trace with ``gather_overhead > 1`` models the paper's
    "token pruning on CPUs/GPUs" experiment (topk+gather cost).
    """
    latency = 0.0
    total_flops = 0.0
    total_bytes = 0.0
    for step in trace.steps:
        if step.stage == "summarize" and not include_summarize:
            continue
        if step.stage == "decode" and not include_decode:
            continue
        eff = (
            spec.attn_eff_summarize
            if step.stage == "summarize"
            else spec.attn_eff_decode
        )
        flops = step_flops(step, trace.model).attention
        n_bytes = _attention_step_bytes(step, trace.model)
        overhead = (
            spec.layer_overhead_summarize_s
            if step.stage == "summarize"
            else spec.layer_overhead_decode_s
        )
        step_time = max(flops / eff, n_bytes / spec.dram_bandwidth)
        latency += step_time * gather_overhead + overhead
        total_flops += flops
        total_bytes += n_bytes
    return PlatformReport(
        platform=spec.name,
        latency_s=latency,
        energy_j=latency * spec.dynamic_power_w,
        flops=total_flops,
        dram_bytes=total_bytes,
    )


def fc_cost(
    spec: PlatformSpec,
    trace: AttentionTrace,
    include_summarize: bool = True,
) -> PlatformReport:
    """FC-layer (QKV proj + output FC + FFN) cost on a platform."""
    latency = 0.0
    total_flops = 0.0
    total_bytes = 0.0
    model = trace.model
    weight_bytes_block = (
        (4.0 * model.d_model**2 + 2.0 * model.d_model * model.d_ff)
        * BASELINE_BITS
        / 8.0
    )
    for step in trace.steps:
        if step.stage == "summarize" and not include_summarize:
            continue
        eff = (
            spec.fc_eff_summarize
            if step.stage == "summarize"
            else spec.fc_eff_decode
        )
        flops = step_flops(step, model).fc
        step_time = max(flops / eff, weight_bytes_block / spec.dram_bandwidth)
        latency += step_time
        total_flops += flops
        total_bytes += weight_bytes_block
    return PlatformReport(
        platform=spec.name,
        latency_s=latency,
        energy_j=latency * spec.dynamic_power_w,
        flops=total_flops,
        dram_bytes=total_bytes,
    )

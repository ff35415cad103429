"""Cycle-level SpAtten simulator (paper Section IV, Fig. 8).

Consumes an :class:`~repro.core.trace.AttentionTrace` (work shapes after
cascade pruning and quantization) and produces latency, energy, power,
and DRAM-traffic reports.

Pipeline model.  The critical path (Q-K-V fetch -> Q x K -> softmax ->
prob x V) is fully pipelined; one (head, query) occupies each stage for
its own cycle count, so steady-state throughput is set by the *slowest*
stage, and DRAM transfers overlap with compute (double-buffered SRAMs).
Per layer pass:

    layer_cycles = max(compute_pipeline, dram_transfer, token_topk)
                   + pipeline_fill

where ``compute_pipeline = n_heads * n_queries * max(stage cycles)`` and
the token-importance top-k runs "in parallel with the critical path"
(Section IV-A) and therefore only binds when it is the bottleneck — this
is exactly the effect Fig. 20 shows when the engine's parallelism is
reduced to 1.

The local value-pruning top-k partitions stream at ``parallelism``
comparisons per cycle with the filter pass overlapped on the second
comparator bank, so its per-query cost is ``2 * n_keys / parallelism``
cycles — at the default parallelism of 16 this matches the Q x K
module's 8 keys/cycle output rate, which is why the paper selected 16
(Fig. 19).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..core.trace import AttentionTrace, LayerStep
from ..eval.dram import step_attention_bytes
from .arch_config import ArchConfig, SPATTEN_FULL
from .bitwidth_converter import BitwidthConverter
from .crossbar import Crossbar
from .energy import (
    ACCUMULATE_PJ,
    FIFO_PJ_PER_BIT,
    VALUE_TOPK_COMPARE_PJ,
    EnergyBreakdown,
)
from .hbm import HBMConfig, HBMModel
from .modules import ProbVModule, QKModule, SoftmaxUnit
from .sram import SRAM
from .topk_engine import TopKEngine

__all__ = ["StepCost", "SimReport", "SpAttenSimulator"]


@dataclass
class StepCost:
    """Cycle accounting of one (layer, stage) pass."""

    layer: int
    stage: str
    compute_cycles: float
    dram_cycles: float
    token_topk_cycles: float
    fill_cycles: float
    dram_bytes: float

    @property
    def total_cycles(self) -> float:
        return (
            max(self.compute_cycles, self.dram_cycles, self.token_topk_cycles)
            + self.fill_cycles
        )

    @property
    def bottleneck(self) -> str:
        values = {
            "compute": self.compute_cycles,
            "dram": self.dram_cycles,
            "token_topk": self.token_topk_cycles,
        }
        return max(values, key=values.get)


@dataclass
class SimReport:
    """Simulation outcome for one workload trace."""

    arch_name: str
    total_cycles: float
    latency_s: float
    summarize_cycles: float
    decode_cycles: float
    dram_bytes: float
    energy: EnergyBreakdown
    step_costs: List[StepCost] = field(default_factory=list)
    module_energy_pj: Dict[str, float] = field(default_factory=dict)

    @property
    def average_power_w(self) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.energy.total_j / self.latency_s

    @property
    def bottleneck_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for cost in self.step_costs:
            hist[cost.bottleneck] = hist.get(cost.bottleneck, 0) + 1
        return hist


class SpAttenSimulator:
    """Composable cycle/energy simulator for one SpAtten instance."""

    def __init__(self, arch: ArchConfig = SPATTEN_FULL):
        self.arch = arch
        self.hbm = HBMModel(HBMConfig(
            n_channels=arch.hbm_channels,
            channel_bandwidth=arch.hbm_channel_bandwidth,
            clock_hz=arch.clock_hz,
            random_efficiency=arch.dram_efficiency,
        ))
        self.qk = QKModule(arch.qk_multipliers)
        self.softmax = SoftmaxUnit(arch.softmax_parallelism)
        self.probv = ProbVModule(arch.probv_multipliers)
        self.token_topk = TopKEngine(parallelism=arch.topk_parallelism)
        self.key_sram = SRAM("key", arch.key_sram_bytes)
        self.value_sram = SRAM("value", arch.value_sram_bytes)
        self.crossbar = Crossbar(32, arch.hbm_channels)
        self.converter = BitwidthConverter(arch.onchip_bits)
        self._accumulate_energy_pj = 0.0
        self._fifo_energy_pj = 0.0

    def reset(self) -> None:
        from .modules import ModuleStats

        self.hbm.reset()
        self.qk.stats = ModuleStats()
        self.softmax.stats = ModuleStats()
        self.probv.stats = ModuleStats()
        self.token_topk.reset()
        self.key_sram.reset()
        self.value_sram.reset()
        self.crossbar.reset()
        self.converter.reset()
        self._accumulate_energy_pj = 0.0
        self._fifo_energy_pj = 0.0

    # ------------------------------------------------------------------
    # Per-step cost model
    # ------------------------------------------------------------------
    def _value_topk_cycles_per_query(self, n_keys: int) -> float:
        """Local value-pruning quick-select, filter bank overlapped."""
        if n_keys == 0:
            return 0.0
        return 2.0 * n_keys / self.arch.topk_parallelism

    def _sram_spill_factor(self, step: LayerStep, head_dim: int) -> float:
        """Refetch multiplier when a head's keys overflow the Key SRAM."""
        onchip_bytes = step.n_keys * head_dim * self.arch.onchip_bits / 8.0
        usable = self.key_sram.usable_bytes
        if onchip_bytes <= usable:
            return 1.0
        return math.ceil(onchip_bytes / usable)

    def _step_cost(self, step: LayerStep, trace: AttentionTrace) -> StepCost:
        model = trace.model
        head_dim = model.head_dim
        arch = self.arch
        pruning = trace.pruning
        value_pruning_on = pruning is not None and pruning.value_keep < 1.0
        token_pruning_on = pruning is not None and pruning.token_keep_final < 1.0
        head_pruning_on = pruning is not None and pruning.head_keep_final < 1.0

        # --- compute pipeline -----------------------------------------
        stage_candidates = [
            self.qk.query_cycles(step.n_keys, head_dim),
            self.softmax.query_cycles(step.n_keys),
            self.probv.query_cycles(step.n_values, head_dim),
        ]
        if value_pruning_on:
            # The per-query local value-pruning top-k joins the pipeline.
            stage_candidates.append(self._value_topk_cycles_per_query(step.n_keys))
        stage_cycles = max(stage_candidates)
        n_query_slots = step.n_heads * step.n_queries
        compute_cycles = n_query_slots * stage_cycles / arch.compute_efficiency

        self.qk.account(n_query_slots, step.n_keys, head_dim)
        self.softmax.account(n_query_slots, step.n_keys)
        self.probv.account(n_query_slots, step.n_values, head_dim)

        # --- token/head-importance top-k (parallel with critical path) --
        token_topk_cycles = 0.0
        if token_pruning_on or head_pruning_on:
            token_topk_cycles = self.token_topk.expected_pass(step.n_keys)

        # --- DRAM -------------------------------------------------------
        traffic = step_attention_bytes(step, model, trace.quant)
        spill = self._sram_spill_factor(step, head_dim)
        key_transfer = self.hbm.transfer(traffic.key * spill, random_access=True)
        value_transfer = self.hbm.transfer(traffic.value, random_access=True)
        query_transfer = self.hbm.transfer(traffic.query, random_access=False)
        out_transfer = self.hbm.transfer(traffic.output, random_access=False)
        dram_cycles = (
            key_transfer.cycles
            + value_transfer.cycles
            + query_transfer.cycles
            + out_transfer.cycles
        )
        dram_bytes = traffic.total + traffic.key * (spill - 1.0)

        # --- SRAM / interconnect activity -------------------------------
        onchip_elem_bytes = arch.onchip_bits / 8.0
        key_set_bytes = step.n_keys * head_dim * onchip_elem_bytes
        value_set_bytes = step.n_values * head_dim * onchip_elem_bytes
        self.key_sram.write(step.n_heads * key_set_bytes)
        self.value_sram.write(step.n_heads * value_set_bytes)
        self.key_sram.read(n_query_slots * key_set_bytes)
        self.value_sram.read(n_query_slots * value_set_bytes)

        n_requests = int(math.ceil(dram_bytes / self.hbm.config.interleave_bytes))
        self.crossbar.route(n_requests)
        n_fetched_elems = (
            (step.n_queries + step.n_keys + step.n_values)
            * step.n_heads
            * head_dim
        )
        self.converter.account_elements(int(n_fetched_elems))
        self._fifo_energy_pj += dram_bytes * 8.0 * FIFO_PJ_PER_BIT
        # Importance-score accumulation: one add per attention probability.
        self._accumulate_energy_pj += (
            n_query_slots * step.n_keys * ACCUMULATE_PJ
        )

        return StepCost(
            layer=step.layer,
            stage=step.stage,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            token_topk_cycles=token_topk_cycles,
            fill_cycles=float(arch.pipeline_fill_cycles),
            dram_bytes=dram_bytes,
        )

    # ------------------------------------------------------------------
    # Trace execution
    # ------------------------------------------------------------------
    def run_trace(self, trace: AttentionTrace) -> SimReport:
        """Simulate a full workload trace; returns the cost report."""
        self.reset()
        step_costs = [self._step_cost(step, trace) for step in trace.steps]

        summarize_cycles = sum(
            c.total_cycles for c in step_costs if c.stage == "summarize"
        )
        decode_cycles = sum(
            c.total_cycles for c in step_costs if c.stage == "decode"
        )
        total_cycles = summarize_cycles + decode_cycles
        latency_s = total_cycles / self.arch.clock_hz

        module_energy = {
            "qk_module": self.qk.stats.energy_pj,
            "softmax": self.softmax.stats.energy_pj,
            "probv_module": self.probv.stats.energy_pj,
            "topk_engines": self.token_topk.stats.energy_pj
            + self._value_topk_energy_pj(trace),
            "qkv_fetcher": self.crossbar.stats.energy_pj
            + self.converter.stats.energy_pj
            + self._fifo_energy_pj,
            "accumulators": self._accumulate_energy_pj,
        }
        compute_logic_pj = sum(module_energy.values())
        sram_pj = self.key_sram.stats.energy_pj + self.value_sram.stats.energy_pj
        dram_dynamic_j = self.hbm.total_energy_pj * 1e-12
        dram_static_j = self.hbm.config.static_power_w * latency_s
        energy = EnergyBreakdown(
            compute_logic_j=compute_logic_pj * 1e-12,
            sram_j=sram_pj * 1e-12,
            dram_j=dram_dynamic_j + dram_static_j,
        )

        return SimReport(
            arch_name=self.arch.name,
            total_cycles=total_cycles,
            latency_s=latency_s,
            summarize_cycles=summarize_cycles,
            decode_cycles=decode_cycles,
            dram_bytes=self.hbm.total_bytes,
            energy=energy,
            step_costs=step_costs,
            module_energy_pj=module_energy,
        )

    def _value_topk_energy_pj(self, trace: AttentionTrace) -> float:
        """Comparator energy of the per-query local value-pruning top-k."""
        total = 0.0
        for step in trace.steps:
            comparisons = 2.0 * step.n_keys * step.n_heads * step.n_queries
            total += comparisons * VALUE_TOPK_COMPARE_PJ
        return total

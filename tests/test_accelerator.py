"""Integration tests for the cycle-level SpAtten simulator."""

import numpy as np
import pytest

from repro.config import (
    BERT_BASE,
    GPT2_SMALL,
    PruningConfig,
    QuantConfig,
)
from repro.core.trace import AttentionTrace, dense_trace, spatten_trace
from repro.hardware.energy import TOKEN_TOPK_COMPARE_PJ
from repro.hardware import (
    SPATTEN_EIGHTH,
    SPATTEN_FULL,
    SpAttenE2ESimulator,
    SpAttenSimulator,
    area_model,
    fc_weight_bytes_per_block,
)

PRUNING = PruningConfig(token_keep_final=0.26, head_keep_final=0.83,
                        value_keep=0.85)
QUANT = QuantConfig(msb_bits=6, lsb_bits=4, progressive=True)


@pytest.fixture(scope="module")
def sim():
    return SpAttenSimulator()


def decode_only(trace):
    return AttentionTrace(
        trace.model, trace.original_length, trace.n_generated,
        trace.decode_steps, trace.quant, trace.pruning,
    )


class TestLatencyModel:
    def test_bert_is_compute_bound(self, sim):
        trace = spatten_trace(
            BERT_BASE, PruningConfig(token_keep_final=0.6), QUANT, 170
        )
        report = sim.run_trace(trace)
        assert report.bottleneck_histogram.get("compute", 0) > (
            report.bottleneck_histogram.get("dram", 0)
        )

    def test_gpt2_decode_is_memory_bound(self, sim):
        trace = spatten_trace(GPT2_SMALL, PRUNING, QUANT, 992, n_generate=8)
        report = sim.run_trace(decode_only(trace))
        assert report.bottleneck_histogram.get("dram", 0) > (
            report.bottleneck_histogram.get("compute", 0)
        )

    def test_pruning_reduces_cycles_and_dram(self, sim):
        dense = dense_trace(GPT2_SMALL, 512, n_generate=4)
        pruned = spatten_trace(GPT2_SMALL, PRUNING, None, 512, n_generate=4)
        dense_report = sim.run_trace(decode_only(dense))
        pruned_report = sim.run_trace(decode_only(pruned))
        assert pruned_report.total_cycles < dense_report.total_cycles
        assert pruned_report.dram_bytes < dense_report.dram_bytes

    def test_quantization_reduces_dram(self, sim):
        base = spatten_trace(GPT2_SMALL, PRUNING, None, 256, n_generate=4)
        quantized = spatten_trace(GPT2_SMALL, PRUNING, QUANT, 256, n_generate=4)
        assert (
            sim.run_trace(quantized).dram_bytes < sim.run_trace(base).dram_bytes
        )

    def test_more_work_more_cycles(self, sim):
        short = sim.run_trace(dense_trace(BERT_BASE, 32)).total_cycles
        long = sim.run_trace(dense_trace(BERT_BASE, 128)).total_cycles
        assert long > short

    def test_bert_effective_throughput_band(self, sim):
        """Fig. 18: SpAtten runs BERT near the compute roof — the
        dense-equivalent throughput must land in the paper's band."""
        from repro.eval.flops import trace_flops

        pruning = PruningConfig(token_keep_final=0.6, head_keep_final=0.75,
                                value_keep=0.9)
        quant = QuantConfig(msb_bits=8, lsb_bits=4, progressive=False)
        trace = spatten_trace(BERT_BASE, pruning, quant, 170)
        report = sim.run_trace(trace)
        dense_flops = trace_flops(dense_trace(BERT_BASE, 170)).attention
        dense_eq_tflops = dense_flops / report.latency_s / 1e12
        assert 0.8 < dense_eq_tflops < 3.2  # paper: 1.61

    def test_sram_spill_costs_extra_dram(self):
        tiny_sram = SPATTEN_FULL.with_overrides(
            key_sram_bytes=8 * 1024, value_sram_bytes=8 * 1024
        )
        trace = dense_trace(BERT_BASE, 512)
        spilled = SpAttenSimulator(tiny_sram).run_trace(trace)
        normal = SpAttenSimulator().run_trace(trace)
        assert spilled.dram_bytes > normal.dram_bytes

    def test_slow_topk_engine_becomes_bottleneck(self):
        """Fig. 20: with parallelism 1 the pruning top-k throttles the
        pipeline."""
        slow = SPATTEN_FULL.with_overrides(topk_parallelism=1)
        trace = spatten_trace(GPT2_SMALL, PRUNING, QUANT, 512, n_generate=4)
        slow_report = SpAttenSimulator(slow).run_trace(decode_only(trace))
        fast_report = SpAttenSimulator().run_trace(decode_only(trace))
        assert slow_report.total_cycles > 1.5 * fast_report.total_cycles


class TestEnergyModel:
    def test_energy_components_positive(self, sim):
        report = sim.run_trace(dense_trace(BERT_BASE, 64))
        assert report.energy.compute_logic_j > 0
        assert report.energy.sram_j > 0
        assert report.energy.dram_j > 0

    def test_power_in_paper_band(self, sim):
        """Table II: total power around 8.3 W."""
        trace = spatten_trace(GPT2_SMALL, PRUNING, QUANT, 992, n_generate=8)
        report = sim.run_trace(trace)
        assert 3.0 < report.average_power_w < 16.0

    def test_module_energy_reported(self, sim):
        report = sim.run_trace(dense_trace(BERT_BASE, 64))
        assert set(report.module_energy_pj) >= {
            "qk_module", "softmax", "probv_module", "topk_engines",
            "qkv_fetcher",
        }

    def test_token_topk_engine_charged_only_when_pruning(self):
        """Each ranked pass of a pruned trace charges the token/head
        top-k engine its ~3n comparisons; a dense trace ranks nothing."""
        trace = spatten_trace(GPT2_SMALL, PRUNING, None, 64, n_generate=2)
        pruned = SpAttenSimulator()
        pruned.run_trace(trace)
        stats = pruned.token_topk.stats
        assert stats.selections == len(trace.steps)
        assert stats.comparator_ops == 3 * sum(s.n_keys for s in trace.steps)
        assert stats.energy_pj == pytest.approx(
            stats.comparator_ops * TOKEN_TOPK_COMPARE_PJ)
        dense = SpAttenSimulator()
        dense.run_trace(dense_trace(GPT2_SMALL, 64, n_generate=2))
        assert dense.token_topk.stats.selections == 0
        assert dense.token_topk.stats.energy_pj == 0.0

    def test_qk_dominates_onchip_energy(self, sim):
        """Fig. 13(b): Q x K is the largest on-chip consumer."""
        trace = spatten_trace(BERT_BASE, PRUNING, QUANT, 170)
        report = sim.run_trace(trace)
        modules = report.module_energy_pj
        assert modules["qk_module"] == max(modules.values())


class TestScaledInstances:
    def test_eighth_scale_slower(self):
        trace = dense_trace(BERT_BASE, 128)
        full = SpAttenSimulator(SPATTEN_FULL).run_trace(trace)
        eighth = SpAttenSimulator(SPATTEN_EIGHTH).run_trace(trace)
        assert eighth.total_cycles > 4 * full.total_cycles

    def test_area_model_reference_point(self):
        assert area_model(SPATTEN_FULL).total_mm2 == pytest.approx(18.71, abs=0.01)

    def test_area_shrinks_with_scale(self):
        assert area_model(SPATTEN_EIGHTH).total_mm2 < area_model(SPATTEN_FULL).total_mm2

    def test_scaling_validation(self):
        with pytest.raises(ValueError):
            SPATTEN_FULL.scaled(0)


class TestE2ESimulator:
    def test_fc_weight_bytes(self):
        # GPT-2-Medium block: 4d^2 + 2*d*d_ff weights.
        from repro.config import GPT2_MEDIUM

        expected = (4 * 1024**2 + 2 * 1024 * 4096) * 8 / 8
        assert fc_weight_bytes_per_block(GPT2_MEDIUM, 8) == expected

    def test_fc_dominates_generation(self):
        """Table IV: FC takes >85% of SpAtten-e2e latency on GPT-2."""
        trace = spatten_trace(GPT2_SMALL, PRUNING, QUANT, 992, n_generate=8)
        report = SpAttenE2ESimulator(fc_bits=8).run_trace(decode_only(trace))
        assert report.fc_latency_fraction > 0.80

    def test_twelve_bit_slower_than_eight(self):
        trace = decode_only(
            spatten_trace(GPT2_SMALL, PRUNING, QUANT, 512, n_generate=4)
        )
        eight = SpAttenE2ESimulator(fc_bits=8).run_trace(trace)
        twelve = SpAttenE2ESimulator(fc_bits=12).run_trace(trace)
        assert twelve.latency_s > eight.latency_s

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            SpAttenE2ESimulator(fc_bits=7)

    def test_energy_additive(self):
        trace = decode_only(
            spatten_trace(GPT2_SMALL, PRUNING, QUANT, 256, n_generate=2)
        )
        report = SpAttenE2ESimulator(fc_bits=8).run_trace(trace)
        assert report.energy.total_j == pytest.approx(
            report.attention.energy.total_j + report.fc_energy.total_j
        )


class TestPinnedNumbers:
    """Exact outputs of both simulators on two registry benchmarks.

    The paper-band tests above tolerate any drift inside their bands;
    these pin every modelled number to the last bit, so moving a
    constant (or the code that reads it) cannot change a figure
    silently.
    """

    ATTENTION = {
        "bert-base-sst-2": (
            17304.63157894737,
            {"qk_module": 9421536.0, "softmax": 2304180.0,
             "probv_module": 8653888.0, "topk_engines": 33376.92,
             "qkv_fetcher": 1494683.84, "accumulators": 21121.65},
            (2.192878641e-05, 2.1846881279999992e-05,
             0.00010659029406315789),
        ),
        "gpt2-small-wikitext2": (
            15534543.769423561,
            {"qk_module": 10216342841.599998, "softmax": 2498562108.0,
             "probv_module": 8694390668.8,
             "topk_engines": 36129513.519999966,
             "qkv_fetcher": 218953869.8636805,
             "accumulators": 22903485.990000032},
            (0.02168728248777368, 0.022112783324160057,
             0.07542875248095002),
        ),
    }

    @staticmethod
    def _trace(key):
        from repro.eval.experiments import benchmark_traces
        from repro.workloads.benchmarks import get_benchmark

        return benchmark_traces(get_benchmark(key))[0]

    @staticmethod
    def _joules(energy):
        return (energy.compute_logic_j, energy.sram_j, energy.dram_j)

    @pytest.mark.parametrize("key", sorted(ATTENTION))
    def test_attention_simulator(self, key):
        report = SpAttenSimulator().run_trace(self._trace(key))
        cycles, modules, joules = self.ATTENTION[key]
        assert report.total_cycles == cycles
        assert report.module_energy_pj == modules
        assert self._joules(report.energy) == joules

    def test_e2e_simulator(self):
        key = "gpt2-small-wikitext2"
        report = SpAttenE2ESimulator().run_trace(self._trace(key))
        _, modules, _ = self.ATTENTION[key]
        assert report.total_cycles == 75499054.08521183
        assert report.attention.module_energy_pj == modules
        assert self._joules(report.fc_energy) == (
            0.13431920394239763, 0.0, 0.08993679298560024)
        assert self._joules(report.energy) == (
            0.15600648643017132, 0.022112783324160057, 0.16536554546655025)

"""Unit tests for SRAM, FIFOs, crossbar, and the bitwidth converter."""

import numpy as np
import pytest

from repro.core.quantization import LinearQuantizer
from repro.hardware.bitwidth_converter import BitwidthConverter
from repro.hardware.crossbar import Crossbar
from repro.hardware.energy import (
    CONVERTER_ELEMENT_PJ,
    CROSSBAR_REQUEST_PJ,
    SRAM_READ_PJ_PER_BIT,
    SRAM_WRITE_PJ_PER_BIT,
)
from repro.hardware.sram import SRAM, Fifo


class TestSRAM:
    def test_capacity_paper_sizing(self):
        """196KB double-buffered holds one 1024-token head at 12 bits."""
        sram = SRAM("key", 196 * 1024)
        working_set = 1024 * 64 * 12 / 8
        assert sram.fits(working_set)
        assert not sram.fits(working_set * 2.1)

    def test_energy_accounting(self):
        sram = SRAM("key", 1024)
        sram.read(10)
        assert sram.stats.energy_pj == pytest.approx(
            10 * 8 * SRAM_READ_PJ_PER_BIT)
        sram.write(10)
        assert sram.stats.energy_pj == pytest.approx(
            10 * 8 * SRAM_READ_PJ_PER_BIT + 10 * 8 * SRAM_WRITE_PJ_PER_BIT)
        assert sram.stats.reads == 1 and sram.stats.writes == 1

    def test_reset(self):
        sram = SRAM("key", 1024)
        sram.read(100)
        sram.reset()
        assert sram.stats.bytes_read == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SRAM("bad", 0)
        sram = SRAM("key", 1024)
        with pytest.raises(ValueError):
            sram.read(-1)


class TestFifo:
    def test_fifo_ordering(self):
        fifo = Fifo(depth=4)
        for item in "abc":
            fifo.push(item)
        assert [fifo.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_overflow_raises(self):
        fifo = Fifo(depth=2)
        fifo.push(1)
        fifo.push(2)
        with pytest.raises(OverflowError):
            fifo.push(3)

    def test_underflow_raises(self):
        with pytest.raises(IndexError):
            Fifo(depth=2).pop()

    def test_occupancy_tracking(self):
        fifo = Fifo(depth=8)
        for i in range(5):
            fifo.push(i)
        fifo.pop()
        assert fifo.max_occupancy == 5
        assert fifo.total_pushes == 5
        assert len(fifo) == 4

    def test_drain(self):
        fifo = Fifo(depth=4)
        fifo.push(1)
        fifo.push(2)
        assert fifo.drain() == [1, 2]
        assert fifo.empty


class TestCrossbar:
    def test_throughput_one_per_slave(self):
        xbar = Crossbar(32, 16)
        assert xbar.route(16) == 1.0
        assert xbar.route(17) == 2.0
        assert xbar.route(0) == 0.0

    def test_channel_request_bottleneck(self):
        xbar = Crossbar(32, 16)
        per_channel = [1] * 15 + [5]
        assert xbar.route_channel_requests(per_channel) == 5.0

    def test_energy_per_request(self):
        xbar = Crossbar(32, 16)
        xbar.route(10)
        assert xbar.stats.energy_pj == pytest.approx(10 * CROSSBAR_REQUEST_PJ)

    def test_validation(self):
        xbar = Crossbar(32, 16)
        with pytest.raises(ValueError):
            xbar.route(-1)
        with pytest.raises(ValueError):
            xbar.route_channel_requests([1] * 17)


class TestBitwidthConverter:
    def test_msb_alignment_preserves_weight(self):
        converter = BitwidthConverter(onchip_bits=12)
        codes = np.array([3, -5, 0])
        aligned = converter.align_msb(codes, msb_bits=8)
        assert np.array_equal(aligned, codes << 4)

    def test_recompose_matches_quantizer_split(self):
        """Hardware recomposition == software split inversion."""
        rng = np.random.default_rng(0)
        x = rng.normal(0, 2.0, size=256)
        quantizer = LinearQuantizer(8, 4)
        q = quantizer.quantize(x)
        msb, lsb = quantizer.split(q)
        converter = BitwidthConverter(onchip_bits=12)
        onchip = converter.recompose(msb, lsb, 8, 4)
        # On-chip word = full code aligned to 12 bits (shift 0 here).
        assert np.array_equal(onchip, q.codes)

    def test_width_validation(self):
        converter = BitwidthConverter(onchip_bits=12)
        with pytest.raises(ValueError):
            converter.align_msb(np.array([1]), msb_bits=16)
        with pytest.raises(ValueError):
            converter.recompose(np.array([1]), np.array([1]), 10, 4)

    def test_accounting(self):
        converter = BitwidthConverter()
        converter.account_elements(100)
        assert converter.stats.elements_converted == 100
        assert converter.stats.energy_pj == pytest.approx(
            100 * CONVERTER_ELEMENT_PJ)
        with pytest.raises(ValueError):
            converter.account_elements(-1)

"""Cycle-level SpAtten accelerator simulator.

Components mirror the paper's Fig. 8 block diagram: HBM + crossbars +
FIFOs + bitwidth converter (memory system), Q x K and prob x V
multiplier arrays with reconfigurable adder trees, the softmax /
progressive-quantization pipeline, the quick-select top-k engines with
zero eliminators, and the energy/area models calibrated to the paper's
published breakdowns (Table II, Fig. 13).
"""

from .accelerator import SimReport, SpAttenSimulator, StepCost
from .arch_config import SPATTEN_EIGHTH, SPATTEN_FULL, ArchConfig
from .area import PAPER_AREA_MM2, AreaBreakdown, area_model
from .bitwidth_converter import BitwidthConverter
from .crossbar import Crossbar
from .energy import EnergyBreakdown
from .hbm import HBMConfig, HBMModel, HBMTransfer
from .modules import ModuleStats, ProbVModule, QKModule, SoftmaxUnit
from .sorter import BatcherSorter, SortResult, batcher_network, sort_with_network
from .spatten_e2e import E2EReport, SpAttenE2ESimulator, fc_weight_bytes_per_block
from .sram import SRAM, Fifo, SRAMStats
from .topk_engine import TopKEngine, TopKEngineStats, TopKResult
from .zero_eliminator import ZeroEliminator, shift_network_eliminate

__all__ = [
    "SimReport",
    "SpAttenSimulator",
    "StepCost",
    "SPATTEN_EIGHTH",
    "SPATTEN_FULL",
    "ArchConfig",
    "PAPER_AREA_MM2",
    "AreaBreakdown",
    "area_model",
    "BitwidthConverter",
    "Crossbar",
    "EnergyBreakdown",
    "HBMConfig",
    "HBMModel",
    "HBMTransfer",
    "ModuleStats",
    "ProbVModule",
    "QKModule",
    "SoftmaxUnit",
    "BatcherSorter",
    "SortResult",
    "batcher_network",
    "sort_with_network",
    "E2EReport",
    "SpAttenE2ESimulator",
    "fc_weight_bytes_per_block",
    "SRAM",
    "Fifo",
    "SRAMStats",
    "TopKEngine",
    "TopKEngineStats",
    "TopKResult",
    "ZeroEliminator",
    "shift_network_eliminate",
]

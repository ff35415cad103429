"""Datapath-module cycle/energy models (paper Sections IV-E..IV-G).

Each module exposes per-query cycle costs (the pipeline scheduler in
:mod:`repro.hardware.accelerator` takes the max across concurrent
stages) and accumulates activity for the energy model.

* :class:`QKModule` — 512 multipliers + reconfigurable adder tree.  A
  key row of dimension D consumes D multipliers, so ``multipliers / D``
  keys are processed per cycle (Fig. 11's broadcast-multiply-reduce).
* :class:`SoftmaxUnit` — dequantize, exp (Taylor FMA pipeline),
  accumulate, divide, requantize at ``parallelism`` elements/cycle.
* :class:`ProbVModule` — the mirrored broadcast-multiply-reduce pipeline
  for attention_prob x V over the *locally kept* value vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import MAC_PJ, SOFTMAX_ELEMENT_PJ

__all__ = ["ModuleStats", "QKModule", "SoftmaxUnit", "ProbVModule"]


@dataclass
class ModuleStats:
    operations: float = 0.0  # MACs or elements, module-dependent
    cycles: float = 0.0
    energy_pj: float = 0.0


class QKModule:
    """Query-key multiplication unit."""

    def __init__(self, n_multipliers: int):
        if n_multipliers <= 0:
            raise ValueError("n_multipliers must be positive")
        self.n_multipliers = n_multipliers
        self.stats = ModuleStats()

    def keys_per_cycle(self, head_dim: int) -> float:
        """Key rows consumed per cycle (Fig. 11's 512/D packing)."""
        if head_dim > self.n_multipliers:
            return self.n_multipliers / head_dim  # multi-cycle per key
        return self.n_multipliers // head_dim

    def query_cycles(self, n_keys: int, head_dim: int) -> float:
        """Cycles to compute one query's scores against ``n_keys`` keys."""
        if n_keys == 0:
            return 0.0
        return math.ceil(n_keys / self.keys_per_cycle(head_dim))

    def account(self, n_queries: int, n_keys: int, head_dim: int) -> None:
        macs = float(n_queries) * n_keys * head_dim
        self.stats.operations += macs
        self.stats.cycles += n_queries * self.query_cycles(n_keys, head_dim)
        self.stats.energy_pj += macs * MAC_PJ


class SoftmaxUnit:
    """Softmax + progressive-quantization decision pipeline (Fig. 12)."""

    def __init__(self, parallelism: int):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.parallelism = parallelism
        self.stats = ModuleStats()

    def query_cycles(self, n_keys: int) -> float:
        if n_keys == 0:
            return 0.0
        return math.ceil(n_keys / self.parallelism)

    def account(self, n_rows: int, n_keys: int) -> None:
        elements = float(n_rows) * n_keys
        self.stats.operations += elements
        self.stats.cycles += n_rows * self.query_cycles(n_keys)
        self.stats.energy_pj += elements * SOFTMAX_ELEMENT_PJ


class ProbVModule:
    """Attention_prob x V unit over locally-kept values."""

    def __init__(self, n_multipliers: int):
        if n_multipliers <= 0:
            raise ValueError("n_multipliers must be positive")
        self.n_multipliers = n_multipliers
        self.stats = ModuleStats()

    def values_per_cycle(self, head_dim: int) -> float:
        if head_dim > self.n_multipliers:
            return self.n_multipliers / head_dim
        return self.n_multipliers // head_dim

    def query_cycles(self, n_values: int, head_dim: int) -> float:
        if n_values == 0:
            return 0.0
        return math.ceil(n_values / self.values_per_cycle(head_dim))

    def account(self, n_queries: int, n_values: int, head_dim: int) -> None:
        macs = float(n_queries) * n_values * head_dim
        self.stats.operations += macs
        self.stats.cycles += n_queries * self.query_cycles(n_values, head_dim)
        self.stats.energy_pj += macs * MAC_PJ

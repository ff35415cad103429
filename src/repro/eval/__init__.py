"""Evaluation utilities: FLOPs/DRAM accounting, accuracy/fidelity
metrics, and reporting.

The per-figure/table experiment runners live in
:mod:`repro.eval.experiments` and are imported explicitly (not here) to
keep the dependency graph acyclic: `repro.hardware` uses the traffic
accounting in this package.
"""

from .accuracy import (
    LmFidelity,
    RidgeReadout,
    SoftmaxReadout,
    classification_accuracy,
    extract_features,
    lm_fidelity,
    train_classification_readout,
    train_regression_readout,
)
from .dram import BASELINE_BITS, DramTraffic, step_attention_bytes, trace_dram
from .flops import FlopsBreakdown, step_flops, trace_flops

__all__ = [
    "LmFidelity",
    "RidgeReadout",
    "SoftmaxReadout",
    "classification_accuracy",
    "extract_features",
    "lm_fidelity",
    "train_classification_readout",
    "train_regression_readout",
    "BASELINE_BITS",
    "DramTraffic",
    "step_attention_bytes",
    "trace_dram",
    "FlopsBreakdown",
    "step_flops",
    "trace_flops",
]

"""SpAtten's algorithmic contribution: cascade pruning, progressive
quantization, and the top-k selection machinery.

Typical use::

    from repro.config import PruningConfig, QuantConfig
    from repro.core import SpAttenExecutor

    executor = SpAttenExecutor(
        pruning=PruningConfig(token_keep_final=0.5, head_keep_final=0.75,
                              value_keep=0.9),
        quant=QuantConfig(msb_bits=6, lsb_bits=4, progressive=True),
    )
    result = model.encode(token_ids, executor=executor)
    trace = executor.trace          # feed to repro.hardware / repro.eval
"""

from .batched_cascade import CascadeBatch
from .head_pruning import HeadPruningDecision, prune_heads
from .importance import HeadImportanceAccumulator, TokenImportanceAccumulator
from .pipeline import SpAttenExecutor
from .quantization import (
    LinearQuantizer,
    QuantizedTensor,
    attention_prob_error,
    needs_lsb,
    quantize_attention_inputs,
    softmax_error_bound,
)
from .schedule import (
    SequencePlan,
    decode_token_target,
    effective_token_keep,
    head_keep_counts,
    head_keep_fractions,
    token_keep_counts,
    token_keep_fractions,
)
from .token_pruning import TokenPruningDecision, prune_tokens
from .topk import (
    QuickSelectStats,
    filter_topk,
    quick_select_kth,
    topk_indices,
    topk_mask,
)
from .trace import (
    DEFAULT_LSB_FRACTION,
    AttentionTrace,
    LayerStep,
    dense_trace,
    spatten_trace,
)
from .value_pruning import apply_local_value_pruning, local_value_keep_indices

__all__ = [
    "CascadeBatch",
    "HeadPruningDecision",
    "prune_heads",
    "HeadImportanceAccumulator",
    "TokenImportanceAccumulator",
    "SpAttenExecutor",
    "LinearQuantizer",
    "QuantizedTensor",
    "attention_prob_error",
    "needs_lsb",
    "quantize_attention_inputs",
    "softmax_error_bound",
    "SequencePlan",
    "decode_token_target",
    "effective_token_keep",
    "head_keep_counts",
    "head_keep_fractions",
    "token_keep_counts",
    "token_keep_fractions",
    "TokenPruningDecision",
    "prune_tokens",
    "QuickSelectStats",
    "filter_topk",
    "quick_select_kth",
    "topk_indices",
    "topk_mask",
    "DEFAULT_LSB_FRACTION",
    "AttentionTrace",
    "LayerStep",
    "dense_trace",
    "spatten_trace",
    "apply_local_value_pruning",
    "local_value_keep_indices",
]

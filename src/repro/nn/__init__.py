"""NumPy transformer substrate: the models SpAtten accelerates.

Public surface:

* functional ops (:func:`softmax`, :func:`layer_norm`, ...)
* :class:`MultiHeadAttention` and :class:`AttentionRecord`
* :class:`TransformerModel` with pluggable :class:`AttentionExecutor`
* :class:`KVCache` for the GPT generation stage
* :class:`NumericsPolicy` — the accuracy-for-speed decode ladder
  (``exact`` / ``fp32`` / ``int8``)
* weight constructors (:func:`random_model`, :func:`build_semantic_model`)
"""

from .batched_attention import PackedDecodeBackend, UnpackableExecutorError
from .attention import (
    AttentionRecord,
    AttentionWeights,
    MultiHeadAttention,
    causal_mask,
    expand_pruned_heads,
    merge_heads,
    scaled_dot_attention,
    split_heads,
)
from .functional import (
    cross_entropy,
    gelu,
    kl_divergence,
    layer_norm,
    linear,
    log_softmax,
    relu,
    softmax,
)
from .kv_cache import KVCache, LayerKVCache
from .numerics import (
    EXACT,
    FP32,
    INT8,
    NUMERICS_LADDER,
    NumericsMismatchError,
    NumericsPolicy,
    resolve_numerics,
)
from .transformer import (
    AttentionExecutor,
    BlockParams,
    DenseExecutor,
    EncodeResult,
    GenerationResult,
    LayerExecution,
    ModelParams,
    PrefillState,
    TransformerModel,
)
from .weights import (
    CONST_DIM,
    POSITION_DIMS,
    EVIDENCE_START,
    SALIENCE_DIM,
    SemanticModelInfo,
    SemanticSpec,
    build_semantic_model,
    random_model,
)

__all__ = [
    "PackedDecodeBackend",
    "UnpackableExecutorError",
    "AttentionRecord",
    "AttentionWeights",
    "MultiHeadAttention",
    "causal_mask",
    "expand_pruned_heads",
    "merge_heads",
    "scaled_dot_attention",
    "split_heads",
    "cross_entropy",
    "gelu",
    "kl_divergence",
    "layer_norm",
    "linear",
    "log_softmax",
    "relu",
    "softmax",
    "KVCache",
    "LayerKVCache",
    "EXACT",
    "FP32",
    "INT8",
    "NUMERICS_LADDER",
    "NumericsMismatchError",
    "NumericsPolicy",
    "resolve_numerics",
    "AttentionExecutor",
    "BlockParams",
    "DenseExecutor",
    "EncodeResult",
    "GenerationResult",
    "LayerExecution",
    "ModelParams",
    "PrefillState",
    "TransformerModel",
    "CONST_DIM",
    "POSITION_DIMS",
    "EVIDENCE_START",
    "SALIENCE_DIM",
    "SemanticModelInfo",
    "SemanticSpec",
    "build_semantic_model",
    "random_model",
]

"""Multi-head attention for the transformer substrate.

Implements the paper's Algorithm 1 exactly: Q/K/V are computed by one FC
each, split into heads, scores are ``Q @ K.T / sqrt(D)``, a row-wise
softmax produces attention probabilities, and ``probs @ V`` produces each
head's feature.  Everything is instrumented: every forward returns an
:class:`AttentionRecord` carrying the probabilities and per-head outputs
that cascade token/head pruning accumulate into importance scores
(Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .functional import softmax

__all__ = [
    "AttentionWeights",
    "AttentionRecord",
    "split_heads",
    "merge_heads",
    "scaled_dot_attention",
    "MultiHeadAttention",
]


@dataclass
class AttentionWeights:
    """Projection weights of one attention layer.

    Shapes: ``wq/wk/wv/wo`` are ``[d_model, d_model]``; biases are
    ``[d_model]``.  The output projection ``wo`` is the FC applied to the
    concatenation of all heads (paper Fig. 3: "There will be an additional
    FC on attention_out if there is more than one head").
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray

    def __post_init__(self) -> None:
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ValueError(f"{name} must be square [{d},{d}], got {w.shape}")
        for name in ("bq", "bk", "bv", "bo"):
            b = getattr(self, name)
            if b.shape != (d,):
                raise ValueError(f"{name} must be [{d}], got {b.shape}")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @staticmethod
    def random(d_model: int, rng: np.random.Generator, scale: float = None) -> "AttentionWeights":
        """Gaussian-initialised weights (Xavier-style scale by default)."""
        if scale is None:
            scale = 1.0 / np.sqrt(d_model)
        make = lambda: rng.normal(0.0, scale, size=(d_model, d_model))
        zeros = lambda: np.zeros(d_model)
        return AttentionWeights(
            wq=make(), wk=make(), wv=make(), wo=make(),
            bq=zeros(), bk=zeros(), bv=zeros(), bo=zeros(),
        )


@dataclass
class AttentionRecord:
    """Instrumentation emitted by one attention layer forward.

    Attributes:
        probs: Attention probabilities ``[h, L0, L1]``.
        head_outputs: Per-head features ``E`` of Algorithm 2, ``[h, L0, D]``
            (before the output FC).
        key_token_ids: Original-sentence positions of the L1 key/value
            columns.  Under cascade token pruning the columns are a
            shrinking subset of the sentence, and importance-score
            accumulation must address scores by original position.
        query_token_ids: Original positions of the L0 query rows.
        head_ids: Original head indices of the ``h`` surviving heads.
        value_kept: Per-head count of V vectors that survived local value
            pruning (for DRAM-traffic accounting).  ``None`` when local V
            pruning is off.
        lsb_refetched: Whether progressive quantization required the LSB
            pass for this layer's rows (``None`` outside SpAtten runs).
    """

    probs: np.ndarray
    head_outputs: np.ndarray
    key_token_ids: np.ndarray
    query_token_ids: np.ndarray
    head_ids: np.ndarray
    value_kept: Optional[np.ndarray] = None
    lsb_refetched: Optional[bool] = None
    extras: dict = field(default_factory=dict)

    @property
    def n_heads(self) -> int:
        return self.probs.shape[0]

    @property
    def n_queries(self) -> int:
        return self.probs.shape[1]

    @property
    def n_keys(self) -> int:
        return self.probs.shape[2]


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Reshape ``[L, d_model]`` to per-head chunks ``[h, L, D]``."""
    length, d_model = x.shape
    if d_model % n_heads != 0:
        raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
    head_dim = d_model // n_heads
    return x.reshape(length, n_heads, head_dim).transpose(1, 0, 2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: ``[h, L, D]`` back to ``[L, h*D]``."""
    n_heads, length, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(length, n_heads * head_dim)


def causal_mask(n_queries: int, n_keys: int, query_offset: int = 0) -> np.ndarray:
    """Boolean mask ``[L0, L1]``; True where attention is allowed.

    ``query_offset`` is the absolute position of the first query row,
    which in the generation stage is the current sequence length minus
    one (a single query attending to all cached keys).
    """
    q_pos = np.arange(n_queries)[:, None] + query_offset
    k_pos = np.arange(n_keys)[None, :]
    return k_pos <= q_pos


def scaled_dot_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Single- or multi-head scaled dot-product attention.

    Args:
        q: ``[h, L0, D]`` queries.
        k: ``[h, L1, D]`` keys.
        v: ``[h, L1, D]`` values.
        mask: optional boolean ``[L0, L1]``; False entries are excluded
            from the softmax (set to -inf score).

    Returns:
        ``(outputs [h, L0, D], probs [h, L0, L1])``.
    """
    head_dim = q.shape[-1]
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    if mask is not None and not mask.all():
        # An all-True mask excludes nothing; skipping it avoids an
        # [h, L0, L1]-sized np.where copy (values are unchanged either
        # way, so the fast path is bit-identical).
        scores = np.where(mask[None, :, :], scores, -1e30)
    probs = softmax(scores, axis=-1)
    return probs @ v, probs


class MultiHeadAttention:
    """Dense multi-head attention layer (the paper's Algorithm 1)."""

    def __init__(self, weights: AttentionWeights, n_heads: int):
        if weights.d_model % n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        self.weights = weights
        self.n_heads = n_heads

    @property
    def d_model(self) -> int:
        return self.weights.d_model

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def project_q(self, x: np.ndarray) -> np.ndarray:
        """Queries ``[h, L, D]`` from hidden states ``[L, d_model]``."""
        return split_heads(x @ self.weights.wq + self.weights.bq, self.n_heads)

    def project_kv(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Keys and values ``[h, L, D]`` from hidden states."""
        k = split_heads(x @ self.weights.wk + self.weights.bk, self.n_heads)
        v = split_heads(x @ self.weights.wv + self.weights.bv, self.n_heads)
        return k, v

    def output_projection(self, head_outputs: np.ndarray) -> np.ndarray:
        """Concatenate heads and apply the output FC.

        ``head_outputs`` may contain fewer heads than ``n_heads`` (head
        pruning); callers must expand back to the full width first — see
        :func:`expand_pruned_heads`.
        """
        return self.project_merged(merge_heads(head_outputs))

    def project_merged(self, merged: np.ndarray) -> np.ndarray:
        """Output FC over already-merged head features ``[L, h*D]``.

        Split out of :meth:`output_projection` so the packed decode
        backend (:mod:`repro.nn.batched_attention`) can collect merged
        rows across a batch and run this FC as one batched matmul.
        """
        return merged @ self.weights.wo + self.weights.bo

    def forward(
        self,
        x: np.ndarray,
        causal: bool = False,
        kv: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        query_offset: int = 0,
    ) -> Tuple[np.ndarray, AttentionRecord]:
        """Full dense forward.

        Args:
            x: ``[L0, d_model]`` hidden states producing the queries (and,
                when ``kv`` is None, also the keys/values).
            causal: apply a causal mask (GPT summarization stage).
            kv: pre-computed ``(K, V)`` per-head tensors ``[h, L1, D]``
                (generation stage: the concatenated KV cache).
            query_offset: absolute position of ``x[0]`` for causal
                masking in the generation stage.

        Returns:
            ``(attention_out [L0, d_model], AttentionRecord)``.
        """
        q = self.project_q(x)
        if kv is None:
            k, v = self.project_kv(x)
        else:
            k, v = kv
        n_queries, n_keys = q.shape[1], k.shape[1]
        mask = causal_mask(n_queries, n_keys, query_offset) if causal else None
        head_out, probs = scaled_dot_attention(q, k, v, mask)
        out = self.output_projection(head_out)
        record = AttentionRecord(
            probs=probs,
            head_outputs=head_out,
            key_token_ids=np.arange(n_keys),
            query_token_ids=np.arange(n_queries) + query_offset,
            head_ids=np.arange(self.n_heads),
        )
        return out, record


def expand_pruned_heads(
    head_outputs: np.ndarray,
    head_ids: np.ndarray,
    n_heads_total: int,
) -> np.ndarray:
    """Scatter surviving heads back into the full-width head tensor.

    After cascade head pruning only ``len(head_ids)`` heads are computed;
    the output FC still expects ``n_heads_total * D`` inputs, with pruned
    head chunks contributing zeros (their features are simply absent).
    """
    n_kept, length, head_dim = head_outputs.shape
    if n_kept != len(head_ids):
        raise ValueError("head_outputs and head_ids disagree on head count")
    full = np.zeros((n_heads_total, length, head_dim), dtype=head_outputs.dtype)
    full[np.asarray(head_ids)] = head_outputs
    return full

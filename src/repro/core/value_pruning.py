"""Local value pruning (paper Section III-C).

After softmax, the V vectors whose attention probabilities are smallest
are not fetched for the ``attention_prob x V`` computation.  Unlike
cascade token pruning this is *local*: the decision uses only the current
head's probabilities and affects only the current head's V fetch — the
token itself stays alive.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .topk import topk_indices

__all__ = [
    "value_keep_count",
    "local_value_keep_indices",
    "apply_local_value_pruning",
]


def value_keep_count(keep_fraction, n_keys, min_keep: int = 1):
    """V vectors each head fetches out of ``n_keys`` live columns.

    ``ceil(keep_fraction * n_keys)``, floored at ``min_keep`` (itself
    capped at ``n_keys``).  Scalars give the per-sequence count; arrays
    (one fraction and one live length per sequence) give the batched
    decode core the whole batch's counts from the same arithmetic.
    """
    return np.maximum(
        np.ceil(keep_fraction * n_keys).astype(np.int64),
        np.minimum(min_keep, n_keys),
    )


def local_value_keep_indices(
    probs: np.ndarray, keep_fraction: float, min_keep: int = 1
) -> List[np.ndarray]:
    """Per-head indices of the V vectors worth fetching.

    Args:
        probs: ``[h, L0, L1]`` attention probabilities of one layer.
        keep_fraction: fraction of the L1 value vectors to keep per head.
        min_keep: lower bound on kept vectors per head.

    Returns:
        A list of ``h`` sorted index arrays into the L1 axis.  Ranking is
        by the head's total probability mass per key column (for the
        generation stage L0 == 1, matching the paper's per-query use).
    """
    probs = np.asarray(probs)
    if probs.ndim != 3:
        raise ValueError("probs must be [heads, queries, keys]")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    keep_count = int(value_keep_count(keep_fraction, probs.shape[2], min_keep))
    return [
        topk_indices(head_probs.sum(axis=0), keep_count)
        for head_probs in probs
    ]


def apply_local_value_pruning(
    probs: np.ndarray,
    values: np.ndarray,
    kept_per_head: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute head outputs using only the kept V vectors.

    Pruned columns simply do not contribute (the paper drops them without
    renormalising the probabilities).

    Args:
        probs: ``[h, L0, L1]``.
        values: ``[h, L1, D]``.
        kept_per_head: output of :func:`local_value_keep_indices`.

    Returns:
        ``(head_outputs [h, L0, D], kept_counts [h])``.
    """
    probs = np.asarray(probs)
    values = np.asarray(values)
    n_heads, n_queries, _ = probs.shape
    head_dim = values.shape[2]
    outputs = np.zeros(
        (n_heads, n_queries, head_dim),
        dtype=np.result_type(probs, values),
    )
    kept_counts = np.zeros(n_heads, dtype=np.int64)
    for head, kept in enumerate(kept_per_head):
        kept_counts[head] = len(kept)
        outputs[head] = probs[head][:, kept] @ values[head][kept]
    return outputs, kept_counts

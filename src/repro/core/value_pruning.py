"""Local value pruning (paper Section III-C).

After softmax, the V vectors whose attention probabilities are smallest
are not fetched for the ``attention_prob x V`` computation.  Unlike
cascade token pruning this is *local*: the decision uses only the current
head's probabilities and affects only the current head's V fetch — the
token itself stays alive.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .topk import topk_mask

__all__ = [
    "value_keep_count",
    "local_value_keep_indices",
    "apply_local_value_pruning",
]


def value_keep_count(keep_fraction, n_keys):
    """V vectors each head fetches out of ``n_keys`` live columns.

    ``ceil(keep_fraction * n_keys)``, floored at one (when there is a
    column).  Scalars give the per-sequence count; arrays
    (one fraction and one live length per sequence) give the batched
    decode core the whole batch's counts from the same arithmetic.
    """
    return np.maximum(
        np.ceil(keep_fraction * n_keys).astype(np.int64),
        np.minimum(1, n_keys),
    )


def local_value_keep_indices(
    probs: np.ndarray, keep_fraction: float
) -> np.ndarray:
    """Per-head indices of the V vectors worth fetching.

    Args:
        probs: ``[h, L0, L1]`` attention probabilities of one layer.
        keep_fraction: fraction of the L1 value vectors to keep per head
            (at least one).

    Returns:
        An ``[h, k]`` plane of ascending indices into the L1 axis, one
        row a head: every head keeps the same count ``k``
        (:func:`value_keep_count`), so one :func:`~repro.core.topk.
        topk_mask` ranks all heads at once.  Ranking is by the head's
        total probability mass per key column (for the generation stage
        L0 == 1, the probabilities themselves, matching the paper's
        per-query use).
    """
    probs = np.asarray(probs)
    if probs.ndim != 3:
        raise ValueError("probs must be [heads, queries, keys]")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    n_heads, n_queries, n_keys = probs.shape
    keep_count = int(value_keep_count(keep_fraction, n_keys))
    if keep_count == n_keys:
        return np.broadcast_to(np.arange(n_keys), (n_heads, n_keys))
    mass = probs[:, 0] if n_queries == 1 else probs.sum(axis=1)
    kept = topk_mask(mass, keep_count).nonzero()[1]
    return kept.reshape(n_heads, keep_count)


def apply_local_value_pruning(
    probs: np.ndarray,
    values: np.ndarray,
    kept: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute head outputs using only the kept V vectors.

    Pruned columns simply do not contribute (the paper drops them without
    renormalising the probabilities).  One batched ``matmul`` runs every
    head's ``[L0, k] @ [k, D]`` product on operands laid out as the
    per-head gathers are, which NumPy hands to the same BLAS routine,
    slice by slice, as the per-head 2-D product: the outputs are
    bitwise the per-head loop's.

    Args:
        probs: ``[h, L0, L1]``.
        values: ``[h, L1, D]``.
        kept: ``[h, k]``, the output of :func:`local_value_keep_indices`.

    Returns:
        ``(head_outputs [h, L0, D], kept_counts [h])``.
    """
    probs = np.asarray(probs)
    values = np.asarray(values)
    kept = np.asarray(kept)
    n_heads, n_kept = kept.shape
    rows = np.arange(n_heads)[:, None]
    # ``[h, k, L0]`` transposed: each slice is laid out as the per-head
    # gather ``probs[head][:, kept]`` is, kept columns outermost.
    kept_probs = probs[rows, :, kept].transpose(0, 2, 1)
    outputs = np.matmul(kept_probs, values[rows, kept])
    return outputs, np.full(n_heads, n_kept, dtype=np.int64)

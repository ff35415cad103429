"""Cumulative token and head importance scores (paper Algorithm 2).

Token importance: attention probabilities are accumulated *vertically*
(over query rows, heads, layers, and — for GPT — generation iterations).
A token's column sum measures how much every other token attends to it;
tokens nobody attends to are safe to prune (Fig. 5).

Head importance: the absolute magnitude of each head's output features is
accumulated across layers.  Because one FC processes the concatenation of
all heads, a head with small output magnitude has little influence on
``block_out`` (Section III-B).

Both accumulators are *global* across a sequence's lifetime — this is
what makes the pruning "cascade": scores survive layer boundaries and
(for generation) iteration boundaries, and pruned ids never return.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["TokenImportanceAccumulator", "HeadImportanceAccumulator"]


class TokenImportanceAccumulator:
    """Cumulative token importance, addressed by original sentence position.

    The live token set shrinks as pruning proceeds and (for GPT) grows as
    new tokens are generated, so scores are kept in a dynamically-grown
    dense array indexed by original position.
    """

    def __init__(self, initial_length: int = 0):
        self._scores = np.zeros(int(initial_length), dtype=np.float64)

    def __len__(self) -> int:
        return len(self._scores)

    def ensure_length(self, length: int) -> None:
        """Grow the score array to cover positions ``[0, length)``."""
        if length > len(self._scores):
            grown = np.zeros(length, dtype=np.float64)
            grown[: len(self._scores)] = self._scores
            self._scores = grown

    def accumulate(self, probs: np.ndarray, key_token_ids: np.ndarray) -> None:
        """Add one attention round's probabilities (Algorithm 2 loop).

        Args:
            probs: ``[h, L0, L1]`` attention probabilities of the live
                heads and tokens.
            key_token_ids: ``[L1]`` original positions of the key columns.
        """
        probs = np.asarray(probs)
        if probs.ndim != 3:
            raise ValueError("probs must be [heads, queries, keys]")
        key_token_ids = np.asarray(key_token_ids)
        if probs.shape[2] != len(key_token_ids):
            raise ValueError("key_token_ids must label every key column")
        if len(key_token_ids):
            self.ensure_length(int(key_token_ids.max()) + 1)
        # Sum over heads and query rows -> one scalar per key column.
        column_mass = probs.sum(axis=(0, 1))
        np.add.at(self._scores, key_token_ids, column_mass)

    def scores_for(self, token_ids: np.ndarray) -> np.ndarray:
        """Current cumulative scores of the given original positions."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if len(token_ids) and int(token_ids.max()) >= len(self._scores):
            self.ensure_length(int(token_ids.max()) + 1)
        return self._scores[token_ids]

    def live_scores(self, length: int) -> np.ndarray:
        """Writable view of the scores of positions ``[0, length)``.

        The batched decode core loads a step's scores from this view and
        stores the accumulated ones back through it.
        """
        self.ensure_length(length)
        return self._scores[:length]

    @property
    def raw_scores(self) -> np.ndarray:
        """Scores indexed by original position (read-only copy)."""
        return self._scores.copy()


class HeadImportanceAccumulator:
    """Cumulative head importance from output magnitudes (Algorithm 2)."""

    def __init__(self, n_heads: int):
        if n_heads <= 0:
            raise ValueError("n_heads must be positive")
        self._scores = np.zeros(n_heads, dtype=np.float64)

    @property
    def n_heads(self) -> int:
        return len(self._scores)

    def accumulate(self, head_outputs: np.ndarray, head_ids: np.ndarray) -> None:
        """Add one layer's per-head output magnitudes.

        Args:
            head_outputs: ``[h_live, L0, D]`` features ``E`` of the live
                heads (before the output FC).
            head_ids: ``[h_live]`` original indices of those heads.
        """
        head_outputs = np.asarray(head_outputs)
        head_ids = np.asarray(head_ids, dtype=np.int64)
        if head_outputs.ndim != 3 or head_outputs.shape[0] != len(head_ids):
            raise ValueError("head_outputs must be [h_live, L0, D] matching head_ids")
        if len(head_ids) and int(head_ids.max()) >= self.n_heads:
            raise ValueError("head id out of range")
        magnitudes = np.abs(head_outputs).sum(axis=(1, 2))
        np.add.at(self._scores, head_ids, magnitudes)

    def scores_for(self, head_ids: np.ndarray) -> np.ndarray:
        return self._scores[np.asarray(head_ids, dtype=np.int64)]

    def live_scores(self) -> np.ndarray:
        """Writable view of every head's score (see
        :meth:`TokenImportanceAccumulator.live_scores`)."""
        return self._scores

    @property
    def raw_scores(self) -> np.ndarray:
        return self._scores.copy()

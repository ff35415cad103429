"""Cascade token pruning decisions (paper Section III-A, Algorithm 2).

Given the cumulative importance scores of the currently-live tokens and a
keep target from the schedule, select which tokens survive.  Selection is
order-preserving (the hardware top-k engine keeps stream order) and
supports *protected* positions: the [CLS] token of a classifier and the
current query token of a decoder must never be pruned, since the model's
prediction is read from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .topk import drop_one, topk_indices

__all__ = ["TokenPruningDecision", "prune_tokens"]


@dataclass
class TokenPruningDecision:
    """Outcome of one pruning round.

    ``kept_rows`` index into the *live* array that was scored (ascending,
    order-preserving); ``kept_ids`` / ``pruned_ids`` are the original
    sentence positions.
    """

    kept_rows: np.ndarray
    kept_ids: np.ndarray
    pruned_ids: np.ndarray

    @property
    def n_kept(self) -> int:
        return len(self.kept_rows)


def prune_tokens(
    live_ids: np.ndarray,
    scores: np.ndarray,
    keep_count: int,
    protected_ids: Sequence[int] = (),
) -> TokenPruningDecision:
    """Select the ``keep_count`` most important live tokens.

    Args:
        live_ids: original positions of the live tokens (sorted).
        scores: cumulative importance score of each live token.
        keep_count: how many tokens must survive (clipped to live count;
            at least the number of protected tokens survive).
        protected_ids: original positions that must survive regardless of
            score.

    Returns:
        A :class:`TokenPruningDecision`; ``kept_rows`` are strictly
        increasing so downstream K/V gathering preserves token order.
    """
    live_ids = np.asarray(live_ids, dtype=np.int64)
    scores = np.asarray(scores)
    if live_ids.shape != scores.shape:
        raise ValueError("live_ids and scores must align")
    n_live = len(live_ids)
    keep_count = min(max(int(keep_count), 0), n_live)

    if len(protected_ids) == 1:
        protected_mask = live_ids == protected_ids[0]
    else:
        protected_mask = np.isin(
            live_ids, np.asarray(list(protected_ids), dtype=np.int64)
        )
    n_protected = int(np.count_nonzero(protected_mask))
    keep_count = max(keep_count, n_protected)
    if keep_count >= n_live:
        return TokenPruningDecision(
            kept_rows=np.arange(n_live, dtype=np.int64),
            kept_ids=live_ids.copy(),
            pruned_ids=np.zeros(0, dtype=np.int64),
        )

    # Fill the non-protected slots by score.
    free_rows = np.flatnonzero(~protected_mask)
    n_free_slots = keep_count - n_protected
    kept_mask = np.ones(n_live, dtype=bool)
    if n_free_slots == len(free_rows) - 1:
        # One free token leaves (a steady decode step): the smallest
        # score, the latest of equal minima.
        kept_mask[free_rows[drop_one(scores[None, free_rows])]] = False
    else:
        chosen = topk_indices(scores[free_rows], n_free_slots)
        kept_mask[free_rows] = False
        kept_mask[free_rows[chosen]] = True
    kept_rows = np.flatnonzero(kept_mask)
    return TokenPruningDecision(
        kept_rows=kept_rows,
        kept_ids=live_ids[kept_rows],
        pruned_ids=live_ids[~kept_mask],
    )

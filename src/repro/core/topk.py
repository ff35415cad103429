"""Top-k selection algorithms (paper Section IV-B, Algorithm 3).

Cascade pruning needs, at every layer, the ``k`` most important tokens or
heads out of the live set.  The paper's hardware uses a quick-select
engine (average O(n)) rather than a full sort (O(n log n)); this module
implements the *functional* algorithms that the rest of the library uses:

* :func:`topk_indices` — order-preserving top-k, the semantic ground
  truth everything is tested against (the hardware engine "keeps the
  original order of inputs"); the per-sequence head ranking
  (:func:`~repro.core.head_pruning.prune_heads`) and the per-sequence
  token ranking at a surplus above one run it.
* :func:`topk_mask` — the same selection over the last axis of a padded
  ``[..., n]`` plane with a ragged per-row ``k``: what the batched
  decode core (:mod:`repro.core.batched_cascade`) runs once per layer
  for every sequence and head at a time, and what the per-sequence
  value ranking (:func:`~repro.core.value_pruning.
  local_value_keep_indices`) runs once per layer over every live head.
* :func:`drop_one` — the one entry a row of a plane loses when its ``k``
  is one short of its candidates: the steady decode step's token
  ranking, where every ranked row drops exactly one token — in the
  batched core and in :func:`~repro.core.token_pruning.prune_tokens`
  (one row).
* :func:`quick_select_kth` — the paper's Algorithm 3 as a pure function,
  returning the k-th largest value and the tie budget, along with the
  per-round partition sizes that drive the cycle model in
  :mod:`repro.hardware.topk_engine`.
* :func:`filter_topk` — the post-quick-select filtering step: keep
  elements strictly greater than the threshold plus exactly
  ``num_eq_k_th_largest`` elements equal to it, preserving input order.

There is exactly one selection rule in the library — the ``k`` largest,
ties toward earlier indices — and it lives here.  Its kernels differ
only in shape: one row with a scalar ``k`` ranks by a stable sort; a
plane finds each row's k-th largest value and filters (Algorithm 3 and
the zero-eliminator stage, vectorized); and a plane whose every row
drops exactly one candidate — a steady decode step's token ranking —
needs no ranking at all, only each row's smallest entry, the latest of
equal minima (:func:`drop_one`, one ``argmin`` over the reversed rows).
A stable sort of a ``[19, 8, 40]`` plane costs 2.5x the threshold filter
and the threshold filter on one row 5x the stable sort, so each shape
keeps the cheaper kernel: a sequence's ``[h, L1]`` value plane is a
plane (one threshold filter, not ``h`` sorts), its token row at a
surplus of one a row of :func:`drop_one`.  The ``argmin`` beats the
threshold filter only at a surplus of one: a few rounds of it for a
surplus of a few (value ranking keeps most of a head's columns, but
drops several) cost more than the filter's one sort, and so does
``np.partition`` with one ``kth`` per distinct ``k`` below several
hundred columns.
``tests/test_topk.py`` pins the kernels to the same selection on
generated scores with forced ties.

The cycle-accurate engine (comparator arrays, zero eliminators, FIFO
occupancy) lives in the hardware package; the functions here are the
specification it must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "topk_indices",
    "topk_mask",
    "drop_one",
    "quick_select_kth",
    "filter_topk",
    "QuickSelectStats",
]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in original (ascending) order.

    Ties are broken toward earlier indices, matching the hardware
    behaviour of keeping the first ``num_eq_k_th_largest`` ties in stream
    order.  ``k`` is clipped to ``[0, len(scores)]``.
    """
    scores = np.asarray(scores)
    n = len(scores)
    k = int(min(max(k, 0), n))
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k == n:
        return np.arange(n, dtype=np.int64)
    # Stable descending sort: equal scores keep their stream order, so
    # the first k are the k largest with ties toward earlier indices.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def topk_mask(scores: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-row mask of the ``k`` largest entries along the last axis.

    The plane form of :func:`topk_indices`: ``scores`` is ``[..., n]``,
    ``k`` an integer array that broadcasts to ``scores.shape[:-1]`` (one
    count per row — rows may differ — or per group of rows) with
    ``0 <= k <= n``, and
    ``topk_mask(scores, k)[row]`` is True exactly at
    ``topk_indices(scores[row], k[row])``.  Callers exclude a column
    (padding, an already-pruned token) by scoring it ``-inf`` and force
    one in (a protected token) with ``+inf``; a row's ``k`` must not
    exceed its finite-or-forced count.

    Each row keeps everything at or above its k-th largest value; where
    ties straddle the cut, the latest surplus ties are dropped — the
    threshold and ``num_eq_k_th_largest`` of :func:`quick_select_kth`
    followed by :func:`filter_topk`, for every row at once.
    """
    n, rows = scores.shape[-1], scores.shape[:-1]
    k = np.asarray(k)
    # The sorted plane flat (ascending), row ``r`` up to ``n * (r + 1)``:
    # the k-th largest sits ``k`` before its end — one 1-D gather, cheaper
    # than ``take_along_axis`` on the small planes the cascade ranks
    # (k == 0 reads the maximum, and the surplus-tie pass below then
    # drops every match).
    ordered = np.sort(scores, axis=-1).reshape(-1)
    cut = np.arange(n, ordered.size + 1, n).reshape(rows) - k
    kth = ordered[cut - (k == 0)][..., None]
    mask = scores >= kth
    # A row holds more than k at or above its k-th largest only if the
    # value sorted just below the cut ties it (k == 0 reads the k-th
    # largest itself); a row with k == n reads another row's value,
    # and the pass drops nothing there.
    if (ordered[cut - 1] == kth[..., 0]).any():
        surplus = np.add.reduce(mask, axis=-1, keepdims=True) - k[..., None]
        ties = scores == kth
        later_ties = np.cumsum(ties[..., ::-1], axis=-1)[..., ::-1]
        ties &= later_ties <= surplus
        mask &= ~ties
    return mask


def drop_one(scores: np.ndarray) -> np.ndarray:
    """Per row of a ``[n, m]`` plane, the column a top-k selection drops
    when the row's ``k`` is one short of its candidates.

    The excluded columns (padding, already-pruned tokens) and a forced
    one (a protected token) score ``+inf`` here — never the smallest —
    so ``topk_mask(where(excluded, -inf, scores), candidates - 1)[row]``
    is the row's candidates without ``drop_one(scores)[row]``: its
    smallest entry, the latest of equal minima (ties keep the earlier
    indices).  A row needs at least one finite entry.
    """
    return scores.shape[-1] - 1 - scores[:, ::-1].argmin(axis=-1)


@dataclass
class QuickSelectStats:
    """Work profile of one quick-select run (drives the cycle model).

    ``partition_sizes`` lists the number of elements pushed through the
    comparator arrays at each STATE_RUN iteration; total comparator work
    is their sum, and with parallelism ``P`` each round costs roughly
    ``ceil(size / P)`` cycles (plus pipeline constants).
    """

    partition_sizes: List[int]
    pivots: List[float]

    @property
    def n_rounds(self) -> int:
        return len(self.partition_sizes)


def quick_select_kth(
    values: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, int, QuickSelectStats]:
    """Find the k-th largest value via the paper's Algorithm 3.

    The loop mirrors the hardware state machine: a pivot is drawn from
    the FIFO being drained, the comparator arrays partition its contents
    into FIFO_L (``< pivot``) and FIFO_R (``> pivot``) while counting
    ties, and the START logic decides which FIFO to refine next.

    Args:
        values: input array (any real values, length >= 1).
        k: rank, 1-based (``k=1`` is the maximum), ``1 <= k <= len``.
        rng: pivot-selection randomness (deterministic default).

    Returns:
        ``(k_th_largest, num_eq_k_th_largest, stats)`` where
        ``num_eq_k_th_largest`` is how many elements equal to the
        threshold must be kept so that exactly ``k`` elements survive
        filtering (the paper's tie-handling output).
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        raise ValueError("quick_select_kth requires a non-empty array")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} elements")
    if rng is None:
        rng = np.random.default_rng(0)

    stats = QuickSelectStats(partition_sizes=[], pivots=[])
    source = values  # contents of the FIFO currently being drained
    target = k  # how many of the largest elements remain to be located
    while True:
        pivot = float(source[int(rng.integers(len(source)))])
        stats.pivots.append(pivot)
        stats.partition_sizes.append(int(len(source)))
        smaller = source[source < pivot]  # -> FIFO_L
        larger = source[source > pivot]  # -> FIFO_R
        num_eq_pivot = int(len(source) - len(smaller) - len(larger))
        if len(larger) > target:
            # Pivot too small: the k-th largest is among the larger ones.
            source = larger
        elif len(larger) + num_eq_pivot >= target:
            # larger <= target <= larger + ties: the pivot itself is the
            # k-th largest; keep (target - larger) of its ties.
            return pivot, target - len(larger), stats
        else:
            # Pivot too large: everything >= pivot is accounted for; the
            # k-th largest is among the smaller elements.
            target -= len(larger) + num_eq_pivot
            source = smaller


def filter_topk(
    values: np.ndarray, threshold: float, num_eq_keep: int
) -> np.ndarray:
    """Order-preserving filter after quick-select.

    Keeps every element strictly greater than ``threshold`` and the first
    ``num_eq_keep`` elements equal to it (stream order), mirroring the
    zero-eliminator filtering stage of the hardware engine.

    Returns the kept indices in ascending order.
    """
    values = np.asarray(values)
    above = values > threshold
    equal = values == threshold
    eq_positions = np.flatnonzero(equal)[: max(int(num_eq_keep), 0)]
    kept = np.flatnonzero(above)
    return np.sort(np.concatenate([kept, eq_positions])).astype(np.int64)

"""Cascade pruning control of a whole batch (paper Section IV-B).

The accelerator's top-k engine and its Q·K / A·V units are
batch-parallel, so pruning *control* never starves the datapath
(Fig. 8).  :class:`CascadeBatch` is that arrangement for the packed
backend's store core (:mod:`repro.nn.batched_attention`): the control
state of every pruned sequence of one step — cumulative token
and head importance, the live token and head sets, the schedule targets
— gathered into ``[B, ...]`` planes, so that each layer's cascade runs
as a handful of array operations over the batch instead of one Python
core per sequence.  It opens either stage of a sequence's life:

* a **decode step** (the constructor) — each sequence's new token joins
  its live set, the targets track the current total length and the new
  token is protected;
* a **prompt pass** (:meth:`CascadeBatch.summarize`) — each sequence's
  whole sentence is admitted, the targets are the plan's summarize keep
  counts and the last prompt token is protected.

Both run over the one store core, a decode step being a pass of one
query row a sequence.  The SpAtten sequences of ``fp32`` / ``int8``
without progressive quantization take it (the exact tier and
progressive-quantization rows keep the per-sequence functions, which
stay the oracle).

The per-layer stages are the same for both:

* :meth:`~CascadeBatch.prune` — cascade token pruning (ragged per-row
  keep count, one token protected) and cascade head pruning, each one
  :func:`~repro.core.topk.topk_mask` over a padded plane;
* :meth:`~CascadeBatch.value_mask` — local value pruning of every
  sequence and head at once;
* :meth:`~CascadeBatch.accumulate_tokens` /
  :meth:`~CascadeBatch.accumulate_heads` — Algorithm 2's importance
  accumulation as one reduction and one scatter.

Every decision is the one the per-sequence functions
(:func:`~repro.core.token_pruning.prune_tokens`,
:func:`~repro.core.head_pruning.prune_heads`,
:func:`~repro.core.value_pruning.local_value_keep_indices`) make on the
same scores: the counts come from the same schedule arithmetic and the
selection from the same rule (:mod:`repro.core.topk`).  The executors
stay the truth between steps — the planes are loaded from them when the
batch opens and stored back, once per sequence, by
:meth:`~CascadeBatch.commit`, the layers' work shapes as the rows the
batch holds (:meth:`repro.core.trace.AttentionTrace.add_batched`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .schedule import decode_token_targets
from .topk import topk_mask
from .value_pruning import value_keep_count

__all__ = ["CascadeBatch"]


class CascadeBatch:
    """Cascade control planes of the pruned rows of one batched step.

    Constructing the batch opens a *decode* step, which is layer 0's
    admission: each sequence's new token (``positions[j]``) joins its
    live set and its length grows by one.  :meth:`summarize` opens a
    prompt pass instead.

    Attributes:
        alive: ``[B, P + 1]`` live-token mask by original position (``P``
            is the longest sequence's length; shorter rows are padded
            dead, and so is the last column, the sink).
        head_alive: ``[B, h]`` live-head mask.
        n_alive: ``[B]`` live tokens per sequence.
        sink: the label of a column that holds no token — one past every
            real position, so ``-1`` names it too
            (:data:`repro.nn.kv_cache.NO_TOKEN`): always dead, and where
            such columns scatter their (zero) probability mass.
    """

    def __init__(self, executors: Sequence, positions: np.ndarray):
        for executor in executors:
            if executor._original_length is None:
                raise RuntimeError(
                    "decode before summarize; call encode/generate"
                )
        self._load(
            executors, [executor._total_length + 1 for executor in executors]
        )
        self._stage = "decode"
        self._protected = positions
        self.alive[self._rows, positions] = True
        self.n_alive += 1
        # The live-set budget tracks the current total length.
        self._token_targets = decode_token_targets(
            np.array([e.pruning.min_tokens for e in executors])[:, None],
            np.array([e._plan.token_fracs for e in executors]),
            np.array(self._lengths)[:, None],
        )

    @classmethod
    def summarize(
        cls, executors: Sequence, lengths: Sequence[int]
    ) -> "CascadeBatch":
        """Open the prompt pass of a batch of begun sequences.

        The summarize-stage opening: sequence ``j``'s whole sentence of
        ``lengths[j]`` tokens is admitted (which fixes its schedule),
        each layer's targets are the plan's summarize keep counts, and
        the last prompt token — whose row the next-token logits are read
        from — is the protected one.
        """
        self = cls.__new__(cls)
        for executor, length in zip(executors, lengths):
            executor._init_schedules(length)
        self._load(executors, list(lengths))
        self._stage = "summarize"
        self.n_alive = np.array(lengths)
        self._protected = self.n_alive - 1
        self.alive[:, :-1] = np.arange(self.sink) < self.n_alive[:, None]
        self._token_targets = np.array(
            [e._plan.token_counts for e in executors]
        )
        return self

    def _load(self, executors: Sequence, lengths: List[int]) -> None:
        """Gather the executors' control state into ``[B, ...]`` planes
        covering positions ``[0, lengths[j])``."""
        n = len(executors)
        n_heads = executors[0].head_acc.n_heads
        self._executors = executors
        self._lengths = lengths
        self.sink = max(lengths)
        # Cumulative scores are the ranking truth, so they stay fp64 on
        # every tier (a tier's compute dtype governs the attention
        # arithmetic, not the accumulators).
        # repro: allow[det-dtype-literal] -- importance accumulators
        self._scores = np.zeros((n, self.sink + 1), dtype=np.float64)
        # repro: allow[det-dtype-literal] -- importance accumulators
        self._head_scores = np.empty((n, n_heads), dtype=np.float64)
        self.alive = np.zeros((n, self.sink + 1), dtype=bool)
        self.head_alive = np.zeros((n, n_heads), dtype=bool)
        for j, (executor, length) in enumerate(zip(executors, lengths)):
            self._scores[j, :length] = executor.token_acc.live_scores(length)
            self._head_scores[j] = executor.head_acc.live_scores()
            self.alive[j, :length] = executor._alive_mask[:length]
            self.head_alive[j, executor._alive_heads] = True
        self._rows = np.arange(n)
        self.n_alive = np.array([e._n_alive for e in executors])
        self._n_heads_alive = np.count_nonzero(self.head_alive, axis=1)
        self._heads_pruned = False
        # Per-sequence schedules, [B, n_layers] / [B].
        self._head_counts = np.array([e._plan.head_counts for e in executors])
        self._value_keep = np.array([e.pruning.value_keep for e in executors])
        # Work shapes of the layers run so far (the executors' traces).
        self._n_values: Optional[np.ndarray] = None
        self._steps: List[tuple] = []

    @property
    def any_head_dead(self) -> bool:
        """Whether some sequence computes fewer than all heads."""
        return bool(self._n_heads_alive.min() < self.head_alive.shape[1])

    # ------------------------------------------------------------------
    # Per-layer stages, in the order the backend runs them
    # ------------------------------------------------------------------
    def prune(self, layer_idx: int) -> None:
        """Entry pruning of one layer: tokens, then heads.

        Only rows whose live set exceeds the layer's target are ranked.
        Dead and padded positions score ``-inf`` and the protected
        token ``+inf``, which is
        :func:`~repro.core.token_pruning.prune_tokens` with
        ``protected_ids=[position]`` on each row's live tokens.
        """
        targets = self._token_targets[:, layer_idx]
        rows = np.flatnonzero(targets < self.n_alive)
        if len(rows):
            ranked = np.where(self.alive[rows], self._scores[rows], -np.inf)
            ranked[np.arange(len(rows)), self._protected[rows]] = np.inf
            self.alive[rows] = topk_mask(ranked, targets[rows])
            self.n_alive[rows] = targets[rows]

        targets = np.maximum(self._head_counts[:, layer_idx], 1)
        rows = np.flatnonzero(targets < self._n_heads_alive)
        if len(rows):
            ranked = np.where(
                self.head_alive[rows], self._head_scores[rows], -np.inf
            )
            self.head_alive[rows] = topk_mask(ranked, targets[rows])
            self._n_heads_alive[rows] = targets[rows]
            self._heads_pruned = True

    def value_mask(
        self, probs: np.ndarray, lengths: np.ndarray
    ) -> Optional[np.ndarray]:
        """Local value pruning: the V vectors each head fetches.

        ``probs`` is the padded ``[B, h, L]`` plane each head ranks its
        columns by — a decode step's probabilities, a prompt pass's
        probability mass per column (summed over the queries) — and
        ``lengths`` each row's live columns.  Returns the ``[B, h, L]``
        keep mask, or ``None`` when no row drops anything.  Columns
        without a token hold exact zeros, so one is kept only in place
        of a live column that ties it at zero — and a zero masked or
        not contributes the same nothing.
        """
        self._n_values = value_keep_count(self._value_keep, lengths)
        if not (self._n_values < lengths).any():
            return None
        # A dead head's probabilities are whatever its stale keys give —
        # often one exact tie across the row, which would send the whole
        # plane through the tie filter; its mask is never read, so it
        # keeps the full width.
        counts = np.where(
            self.head_alive, self._n_values[:, None], probs.shape[-1]
        )
        return topk_mask(probs, counts)

    def accumulate_tokens(
        self, probs: np.ndarray, token_ids: np.ndarray
    ) -> None:
        """Add one layer's probability mass to the token scores.

        ``probs`` ``[B, h, L]`` must already be zero on dead heads;
        ``token_ids`` ``[B, L]`` labels each column with its original
        position, and those without a token with :attr:`sink`.
        """
        mass = np.add.reduce(probs, axis=1)
        self._scores[self._rows[:, None], token_ids] += mass

    def accumulate_heads(
        self, head_out: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Add one layer's head output magnitudes; closes the layer.

        ``head_out`` is ``[B, h, Q, D]`` (one query row in a decode
        step, the padded sentence in a prompt pass), zero on dead heads
        and on padded rows.  The
        layer's work shape is recorded with the value counts
        :meth:`value_mask` computed for it.
        """
        self._head_scores += np.add.reduce(np.abs(head_out), axis=(2, 3))
        self._steps.append(
            (lengths.tolist(), self._n_heads_alive.tolist(),
             self._n_values.tolist())
        )

    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Store the step's control state back into the executors."""
        n_alive = self.n_alive.tolist()
        generated = int(self._stage == "decode")
        for j, (executor, length) in enumerate(
            zip(self._executors, self._lengths)
        ):
            executor.token_acc.live_scores(length)[:] = self._scores[j, :length]
            executor.head_acc.live_scores()[:] = self._head_scores[j]
            executor._alive_mask[:length] = self.alive[j, :length]
            executor._n_alive = n_alive[j]
            executor._total_length = length
            if self._heads_pruned:
                executor._alive_heads = np.flatnonzero(self.head_alive[j])
            executor.trace.n_generated += generated
            # The layers' work shapes stay the rows the batch holds.
            executor.trace.add_batched(self._stage, self._steps, j)

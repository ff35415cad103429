"""Resident cascade pruning control of a whole batch (paper Section IV-B).

The accelerator's top-k engine ranks cumulative importance scores that
stay beside its Q·K / A·V units, so pruning *control* never starves the
datapath (Fig. 8).  :class:`CascadeBatch` is that arrangement for the
packed backend's store core (:mod:`repro.nn.batched_attention`): the
control state of every ``"pruned"`` row — cumulative token and head
importance, the live token and head masks and counts, the total
lengths, the per-row schedule tables — lives in ``[S, ...]`` planes,
one row per row of the backend's ``"pruned"``
:class:`~repro.nn.kv_cache.KVRowStore`\\ s and in the same order, for
as long as the sequence is resident.  Each layer's cascade then runs as
a handful of array operations over a block of rows instead of one
Python core per sequence, and a step neither loads per-sequence state
nor stores it back.

Residency is the K/V rows': the pruned rows' one
:class:`~repro.nn.kv_cache.RowTable` says which sequence fills each row
of every layer's store and of the control planes, and adopts, moves and
releases all of them as one row — at the prompt pass, which opens the
sentence's schedule first, or the first decode step of a sequence
prefilled elsewhere.  Adoption *deletes* the executor's control
attributes (it keeps them aside, under ``_held``), so any read of one
lands in the executor's ``__getattr__`` and is a barrier that writes
the planes back first (:meth:`CascadeBatch.hand_back`) — the
:class:`~repro.nn.kv_cache.LayerKVCache` pattern; the row stays, and the
next step takes the control state back in place.  Release (retire,
preempt, drain, quarantine) and the backend's ``reset`` write it back
too; a deep copy or a pickle takes a written-back copy and leaves the
row as it is (:meth:`CascadeBatch.write_back`).  A steady step opens
with one vectorized admission over the resident rows and commits
nothing:

* a **decode step** (:meth:`CascadeBatch.open_decode`) — each row's new
  token joins its live set, its total length grows by one, the targets
  follow from the resident schedule tables and the new token is
  protected;
* a **prompt pass** (:meth:`CascadeBatch.open_prompts`) — each
  sequence's whole sentence is admitted, the targets are the plan's
  summarize keep counts and the last prompt token is protected.

Both return a :class:`CascadeStep`, the block's per-layer stages over
views of its resident rows:

* :meth:`~CascadeStep.prune` — cascade token pruning (ragged per-row
  keep count, one token protected) and cascade head pruning, each one
  :func:`~repro.core.topk.topk_mask` over a padded plane — or, for the
  tokens of a steady decode step, where every ranked row drops one, one
  :func:`~repro.core.topk.drop_one`; a step where no row can prune a
  head (its plan keeps at least the heads it has live) skips the head
  ranking, and the dead-head gate is settled once a step;
* :meth:`~CascadeStep.value_mask` — local value pruning of every
  sequence and head at once;
* :meth:`~CascadeStep.accumulate_tokens` /
  :meth:`~CascadeStep.accumulate_heads` — Algorithm 2's importance
  accumulation as one reduction and one scatter.

Every decision is the one the per-sequence functions
(:func:`~repro.core.token_pruning.prune_tokens`,
:func:`~repro.core.head_pruning.prune_heads`,
:func:`~repro.core.value_pruning.local_value_keep_indices`) make on the
same scores: the counts come from the same schedule arithmetic and the
selection from the same rule (:mod:`repro.core.topk`), and mostly by
the same kernels: a sequence ranks its values with one
:func:`~repro.core.topk.topk_mask` over its ``[h, L1]`` plane and, at a
surplus of one, its tokens with one :func:`~repro.core.topk.drop_one`
row, where the batch ranks every sequence's at once.  The layers'
work shapes go into one block-level log, ``(n_keys, n_heads,
n_values)`` rows per step, of which each executor's
:class:`~repro.core.trace.AttentionTrace` takes its share at its
barrier (:meth:`~repro.core.trace.AttentionTrace.add_batched`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .schedule import decode_token_targets
from .topk import drop_one, topk_mask
from .value_pruning import value_keep_count

__all__ = ["CascadeBatch", "CascadeStep", "CONTROL_ATTRIBUTES"]

#: An executor's control attributes: what adoption takes off it and a
#: barrier writes back.
CONTROL_ATTRIBUTES = (
    "token_acc", "head_acc", "_alive_mask", "_n_alive", "_alive_heads",
    "_total_length", "trace",
)

#: The row planes, each ``[S, ...]``: moved, grown and cleared as rows.
_PLANES = (
    "scores", "alive", "head_scores", "head_alive", "n_alive",
    "n_heads_alive", "total", "min_tokens", "token_fracs", "head_counts",
    "value_keep", "log_from", "ident",
)


class CascadeBatch:
    """Resident cascade control planes of a backend's pruned rows.

    One member of the ``"pruned"`` rows'
    :class:`~repro.nn.kv_cache.RowTable`: row ``j`` holds the control
    state of the sequence whose K/V fill row ``j`` of every layer's
    store, and the table adopts, moves and releases it with them
    through the row primitives below.  ``ident`` names each adoption,
    so the block-level log can tell whose share a row of an entry is.

    Attributes:
        scores: ``[S, P + 1]`` cumulative token importance by original
            position (``P`` the model's ``max_seq_len``); the last
            column, the sink, is what a column without a token
            (:data:`repro.nn.kv_cache.NO_TOKEN`, ``-1``) reads and stays
            dead, where such columns scatter their (zero) mass.
        alive: ``[S, P + 1]`` live-token mask by original position.
        head_scores / head_alive: ``[S, h]`` head importance and mask.
        n_alive / n_heads_alive / total: ``[S]`` live tokens, live heads
            and total length (prompt plus generated tokens).
    """

    def __init__(self, config):
        self.n_layers = config.n_layers
        shapes = {
            "scores": (config.max_seq_len + 1,),
            "alive": (config.max_seq_len + 1,),
            "head_scores": (config.n_heads,),
            "head_alive": (config.n_heads,),
            "token_fracs": (config.n_layers,),
            "head_counts": (config.n_layers,),
        }
        dtypes = {
            # Cumulative scores are the ranking truth, so they stay fp64
            # on every tier (a tier's compute dtype governs the
            # attention arithmetic, not the accumulators).
            # repro: allow[det-dtype-literal] -- importance accumulators
            "scores": np.float64, "head_scores": np.float64,
            "alive": bool, "head_alive": bool,
            # repro: allow[det-dtype-literal] -- schedule fractions
            "token_fracs": np.float64, "value_keep": np.float64,
        }
        for name in _PLANES:
            setattr(self, name, np.zeros(
                (0,) + shapes.get(name, ()), dtype=dtypes.get(name, np.int64)
            ))
        #: The block-level log: ``(stage, counts, idents)`` per step and
        #: block — ``counts`` ``[n_layers, 3, n]`` the work shapes of
        #: its rows, ``idents`` the rows' ``ident`` then.  Entry ``i``
        #: of the list is entry ``_log_base + i`` of the run.
        self._log: List[tuple] = []
        self._log_base = 0
        self._next_ident = 0

    # ------------------------------------------------------------------
    # Row primitives, driven by the pruned rows' RowTable
    # ------------------------------------------------------------------
    def fill_rows(self, start: int, executors: Sequence, n_rows: int) -> None:
        """Take each executor's control state into rows ``start, start
        + 1, ...`` of ``n_rows`` rows — new ones, or one whose executor
        alone went home."""
        if n_rows > len(self.total):
            for name in _PLANES:
                old = getattr(self, name)
                new = np.zeros((n_rows,) + old.shape[1:], old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        for row, executor in enumerate(executors, start):
            if executor._original_length is None:
                raise RuntimeError(
                    "decode before summarize; call encode/generate"
                )
            total = executor._total_length
            self.scores[row] = 0.0
            self.scores[row, :total] = executor.token_acc.live_scores(total)
            self.head_scores[row] = executor.head_acc.live_scores()
            self.alive[row] = False
            self.alive[row, :total] = executor._alive_mask[:total]
            self.head_alive[row] = False
            self.head_alive[row, executor._alive_heads] = True
            self.n_alive[row] = executor._n_alive
            self.n_heads_alive[row] = len(executor._alive_heads)
            self.total[row] = total
            self.min_tokens[row] = executor.pruning.min_tokens
            self.token_fracs[row] = executor._plan.token_fracs
            self.head_counts[row] = np.maximum(executor._plan.head_counts, 1)
            self.value_keep[row] = executor.pruning.value_keep
            self.log_from[row] = self._log_base + len(self._log)
            self.ident[row] = self._next_ident
            self._next_ident += 1
            vars(executor)["_held"] = {
                name: vars(executor).pop(name) for name in CONTROL_ATTRIBUTES
            }
            executor._control = self

    def write_back(self, row: int, held: dict) -> None:
        """Write row ``row``'s planes and log share into ``held``, an
        executor's control attributes."""
        total = int(self.total[row])
        held["token_acc"].live_scores(total)[:] = self.scores[row, :total]
        held["head_acc"].live_scores()[:] = self.head_scores[row]
        held["_alive_mask"][:total] = self.alive[row, :total]
        held["_n_alive"] = int(self.n_alive[row])
        held["_total_length"] = total
        held["_alive_heads"] = np.flatnonzero(self.head_alive[row])
        trace, ident = held["trace"], int(self.ident[row])
        for stage, counts, idents in self._log[
            int(self.log_from[row]) - self._log_base:
        ]:
            if ident in idents:
                trace.n_generated += int(stage == "decode")
                trace.add_batched(stage, counts, idents.index(ident))

    def hand_back(self, row: int, executor) -> None:
        """Row ``row``'s executor takes its control state back."""
        held = vars(executor).pop("_held")
        self.write_back(row, held)
        vars(executor).update(held)
        executor._control = None

    #: A departing executor takes its control state back all the same:
    #: its trace keeps its share of the log.
    drop = hand_back

    def move_row(self, src: int, dst: int) -> None:
        """The last row in use, ``src``, fills row ``dst``; log entries
        every remaining row joined after are nobody's share."""
        for name in _PLANES:
            plane = getattr(self, name)
            plane[dst] = plane[src]
        end = self._log_base + len(self._log)
        first = int(self.log_from[:src].min(initial=end))
        del self._log[: first - self._log_base]
        self._log_base = first

    # ------------------------------------------------------------------
    # Opening a step
    # ------------------------------------------------------------------
    def open_decode(self, positions: np.ndarray) -> "CascadeStep":
        """Open a decode step over every resident row: layer 0's
        admission — row ``j``'s new token (``positions[j]``) joins its
        live set and its total length grows by one — as one vectorized
        update.  The live-set budget tracks the new total length."""
        n = len(positions)
        self.alive[np.arange(n), positions] = True
        self.n_alive[:n] += 1
        total = self.total[:n]
        total += 1
        targets = decode_token_targets(
            self.min_tokens[:n, None], self.token_fracs[:n], total[:, None]
        )
        return CascadeStep(self, slice(0, n), "decode", positions, targets)

    def open_prompts(
        self, rows: slice, lengths: np.ndarray, executors: Sequence
    ) -> "CascadeStep":
        """Open the prompt pass of the rows ``rows``, adopted from
        ``executors`` with their schedules opened: row ``j``'s whole sentence of
        ``lengths[j]`` tokens is admitted, each layer's targets are the
        plan's summarize keep counts, and the last prompt token — whose
        row the next-token logits are read from — is the protected
        one."""
        lengths = np.asarray(lengths)
        self.n_alive[rows] = lengths
        positions = np.arange(self.alive.shape[1] - 1)
        self.alive[rows, :-1] = positions < lengths[:, None]
        targets = np.array(
            [executor._plan.token_counts for executor in executors]
        )
        return CascadeStep(self, rows, "summarize", lengths - 1, targets)

    def _log_step(self, stage: str, counts: np.ndarray, rows: slice) -> None:
        self._log.append((stage, counts, self.ident[rows].tolist()))


class CascadeStep:
    """One store block's cascade over one step: views of its resident
    rows (writes land in the planes), the step's targets and protected
    tokens, and its entry of the block-level log.

    Attributes:
        alive: ``[n, P + 1]`` live-token mask of the block's rows.
        head_alive: ``[n, h]`` live-head mask.
        n_alive: ``[n]`` live tokens per row.
        offsets: ``[n, 1]`` where each row starts in the flat
            ``[n * (P + 1)]`` planes (row ``j`` at ``j * (P + 1)``).
    """

    def __init__(
        self, control: CascadeBatch, rows: slice, stage: str,
        protected: np.ndarray, targets: np.ndarray,
    ):
        self.alive = control.alive[rows]
        self.head_alive = control.head_alive[rows]
        self.n_alive = control.n_alive[rows]
        self._scores = control.scores[rows]
        self._head_scores = control.head_scores[rows]
        self._n_heads_alive = control.n_heads_alive[rows]
        self._head_counts = control.head_counts[rows]
        self._value_keep = control.value_keep[rows]
        self._protected = protected
        self._token_targets = targets
        # Settled once a step: a row prunes a head only while its plan
        # keeps fewer heads than it has live at some layer — after its
        # prompt pass never, unless it was adopted with more (a
        # replanned sequence) — and the gate changes only when one does.
        self._heads_prunable = (
            self._head_counts < self._n_heads_alive[:, None]
        ).any()
        #: The dead-head gate: the ``[n, h, 1]`` live-head mask while
        #: some row computes fewer than all heads (a view: it follows
        #: later head pruning), else ``None``.
        every_head = self._n_heads_alive.min() == self.head_alive.shape[1]
        self.gate = None if every_head else self.head_alive[:, :, None]
        # Positions past every row's total length are dead: the ranked
        # planes stop there.
        self._width = int(control.total[rows].max())
        # The rows' scores flat (a view: the plane is C-ordered), where
        # row ``j``'s position ``c`` sits at ``c + offsets[j]`` and
        # ``-1`` at a sink: one 1-D scatter where a 2-D one would build
        # two index planes.
        width = control.scores.shape[1]
        self._flat_scores = control.scores.reshape(-1)[
            rows.start * width : rows.stop * width
        ]
        self.offsets = width * np.arange(len(self.n_alive))[:, None]
        self._n_values: Optional[np.ndarray] = None
        self._layer = 0
        self._counts = np.empty(
            (control.n_layers, 3, len(self.n_alive)), dtype=np.int64
        )
        control._log_step(stage, self._counts, rows)

    # ------------------------------------------------------------------
    # Per-layer stages, in the order the backend runs them
    # ------------------------------------------------------------------
    def prune(self, layer_idx: int) -> None:
        """Entry pruning of one layer: tokens, then heads.

        Only rows whose live set exceeds the layer's target are ranked.
        Dead and padded positions are excluded and the protected token
        forced in, which is
        :func:`~repro.core.token_pruning.prune_tokens` with
        ``protected_ids=[position]`` on each row's live tokens.  When
        every ranked row drops one token (a steady decode step) each
        loses its smallest score (:func:`~repro.core.topk.drop_one`);
        otherwise :func:`~repro.core.topk.topk_mask` ranks them.
        """
        self._layer = layer_idx
        surplus = self.n_alive - self._token_targets[:, layer_idx]
        most = surplus.max()
        if most > 0:
            rows = (surplus > 0).nonzero()[0]
            width = self._width
            targets = self._token_targets[rows, layer_idx]
            ranked = np.where(
                self.alive[rows, :width], self._scores[rows, :width],
                np.inf if most == 1 else -np.inf,
            )
            ranked[np.arange(len(rows)), self._protected[rows]] = np.inf
            if most == 1:  # every ranked row drops one token
                self.alive[rows, drop_one(ranked)] = False
            else:
                self.alive[rows, :width] = topk_mask(ranked, targets)
            self.n_alive[rows] = targets

        if not self._heads_prunable:
            return
        targets = self._head_counts[:, layer_idx]
        rows = (targets < self._n_heads_alive).nonzero()[0]
        if len(rows):
            ranked = np.where(
                self.head_alive[rows], self._head_scores[rows], -np.inf
            )
            self.head_alive[rows] = topk_mask(ranked, targets[rows])
            self._n_heads_alive[rows] = targets[rows]
            self.gate = self.head_alive[:, :, None]

    def value_mask(
        self, probs: np.ndarray, lengths: np.ndarray
    ) -> Optional[np.ndarray]:
        """Local value pruning: the V vectors each head fetches.

        ``probs`` is the padded ``[n, h, L]`` plane each head ranks its
        columns by — a decode step's probabilities, a prompt pass's
        probability mass per column (summed over the queries) — and
        ``lengths`` each row's live columns.  Returns the ``[n, h, L]``
        keep mask, or ``None`` when no row drops anything.  Columns
        without a token hold exact zeros, so one is kept only in place
        of a live column that ties it at zero — and a zero masked or
        not contributes the same nothing.
        """
        self._n_values = value_keep_count(self._value_keep, lengths)
        if not (self._n_values < lengths).any():
            return None
        # A dead head's probabilities are whatever its keys give — the
        # zeros a prompt pass stored, often one exact tie across the
        # row, which would send the whole plane through the tie filter;
        # its mask is never read, so it keeps the full width.
        counts = np.where(
            self.head_alive, self._n_values[:, None], probs.shape[-1]
        )
        # Probabilities are non-negative, so their IEEE-754 bit patterns
        # rank as integers do, and NumPy sorts integers faster.
        return topk_mask(probs.view(f"i{probs.itemsize}"), counts)

    def accumulate_tokens(
        self, probs: np.ndarray, token_ids: np.ndarray
    ) -> None:
        """Add one layer's probability mass to the token scores.

        ``probs`` ``[n, h, L]`` must already be zero on dead heads;
        ``token_ids`` ``[n, L]`` labels each column with its original
        position, and those without a token with ``-1``: a sink, which
        takes their zero mass.
        """
        mass = np.add.reduce(probs, axis=1)
        self._flat_scores[token_ids + self.offsets] += mass

    def accumulate_heads(
        self, head_out: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Add one layer's head output magnitudes; closes the layer.

        ``head_out`` is ``[n, h, Q, D]`` (one query row in a decode
        step, the padded sentence in a prompt pass), zero on dead heads
        and on padded rows.  The layer's work shape goes into the log
        with the value counts :meth:`value_mask` computed for it.
        """
        self._head_scores += np.add.reduce(np.abs(head_out), axis=(2, 3))
        counts = self._counts[self._layer]
        counts[0] = lengths
        counts[1] = self._n_heads_alive
        counts[2] = self._n_values

"""The SpAtten attention pipeline as an :class:`AttentionExecutor`.

``SpAttenExecutor`` composes everything the paper proposes:

* **cascade token pruning** — entry pruning per layer against the
  schedule, driven by cumulative token importance (Algorithm 2); pruned
  tokens leave the residual stream (saving FFN work) and are evicted
  from every layer's KV cache (saving DRAM traffic in generation);
* **cascade head pruning** — a global live-head set shrinking across
  layers, driven by cumulative output magnitudes;
* **local value pruning** — per-head, per-layer V-vector skipping from
  the current attention probabilities (Section III-C);
* **progressive quantization** — MSB-only attention first, per-row LSB
  refetch when the probability distribution is flat (Section III-D).

The executor emits an :class:`~repro.core.trace.AttentionTrace` whose
count fields are guaranteed (and tested) to match the analytic
:func:`~repro.core.trace.spatten_trace`, because both read one
:class:`~repro.core.schedule.SequencePlan`.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

import numpy as np

from ..config import ModelConfig, PruningConfig, QuantConfig
from ..nn.attention import AttentionRecord, expand_pruned_heads, merge_heads
from ..nn.functional import softmax_inplace
from ..nn.kv_cache import KVCache
from ..nn.numerics import resolve_numerics
from ..nn.transformer import AttentionExecutor, LayerExecution, TransformerModel
from . import schedule as sched
from .batched_cascade import CONTROL_ATTRIBUTES, CascadeBatch
from .head_pruning import prune_heads
from .importance import HeadImportanceAccumulator, TokenImportanceAccumulator
from .quantization import LinearQuantizer, needs_lsb
from .token_pruning import prune_tokens
from .trace import AttentionTrace, LayerStep
from .value_pruning import apply_local_value_pruning, local_value_keep_indices

__all__ = ["SpAttenExecutor"]


class SpAttenExecutor(AttentionExecutor):
    """Attention executor implementing the full SpAtten algorithm stack.

    Every layer of either stage is control, then core, as on the
    accelerator, whose top-k engines sit ahead of the Q·K units: the
    stage's control (:meth:`summarize_control` or
    :meth:`decode_control`) decides which tokens and heads survive and
    evicts the rest, then the survivors' Q/K/V are projected and one
    attend core runs them.  :meth:`run_layer` projects them itself; a
    packed backend runs the control at the layer's entry, projects
    every row of its step at once and hands this sequence's to
    :meth:`decode_attend_packed`.

    Args:
        pruning: cascade/local pruning schedule.  The default
            (:class:`PruningConfig` with all keeps at 1.0) disables
            pruning, which makes the executor a quantization-only or
            pure-reference path.
        quant: progressive-quantization settings, or ``None`` for fp
            numerics.
        kv_page_tokens: KV-cache growth quantum in columns; the serving
            engine passes its memory pool's page size so buffer growth
            and pool-page accounting share one unit.
        numerics: :class:`~repro.nn.numerics.NumericsPolicy` (or tier
            name) governing KV storage dtype and DRAM accounting, and —
            together with ``quant`` — which packed decode core runs the
            sequence (:attr:`packed_decode_style`).  Progressive
            quantization is configured through ``quant``; the cache
            underneath stores at the policy's dtype so a mixed fleet
            shares one storage contract.
    """

    def __init__(
        self,
        pruning: Optional[PruningConfig] = None,
        quant: Optional[QuantConfig] = None,
        kv_page_tokens: int = 16,
        numerics=None,
    ):
        self.pruning = pruning or PruningConfig()
        self.quant = quant
        self._kv_page_tokens = kv_page_tokens
        self._numerics = resolve_numerics(numerics)
        # Per-sequence state (populated by begin_sequence).
        self._model_config: Optional[ModelConfig] = None
        self.token_acc: Optional[TokenImportanceAccumulator] = None
        self.head_acc: Optional[HeadImportanceAccumulator] = None
        self.trace: Optional[AttentionTrace] = None
        self._cache: Optional[KVCache] = None
        # Live token set, indexed by original position: the cascade's
        # truth, gathered from by both decode routes.
        self._alive_mask: Optional[np.ndarray] = None
        self._n_alive = 0
        self._alive_heads: Optional[np.ndarray] = None
        self._plan: Optional[sched.SequencePlan] = None
        self._original_length: Optional[int] = None
        self._total_length = 0
        #: The packed backend's :class:`CascadeBatch` holding this
        #: sequence's control state, or ``None`` while the control
        #: attributes are the executor's own; the row is the sequence's
        #: :class:`~repro.nn.kv_cache.RowSeat`'s.
        self._control: Optional[CascadeBatch] = None
        self._seat = None

    def __getattr__(self, name: str):
        # Reached only for an attribute that is missing: a control
        # attribute of a sequence whose control state sits in a batch's
        # resident rows (adoption deletes them).  So every read of one is
        # the barrier that writes the planes back first.
        control = vars(self).get("_control")
        if control is not None and name in CONTROL_ATTRIBUTES:
            self._seat.table.orphan(self._seat, control)
            return getattr(self, name)
        raise AttributeError(name)

    def __getstate__(self) -> dict:
        # Deep copies and pickles hold their own control state and no
        # row: a resident executor's is written into copies of its held
        # attributes — which share, as the copy will, what the executor
        # holds itself — and the row stays put.
        state = dict(vars(self), _seat=None, _control=None)
        if self._control is not None:
            held = state.pop("_held")
            shared = {id(value): value for value in state.values()}
            state.update(copy.deepcopy(held, shared))
            self._control.write_back(self._seat.row, state)
        return state

    # ------------------------------------------------------------------
    # Sequence lifecycle
    # ------------------------------------------------------------------
    def begin_sequence(self, model: TransformerModel) -> None:
        if self._control is not None:
            self._seat.table.orphan(self._seat, self._control)
        cfg = model.config
        self._model_config = cfg
        self.token_acc = TokenImportanceAccumulator()
        self.head_acc = HeadImportanceAccumulator(cfg.n_heads)
        self._alive_heads = np.arange(cfg.n_heads, dtype=np.int64)
        self._alive_mask = None
        self._n_alive = 0
        policy = self._numerics
        self._cache = (
            KVCache(
                cfg.n_layers, cfg.n_heads, cfg.head_dim,
                bytes_per_element=policy.storage_bytes_per_element(
                    cfg.bytes_per_element
                ),
                page_tokens=self._kv_page_tokens,
                dtype=policy.kv_dtype,
            )
            if cfg.causal
            else None
        )
        self.trace = None
        self._plan = None
        self._original_length = None
        self._total_length = 0

    def _init_schedules(self, sentence_length: int) -> None:
        cfg = self._model_config
        self._original_length = sentence_length
        self._total_length = sentence_length
        self._alive_mask = np.zeros(cfg.max_seq_len, dtype=bool)
        self._plan = sched.SequencePlan.build(
            self.pruning, cfg, sentence_length
        )
        self.trace = AttentionTrace(
            cfg, sentence_length, 0, quant=self.quant, pruning=self.pruning
        )

    @property
    def _alive_tokens(self) -> Optional[np.ndarray]:
        """Original positions of the live tokens, ascending."""
        if self._alive_mask is None:
            return None
        return np.flatnonzero(self._alive_mask)

    @property
    def supports_incremental_prefill(self) -> bool:
        """Cascade pruning decides over the whole sentence at once.

        Entry token pruning at layer ``l`` ranks *every* prompt token's
        accumulated importance, so summarization cannot commit a prefix
        chunk without changing the pruning decisions.  Chunked serving
        therefore defers SpAtten summarization to the final chunk
        (:meth:`repro.nn.transformer.TransformerModel.
        prefill_chunk_batch`), keeping results bit-identical to the
        monolithic pass.
        """
        return False

    # ------------------------------------------------------------------
    # Serving introspection (KV bookkeeping for the memory pool)
    # ------------------------------------------------------------------
    def kv_lengths(self) -> List[int]:
        """Per-layer live KV column counts after cascade eviction."""
        return self._cache.lengths() if self._cache is not None else []

    @property
    def n_live_heads(self) -> int:
        """Heads surviving cascade head pruning so far (read off the
        resident plane while the control state is a batch's, with no
        barrier)."""
        if self._control is not None:
            return int(self._control.n_heads_alive[self._seat.row])
        return len(self._alive_heads) if self._alive_heads is not None else 0

    @property
    def evicted_kv_tokens(self) -> int:
        """Cumulative KV columns evicted by cascade token pruning."""
        return self._cache.total_evicted_tokens if self._cache is not None else 0

    @property
    def kv_nbytes(self) -> int:
        """Live KV-cache footprint in storage bytes (dtype-aware)."""
        return self._cache.nbytes if self._cache is not None else 0

    # ------------------------------------------------------------------
    # Quantized / progressive attention probabilities
    # ------------------------------------------------------------------
    def _attention_probs(
        self,
        q: np.ndarray,
        k: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, float]:
        """Probabilities under the configured quantization.

        Returns ``(probs [h, L0, L1], lsb_fraction)`` where
        ``lsb_fraction`` is the fraction of softmax rows that required
        the LSB refetch (0.0 without progressive quantization).
        """
        # A Python float keeps the operands' dtype (a NumPy fp64 scalar
        # would promote a narrower tier's scores).
        scale = float(np.sqrt(q.shape[-1]))
        masked = None if mask is None else ~mask

        def scores_of(qq: np.ndarray, kk: np.ndarray) -> np.ndarray:
            s = qq @ kk.transpose(0, 2, 1)
            s /= scale
            if masked is not None:
                np.copyto(s, -1e30, where=masked)
            return s

        if self.quant is None:
            return softmax_inplace(scores_of(q, k)), 0.0

        quantizer = LinearQuantizer(self.quant.msb_bits, self.quant.lsb_bits)
        q_q, k_q = quantizer.quantize(q), quantizer.quantize(k)
        q_msb = quantizer.dequantize_msb(q_q)
        k_msb = quantizer.dequantize_msb(k_q)
        probs_msb = softmax_inplace(scores_of(q_msb, k_msb))
        if not self.quant.progressive:
            # Static quantization (the paper's BERT setting): a single
            # MSB-width fetch, never refined.
            return probs_msb, 0.0

        refetch = needs_lsb(probs_msb, self.quant.threshold)  # [h, L0]
        if not refetch.any():
            return probs_msb, 0.0
        q_full = quantizer.dequantize_full(q_q)
        k_full = quantizer.dequantize_full(k_q)
        probs_full = softmax_inplace(scores_of(q_full, k_full))
        probs = np.where(refetch[:, :, None], probs_full, probs_msb)
        return probs, float(refetch.mean())

    def _quantize_values(self, v: np.ndarray) -> np.ndarray:
        """Round-trip V through the configured storage width."""
        if self.quant is None:
            return v
        if self.quant.progressive:
            bits = LinearQuantizer(self.quant.msb_bits, self.quant.lsb_bits)
        else:
            bits = LinearQuantizer(self.quant.msb_bits, 0)
        return bits.dequantize_full(bits.quantize(v))

    # ------------------------------------------------------------------
    # Layer execution
    # ------------------------------------------------------------------
    def run_layer(
        self,
        layer_idx: int,
        model: TransformerModel,
        x: np.ndarray,
        positions: np.ndarray,
        stage: str,
    ) -> LayerExecution:
        if stage == "summarize":
            kept_rows = self.summarize_control(layer_idx, positions)
        elif stage == "decode":
            if len(x) != 1:
                raise ValueError("decode processes exactly one token")
            kept_rows = self.decode_control(layer_idx, positions)
        else:
            raise ValueError(f"unknown stage {stage!r}")
        q_live, k_live, v_live = self._project_live(
            model, layer_idx, x[kept_rows]
        )
        merged, record = self._attend_merged(
            layer_idx, q_live, k_live, v_live, positions[kept_rows],
            keep_record=True,
        )
        output = model.attention(layer_idx).project_merged(merged)
        return LayerExecution(output, record, kept_rows)

    def _prune_heads_at(self, layer_idx: int) -> None:
        target = self._plan.head_counts[layer_idx]
        if target < len(self._alive_heads):
            decision = prune_heads(
                self._alive_heads,
                self.head_acc.scores_for(self._alive_heads),
                target,
            )
            self._alive_heads = decision.kept_ids

    def _project_live(
        self, model: TransformerModel, layer_idx: int, x_live: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q/K/V of the live heads only (``[h_live, L, D]`` each)."""
        attn = model.attention(layer_idx)
        q = attn.project_q(x_live)[self._alive_heads]
        k, v = attn.project_kv(x_live)
        return q, k[self._alive_heads], v[self._alive_heads]

    def _finish_layer_merged(
        self,
        layer_idx: int,
        probs: np.ndarray,
        v_live: np.ndarray,
        key_ids: np.ndarray,
        query_ids: np.ndarray,
        lsb_fraction: float,
        stage: str,
        keep_record: bool,
    ) -> Tuple[np.ndarray, Optional[AttentionRecord]]:
        """Local V pruning, importance accumulation, head merge.

        Everything after the probabilities except the output FC:
        returns the merged full-width head features ``[L, h*D]`` so the
        packed backend can batch the output projection across sequences
        (:mod:`repro.nn.batched_attention`); the looped path applies the
        same FC per sequence, which is bit-identical.  Only the looped
        path (``keep_record``) gets the layer's :class:`AttentionRecord`;
        the packed cores have no use for it.
        """
        kept = local_value_keep_indices(probs, self.pruning.value_keep)
        head_out, kept_counts = apply_local_value_pruning(probs, v_live, kept)
        self.token_acc.accumulate(probs, key_ids)
        self.head_acc.accumulate(head_out, self._alive_heads)

        cfg = self._model_config
        full = expand_pruned_heads(head_out, self._alive_heads, cfg.n_heads)
        merged = merge_heads(full)
        record = None
        if keep_record:
            record = AttentionRecord(
                probs=probs,
                head_outputs=head_out,
                key_token_ids=key_ids.copy(),
                query_token_ids=query_ids.copy(),
                head_ids=self._alive_heads.copy(),
                value_kept=kept_counts,
                lsb_refetched=lsb_fraction > 0.0,
            )
        self.trace.add(
            LayerStep(
                layer=layer_idx,
                stage=stage,
                n_queries=len(query_ids),
                n_keys=len(key_ids),
                n_heads=len(self._alive_heads),
                n_values=int(kept_counts[0]) if len(kept_counts) else 0,
                lsb_fraction=lsb_fraction,
            )
        )
        return merged, record

    def summarize_control(
        self, layer_idx: int, positions: np.ndarray
    ) -> np.ndarray:
        """Pre-projection summarize control: the layer's entry pruning.

        Cascade token pruning of the rows at ``positions`` against the
        schedule (the first layer's call fixes the sentence length),
        then cascade head pruning.  Returns the surviving rows' indices
        into ``positions``.  Shared verbatim by :meth:`run_layer` and
        the packed backend's prompt pass, so both commit exactly the
        same pruning decisions on the same scores.
        """
        cfg = self._model_config
        if layer_idx == 0:
            self._init_schedules(len(positions))

        target = self._plan.token_counts[layer_idx]
        protected = (
            [self._original_length - 1] if cfg.causal else [0]
        )
        decision = prune_tokens(
            positions, self.token_acc.scores_for(positions), target, protected
        )
        self._alive_mask[:] = False
        self._alive_mask[decision.kept_ids] = True
        self._n_alive = decision.n_kept

        self._prune_heads_at(layer_idx)
        return decision.kept_rows

    def decode_control(
        self, layer_idx: int, positions: np.ndarray
    ) -> np.ndarray:
        """Pre-projection decode control: pruning decisions + eviction.

        Everything in a decode layer that precedes the Q/K/V projection:
        admitting the new token to the live set (layer 0), cascade token
        pruning over the global live set, cascade head pruning, and
        evicting pruned columns from this layer's KV cache.  Shared
        verbatim by :meth:`run_layer` and the packed backend's decode
        step, so both commit exactly the same pruning decisions.
        Returns the surviving rows — always the one row, since the new
        token is protected.
        """
        if self._original_length is None:
            raise RuntimeError("decode before summarize; call encode/generate")

        if layer_idx == 0:
            # A new token enters the live set.
            self._total_length += 1
            self.trace.n_generated += 1
            self._alive_mask[positions[0]] = True
            self._n_alive += 1

        # --- cascade token pruning over the global live set -----------
        target = sched.decode_token_target(
            self.pruning, self._plan.token_fracs[layer_idx], self._total_length
        )
        if target < self._n_alive:
            alive_tokens = self._alive_tokens
            decision = prune_tokens(
                alive_tokens,
                self.token_acc.scores_for(alive_tokens),
                target,
                protected_ids=[int(positions[0])],
            )
            self._alive_mask[decision.pruned_ids] = False
            self._n_alive = decision.n_kept

        self._prune_heads_at(layer_idx)

        # --- evict pruned tokens from this layer's KV cache ------------
        layer_cache = self._cache[layer_idx]
        keep_cols = self._alive_mask[layer_cache.token_ids]
        if not keep_cols.all():
            layer_cache.keep(np.flatnonzero(keep_cols))
        return np.arange(len(positions))

    def _attend_merged(
        self,
        layer_idx: int,
        q_live: np.ndarray,
        k_live: np.ndarray,
        v_live: np.ndarray,
        positions: np.ndarray,
        keep_record: bool = False,
    ) -> Tuple[np.ndarray, Optional[AttentionRecord]]:
        """Post-projection core of both stages; returns merged
        ``[L, h*D]``.

        Caches the live heads' K/V (the pruned heads' columns stay
        zero) and runs the quantization-aware attention probabilities:
        summarization — the layer's first pass — over the K/V it has
        just computed, in the projections' dtype, masked causally; a
        decode step over the cache's columns.  Finishes with local
        value pruning and importance accumulation — everything except
        the output FC.  The stage is the executor's own: a decode
        step's layer-0 admission grows the sentence past its prompt.
        (A layer's cache cannot tell: a ``min_tokens=1`` schedule may
        evict every column it held before the new one lands.)
        """
        decode = self._total_length > self._original_length
        mask = None
        if not self._model_config.causal:
            key_ids = positions
        else:
            layer_cache = self._cache[layer_idx]
            layer_cache.append(
                k_live, v_live, positions, heads=self._alive_heads
            )
            key_ids = layer_cache.token_ids
            if decode:
                k_live = layer_cache.keys[self._alive_heads]
                v_live = layer_cache.values[self._alive_heads]
            else:
                mask = key_ids[None, :] <= positions[:, None]

        probs, lsb_fraction = self._attention_probs(q_live, k_live, mask)
        v_used = self._quantize_values(v_live)
        return self._finish_layer_merged(
            layer_idx, probs, v_used, key_ids, positions, lsb_fraction,
            "decode" if decode else "summarize", keep_record,
        )

    # ------------------------------------------------------------------
    # Packed backend protocol (repro.nn.batched_attention)
    # ------------------------------------------------------------------
    @property
    def numerics(self):
        """The numerics ladder tier this executor stores KV state at."""
        return self._numerics

    @property
    def packed_decode_style(self) -> str:
        """Which packed decode core runs this sequence.

        * ``"pruned"`` — non-exact tier, no progressive quantization:
          the cascade's control state (live token mask, live heads,
          importance scores, lengths, schedule tables) is plain
          per-sequence arrays, so the backend keeps it *resident* in
          the planes of one :class:`CascadeBatch`
          (:meth:`batch_control`), from the prompt pass on — and runs
          pruning decisions, eviction, attention, local value pruning
          and importance accumulation for every such row at once.  One
          :class:`~repro.nn.kv_cache.RowTable` holds the sequence's K/V
          rows in every layer's store and its control row as one row,
          and its caches and the executor are handles on it: adoption
          deletes the control attributes, and reading one writes the
          planes back first (a release too); a deep copy or a pickle
          takes a written-back snapshot and leaves the row resident;
          :attr:`n_live_heads` reads the plane.
        * ``"custom"`` — the exact tier, where
          :meth:`decode_attend_packed` is the bit-identity oracle, and
          progressive-quantization rows on any tier, whose LSB refetch
          is decided per row from that row's own probabilities: the
          backend runs the stage's control at the layer's entry
          (:meth:`summarize_control` in the prompt pass,
          :meth:`decode_control` in a decode step), batches the
          projections and the output FC, and runs
          :meth:`decode_attend_packed` as the core of both stages.

        Both are functions of what the executor *is*
        (``numerics.is_exact``, ``quant is None``); nothing selects the
        route from outside.
        """
        if self._cache is None:
            return "none"
        if self._numerics.is_exact or self.quant is not None:
            return "custom"
        return "pruned"

    def decode_kv_cache(self, layer_idx: int):
        """Bare layer cache: the ``"pruned"`` cores write, evict and
        append centrally, in the row store the cache is a handle on."""
        return self._cache[layer_idx]

    @staticmethod
    def batch_control(config: ModelConfig) -> CascadeBatch:
        """The resident control planes of a backend's ``"pruned"`` rows."""
        return CascadeBatch(config)

    def decode_attend_packed(
        self,
        layer_idx: int,
        model: TransformerModel,
        q_full: np.ndarray,
        k_full: np.ndarray,
        v_full: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """The per-sequence packed core of both stages (``"custom"``
        rows: every SpAtten row on the exact tier, progressive
        quantization off it), on backend-projected full-width rows.

        The backend has already run the stage's control —
        :meth:`summarize_control` or :meth:`decode_control` — dropped
        the rows it pruned and projected the survivors full-width in
        its compute dtype (``[h, L, D]`` each).  Gathers the
        surviving-head slices — bit-identical to :meth:`_project_live`'s
        project-then-gather, since per-head projections are independent
        output columns — and runs :meth:`run_layer`'s attend core,
        returning the merged pre-projection features ``[L, h*D]`` in
        that dtype.
        """
        heads = self._alive_heads
        merged, _ = self._attend_merged(
            layer_idx, q_full[heads], k_full[heads], v_full[heads], positions
        )
        return merged

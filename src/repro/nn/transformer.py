"""Transformer blocks, encoder (BERT-style) and decoder (GPT-style) models.

The model follows the paper's Fig. 3: per block, hidden states go through
the QKV FCs and attention, a residual + LayerNorm, a two-FC feed-forward
network, and another residual + LayerNorm.  BERT runs only the
summarization stage; GPT runs summarization followed by token-by-token
generation against a KV cache.

Attention execution is pluggable through :class:`AttentionExecutor` so the
SpAtten pipeline (:mod:`repro.core.pipeline`) can replace the dense inner
computation with cascade-pruned, progressively-quantized attention while
the surrounding model code stays identical.  Crucially, when an executor
prunes tokens the *model* drops those rows from the residual stream, which
is exactly how SpAtten saves FFN computation too (Section III-A: "Token
pruning can reduce the computation and memory access of both attention,
and also FC layers outside attention").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ModelConfig
from .attention import (
    AttentionRecord, AttentionWeights, MultiHeadAttention, merge_heads,
)
from .functional import gelu, layer_norm, linear, softmax, softmax_inplace
from .kv_cache import KVCache
from .numerics import EXACT, resolve_numerics

__all__ = [
    "BlockParams",
    "ModelParams",
    "LayerExecution",
    "AttentionExecutor",
    "DenseExecutor",
    "EncodeResult",
    "GenerationResult",
    "PrefillState",
    "TransformerModel",
]


@dataclass
class BlockParams:
    """Parameters of one transformer block."""

    attn: AttentionWeights
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    @staticmethod
    def random(d_model: int, d_ff: int, rng: np.random.Generator) -> "BlockParams":
        return BlockParams(
            attn=AttentionWeights.random(d_model, rng),
            ln1_gamma=np.ones(d_model),
            ln1_beta=np.zeros(d_model),
            ffn_w1=rng.normal(0, 1.0 / np.sqrt(d_model), size=(d_model, d_ff)),
            ffn_b1=np.zeros(d_ff),
            ffn_w2=rng.normal(0, 1.0 / np.sqrt(d_ff), size=(d_ff, d_model)),
            ffn_b2=np.zeros(d_model),
            ln2_gamma=np.ones(d_model),
            ln2_beta=np.zeros(d_model),
        )


@dataclass
class ModelParams:
    """All parameters of a transformer model (weights only, no config)."""

    token_embedding: np.ndarray  # [vocab, d_model]
    pos_embedding: np.ndarray  # [max_seq_len, d_model]
    blocks: List[BlockParams]
    lm_head: Optional[np.ndarray] = None  # [d_model, vocab]; None => tied

    def lm_projection(self) -> np.ndarray:
        """Vocabulary projection matrix (tied to embeddings by default)."""
        if self.lm_head is not None:
            return self.lm_head
        return self.token_embedding.T


@dataclass
class LayerExecution:
    """Result of executing the attention part of one block.

    Attributes:
        output: ``attention_out`` rows for the *surviving* queries,
            ``[L_kept, d_model]``.
        record: instrumentation (probabilities, head outputs, ids).
        kept_query_rows: indices into the incoming hidden-state rows that
            survive this layer's token pruning.  The model subsets the
            residual stream with these before the residual add, which is
            what propagates token pruning to the FFN and later layers.
    """

    output: np.ndarray
    record: AttentionRecord
    kept_query_rows: np.ndarray


class AttentionExecutor:
    """Strategy interface for running attention inside the model.

    Implementations own all sequence-level state (KV caches, cumulative
    importance scores) between :meth:`begin_sequence` calls.  The
    serving engine additionally introspects executors through
    :meth:`kv_lengths`, :attr:`n_live_heads`, and
    :attr:`evicted_kv_tokens`; the defaults below describe a cacheless,
    unpruned executor, so custom implementations only override what
    they track.
    """

    def begin_sequence(self, model: "TransformerModel") -> None:
        raise NotImplementedError

    def begin_prefill(self, prompt_len: int) -> None:
        """Hint that summarization will arrive in chunks of a known total.

        Called by :meth:`TransformerModel.prefill_begin` before the
        first chunk.  Incremental executors use the total to keep
        chunked numerics bit-identical to the monolithic pass (see
        :meth:`DenseExecutor.begin_prefill`); the default ignores it.
        """

    @property
    def packed_decode_style(self) -> str:
        """How the packed decode backend may drive this executor.

        * ``"none"`` — no packed support; the backend refuses the batch
          with :class:`~repro.nn.batched_attention
          .UnpackableExecutorError`.  Decode such executors through the
          looped oracle, ``decode_step_batch(backend=None)``.
        * ``"dense"`` — the executor's only per-layer decode state is a
          :class:`~repro.nn.kv_cache.LayerKVCache`.  Off the exact tier
          the backend adopts the caches :meth:`decode_kv_cache` returns
          into its row stores exactly as a ``"pruned"`` row's are
          (below) — empty, at the sequence's first prompt chunk — and
          both stages run the pruned rows' core with no cascade.  On
          the exact tier both stages run the executor's own core as for
          ``"custom"``.
        * ``"custom"`` — the executor runs its own per-sequence control
          and core (pruning decisions, progressive quantization, trace
          accounting), in both stages as control, then core: at the
          layer's entry the stage's control — :meth:`summarize_control`
          in a prompt step, :meth:`decode_control` in a decode step —
          then, on the backend's full-width projections of the rows it
          kept, :meth:`decode_attend_packed`.
        * ``"pruned"`` — non-exact tiers only: the executor prunes, but
          its control state is plain arrays the backend can keep
          beside its K/V rows, in the planes of one batch control
          (:meth:`batch_control`; the executor a handle on its row, as
          its caches are on theirs), and it runs decisions, eviction,
          attention and importance accumulation for all such rows at
          once — over K/V it keeps batch-resident: the caches
          :meth:`decode_kv_cache` returns are adopted into the backend's
          per-layer :class:`~repro.nn.kv_cache.KVRowStore` — empty,
          when the backend's prompt pass opens, or with one copy per
          layer on the first decode step of a sequence prefilled
          elsewhere — and are handles on their rows from then on
          (still the truth for :meth:`kv_lengths` and
          :attr:`evicted_kv_tokens`; reading their columns brings them
          back into private buffers).

        A backend's prompt pass reads the same property: off the exact
        tier ``"dense"`` chunks and ``"pruned"`` sentences run the
        backend's batched core, the pruned control rows opened by
        :meth:`batch_control`'s prompt pass; every other executor is a
        per-sequence row.  :attr:`supports_incremental_prefill` decides
        the span — the next chunk, or the whole sentence once its final
        chunk lands.

        ``"dense"`` and ``"custom"`` results must be bit-identical to the
        looped :meth:`run_layer` path on the exact tier — the backend
        only batches operations whose grouping provably does not change
        the floats, and runs the rest in the executor's own core at the
        oracle's widths.  Under a non-exact
        :class:`~repro.nn.numerics.NumericsPolicy` every style instead
        targets the policy's declared accuracy budget.
        """
        return "none"

    @property
    def numerics(self):
        """The numerics ladder tier this executor stores KV state at.

        Defaults to the exact (fp64, bit-identical) policy; executors
        that accept a ``numerics`` argument override this with the
        resolved policy.  The packed backend refuses a batch whose
        executors sit on another tier than its own
        (:class:`~repro.nn.numerics.NumericsMismatchError`).
        """
        return EXACT

    def decode_kv_cache(self, layer_idx: int):
        """The layer's :class:`~repro.nn.kv_cache.LayerKVCache`
        (``"dense"`` and ``"pruned"`` styles).

        The fp32/int8 store core appends centrally, into the row store
        the backend adopted the cache into — batching the quantization
        of a whole step's new columns — so it needs the bare cache: to
        adopt it, and to read its store and row each step after.  The
        cache of a row on those tiers may therefore be a handle on a
        row of the backend's store.
        """
        raise NotImplementedError

    @staticmethod
    def batch_control(config: ModelConfig):
        """The resident batch control of a backend's ``"pruned"`` rows.

        One object per backend, built with its first ``"pruned"`` row
        stores and a member of their row table
        (:class:`~repro.nn.kv_cache.RowTable`): a sequence's control row
        and its K/V rows are adopted — at the prompt pass, which opens
        each sentence's schedule, or at the first decode step of a
        sequence prefilled elsewhere — moved and released as one row,
        and it is opened once per decode step or prompt block for the
        layers' cascade stages; see
        :class:`repro.core.batched_cascade.CascadeBatch`, the one
        implementation.
        """
        raise NotImplementedError

    def decode_attend_packed(
        self,
        layer_idx: int,
        model: "TransformerModel",
        q_full: np.ndarray,
        k_full: np.ndarray,
        v_full: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """The per-sequence packed core of both stages (``"custom"``
        rows; on the exact tier ``"dense"`` ones too).

        Receives the rows the stage's control kept, as the backend's
        full-width ``q/k/v`` projections (``[h, L, D]`` each, in its
        compute dtype; on the exact tier bit-identical to what
        projecting this sequence alone would produce) — a decode step's
        one row, or a prompt step's chunk or whole sentence
        (:attr:`supports_incremental_prefill`) — caches their K/V and
        returns the *merged pre-projection* attention features
        ``[L, n_heads * head_dim]`` in that dtype: the backend applies
        the output FC over the whole batch in one matmul.  The name
        says "decode" only because the end-to-end benchmark's span
        table (``benchmarks/e2e/e2e_spans.py``) pins it; renaming it
        waits until that table can follow.
        """
        raise NotImplementedError

    def summarize_control(
        self, layer_idx: int, positions: np.ndarray
    ) -> np.ndarray:
        """Entry pruning of one summarize layer, ahead of the projections.

        In the backend's prompt pass
        (:meth:`~repro.nn.batched_attention.PackedDecodeBackend
        .prefill_chunk_policy`) each layer first asks a per-sequence
        row's executor which of its rows at ``positions`` survive — the
        returned indices; the others leave the residual stream — then
        projects the survivors together with every other sequence's
        rows and hands them to :meth:`decode_attend_packed`.  The
        default prunes nothing.
        """
        return np.arange(len(positions))

    def decode_control(
        self, layer_idx: int, positions: np.ndarray
    ) -> np.ndarray:
        """Entry control of one decode layer, ahead of the projections:
        a decode step's :meth:`summarize_control`.

        The executor commits the layer's pruning decisions and evicts
        what they drop before the backend projects the step's rows;
        returns the surviving rows' indices into ``positions``.  The
        default keeps the row.
        """
        return np.arange(len(positions))

    @property
    def supports_incremental_prefill(self) -> bool:
        """Whether summarization may run chunk-by-chunk, bit-identically.

        Incremental executors accept successive ``run_layer(...,
        "summarize")`` calls whose rows extend the same sequence: each
        chunk appends its K/V columns to the per-layer caches and
        attends causally against everything cached so far, so the
        chunked pass commits exactly the same arithmetic as a
        monolithic one.  Executors whose summarization is a
        whole-sentence decision — cascade token pruning needs every
        token's accumulated importance before it prunes — return
        ``False``, and :meth:`TransformerModel.prefill_chunk_batch`
        defers their execution to the final chunk instead.
        """
        return True

    def kv_lengths(self) -> List[int]:
        """Per-layer live KV column counts (serving pool bookkeeping)."""
        return []

    @property
    def n_live_heads(self) -> int:
        """Heads still computing (serving cost model)."""
        return 0

    @property
    def evicted_kv_tokens(self) -> int:
        """Cumulative KV columns evicted by pruning (serving stats)."""
        return 0

    def run_layer(
        self,
        layer_idx: int,
        model: "TransformerModel",
        x: np.ndarray,
        positions: np.ndarray,
        stage: str,
    ) -> LayerExecution:
        """Execute attention of block ``layer_idx`` on hidden rows ``x``.

        Args:
            layer_idx: block index.
            model: owning model (for weights and config).
            x: ``[L, d_model]`` hidden rows entering the block.
            positions: absolute sentence positions of each row of ``x``.
            stage: ``"summarize"`` (batch over the whole remaining
                sentence) or ``"decode"`` (single new token against the
                KV cache).

        This is the looped oracle's attention, one sequence at a time
        in fp64; the packed backend drives executors through their
        packed cores instead (:attr:`packed_decode_style`).
        """
        raise NotImplementedError


class DenseExecutor(AttentionExecutor):
    """Reference dense attention: no pruning, no quantization.

    Args:
        kv_page_tokens: KV-cache growth quantum in columns (aligned with
            the serving pool's page size; see
            :class:`~repro.nn.kv_cache.LayerKVCache`).
        numerics: :class:`~repro.nn.numerics.NumericsPolicy` (or tier
            name) selecting the KV storage representation — fp64 under
            ``exact`` (default, bit-identical), fp32 planes or int8
            codes with per-row scales otherwise.  :meth:`run_layer`
            computes in whatever dtype it is handed — fp64 from the
            model's own stack, which is what ``prefill(backend=None)``
            and the looped oracle run on every tier — while a packed
            backend runs both stages through :meth:`decode_attend_packed`
            on the exact tier (bit-identical to :meth:`run_layer`, chunk
            padding included) and, off it, over its row stores, the
            sequence resident from its first prompt chunk, in the
            policy's compute dtype.
    """

    def __init__(
        self,
        kv_page_tokens: int = 16,
        numerics=None,
    ) -> None:
        self._cache: Optional[KVCache] = None
        self._n_heads = 0
        self._prefill_total = 0
        self._kv_page_tokens = kv_page_tokens
        self._numerics = resolve_numerics(numerics)

    @property
    def numerics(self):
        return self._numerics

    def begin_sequence(self, model: "TransformerModel") -> None:
        cfg = model.config
        self._n_heads = cfg.n_heads
        self._prefill_total = 0
        if cfg.causal:
            policy = self._numerics
            self._cache = KVCache(
                cfg.n_layers, cfg.n_heads, cfg.head_dim,
                bytes_per_element=policy.storage_bytes_per_element(
                    cfg.bytes_per_element
                ),
                page_tokens=self._kv_page_tokens,
                dtype=policy.kv_dtype,
            )
        else:
            self._cache = None

    def begin_prefill(self, prompt_len: int) -> None:
        """Record the full prompt width for chunked summarization.

        While a prompt arrives in chunks, each layer's K/V are padded
        out to the final prompt width before attention (the causal mask
        excludes the padded columns).  The softmax denominator then
        sums over exactly the same columns — in the same pairwise
        grouping — as the monolithic pass, which is what makes chunked
        prefill bit-identical rather than merely close.  Capacity for
        the whole prompt is reserved up front so chunked appends never
        reallocate mid-prefill.
        """
        self._prefill_total = int(prompt_len)
        if self._cache is not None:
            self._cache.reserve(self._prefill_total)

    def kv_lengths(self) -> List[int]:
        """Per-layer live KV column counts (serving pool bookkeeping)."""
        return self._cache.lengths() if self._cache is not None else []

    @property
    def n_live_heads(self) -> int:
        """Heads still computing (dense attention never prunes any)."""
        return self._n_heads

    @property
    def packed_decode_style(self) -> str:
        """Cache-only state: the backend may run the core centrally."""
        return "dense" if self._cache is not None else "none"

    def decode_kv_append(
        self,
        layer_idx: int,
        k_new: np.ndarray,
        v_new: np.ndarray,
        positions: np.ndarray,
    ):
        """Append K/V columns (``[h, L, D]``) exactly as the looped path
        would and return the layer's cache."""
        layer_cache = self._cache[layer_idx]
        layer_cache.append(k_new, v_new, positions)
        return layer_cache

    def decode_kv_cache(self, layer_idx: int):
        """Bare layer cache: off the exact tier the backend adopts it
        into its dense row store — empty, at the first prompt chunk —
        and appends there."""
        return self._cache[layer_idx]

    def decode_attend_packed(
        self, layer_idx: int, model: "TransformerModel", q_full: np.ndarray,
        k_full: np.ndarray, v_full: np.ndarray, positions: np.ndarray,
    ) -> np.ndarray:
        """The packed core of both stages: the rows' K/V join the
        layer's cache, then their queries attend over its columns in
        :meth:`run_layer`'s order — ``q @ Kᵀ``, ``/ √D``, columns past a
        query masked, softmax, ``@ V`` — over the widths it uses: the
        cache's length, or the prompt's while a chunked prompt is
        mid-way (:meth:`begin_prefill`), so the exact tier is
        bit-identical to the looped oracle.  Returns the merged
        ``[L, h*D]`` features in the projections' dtype.  (Off the
        exact tier the backend runs dense rows over its row stores.)
        """
        cache = self.decode_kv_append(layer_idx, k_full, v_full, positions)
        if len(cache) < self._prefill_total:
            # A dense cache's columns are positions 0, 1, ...: labelled
            # alike, the padding lies past every query.
            keys, values = cache.padded_to(self._prefill_total)
            token_ids = np.arange(self._prefill_total)
        else:
            keys, values = cache.compute_columns()
            token_ids = cache.token_ids
        scores = q_full @ keys.transpose(0, 2, 1)
        # A Python float keeps a narrower tier's dtype.
        scores /= float(np.sqrt(q_full.shape[-1]))
        if positions[0] < token_ids[-1]:  # else no column lies past a query
            np.copyto(scores, -1e30, where=token_ids > positions[:, None])
        return merge_heads(softmax_inplace(scores) @ values)

    def run_layer(
        self,
        layer_idx: int,
        model: "TransformerModel",
        x: np.ndarray,
        positions: np.ndarray,
        stage: str,
    ) -> LayerExecution:
        attn = model.attention(layer_idx)
        cfg = model.config
        if not cfg.causal:
            out, record = attn.forward(x, causal=False)
            record.key_token_ids = positions.copy()
            record.query_token_ids = positions.copy()
            return LayerExecution(out, record, np.arange(len(x)))

        # Causal model: one body for both stages over the KV cache.  A
        # decode row's mask is all True, which attention skips.
        layer_cache = self._cache[layer_idx]
        k_new, v_new = attn.project_kv(x)
        layer_cache.append(k_new, v_new, positions)
        n_cached = len(layer_cache)
        if n_cached < self._prefill_total:
            # Mid-chunked-prefill: pad K/V to the final prompt width
            # (the causal mask excludes the extra columns) so the
            # softmax normalizes over the same columns as the
            # monolithic pass — see begin_prefill.  A zero-copy view
            # for float storage.
            kv = layer_cache.padded_to(self._prefill_total)
        else:
            kv = layer_cache.compute_columns()
        out, record = attn.forward(
            x, causal=True, kv=kv, query_offset=int(positions[0])
        )
        record.probs = record.probs[:, :, :n_cached]
        record.key_token_ids = layer_cache.token_ids.copy()
        record.query_token_ids = positions.copy()
        return LayerExecution(out, record, np.arange(len(x)))


@dataclass
class EncodeResult:
    """Output of the summarization stage."""

    hidden: np.ndarray  # [L_survivors, d_model]
    positions: np.ndarray  # original positions of surviving rows
    records: List[AttentionRecord]

    def pooled(self, strategy: str = "cls") -> np.ndarray:
        """Sentence feature for classification heads.

        ``cls`` returns the hidden state of original position 0 (which
        cascade pruning always protects); ``mean`` averages survivors.
        """
        if strategy == "cls":
            matches = np.flatnonzero(self.positions == 0)
            if len(matches) == 0:
                raise ValueError("CLS token was pruned; use mean pooling")
            return self.hidden[matches[0]]
        if strategy == "mean":
            return self.hidden.mean(axis=0)
        raise ValueError(f"unknown pooling strategy: {strategy}")


@dataclass
class GenerationResult:
    """Output of the generation stage."""

    token_ids: List[int]
    logits: List[np.ndarray]

    @property
    def n_generated(self) -> int:
        return len(self.token_ids)


@dataclass
class PrefillState:
    """Resumable progress of one prompt's chunked prefill.

    Produced by :meth:`TransformerModel.prefill_begin` and advanced by
    :meth:`TransformerModel.prefill_chunk` /
    :meth:`TransformerModel.prefill_chunk_batch`.  ``n_committed``
    counts prompt tokens whose chunk has been scheduled; once every
    token has committed, ``logits`` holds the next-token logits — bit
    identical to what a monolithic :meth:`TransformerModel.prefill`
    call would have returned for the same executor type, unless a
    non-exact backend ran the chunks (then within its tier's budget).
    """

    executor: AttentionExecutor
    prompt_ids: np.ndarray
    n_committed: int = 0
    logits: Optional[np.ndarray] = None

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_ids)

    @property
    def done(self) -> bool:
        return self.n_committed >= self.prompt_len

    def next_span(self, max_tokens: int) -> tuple:
        """Token span ``[start, end)`` the next chunk would commit.

        Spans always cover at least two rows, and a would-be trailing
        single-token chunk is absorbed into its predecessor (unless the
        whole prompt is one token): a ``[1, d_model]`` matmul takes a
        different BLAS kernel (GEMV) than the multi-row GEMM the
        monolithic pass uses, which would break bit-identity.  The
        serving cost model charges chunks over exactly these spans.
        """
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.done:
            raise ValueError("prefill already complete for this state")
        start = self.n_committed
        end = min(start + max(2, max_tokens), self.prompt_len)
        if self.prompt_len - end == 1:
            end = self.prompt_len
        return start, end


class TransformerModel:
    """A BERT- or GPT-style transformer over NumPy arrays."""

    def __init__(self, config: ModelConfig, params: ModelParams):
        if len(params.blocks) != config.n_layers:
            raise ValueError(
                f"params has {len(params.blocks)} blocks, config expects "
                f"{config.n_layers}"
            )
        if params.token_embedding.shape != (config.vocab_size, config.d_model):
            raise ValueError("token embedding shape mismatch")
        self.config = config
        self.params = params
        self._attentions = [
            MultiHeadAttention(bp.attn, config.n_heads) for bp in params.blocks
        ]

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def attention(self, layer_idx: int) -> MultiHeadAttention:
        return self._attentions[layer_idx]

    def block(self, layer_idx: int) -> BlockParams:
        return self.params.blocks[layer_idx]

    def embed(self, token_ids: Sequence[int], position_offset: int = 0) -> np.ndarray:
        """Token + positional embedding lookup."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError("token_ids must be a 1-D sequence")
        if len(token_ids) == 0:
            raise ValueError(
                "cannot embed an empty token sequence: there is no position "
                "to look up (prompts must contain at least one token)"
            )
        if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        if position_offset < 0:
            raise ValueError("positions must be non-negative")
        positions = np.arange(len(token_ids)) + position_offset
        if positions[-1] >= self.config.max_seq_len:
            raise ValueError(
                f"sequence exceeds max_seq_len={self.config.max_seq_len}"
            )
        return (
            self.params.token_embedding[token_ids]
            + self.params.pos_embedding[positions]
        )

    def _ffn(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        bp = self.block(layer_idx)
        hidden = gelu(linear(x, bp.ffn_w1, bp.ffn_b1))
        return linear(hidden, bp.ffn_w2, bp.ffn_b2)

    def _residual_ffn(
        self, layer_idx: int, x: np.ndarray, attn_out: np.ndarray
    ) -> np.ndarray:
        """A block after its attention: residual + LayerNorm, FFN,
        residual + LayerNorm."""
        bp = self.block(layer_idx)
        x = layer_norm(x + attn_out, bp.ln1_gamma, bp.ln1_beta)
        return layer_norm(
            x + self._ffn(layer_idx, x), bp.ln2_gamma, bp.ln2_beta
        )

    def _run_block(
        self,
        layer_idx: int,
        x: np.ndarray,
        positions: np.ndarray,
        executor: AttentionExecutor,
        stage: str,
    ):
        """One block: attention (possibly pruned) + FFN with residuals."""
        execution = executor.run_layer(layer_idx, self, x, positions, stage)
        kept = execution.kept_query_rows
        x = self._residual_ffn(layer_idx, x[kept], execution.output)
        return x, positions[kept], execution.record

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def encode(
        self,
        token_ids: Sequence[int],
        executor: Optional[AttentionExecutor] = None,
    ) -> EncodeResult:
        """Summarization stage over a whole sentence (Fig. 3 left)."""
        executor = executor or DenseExecutor()
        executor.begin_sequence(self)
        x = self.embed(token_ids)
        positions = np.arange(len(token_ids))
        records: List[AttentionRecord] = []
        for layer_idx in range(self.config.n_layers):
            x, positions, record = self._run_block(
                layer_idx, x, positions, executor, stage="summarize"
            )
            records.append(record)
        return EncodeResult(hidden=x, positions=positions, records=records)

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Language-model head over hidden rows."""
        return hidden @ self.params.lm_projection()

    def prefill(
        self,
        prompt_ids: Sequence[int],
        executor: Optional[AttentionExecutor] = None,
    ) -> np.ndarray:
        """Summarize a prompt and return the next-token logits.

        This is the first half of :meth:`generate`, split out so the
        serving engine (:mod:`repro.serving`) can admit a request —
        populating the executor's KV cache — without committing to a
        fixed number of decode steps up front: :meth:`prefill_begin`
        and one :meth:`prefill_chunk` spanning the whole prompt.  For
        latency-friendly scheduling under load, the prompt can instead
        be committed in several chunks.
        """
        state = self.prefill_begin(prompt_ids, executor)
        return self.prefill_chunk(state, state.prompt_len)

    def prefill_begin(
        self,
        prompt_ids: Sequence[int],
        executor: Optional[AttentionExecutor] = None,
    ) -> PrefillState:
        """Open a resumable prefill over ``prompt_ids``.

        The returned :class:`PrefillState` is advanced with
        :meth:`prefill_chunk` (or, across many requests at once,
        :meth:`prefill_chunk_batch`) until ``state.done``; the final
        chunk yields logits bit-identical to a monolithic
        :meth:`prefill`.  Splitting a prompt this way lets the serving
        engine interleave prompt summarization with live decode steps
        instead of stalling the whole batch for the prompt's duration.
        """
        if not self.config.causal:
            raise ValueError("prefill_begin() requires a causal model")
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        if prompt_ids.ndim != 1 or len(prompt_ids) == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D sequence")
        executor = executor or DenseExecutor()
        executor.begin_sequence(self)
        executor.begin_prefill(len(prompt_ids))
        return PrefillState(executor=executor, prompt_ids=prompt_ids)

    def prefill_chunk(
        self, state: PrefillState, max_tokens: int
    ) -> Optional[np.ndarray]:
        """Commit up to ``max_tokens`` more prompt tokens of one prefill.

        Returns the next-token logits when this chunk completes the
        prompt, else ``None``.
        """
        return self.prefill_chunk_batch([state], max_tokens)[0]

    def prefill_chunk_batch(
        self,
        states: Sequence[PrefillState],
        max_tokens: int,
        backend=None,
    ) -> List[Optional[np.ndarray]]:
        """One prefill chunk for each of several in-flight prompts.

        Each state commits the span :meth:`PrefillState.next_span`
        names.  An incremental executor summarizes its chunk against its
        own KV cache; any other (cascade token pruning decides over the
        whole sentence — see
        :attr:`AttentionExecutor.supports_incremental_prefill`) only
        advances its committed-token counter until the final chunk,
        which summarizes the whole sentence.  The serving cost model
        still charges the work chunk by chunk.

        With a :class:`~repro.nn.batched_attention.PackedDecodeBackend`
        the backend owns the whole step on every tier
        (:meth:`~repro.nn.batched_attention.PackedDecodeBackend
        .prefill_chunk_policy`): every sequence's rows run one layer
        stack, in the tier's compute dtype, and the exact tier's logits
        are bit-identical to a solo :meth:`prefill`.  Without one each
        state runs alone through :meth:`AttentionExecutor.run_layer` —
        the looped fp64 oracle, whatever tier the executors store KV at.

        Returns one entry per state: the next-token logits for states
        whose prompt completed this call, else ``None``.
        """
        if backend is not None:
            return backend.prefill_chunk_policy(self, states, max_tokens)
        results: List[Optional[np.ndarray]] = []
        for state in states:
            start, end = state.next_span(max_tokens)
            state.n_committed = end
            incremental = state.executor.supports_incremental_prefill
            logits = None
            if incremental or state.done:
                # A deferred executor's final chunk: the whole sentence.
                start = start if incremental else 0
                x = self.embed(state.prompt_ids[start:end], start)
                positions = np.arange(start, end)
                for layer_idx in range(self.config.n_layers):
                    x, positions, _ = self._run_block(
                        layer_idx, x, positions, state.executor, "summarize"
                    )
                logits = self.lm_logits(x[-1:])[0]
            state.logits = logits if state.done else None
            results.append(state.logits)
        return results

    def decode_step_batch(
        self,
        token_ids: Sequence[int],
        positions: Sequence[int],
        executors: Sequence[AttentionExecutor],
        backend=None,
        prefill: Optional[Tuple[Sequence[PrefillState], int]] = None,
    ) -> np.ndarray:
        """One decode step across a batch of independent sequences.

        Continuous batching runs many sequences' decode steps together:
        the embedding gather, the residual/LayerNorm arithmetic, the FFN
        matmuls, and the LM head all execute as single batch-level
        operations over ``[B, d_model]``.  Returns ``[B, vocab]``
        logits.

        Without a ``backend`` (the **looped** path, kept as the
        bit-identity oracle) the attention core runs per sequence via
        :meth:`AttentionExecutor.run_layer`, issuing ``B × n_layers``
        single-row projections per step.  With a
        :class:`~repro.nn.batched_attention.PackedDecodeBackend` (the
        **packed** path) each layer's Q/K/V and output projections run
        as single fused batch-level matmuls around each executor's own
        exact-length core — bit-identical logits, a fraction of the
        interpreter and copy traffic.

        Each executor must already hold a prefilled sequence (see
        :meth:`prefill`); sequence ``i`` decodes ``token_ids[i]`` at
        absolute position ``positions[i]``.

        ``prefill`` — ``(states, max_tokens)``, the arguments of
        :meth:`prefill_chunk_batch` — carries the step's prompt chunks,
        whose logits land in each state's ``logits``.  On the fp32 /
        int8 tiers they share the decode rows' one layer stack (one
        embedding gather, one GEMM per projection and FFN half, one LM
        head), so a mixed step's wall clock is the single pass the
        serving cost model charges; otherwise — the exact tier, whose
        decode step is the model's own fp64 stack, or no backend — the
        decode step runs first and :meth:`prefill_chunk_batch` after it.
        """
        if not self.config.causal:
            raise ValueError("decode_step_batch() requires a causal model")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if not (len(token_ids) == len(positions) == len(executors)):
            raise ValueError("token_ids, positions, executors must align")
        if len(token_ids) == 0:
            raise ValueError("decode_step_batch needs at least one sequence")
        if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        if np.any(positions < 0):
            raise ValueError("positions must be non-negative")
        if np.any(positions >= self.config.max_seq_len):
            raise ValueError(
                f"position exceeds max_seq_len={self.config.max_seq_len}"
            )
        if backend is not None and not backend.policy.is_exact:
            # Non-exact numerics tier: the backend owns the whole step
            # (compute-dtype layer stack + store-packed attention core);
            # see repro.nn.numerics for the ladder contract.
            return backend.decode_step_policy(
                self, token_ids, positions, executors, prefill
            )
        x = (
            self.params.token_embedding[token_ids]
            + self.params.pos_embedding[positions]
        )
        for layer_idx in range(self.config.n_layers):
            if backend is not None:
                attn_out = backend.decode_layer(
                    self, layer_idx, x, positions, executors
                )
            else:
                attn_out = np.concatenate(
                    [
                        executor.run_layer(
                            layer_idx, self, x[i : i + 1],
                            positions[i : i + 1], "decode",
                        ).output
                        for i, executor in enumerate(executors)
                    ],
                    axis=0,
                )
            x = self._residual_ffn(layer_idx, x, attn_out)
        logits = self.lm_logits(x)
        if prefill is not None:
            self.prefill_chunk_batch(*prefill, backend=backend)
        return logits

    def generate(
        self,
        prompt_ids: Sequence[int],
        n_new_tokens: int,
        executor: Optional[AttentionExecutor] = None,
        sampler: Optional[Callable[[np.ndarray], int]] = None,
    ) -> GenerationResult:
        """Summarize the prompt, then generate tokens one at a time.

        Mirrors the paper's GPT-2 benchmark setting: a long prompt (992
        tokens in the paper) followed by iterative single-token decode
        steps against the growing KV cache: :meth:`prefill`, then one
        looped :meth:`decode_step_batch` of a batch of one per token.

        Args:
            prompt_ids: prompt token ids.
            n_new_tokens: number of decode iterations.
            executor: attention strategy (dense by default).
            sampler: maps final-token logits to the next token id
                (greedy argmax by default).
        """
        if not self.config.causal:
            raise ValueError("generate() requires a causal (GPT-style) model")
        if sampler is None:
            sampler = lambda logits: int(np.argmax(logits))
        executor = executor or DenseExecutor()
        logits = self.prefill(prompt_ids, executor)
        result = GenerationResult(token_ids=[], logits=[])
        for position in range(len(prompt_ids), len(prompt_ids) + n_new_tokens):
            next_id = sampler(logits)
            result.token_ids.append(next_id)
            result.logits.append(logits)
            logits = self.decode_step_batch(
                [next_id], [position], [executor]
            )[0]
        return result

    def next_token_distribution(
        self,
        prompt_ids: Sequence[int],
        executor: Optional[AttentionExecutor] = None,
    ) -> np.ndarray:
        """Probability distribution of the next token after the prompt.

        This is the LM-fidelity probe: comparing it between dense and
        SpAtten executors quantifies the quality impact of pruning and
        quantization (used for the Fig. 21 trade-off curves).
        """
        if not self.config.causal:
            raise ValueError("requires a causal model")
        return softmax(self.prefill(prompt_ids, executor))

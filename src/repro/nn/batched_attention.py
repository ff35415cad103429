"""Packed batched attention backend for the serving hot path.

The looped decode path issues ``B × n_layers`` separate single-row
``run_layer`` calls per mixed step — dozens of tiny NumPy ops per
sequence per layer, which leaves the interpreter, not BLAS, as the
bottleneck (PAPER.md §IV's accelerator wins precisely because it feeds
wide batched Q·K·V units).  :class:`PackedDecodeBackend` restructures
one decode step so that everything that *can* run as a single
batch-level BLAS call does.

One skeleton, two cores
-----------------------

SpAtten runs summarization and generation on one datapath — the same
Q·K, softmax, top-k and A·V units, with pruning and quantization as
stages of it (PAPER.md §IV, Fig. 8).  The backend does the same: a
decode step and a prompt step are one per-layer skeleton,
:meth:`PackedDecodeBackend._attend`, over the step's rows split into
*parts* — the rows one core runs — and put into part order once per
step (the logits go back to batch order once):

1. **entry pruning**, part by part: every part's control — its
   pruning decisions and evictions, in both stages — and the rows a
   cascade drops leave the residual stream before the projections see
   them;
2. **fused Q/K/V projection** of every row against one ``[d, 3d]``
   weight, split into per-head ``[N, 3, h, D]`` views;
3. each part's **core** over its contiguous slice of those rows;
4. **fused output FC** over every row's merged head features.

A decode step has one query row a sequence, a prompt step a chunk or a
whole sentence of them.  The FFN half follows in the
:meth:`~PackedDecodeBackend._layers` loop, the same for both stages: the
compute-dtype :meth:`~PackedDecodeBackend._ffn_half` off the exact
tier, the model's own fp64 one on it; only the exact tier's decode
step, :meth:`~PackedDecodeBackend.decode_layer`, runs the attention
half alone, its model keeping the fp64 FFN stack.

There are two cores, and every part runs one of them, after its
control.  A **per-sequence part** is one style's rows, each sequence's
run by *its executor's own* control and packed core: in step 1 the
stage's control, :meth:`~repro.nn.transformer.AttentionExecutor
.summarize_control` in a prompt step and :meth:`~repro.nn.transformer
.AttentionExecutor.decode_control` in a decode step (the defaults keep
every row), then in step 3 :meth:`~repro.nn.transformer
.AttentionExecutor.decode_attend_packed`, the one core of both
stages.  Every exact-tier row is one — the executors' cores are the
bit-identity oracle's own arithmetic — as are, off it, a dense prompt
chunk, which attends against its private cache, and
progressive-quantization rows
(:attr:`~repro.nn.transformer.AttentionExecutor.packed_decode_style`
``"custom"``), whose LSB refetch is decided per row from that row's own
probabilities.  A **store block** is consecutive rows of a
:class:`~repro.nn.kv_cache.KVRowStore` — a decode step's ``"dense"``
rows and its ``"pruned"`` rows, and each prompt step's ``"pruned"``
sentences — and all run the backend's one core, :func:`_store_core`,
over ``[n, h, Lq, Lk]`` planes: the block's K/V appended at each row's
cursor, one mask (the causal position test plus columns without a
token), softmax, local value pruning ranked on each column's
probability mass, A·V and importance accumulation.  A block of pruned
rows carries a step of the backend's resident batch control,
:class:`~repro.core.batched_cascade.CascadeBatch`, whose planes hold
every pruned row's cascade state: one more member of the pruned rows'
:class:`~repro.nn.kv_cache.RowTable`, so row ``j`` of it and of every
layer's store is one sequence, adopted (at the prompt pass, or the
first decode step of a sequence prefilled elsewhere), moved and
released as one row, opened per decode step or prompt block with one
vectorized admission, and written back to an executor only at a
barrier — never at the end of a step.  Its entry pruning is ranked masks over those planes plus
:meth:`~repro.nn.kv_cache.KVRowStore.evict` over the block's rows; a
dense block has none and bypasses those stages, as a dense run bypasses
the accelerator's top-k engines and zero eliminators.

An executor on another tier than the backend's, or one that opts out of
packing, is a named error rather than a silent change of arithmetic.
What depends on the tier is read off ``policy.is_exact``: the
projection kernel of steps 2 and 4 (bound once at construction, and on
the exact tier grouped by sequence in a prompt step), the FFN half and
whether dense decode rows are a store block or a per-sequence part.
Weights live in one holder at the policy's compute dtype (under fp64 it
aliases the model's own arrays) and scratch in one family of buffers
grown on demand.

The prompt pass is on the ladder too — SpAtten prunes and quantizes the
summarization stage as much as the generation stage (PAPER.md §III,
Fig. 3).  :meth:`~PackedDecodeBackend.prefill_chunk_policy` owns every
tier's prompt step: an incremental executor's next chunk and the whole
sentence of every other executor whose final chunk lands in it run the
skeleton, the ``"pruned"`` sentences in blocks whose padded score plane
stays under a fixed scratch budget, their caches adopted empty into the
``"pruned"`` row stores and their control state into the resident
batch control before the first layer — a pruned sequence is a store
row, columns and control, from its first column.

Exact tier: the bit-identity contract
-------------------------------------

Under ``exact`` the packed path must produce logits **bit-identical**
to the looped oracle, ``decode_step_batch(backend=None)``
(``tests/test_packed_decode.py`` enforces this property across
executors, ragged lengths, pruned-head sets, and mid-generation
evictions).  BLAS reductions are not grouping-invariant, so that
constraint dictates the projection kernel:

* multi-slice ``np.matmul`` (the gufunc) computes each 2-D slice with
  the same kernel as a standalone single-row matmul, so batching the
  projections as ``[B, 1, d] @ [d, 3d]`` is exact — in any row order —
  but a *2-D* ``[B, d] @ [d, d]`` GEMM is not (single-row products take
  a GEMV-shaped path whose accumulation differs in the last ulp);
* fusing Q/K/V into one ``[d, 3d]`` weight is exact (output columns are
  independent), and concatenating prompt rows is exact for sequences
  of ≥ 2 rows (row blocks of a GEMM are independent) — a prompt step's
  QKV and output FC (:meth:`~PackedDecodeBackend.project_chunk_rows`)
  and its fp64 FFN half run those as one GEMM and a sequence's only row
  solo (:func:`_by_sequence`), regrouped after each layer's entry
  pruning, and its LM head runs row by row.

Attention needs no rule of its own: every exact-tier row is a
per-sequence part, whose executor runs the oracle's operations in the
oracle's order over its own cache's columns at the oracle's widths —
their exact length, or, for a dense chunk mid-way through its prompt,
the prompt's (as ``run_layer`` pads them) — so the length-sensitive
reductions (the score and A·V GEMMs, the softmax denominator's pairwise
sum) group as the oracle's do.  SpAtten's surviving-head sets are
gathered from the full-width rows (per-head projections are independent
output columns).

fp32 / int8 tiers: batch-resident rows, one store core
------------------------------------------------------

Under a non-exact :class:`~repro.nn.numerics.NumericsPolicy` the
bit-identity constraint is *traded away* for a declared accuracy
budget, which unlocks the padded planes the exact tier never builds:

* projections are plain 2-D GEMMs (one call, not ``B`` GEMVs);
* the K/V of every row a store block runs *are* batch-resident: one
  :class:`~repro.nn.kv_cache.KVRowStore` per layer holds its rows'
  columns at the storage dtype — ``[S, h, cap, D]`` planes — and one
  :class:`~repro.nn.kv_cache.RowTable` per style (``"dense"``,
  ``"pruned"``) says which sequence fills each row of every layer's
  store, so each :class:`~repro.nn.kv_cache.LayerKVCache` is a handle
  on its row.  A dense sequence is adopted on its first decode step
  (one copy per layer, its private buffers freed) and lives there until
  it retires; :meth:`PackedDecodeBackend.decode_step_policy` has each
  table hold the step's rows once, before the first layer;
* a block's new columns are one indexed store per plane
  (:meth:`~repro.nn.kv_cache.KVRowStore.write_block`), and the score
  and A·V stages run as *one* batched gufunc matmul each over the
  block's ``[n, h, Lk, D]`` columns, with a masked softmax batched over
  the padded scratch (columns past a row's queries, without a token —
  the ragged tail, and evicted ones not yet compacted away — are masked
  to ``-1e30`` and underflow to exact 0);
* a row's *first* pass — its rows held no column before the block's
  write: a prompt sentence — attends to the K/V it has just computed
  in the compute dtype; a later pass — a decode step — reads the
  columns as the store holds them (under int8, dequantized codes);
* LayerNorm, the tanh/gelu FFN, and the LM head run vectorized in the
  compute dtype over weight copies cast once at backend construction,
  for decode steps and prompt passes alike;
* the ``int8`` tier quantizes each block's new K/V columns in one
  pass.  Dense rows, which never evict and so are the long ones, keep
  their columns dequantized in two further planes of the same store
  (written from the quantizer's own dequantized output, filled once at
  adoption); pruned rows dequantize their shorter width each step, one
  multiply per plane;
* cascade eviction — which changes the live columns of most rows at
  most layers of every step — is one gathered mask that relabels the
  dead columns where they sit, with a row compacted only once a page
  of them has built up;
* the pruned rows' cascade control is batch-resident too, in one
  :class:`~repro.core.batched_cascade.CascadeBatch`, a member of the
  ``"pruned"`` table beside the stores, so a steady decode step loads no
  per-sequence control state and commits none.
"""

from __future__ import annotations

from functools import partial
from operator import methodcaller
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .functional import GELU_C, softmax_inplace
from .kv_cache import NO_TOKEN, KVRowStore, RowTable, ragged_arange
from .numerics import NumericsMismatchError, resolve_numerics
from .transformer import AttentionExecutor, PrefillState, TransformerModel

__all__ = ["PackedDecodeBackend", "UnpackableExecutorError"]

#: Sentinel score for padding columns; matches the masking convention of
#: :func:`repro.nn.attention.scaled_dot_attention` and underflows to an
#: exact 0.0 after the softmax's exp.
_MASKED = -1e30

#: Rows per pass of the compute-dtype FFN: its two ``[rows, d_ff]``
#: scratch planes persist, and a prompt step can carry thousands of rows.
_FFN_BLOCK = 256

#: Bytes of padded ``[B, h, L, L]`` score plane a block of pruned
#: prompts may span (:meth:`PackedDecodeBackend._open_pruned_blocks`):
#: every 32-token sentence a step is likely to carry (64 of an 8-head
#: model), but one 192-token sentence at a time — their planes are
#: GEMM-sized already, and the scratch is resident for good (a 4 MiB
#: budget read +10 % peak RSS on ``prefill_spatten_int8``, this +3 %).
_PROMPT_PLANE_BYTES = 2 << 20

#: Profiler stage of the fused QKV projection, per stage of a sequence.
_PROJ_STAGE = {"decode": "decode_qkv_proj", "prefill": "prefill_chunk_proj"}

#: ``(batch row, executor)`` pairs of one packed style.
_Rows = List[Tuple[int, AttentionExecutor]]


class UnpackableExecutorError(ValueError):
    """An executor in the batch cannot be driven by the packed backend.

    Its :attr:`~repro.nn.transformer.AttentionExecutor
    .packed_decode_style` is none of ``"dense"``, ``"custom"`` and
    ``"pruned"`` (an executor that was never prefilled, or one without
    packed support).
    Decode such executors through the looped oracle,
    ``decode_step_batch(backend=None)``.
    """


def _project_rows(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """``x @ w + b`` for ``x [B, n]``, each row through the single-row kernel.

    The exact tier's projection of a decode step and its prompt step's
    LM head: the ``[B, 1, n]`` gufunc computes every slice exactly as
    the looped path's ``x[i:i+1] @ w``, so the batch is bit-identical to
    the oracle row for row.
    """
    out = np.matmul(x[:, None, :], w)[:, 0, :]
    if b is not None:
        out += b
    return out


def _project_gemm(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """``x @ w + b`` as one 2-D GEMM (the ``[B, 1, n]`` gufunc dispatches
    ``B`` separate GEMVs) — the non-exact tiers' projection."""
    out = x @ w
    if b is not None:
        out += b
    return out


def _by_sequence(fn, solo: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """``fn`` over rows ``[N, ...]`` grouped as each sequence's solo pass
    groups it — the exact tier's prompt step runs its GEMM stages so.

    The rows of every sequence with two or more go through one call (row
    blocks of a multi-row GEMM are independent), and each row flagged
    ``solo`` — its sequence's only one — through a call of its own: the
    single-row kernel groups its accumulation differently.
    """
    if not solo.any():
        return fn(*rows)
    groups = [[i] for i in np.flatnonzero(solo)]
    if not solo.all():
        groups.append(np.flatnonzero(~solo))
    pieces = [fn(*(a[group] for a in rows)) for group in groups]
    out = np.empty((len(solo),) + pieces[0].shape[1:], pieces[0].dtype)
    for group, piece in zip(groups, pieces):
        out[group] = piece
    return out


def _solo_rows(parts: Sequence["_Part"]) -> np.ndarray:
    """Which of ``parts``' rows are their sequence's only one."""
    sizes = np.concatenate([part.sizes() for part in parts])
    return np.repeat(sizes == 1, sizes)


def _policy_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """LayerNorm staying in the array's compute dtype.

    Same math as :func:`repro.nn.functional.layer_norm` (eps 1e-5);
    kept separate so the exact path's fp64 oracle normalization is
    untouched while the policy path avoids fp64 promotion.  Reductions
    go through ``np.add.reduce`` + an inverse-width multiply instead of
    ``np.mean`` — the raw ufunc skips ``np.mean``'s dispatch/dtype
    bookkeeping (~2× on decode-step-sized rows, and this runs twice per
    layer on the hot path; exact for power-of-two widths, within one
    ulp otherwise — inside every tier's declared budget).
    """
    inv_d = 1.0 / x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean *= inv_d
    centered = x - mean
    var = np.multiply(centered, centered)
    var = np.add.reduce(var, axis=-1, keepdims=True)
    var *= inv_d
    var += 1e-5
    np.sqrt(var, out=var)
    centered /= var
    centered *= gamma
    centered += beta
    return centered


class _Weights:
    """Model weights at a policy's compute dtype.

    Under fp64 (``exact``) every entry but the fused QKV pair *is* the
    model's own array.  Narrower tiers hold one cast copy each, made
    once here, which keeps every prompt pass and decode step
    allocation-free on the weight side; the model's fp64 originals stay
    untouched for the oracle.
    """

    __slots__ = (
        "tok_emb", "pos_emb", "lm_proj", "wqkv", "bqkv", "wo", "bo",
        "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
    )

    def __init__(self, model, compute_dtype):
        def cast(a):
            if a.dtype == compute_dtype:
                return a
            # C order: the tied LM head is a transposed view.
            return a.astype(compute_dtype, order="C")

        params = model.params
        self.tok_emb = cast(params.token_embedding)
        self.pos_emb = cast(params.pos_embedding)
        self.lm_proj = cast(params.lm_projection())
        self.wqkv, self.bqkv, self.wo, self.bo = [], [], [], []
        self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b = [], [], [], []
        self.w1, self.b1, self.w2, self.b2 = [], [], [], []
        for layer_idx in range(model.config.n_layers):
            bp = model.block(layer_idx)
            aw = model.attention(layer_idx).weights
            # Fused [d, 3d] QKV weights: output column blocks of a GEMM
            # are independent, so (x @ wqkv)[:, :d] is bit-identical to
            # x @ wq.
            self.wqkv.append(
                cast(np.concatenate([aw.wq, aw.wk, aw.wv], axis=1))
            )
            self.bqkv.append(cast(np.concatenate([aw.bq, aw.bk, aw.bv])))
            self.wo.append(cast(aw.wo))
            self.bo.append(cast(aw.bo))
            self.ln1_g.append(cast(bp.ln1_gamma))
            self.ln1_b.append(cast(bp.ln1_beta))
            self.ln2_g.append(cast(bp.ln2_gamma))
            self.ln2_b.append(cast(bp.ln2_beta))
            self.w1.append(cast(bp.ffn_w1))
            self.b1.append(cast(bp.ffn_b1))
            self.w2.append(cast(bp.ffn_w2))
            self.b2.append(cast(bp.ffn_b2))


class _Part:
    """Rows of one step that one core runs, contiguous in the step's
    part order (:meth:`PackedDecodeBackend._attend`).

    ``positions`` holds the original position of each of its rows still
    in the residual stream and ``core_stage`` the profiler stage its
    core is charged to.
    """

    def prune(self, layer_idx: int) -> Optional[np.ndarray]:
        """Entry pruning of one layer: the surviving rows' indices, or
        ``None`` when every row survives."""
        return None


class _SequenceRows(_Part):
    """One style's per-sequence rows in a step, each sequence's run by
    its executor as control, then core, like a store block's: entry
    pruning through the stage's control — ``summarize_control`` in a
    prompt step, ``decode_control`` in a decode step — and then the
    one packed core of both stages, ``decode_attend_packed``, over a
    decode step's one query row or a prompt step's chunk or sentence.

    ``indices`` are the sequences' places in the step's batch or states
    and ``spans`` their rows still in the residual stream, as original
    positions — a prompt's ``[start, end)`` going in, fewer as entry
    pruning drops rows layer by layer.
    """

    def __init__(self, stage: str, style: str, rows: _Rows, spans):
        self.indices = [i for i, _ in rows]
        self.executors = [executor for _, executor in rows]
        self.spans = spans
        self.positions = np.concatenate(spans)
        #: The executors' control method for this stage.
        self.control = (
            "summarize_control" if stage == "prefill" else "decode_control"
        )
        self.core_stage = f"{stage}_{style}_core"

    def sizes(self) -> np.ndarray:
        """How many of the rows each sequence has."""
        return np.array([len(span) for span in self.spans])

    def prune(self, layer_idx: int) -> Optional[np.ndarray]:
        kept = [
            getattr(executor, self.control)(layer_idx, span)
            for executor, span in zip(self.executors, self.spans)
        ]
        lens = [len(span) for span in self.spans]
        if all(len(k) == n for k, n in zip(kept, lens)):
            return None
        starts = np.cumsum([0] + lens[:-1])
        self.spans = [span[k] for span, k in zip(self.spans, kept)]
        self.positions = np.concatenate(self.spans)
        return np.concatenate([start + k for start, k in zip(starts, kept)])

    def attend(self, backend, layer_idx, heads, out) -> None:
        """``heads`` ``[N, 3, h, D]`` projections → ``out`` ``[N, d]``."""
        stop = 0
        for executor, span in zip(self.executors, self.spans):
            rows = slice(stop, stop + len(span))
            stop = rows.stop
            q, k, v = heads[rows].transpose(1, 2, 0, 3)  # [h, L, D] views
            out[rows] = executor.decode_attend_packed(
                layer_idx, backend._model, q, k, v, span
            )


class _StoreBlock(_Part):
    """Consecutive rows of one style's row stores that one
    :func:`_store_core` runs: a decode step's dense or pruned rows (one
    query row each), or a block of a prompt step's pruned sentences
    (each whole).

    ``rows`` are the block's rows in every layer's store and ``cascade``
    their step of the resident batch control
    (:class:`~repro.core.batched_cascade.CascadeStep`), ``None`` for
    dense rows.  The rows still in the
    residual stream are flat, store row after store row: ``seq_of``
    names each one's row of the block, ``positions`` its original
    position, and ``counts`` holds how many each store row has.
    ``indices`` are a prompt block's places in the step's states.
    """

    def __init__(self, stage, stores, rows, cascade, counts, positions,
                 indices=None):
        self.stores, self.rows, self.cascade = stores, rows, cascade
        self.counts = np.asarray(counts)
        self.n_queries = int(self.counts.max())
        self.seq_of = np.repeat(np.arange(len(self.counts)), self.counts)
        self.positions = positions
        self.indices = indices
        kind = "dense" if cascade is None else "pruned"
        self.core_stage = f"{stage}_{kind}_core"
        # A prompt pass fills rows adopted empty; a decode step's rows
        # hold their prompt's columns at least.
        self.first = stage == "prefill"
        self.value_stage = f"{stage}_value_control"

    def sizes(self) -> np.ndarray:
        return self.counts

    def prune(self, layer_idx: int) -> Optional[np.ndarray]:
        """The cascade decides over its control planes; then the layer's
        store drops the block's columns whose token left the live set
        (through its handles the truth for ``kv_lengths()``, eviction
        counts and pool pages), and the block the rows whose token
        left it."""
        if self.cascade is None:
            return None
        self.cascade.prune(layer_idx)
        self.stores[layer_idx].evict(
            self.rows, self.cascade.alive, self.cascade.offsets
        )
        if len(self.positions) == len(self.counts):
            # A row's last query is its protected token (a decode step's
            # new one, a prompt's last): one query a row drops no row.
            return None
        survivors = np.flatnonzero(
            self.cascade.alive[self.seq_of, self.positions]
        )
        if len(survivors) == len(self.positions):
            return None
        self.seq_of = self.seq_of[survivors]
        self.positions = self.positions[survivors]
        self.counts = np.bincount(self.seq_of, minlength=len(self.counts))
        self.n_queries = int(self.counts.max())
        return survivors

    def attend(self, backend, layer_idx, heads, out) -> None:
        _store_core(backend, self.stores[layer_idx], self, heads, out)


class PackedDecodeBackend:
    """Batched attention executor state shared across serving steps.

    One backend instance serves one model at one numerics tier; the
    serving engine creates it once and passes it to every
    :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch` /
    :meth:`~repro.nn.transformer.TransformerModel.prefill_chunk_batch`
    call.  The backend holds the fused per-layer projection weights and
    reusable scratch tensors (scores, merged heads, FFN planes), which
    grow with the live batch instead of being rebuilt every step — and,
    off the exact tier, the ``"dense"`` and ``"pruned"`` rows themselves
    (one :class:`~repro.nn.kv_cache.RowTable` per style over one
    :class:`~repro.nn.kv_cache.KVRowStore` per layer; see
    :meth:`release` and :meth:`reset`).
    """

    def __init__(self, model: TransformerModel, numerics=None):
        self._model = model
        #: The numerics ladder tier this backend runs decode steps and
        #: prompt passes at; ``exact`` (the default) is bit-identical to
        #: the looped oracle.
        self.policy = resolve_numerics(numerics)
        cfg = model.config
        self._weights = _Weights(model, self.policy.compute_dtype)
        self._project = (
            _project_rows if self.policy.is_exact else _project_gemm
        )
        # Reusable scratch (name -> buffer), allocated on first use: a
        # tier pays only for what its core touches.
        self._scratch: Dict[str, np.ndarray] = {}
        #: The resident rows by style: one row table each, over one store
        #: per layer (built from the style's first row's caches) and,
        #: for ``"pruned"`` rows, the cascade control, its last member.
        self._tables: Dict[str, RowTable] = {}
        self._inv_sqrt_d = 1.0 / float(np.sqrt(cfg.head_dim))
        #: Optional :class:`repro.telemetry.HotPathProfiler` measuring
        #: real wall-clock time per stage (the serving engine attaches
        #: it when profiling is requested).  ``None`` costs one ``is
        #: None`` check per stage — the hot path stays unchanged.
        self.profiler = None

    # ------------------------------------------------------------------
    # Scratch management
    # ------------------------------------------------------------------
    def _rows(self, name: str, n: int, *tail: int, dtype=None) -> np.ndarray:
        """Persistent ``[n, *tail]`` scratch ``name``, grown on demand."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape[0] < n:
            buf = self._scratch[name] = np.zeros(
                (n, *tail), dtype=dtype or self.policy.compute_dtype
            )
        return buf[:n]

    def _plane(self, n: int, n_queries: int, width: int) -> np.ndarray:
        """The one score scratch: a contiguous ``[n, h, n_queries,
        width]`` view of a flat buffer that doubles when outgrown."""
        shape = (n, self._model.config.n_heads, n_queries, width)
        size = n * shape[1] * n_queries * width
        buf = self._scratch.get("plane")
        if buf is None or buf.size < size:
            grown = 0 if buf is None else 2 * buf.size
            buf = self._scratch["plane"] = np.empty(
                max(size, grown), dtype=self.policy.compute_dtype
            )
        return buf[:size].reshape(shape)

    # ------------------------------------------------------------------
    # The per-layer skeleton and its entry points
    # ------------------------------------------------------------------
    def _check_model(self, model: TransformerModel) -> None:
        if model is not self._model:
            raise ValueError(
                "PackedDecodeBackend is bound to a different model; create "
                "one backend per TransformerModel"
            )

    def _group_rows(
        self, model: TransformerModel, executors: Sequence[AttentionExecutor]
    ) -> Dict[str, _Rows]:
        """Validate the batch and split it into its rows by style."""
        self._check_model(model)
        policy = self.policy
        by_style: Dict[str, _Rows] = {"dense": [], "custom": [], "pruned": []}
        for i, executor in enumerate(executors):
            tier = executor.numerics
            # Identity is the hot path; equality admits deep-copied
            # executors, whose frozen policy is an equal clone.
            if tier is not policy and tier != policy:
                raise NumericsMismatchError(
                    f"row {i}: {type(executor).__name__} stores KV at the "
                    f"{tier.name!r} tier but the backend runs "
                    f"{policy.name!r}; build executors and backend "
                    "from one NumericsPolicy"
                )
            style = executor.packed_decode_style
            if style not in by_style:
                raise UnpackableExecutorError(
                    f"row {i}: {type(executor).__name__} has "
                    f"packed_decode_style {style!r}; the packed backend "
                    "drives only 'dense', 'custom' and 'pruned' executors "
                    "(use decode_step_batch(backend=None) for the rest)"
                )
            by_style[style].append((i, executor))
        return by_style

    def _attend(
        self, layer_idx: int, parts: Sequence[_Part], x: np.ndarray,
        stage: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The attention half of one layer over ``parts``' rows ``x``,
        one part after the other: entry pruning, the fused QKV
        projection, each part's core over its slice of the rows, the
        fused output FC.

        Returns ``(x, attn_out)``: the rows that survived entry pruning
        and their attention output, both ``[N, d]``.
        """
        cfg, w, prof = self._model.config, self._weights, self.profiler
        t0 = prof.start() if prof is not None else 0.0
        # Rows the cascade drops leave the residual stream before the
        # projections (and the FFN) see them.
        sizes = [len(part.positions) for part in parts]
        survivors = [part.prune(layer_idx) for part in parts]
        if any(kept is not None for kept in survivors):
            starts = np.cumsum([0] + sizes[:-1])
            x = x[np.concatenate([
                start + (np.arange(size) if kept is None else kept)
                for start, size, kept in zip(starts, sizes, survivors)
            ])]
        # Each stage starts where the one before stopped (``lap``), so
        # the layer's stages tile it.
        if prof is not None:
            t0 = prof.lap(f"{stage}_prune_control", t0)

        project = self._project
        if stage == "prefill" and self.policy.is_exact:
            project = partial(self.project_chunk_rows, _solo_rows(parts))
        qkv = project(x, w.wqkv[layer_idx], w.bqkv[layer_idx])
        if prof is not None:
            t0 = prof.lap(_PROJ_STAGE[stage], t0)

        heads = qkv.reshape(len(x), 3, cfg.n_heads, cfg.head_dim)
        merged = self._rows("merged", len(x), cfg.d_model, dtype=x.dtype)
        stop = 0
        for part in parts:
            rows = slice(stop, stop + len(part.positions))
            stop = rows.stop
            part.attend(self, layer_idx, heads[rows], merged[rows])
            if prof is not None:
                t0 = prof.lap(part.core_stage, t0)

        attn_out = project(merged, w.wo[layer_idx], w.bo[layer_idx])
        if prof is not None:
            prof.lap(f"{stage}_output_fc", t0)
        return x, attn_out

    def _layers(
        self, parts: Sequence[_Part], x: np.ndarray, stage: str
    ) -> np.ndarray:
        """The compute-dtype layer stack over ``parts``' rows ``x`` —
        every layer's attention half, then its FFN half — run alike by a
        decode step off the exact tier and a prompt step on every tier.
        Returns the final hidden rows, part by part."""
        prof = self.profiler
        for layer_idx in range(self._model.config.n_layers):
            x, attn_out = self._attend(layer_idx, parts, x, stage)
            t0 = prof.start() if prof is not None else 0.0
            if self.policy.is_exact:
                # The model's own fp64 FFN half, grouped as the oracle's.
                x = _by_sequence(
                    partial(self._model._residual_ffn, layer_idx),
                    _solo_rows(parts), x, attn_out,
                )
            else:
                x = self._ffn_half(layer_idx, x, attn_out)
            if prof is not None:
                prof.stop(f"{stage}_ffn", t0)
        return x

    def _decode_parts(
        self,
        model: TransformerModel,
        positions: np.ndarray,
        executors: Sequence[AttentionExecutor],
    ) -> Tuple[List[_Part], Optional[np.ndarray]]:
        """A decode step's parts and the batch rows in part order
        (``None`` when that is the batch order).

        ``"custom"`` rows are one per-sequence part (on the exact tier,
        its dense rows another); off it, the ``"pruned"`` and the
        ``"dense"`` rows are a store block each, in store-row order, the
        pruned one with the step opened on its resident batch control.
        """
        rows = self._group_rows(model, executors)
        per_sequence = (
            ("custom", "dense") if self.policy.is_exact else ("custom",)
        )
        parts: List[_Part] = []
        order: List[int] = []
        for style in per_sequence:
            if rows[style]:
                parts.append(_SequenceRows("decode", style, rows[style], [
                    positions[i : i + 1] for i, _ in rows[style]
                ]))
                order += parts[-1].indices
        for style in ("pruned", "dense"):
            held = rows[style]
            if style in per_sequence or not (held or style in self._tables):
                continue
            # The style's table holds exactly this step's rows, which
            # run in its row order.
            table = self._table(style, held)
            indices = [held[k][0] for k in table.hold([e for _, e in held])]
            if not indices:
                continue
            cascade = None
            if style == "pruned":
                cascade = table.members[-1].open_decode(positions[indices])
            parts.append(_StoreBlock(
                "decode", table.members, slice(0, len(indices)), cascade,
                np.ones(len(indices), dtype=np.int64), positions[indices],
            ))
            order += indices
        if order == list(range(len(executors))):
            return parts, None
        return parts, np.array(order)

    def decode_layer(
        self,
        model: TransformerModel,
        layer_idx: int,
        x: np.ndarray,
        positions: np.ndarray,
        executors: Sequence[AttentionExecutor],
    ) -> np.ndarray:
        """Packed attention of one block over a decode batch.

        The exact tier's entry point:
        :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch`
        keeps its own fp64 layer stack and calls this once per block.
        Returns ``attn_out [B, d_model]``, bit-identical to
        concatenating the looped per-sequence ``run_layer`` outputs.
        """
        parts, order = self._decode_parts(model, positions, executors)
        if order is None:
            return self._attend(layer_idx, parts, x, "decode")[1]
        attn_out = self._attend(layer_idx, parts, x[order], "decode")[1]
        return attn_out[np.argsort(order)]

    def decode_step_policy(
        self,
        model: TransformerModel,
        token_ids: np.ndarray,
        positions: np.ndarray,
        executors: Sequence[AttentionExecutor],
    ) -> np.ndarray:
        """One whole decode step in the policy's compute dtype.

        :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch`
        delegates here (after its input validation) whenever the
        backend's policy is non-exact.  The layer stack mirrors the
        exact path operation-for-operation — embedding gather, packed
        attention, residual + LayerNorm, tanh/gelu FFN, LM head — but
        runs vectorized over the cast weights, on the rows in part
        order.  ``dense`` and ``pruned`` executors' K/V are made
        resident in the row stores here (a ``pruned`` one served by
        this backend has been since its prompt pass, its cascade
        control too); the ``pruned`` rows' step is opened on their
        resident control with one admission and stepped by every layer,
        and nothing is stored back to the executors; ``custom``
        executors keep their own per-sequence core.
        """
        prof = self.profiler
        t_step = t0 = prof.start() if prof is not None else 0.0
        parts, order = self._decode_parts(model, positions, executors)
        if order is not None:
            token_ids, positions = token_ids[order], positions[order]
        w = self._weights
        x = w.tok_emb[token_ids] + w.pos_emb[positions]
        if prof is not None:
            prof.stop("decode_setup", t0)
        x = self._layers(parts, x, "decode")
        t0 = prof.start() if prof is not None else 0.0
        logits = x @ w.lm_proj
        if order is not None:
            logits = logits[np.argsort(order)]
        if prof is not None:
            prof.stop("decode_lm_head", t0)
            prof.stop("decode_step", t_step)
        return logits

    # ------------------------------------------------------------------
    # Row-store residency of the dense and the pruned rows
    # ------------------------------------------------------------------
    def _table(self, style: str, rows: _Rows) -> RowTable:
        """``style``'s row table, built on first use from the caches of
        the first of ``rows``: one store per layer, and for ``"pruned"``
        rows the resident cascade control beside them."""
        table = self._tables.get(style)
        if table is None:
            executor = rows[0][1]
            layers = range(self._model.config.n_layers)
            # Dense rows never evict, so they are the long ones: on
            # int8 their stores keep the columns dequantized as well.
            dequantized = style == "dense" and self.policy.quantized_gemm
            members = [
                KVRowStore(executor.decode_kv_cache(layer), dequantized)
                for layer in layers
            ]
            control = style == "pruned"
            if control:
                members.append(executor.batch_control(self._model.config))
            table = self._tables[style] = RowTable(
                members,
                lambda e: [e.decode_kv_cache(i) for i in layers]
                + [e] * control,
                methodcaller("decode_kv_cache", 0),
            )
        return table

    def release(self, executor: AttentionExecutor) -> None:
        """Forget a sequence that will not decode here again (retired,
        preempted, quarantined, drained — a pruned one possibly straight
        after its prompt pass, which made it resident): its row is
        vacated in every layer's store without copying the columns
        back, its caches left empty, and a pruned one's control row is
        written back to it (a barrier: its trace takes its share of the
        log) — whatever a barrier already sent home.  Rows nobody
        releases are found by the next decode step's reconcile, which
        does copy them back.
        """
        table = self._tables.get(executor.packed_decode_style)
        if table is not None:
            table.release(executor)

    def reset(self) -> None:
        """Hand every resident row back to its sequence: a new serving
        run starts from empty tables."""
        for table in self._tables.values():
            table.hold([])

    def _ffn_half(
        self, layer_idx: int, x: np.ndarray, attn_out: np.ndarray
    ) -> np.ndarray:
        """A block after its attention: residual + LayerNorm, FFN,
        residual + LayerNorm, in the compute dtype.

        Residual adds run in place on the freshly produced left operand
        (attention / FFN output buffers are never aliased to ``x``).
        """
        w = self._weights
        attn_out += x
        x = _policy_layer_norm(
            attn_out, w.ln1_g[layer_idx], w.ln1_b[layer_idx]
        )
        ffn_out = self._ffn_policy(layer_idx, x)
        ffn_out += x
        return _policy_layer_norm(
            ffn_out, w.ln2_g[layer_idx], w.ln2_b[layer_idx]
        )

    def _ffn_policy(self, layer_idx: int, x: np.ndarray) -> np.ndarray:
        """Vectorized compute-dtype tanh/gelu FFN (the PR-3 fp64 tax).

        Rows go through in blocks of :data:`_FFN_BLOCK`, so the
        ``[rows, d_ff]`` scratch stays a decode batch's size however
        many prompt rows a step carries.
        """
        w = self._weights
        d_ff = w.w1[layer_idx].shape[1]
        out = np.empty_like(x)
        for start in range(0, len(x), _FFN_BLOCK):
            rows = x[start : start + _FFN_BLOCK]
            hidden = self._rows("ffn_hidden", len(rows), d_ff)
            inner = self._rows("ffn_inner", len(rows), d_ff)
            np.matmul(rows, w.w1[layer_idx], out=hidden)
            hidden += w.b1[layer_idx]
            # functional.gelu's formula, every op in place on the scratch.
            np.square(hidden, out=inner)
            inner *= 0.044715
            inner += 1.0
            inner *= hidden
            inner *= GELU_C
            np.tanh(inner, out=inner)
            inner += 1.0
            inner *= hidden
            inner *= 0.5
            np.matmul(
                inner, w.w2[layer_idx], out=out[start : start + _FFN_BLOCK]
            )
        out += w.b2[layer_idx]
        return out

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def prefill_chunk_policy(
        self,
        model: TransformerModel,
        states: Sequence[PrefillState],
        max_tokens: int,
    ) -> List[Optional[np.ndarray]]:
        """One prefill chunk per in-flight prompt, in the compute dtype.

        :meth:`~repro.nn.transformer.TransformerModel.prefill_chunk_batch`
        delegates here (after its input validation) on every tier — the
        prompt pass's counterpart of :meth:`decode_step_policy`, the
        same layer stack over the rows each sequence brings: an
        incremental executor's
        (:attr:`~repro.nn.transformer.AttentionExecutor
        .supports_incremental_prefill`) next chunk, and the whole
        sentence of every other executor whose *final* chunk this is —
        cascade pruning decides over all of it, so earlier chunks only
        advance the committed-token counter, as in the looped oracle.
        Pruned tokens leave the residual stream at each layer's entry,
        so they skip the projections and the FFN:

        * ``"pruned"`` sentences are store blocks
          (:meth:`_open_pruned_blocks`), each a step of the resident
          batch control, which adopts the sequences' control state —
          opening their schedules — as the ``"pruned"`` row stores adopt
          their empty caches, before the first layer; their K/V go
          straight into the stores — a sequence is resident, control and
          columns, from its first column and nothing is stored back;
        * every other sequence's rows prune through its executor's
          :meth:`~repro.nn.transformer.AttentionExecutor
          .summarize_control` and run its own core on the survivors'
          projections (:meth:`~repro.nn.transformer.AttentionExecutor
          .decode_attend_packed`, the core of both stages) — a dense
          chunk attends against its private cache.

        On the exact tier every sequence is such a per-sequence row,
        and the step reproduces a solo
        :meth:`~repro.nn.transformer.TransformerModel.prefill` bit for
        bit: the projections (:meth:`project_chunk_rows`) and the
        model's own fp64 FFN half group rows as solo passes do
        (:func:`_by_sequence`), and the LM head runs row by row.

        Returns one entry per state: the next-token logits (compute
        dtype) of prompts that completed, else ``None``.
        """
        prof = self.profiler
        t_step = t0 = prof.start() if prof is not None else 0.0
        cfg, w = model.config, self._weights
        by_style = self._group_rows(
            model, [state.executor for state in states]
        )
        spans = [state.next_span(max_tokens) for state in states]
        final = [
            end == state.prompt_len for state, (_, end) in zip(states, spans)
        ]
        # The rows a sequence brings: an incremental executor's next
        # chunk; any other's whole sentence once its final chunk lands.
        rows_of: Dict[int, np.ndarray] = {}
        for i, (state, (start, end)) in enumerate(zip(states, spans)):
            if state.executor.supports_incremental_prefill:
                rows_of[i] = np.arange(start, end)
            elif final[i]:
                rows_of[i] = np.arange(end)
        parts: List[_Part] = []
        for style in ("dense", "custom"):
            rows = [(i, ex) for i, ex in by_style[style] if i in rows_of]
            if rows:
                parts.append(_SequenceRows(
                    "prefill", style, rows, [rows_of[i] for i, _ in rows]
                ))
        whole = [(i, ex) for i, ex in by_style["pruned"] if i in rows_of]
        results: List[Optional[np.ndarray]] = [None] * len(states)
        x = None
        if parts or whole:
            lengths = [states[i].prompt_len for i, _ in whole]
            token_ids = np.concatenate(
                [states[i].prompt_ids[span] for part in parts
                 for i, span in zip(part.indices, part.spans)]
                + [states[i].prompt_ids for i, _ in whole]
            )
            positions = np.concatenate(
                [part.positions for part in parts]
                + [ragged_arange(np.array(lengths, dtype=np.int64))]
            )
            if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
                raise ValueError("token id out of vocabulary range")
            if positions.max() >= cfg.max_seq_len:
                raise ValueError(
                    f"sequence exceeds max_seq_len={cfg.max_seq_len}"
                )
            parts += self._open_pruned_blocks(whole, lengths)
            x = w.tok_emb[token_ids] + w.pos_emb[positions]
        if prof is not None:
            t0 = prof.lap("prefill_setup", t0)
        if x is not None:
            hidden = self._layers(parts, x, "prefill")
            t0 = prof.start() if prof is not None else 0.0
            # A sequence's last row survives every layer (cascade pruning
            # protects the final prompt token) and ends its rows.
            done, last_rows, offset = [], [], 0
            for part in parts:
                for i, end in zip(part.indices, np.cumsum(part.sizes())):
                    if final[i]:
                        done.append(i)
                        last_rows.append(offset + end - 1)
                offset += len(part.positions)
            if done:
                logits = self._project(hidden[last_rows], w.lm_proj)
                for i, row in zip(done, logits):
                    results[i] = row
        for state, (_, end), logits in zip(states, spans, results):
            state.n_committed = end
            state.logits = logits
        if prof is not None:
            prof.stop("prefill_lm_head", t0)
            prof.stop("prefill_step", t_step)
        return results

    def _open_pruned_blocks(
        self, whole: _Rows, lengths: List[int]
    ) -> List[_StoreBlock]:
        """Make the step's ``"pruned"`` sequences ``whole`` resident —
        caches and control state — and open their prompt pass, a store
        block of consecutive ones each.

        A block is as many sequences as keep its padded ``[B, h, L, L]``
        score plane — ``L`` the longest prompt among them — within
        :data:`_PROMPT_PLANE_BYTES`, so the scratch stays that size
        however many prompts a step completes, and a short prompt is
        never padded out to a long one's plane past that budget.
        """
        if not whole:
            return []
        cfg = self._model.config
        indices = [i for i, _ in whole]
        executors = [executor for _, executor in whole]
        for executor, length in zip(executors, lengths):
            executor._init_schedules(length)
        table = self._table("pruned", whole)
        first_row = table.adopt(executors)[0].row
        pair_bytes = cfg.n_heads * np.dtype(self.policy.compute_dtype).itemsize
        blocks, start, longest = [], 0, lengths[0]
        for stop in range(1, len(whole) + 1):
            if stop < len(whole):
                # Would the next sequence still fit this block's plane?
                longest = max(longest, lengths[stop])
                if ((stop + 1 - start) * longest * longest * pair_bytes
                        <= _PROMPT_PLANE_BYTES):
                    continue
                longest = lengths[stop]
            counts = np.array(lengths[start:stop], dtype=np.int64)
            rows = slice(first_row + start, first_row + stop)
            blocks.append(_StoreBlock(
                "prefill", table.members, rows,
                table.members[-1].open_prompts(
                    rows, counts, executors[start:stop]
                ),
                counts, ragged_arange(counts), indices[start:stop],
            ))
            start = stop
        return blocks

    def project_chunk_rows(
        self, solo: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """``x @ w + b`` over an exact-tier prompt step's rows — its
        fused QKV projection and output FC — grouped as solo passes
        group them (:func:`_by_sequence`): one GEMM over the rows of
        every sequence with ≥ 2 of them, and each row flagged ``solo``
        alone."""
        return _by_sequence(partial(_project_gemm, w=w, b=b), solo, x)


def _stage_kv_columns(
    backend: "PackedDecodeBackend", k_cols: np.ndarray, v_cols: np.ndarray
):
    """A block's ``[N, h, D]`` new K/V columns as a row store takes them,
    plane for plane (:attr:`~repro.nn.kv_cache.KVRowStore.planes`).

    The inputs themselves under float storage; under int8 ``(k_codes,
    v_codes, k_scales, v_scales)`` and then the columns dequantized —
    what a later pass reads back, which a store with dequantized planes
    keeps and any other drops.
    """
    if not backend.policy.quantized_gemm:
        return k_cols, v_cols
    # One fused quantization of the block's k and v rows —
    # inlined :func:`repro.core.quantization.quantize_rows`
    # (bit-identical codes and scales, asserted by
    # tests/test_numerics.py) over persistent scratch: every op
    # runs in place, and the finite-input guard is skipped
    # because activations are bounded by construction
    # (LayerNormed hidden state through finite weights).  Q
    # stays in the compute dtype — a later pass's score GEMM
    # reads fp Q against dequantized int8 K, matching what the
    # store holds.
    n = len(k_cols)
    shape = k_cols.shape[1:]
    kv_rows = backend._rows("kv_stage", 2 * n, *shape)
    kv_rows[:n] = k_cols
    kv_rows[n:] = v_cols
    codes_f = backend._rows("quant_codes_f", 2 * n, *shape)
    scales = backend._rows(
        "quant_scales", 2 * n, shape[0], 1, dtype=np.float32
    )
    codes = backend._rows("quant_codes", 2 * n, *shape, dtype=np.int8)
    np.abs(kv_rows, out=codes_f)
    np.fmax.reduce(codes_f, axis=-1, keepdims=True, out=scales)
    np.divide(scales, 127.0, out=scales)
    scales[scales == 0.0] = 1.0
    np.divide(kv_rows, scales, out=codes_f)
    np.rint(codes_f, out=codes_f)
    np.clip(codes_f, -127.0, 127.0, out=codes_f)
    # codes_f holds exact integers in [-127, 127] after the
    # rint+clip, so the int8 assignment cast is value-exact.
    codes[...] = codes_f
    # Dequantize in place over the staging rows: what the score GEMM
    # reads back.
    np.multiply(codes_f, scales, out=kv_rows)
    return (
        codes[:n], codes[n:], scales[:n, :, 0], scales[n:, :, 0],
        kv_rows[:n], kv_rows[n:],
    )


def _store_core(
    backend: "PackedDecodeBackend",
    store: KVRowStore,
    block: _StoreBlock,
    heads: np.ndarray,
    out: np.ndarray,
) -> None:
    """Attention of one layer over a store block (non-exact tiers): K/V
    write → scores → masked softmax → local value pruning → A·V →
    importance, as batched tensor ops over an ``[n, h, Lq, Lk]`` plane —
    ``n`` the block's rows, ``Lq`` their most query rows, ``Lk`` the
    columns they span — with no per-sequence BLAS call.

    ``heads`` ``[N, 3, h, D]`` are the projections of the block's rows,
    flat, and ``out`` ``[N, d]`` takes their merged head features.  Row
    ``j``'s queries sit in rows ``[0, counts[j])`` of its plane; padded
    query rows are zeroed after the softmax and contribute exact zeros
    from there on.  The new K/V columns (in a prompt block, dead heads'
    as zeros) go to the store with one write per plane, the block
    quantized in *one* pass under int8.  A first pass — a prompt block,
    whose rows held no column before this write — attends to the K/V it
    has just computed; a later one — a decode step — reads the
    ``[:width]`` columns as the store holds them
    (:meth:`~repro.nn.kv_cache.KVRowStore.compute_columns`).  One mask
    hides a column from the queries before its position, and a column
    without a token — evicted and not compacted away yet, or the ragged
    tail, labelled :data:`~repro.nn.kv_cache.NO_TOKEN` — from all.

    With a ``cascade`` — the pruned rows' batch control — SpAtten's
    stages sit in the datapath: dead heads gated by the step's ``[n, h]``
    plane, local value pruning ranked on each head's probability mass per
    column (summed over the queries once; at one query a row, the
    probabilities themselves) — the same plane the fp64 token
    importance accumulates — and head importance accumulated for the
    whole block, all of it the profiler's ``*_value_control`` stage.
    Dense blocks pass ``None`` and bypass them.  A prompt block's A·V
    reads the values just computed, so its dead heads' K/V are zeroed
    before the write; a decode step zeroes the dead heads'
    probabilities instead, so whatever their store slices hold is never
    read with nonzero weight, and it writes them ungated.
    """
    cascade, rows, counts = block.cascade, block.rows, block.counts
    n, n_queries = len(counts), block.n_queries
    seq_of, col_of = block.seq_of, None
    if n * n_queries > len(seq_of):
        col_of = ragged_arange(counts)

    def padded(flat: np.ndarray, fill=0) -> np.ndarray:
        """Flat ``[N, ...]`` rows as ``[n, n_queries, ...]``."""
        if col_of is None:
            return flat.reshape((n, n_queries) + flat.shape[1:])
        pack = np.full((n, n_queries) + flat.shape[1:], fill, flat.dtype)
        pack[seq_of, col_of] = flat
        return pack

    q, k, v = heads[:, 0], heads[:, 1], heads[:, 2]
    gate = None if cascade is None else cascade.gate
    if gate is not None and block.first:
        k, v = k * gate[seq_of], v * gate[seq_of]
    width = store.write_block(
        rows, counts, block.positions, *_stage_kv_columns(backend, k, v)
    )
    # [n, h, Lk, D] each; BLAS takes the transposed keys (and these
    # views) without materializing them.
    if block.first:
        keys, values = (padded(a).transpose(0, 2, 1, 3) for a in (k, v))
    else:
        keys, values = store.compute_columns(rows, width)
    labels = store.labels[rows, :width]
    probs = backend._plane(n, n_queries, width)
    np.matmul(
        padded(q * backend._inv_sqrt_d).transpose(0, 2, 1, 3),
        keys.transpose(0, 1, 3, 2), out=probs,
    )
    # NO_TOKEN (-1) read unsigned lies past every position, so one test
    # hides a column from the queries before its token and a column
    # without a token from all.
    unsigned = np.dtype(np.uint64)
    hidden = labels.view(unsigned)[:, None, :] > padded(
        block.positions, NO_TOKEN
    ).view(unsigned)[..., None]
    np.copyto(probs, _MASKED, where=hidden[:, None])
    softmax_inplace(probs)
    if col_of is not None:
        probs *= (np.arange(n_queries) < counts[:, None])[:, None, :, None]
    mass = probs[:, :, 0] if n_queries == 1 else np.add.reduce(probs, axis=2)
    lens = store.live[rows]
    prof = backend.profiler
    if cascade is not None:
        t0 = prof.start() if prof is not None else 0.0
        # Ranked on every head's own mass, before dead heads are
        # zeroed: an all-zero row would be one big tie.
        value_mask = cascade.value_mask(mass, lens)
        if gate is not None:
            mass *= gate
        cascade.accumulate_tokens(mass, labels)
        if value_mask is not None and n_queries == 1:
            mass *= value_mask  # the probabilities, in place
        elif value_mask is not None:
            # Zeroing the dropped V rows masks their probabilities.
            values = values * value_mask[..., None]
        if prof is not None:
            spent = prof.start() - t0
    head_out = np.matmul(probs, values)  # [n, h, Lq, D]
    if cascade is not None:
        t0 = prof.start() if prof is not None else 0.0
        cascade.accumulate_heads(head_out, lens)
        if prof is not None:
            prof.carve(block.value_stage, spent + prof.start() - t0)
    # [n, h, 1, D] → [n, 1, h·D] reshapes in place (the moved axis is
    # the singleton); a prompt block's plane gathers its real rows.
    merged = head_out.transpose(0, 2, 1, 3).reshape(n, n_queries, -1)
    out[...] = (
        merged.reshape(out.shape) if col_of is None
        else merged[seq_of, col_of]
    )

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
whole sentence of them.  On every tier a step — decode rows, prompt
rows, or both, a serving engine's mixed step — is one pass of the one
step body, :meth:`~PackedDecodeBackend.step`: the decode parts and the
prompt parts share the embedding gather, every layer's entry-pruning
pass, fused projections and FFN half, and the LM head.  The FFN half
follows each layer's attention half, the same for both stages: the
compute-dtype :meth:`~PackedDecodeBackend._ffn_half` off the exact
tier, the model's own fp64 one on it.

There are two cores, and every part runs one of them, after its
control.  A **per-sequence part** is one style's rows, each sequence's
run by *its executor's own* control and packed core: in step 1 the
stage's control, :meth:`~repro.nn.transformer.AttentionExecutor
.summarize_control` in a prompt step and :meth:`~repro.nn.transformer
.AttentionExecutor.decode_control` in a decode step (the defaults keep
every row), then in step 3 :meth:`~repro.nn.transformer
.AttentionExecutor.decode_attend_packed`, the one core of both
stages.  Every exact-tier row is one — the executors' cores are the
bit-identity oracle's own arithmetic — as are, off it,
progressive-quantization rows
(:attr:`~repro.nn.transformer.AttentionExecutor.packed_decode_style`
``"custom"``), whose LSB refetch is decided per row from that row's own
probabilities.  A **store block** is consecutive rows of a
:class:`~repro.nn.kv_cache.KVRowStore` — a decode step's ``"dense"``
rows and its ``"pruned"`` rows, each step's ``"dense"`` prompt chunks
and ``"pruned"`` sentences — and all run the backend's one core,
:func:`_store_core`, over ``[n, h, Lq, Lk]`` planes: the block's K/V
appended at each row's cursor, one mask (the causal position test plus
columns without a token), softmax, local value pruning ranked on each
column's probability mass, A·V and importance accumulation.  A block of
pruned rows carries a step of the backend's resident batch control,
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
projection kernel of steps 2 and 4 (on the exact tier grouped as the
oracle groups its rows), the FFN half and the LM head, and whether
dense rows are store blocks or a per-sequence part.
Weights live in one holder at the policy's compute dtype (under fp64 it
aliases the model's own arrays) and scratch in one family of buffers
grown on demand.

The prompt pass is on the ladder too — SpAtten prunes and quantizes the
summarization stage as much as the generation stage (PAPER.md §III,
Fig. 3).  The step body owns every tier's prompt rows: an incremental
executor's next chunk and the whole
sentence of every other executor whose final chunk lands in it run the
skeleton, the ``"dense"`` chunks and ``"pruned"`` sentences in blocks
whose padded score plane stays under a fixed scratch budget.  Off the
exact tier a dense sequence's caches are adopted empty into the
``"dense"`` row stores at its first chunk, and a pruned one's into the
``"pruned"`` ones, its control state into the resident batch control,
before the first layer of its sentence's pass — a sequence is a store
row from its first column.

Exact tier: the bit-identity contract
-------------------------------------

Under ``exact`` the packed path must produce logits **bit-identical**
to the looped oracle — ``decode_step_batch(backend=None)`` for the
decode rows, a solo ``prefill`` for each prompt
(``tests/test_packed_decode.py`` enforces this property across
executors, ragged lengths, pruned-head sets, mid-generation evictions
and mixed steps).  BLAS reductions are not grouping-invariant, so that
constraint dictates how the step's rows group into GEMM calls
(:func:`_by_sequence`):

* multi-slice ``np.matmul`` (the gufunc) computes each 2-D slice with
  the same kernel as a standalone single-row matmul, so a
  ``[k, 1, n] @ [n, m]`` call over every row the oracle multiplies
  alone is exact — in any row order — but a *2-D* GEMM over them is not
  (single-row products take a GEMV-shaped path whose accumulation
  differs in the last ulp);
* fusing Q/K/V into one ``[d, 3d]`` weight is exact (output columns are
  independent), and so is one GEMM over every row the oracle multiplies
  in a multi-row GEMM (row blocks of a GEMM are independent);
* so the fused QKV projection and output FC
  (:meth:`~PackedDecodeBackend.project_chunk_rows`) run each decode row
  and each prompt's only row in the gufunc call and every other prompt
  row in the GEMM, regrouped after each layer's entry pruning; the
  model's fp64 FFN half and the LM head take the decode rows as one
  group, as the oracle's ``[B, d]`` batch does — in the GEMM unless
  ``B`` is 1 — and each completed prompt's last row alone.

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
  on its row.  A sequence the backend prefills is adopted empty at its
  first prompt chunk (a dense one) or sentence (a pruned one), one
  prefilled elsewhere at its first decode step (one copy per layer, its
  private buffers freed), and lives there until it retires; a step with
  decode rows has each table hold them and its prompt sequences once,
  before the first layer, every cascade step opening after that;
* a block's new columns are one indexed store per plane
  (:meth:`~repro.nn.kv_cache.KVRowStore.write_block`), and the score
  and A·V stages run as *one* batched gufunc matmul each over the
  block's ``[n, h, Lk, D]`` columns, with a masked softmax batched over
  the padded scratch (columns past a row's queries, without a token —
  the ragged tail, and evicted ones not yet compacted away — are masked
  to ``-1e30`` and underflow to exact 0);
* a pruned prompt sentence — its rows held no column before the
  block's write — attends to the K/V it has just computed in the
  compute dtype; every other block — a decode step, a dense prompt
  chunk — reads the columns as the store holds them, so a chunked
  prompt computes what a one-chunk one does: under int8, a dense row's
  dequantized planes, and a pruned row's codes themselves, cast to the
  compute dtype with the per-column scales folded in (K's into the
  scores, V's into the A·V operand);
* LayerNorm, the tanh/gelu FFN, and the LM head run vectorized in the
  compute dtype over weight copies cast once at backend construction,
  for decode steps and prompt passes alike;
* the ``int8`` tier quantizes each block's new K/V columns in one
  pass over a ``[D, 2·N·h]`` staging plane (every reduction and
  broadcast along rows of ``2·N·h``, not ``D``, elements).  Dense rows,
  which never evict and so are the long ones, keep their columns
  dequantized in two further planes of the same store (written from
  the same pass; a row adopted with columns has them filled once);
  pruned rows keep codes and
  scales alone and attend on the codes, so no step dequantizes them;
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
from itertools import groupby
from math import prod
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
#: prompts may span (:meth:`PackedDecodeBackend._prompt_blocks`):
#: every 32-token sentence a step is likely to carry (64 of an 8-head
#: model), but one 192-token sentence at a time — their planes are
#: GEMM-sized already, and the scratch is resident for good (a 4 MiB
#: budget read +10 % peak RSS on ``prefill_spatten_int8``, this +3 %).
_PROMPT_PLANE_BYTES = 2 << 20

#: Profiler stage of the fused QKV projection, per stage of a sequence.
_PROJ_STAGE = {"decode": "decode_qkv_proj", "prefill": "prefill_chunk_proj"}

#: A per-sequence row's control method, per stage of a sequence.
_CONTROL = {"decode": "decode_control", "prefill": "summarize_control"}

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


def _project_gemm(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """``x @ w + b`` in one call: one 2-D GEMM for ``x [N, n]``, ``N``
    single-row GEMVs for the ``[N, 1, n]`` gufunc form."""
    out = x @ w
    if b is not None:
        out += b
    return out


def _by_sequence(fn, solo: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """``fn`` over rows ``[N, ...]`` grouped as the looped oracle groups
    them — the exact tier's GEMM stages run so.

    The rows flagged ``solo`` — each one the oracle multiplies alone —
    go through one ``[k, 1, n]`` gufunc call, which computes every slice
    with the single-row kernel, and all other rows through one
    multi-row call (row blocks of a multi-row GEMM are independent).
    """
    n_solo = np.count_nonzero(solo)
    if not n_solo:
        return fn(*rows)
    if n_solo == len(solo):
        return fn(*[a[:, None] for a in rows])[:, 0]
    alone = fn(*(a[solo][:, None] for a in rows))[:, 0]
    out = np.empty((len(solo),) + alone.shape[1:], alone.dtype)
    out[solo] = alone
    out[~solo] = fn(*(a[~solo] for a in rows))
    return out


def _solo_rows(parts: Sequence["_Part"]) -> np.ndarray:
    """Which of ``parts``' rows are their sequence's only one (every
    decode row is)."""
    sizes = np.concatenate([part.sizes() for part in parts])
    return np.repeat(sizes == 1, sizes)


def _batch_solo(solo: np.ndarray, n: int) -> np.ndarray:
    """``solo``, in place, with its first ``n`` rows — a step's decode
    rows — one group, as the oracle's ``[B, d]`` FFN half and LM head
    take them: alone only when ``n`` is 1."""
    solo[:n] = n == 1
    return solo


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

    ``indices`` are the sequences' places in the step's batch or
    states, ``positions`` the original position of each of its rows
    still in the residual stream and ``core_stage`` the profiler stage
    its core is charged to.
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

    ``spans`` are the sequences' rows still in the residual stream, as
    original positions — a prompt's ``[start, end)`` going in, fewer as
    entry pruning drops rows layer by layer.
    """

    def __init__(self, stage: str, style: str, rows: _Rows, spans):
        self.indices = [i for i, _ in rows]
        self.executors = [executor for _, executor in rows]
        self.spans = spans
        self.positions = np.concatenate(spans)
        #: The executors' control method for this stage.
        self.control = _CONTROL[stage]
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
    query row each), or a block of a prompt step's dense chunks or
    pruned sentences (each whole).

    ``rows`` are the block's rows in every layer's store and ``cascade``
    their step of the resident batch control
    (:class:`~repro.core.batched_cascade.CascadeStep`), ``None`` for
    dense rows.  The rows still in the
    residual stream are flat, store row after store row: ``seq_of``
    names each one's row of the block, ``positions`` its original
    position, and ``counts`` holds how many each store row has.
    """

    def __init__(self, stage, stores, rows, cascade, counts, positions,
                 indices):
        self.stores, self.rows, self.cascade = stores, rows, cascade
        self.counts = np.asarray(counts)
        self.n_queries = int(self.counts.max())
        self.seq_of = np.repeat(np.arange(len(self.counts)), self.counts)
        self.positions = positions
        self.indices = indices
        kind = "dense" if cascade is None else "pruned"
        self.core_stage = f"{stage}_{kind}_core"
        # A pruned prompt block fills rows adopted empty and attends to
        # the K/V it has just computed; every other block reads its
        # columns as the store holds them.
        self.first = stage == "prefill" and cascade is not None
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

    def _flat(
        self, name: str, shape: Tuple[int, ...], dtype=None
    ) -> np.ndarray:
        """Persistent contiguous scratch ``name`` of ``shape``: a view of
        a flat buffer that doubles when outgrown."""
        size = prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            grown = 0 if buf is None else 2 * buf.size
            buf = self._scratch[name] = np.empty(
                max(size, grown), dtype=dtype or self.policy.compute_dtype
            )
        return buf[:size].reshape(shape)

    # ------------------------------------------------------------------
    # The per-layer skeleton and its entry points
    # ------------------------------------------------------------------
    def _group_rows(
        self, model: TransformerModel, executors: Sequence[AttentionExecutor]
    ) -> Dict[str, _Rows]:
        """Validate the batch and split it into its rows by style."""
        if model is not self._model:
            raise ValueError(
                "PackedDecodeBackend is bound to a different model; create "
                "one backend per TransformerModel"
            )
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
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The attention half of one layer over ``parts``' rows ``x``,
        one part after the other: entry pruning, the fused QKV
        projection, each part's core over its slice of the rows, the
        fused output FC.

        Returns ``(x, attn_out, solo)``: the rows that survived entry
        pruning and their attention output, both ``[N, d]``, and on the
        exact tier which of them are their sequence's only one
        (:func:`_solo_rows`; ``None`` off it).
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

        project, solo = _project_gemm, None
        if self.policy.is_exact:
            solo = _solo_rows(parts)
            project = partial(self.project_chunk_rows, solo)
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
        return x, attn_out, solo

    def _sequence_parts(
        self, stage: str, rows: Dict[str, _Rows], spans
    ) -> List[_Part]:
        """A step's per-sequence parts of ``stage`` over ``rows`` by
        style, sequence ``i`` bringing its rows at ``spans[i]``: the
        ``"custom"`` rows, and on the exact tier the ``"dense"`` ones
        (off it, those are store rows)."""
        styles = ("dense", "custom") if self.policy.is_exact else ("custom",)
        return [
            _SequenceRows(
                stage, style, rows[style], [spans[i] for i, _ in rows[style]]
            )
            for style in styles if rows[style]
        ]

    def decode_layer(
        self,
        model: TransformerModel,
        layer_idx: int,
        x: np.ndarray,
        positions: np.ndarray,
        executors: Sequence[AttentionExecutor],
    ) -> np.ndarray:
        """Packed attention of one block over an exact-tier decode batch:
        ``attn_out [B, d_model]``, bit-identical to concatenating the
        looped per-sequence ``run_layer`` outputs.  Nothing calls it —
        :meth:`step` runs every tier's decode step — but the end-to-end
        benchmark's span table pins the name."""
        parts = self._sequence_parts(
            "decode", self._group_rows(model, executors), positions[:, None]
        )
        order = [i for part in parts for i in part.indices]
        attn_out = self._attend(layer_idx, parts, x[order], "decode")[1]
        return attn_out[np.argsort(order)]

    def decode_step_policy(self, model, token_ids, positions, executors,
                           prefill):
        """:meth:`step` with the prompt chunks as ``prefill``, ``(states,
        max_tokens)`` or ``None``.  Nothing calls it; the end-to-end
        benchmark's span table pins the name."""
        return self.step(
            model, token_ids, positions, executors, *(prefill or ((), 1))
        )[0]

    def step(
        self,
        model: TransformerModel,
        token_ids: Sequence[int],
        positions: Sequence[int],
        executors: Sequence[AttentionExecutor],
        states: Sequence[PrefillState],
        max_tokens: int,
    ) -> Tuple[np.ndarray, List[Optional[np.ndarray]]]:
        """One step on every tier: decode rows (one a sequence of
        ``executors``, decoding ``token_ids`` at ``positions``) and the
        prompt rows of ``states`` — each the span
        :meth:`~repro.nn.transformer.PrefillState.next_span` names for
        ``max_tokens`` — through one layer stack: one embedding gather;
        per layer one entry-pruning pass, one fused QKV projection, each
        part's core, one output FC and one FFN half over all rows; one
        LM head over the decode rows and the last rows of the prompts
        that completed.

        :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch`
        and :meth:`~repro.nn.transformer.TransformerModel
        .prefill_chunk_batch` delegate here after their input
        validation.  The rows a prompt brings are an incremental
        executor's (:attr:`~repro.nn.transformer.AttentionExecutor
        .supports_incremental_prefill`) next chunk, and the whole
        sentence of every other executor whose *final* chunk this is —
        cascade pruning decides over all of it, so earlier chunks only
        advance the committed-token counter, as in the looped oracle.
        Pruned tokens leave the residual stream at each layer's entry,
        so they skip the projections and the FFN.

        Off the exact tier ``"dense"`` and ``"pruned"`` rows are store
        blocks, and each style's table seats its rows before any of its
        blocks opens (:meth:`_store_parts`): a step with decode rows has
        each table hold exactly its decode rows and its prompt
        sequences, so a dense sequence is a store row from its first
        chunk until it retires and a pruned one from its sentence's
        pass; the pruned rows' cascade steps open only then, because
        adoption may grow the control planes.  Nothing is stored back to
        the executors.  Every other row — ``"custom"`` ones, and on the
        exact tier every row — is a per-sequence part, run through its
        executor's control and core.  On the exact tier the decode
        logits are bit-identical to the looped oracle's and each
        prompt's to a solo :meth:`~repro.nn.transformer.TransformerModel
        .prefill`: the GEMM stages group rows as those do
        (:func:`_by_sequence`).

        The decode rows come first in the step's part order, then the
        prompt parts.  A step with decode rows is profiled as a
        ``decode_step`` (its prompt parts' cores under their
        ``prefill_*`` names), one without as a ``prefill_step``.

        Returns the decode rows' logits in batch order and one entry per
        state: the next-token logits (compute dtype) of a prompt that
        completed, else ``None``.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        prof = self.profiler
        stage = "decode" if len(executors) else "prefill"
        t_step = t0 = prof.begin_step() if prof is not None else 0.0
        cfg, w, n = model.config, self._weights, len(executors)
        exact = self.policy.is_exact
        rows = self._group_rows(model, executors)
        by_style = self._group_rows(model, [s.executor for s in states])
        spans = [state.next_span(max_tokens) for state in states]
        final = [end == s.prompt_len for s, (_, end) in zip(states, spans)]
        # The rows a sequence brings: an incremental executor's next
        # chunk; any other's whole sentence once its final chunk lands.
        rows_of: Dict[int, np.ndarray] = {}
        for i, (state, (start, end)) in enumerate(zip(states, spans)):
            if state.executor.supports_incremental_prefill:
                rows_of[i] = np.arange(start, end)
            elif final[i]:
                rows_of[i] = np.arange(end)
        ids_of = {i: states[i].prompt_ids[r] for i, r in rows_of.items()}
        if ids_of:
            prompt_ids = np.concatenate(list(ids_of.values()))
            if prompt_ids.min() < 0 or prompt_ids.max() >= cfg.vocab_size:
                raise ValueError("token id out of vocabulary range")
            if max(r[-1] for r in rows_of.values()) >= cfg.max_seq_len:
                raise ValueError(
                    f"sequence exceeds max_seq_len={cfg.max_seq_len}"
                )
        prompt = {
            style: [(i, ex) for i, ex in by_style[style] if i in rows_of]
            for style in by_style
        }
        parts = self._sequence_parts("decode", rows, positions[:, None])
        prompt_parts: List[_Part] = []
        for style in () if exact else ("pruned", "dense"):
            decode_blocks, prompt_blocks = self._store_parts(
                style, rows[style], prompt[style], positions, rows_of
            )
            parts += decode_blocks
            prompt_parts += prompt_blocks
        prompt_parts += self._sequence_parts("prefill", prompt, rows_of)
        # Every row's token and position: the decode rows', then the
        # prompt parts'.
        order = [i for part in parts for i in part.indices]
        ids = np.concatenate([token_ids[order]] + [
            ids_of[i] for part in prompt_parts for i in part.indices
        ])
        pos = np.concatenate(
            [positions[order]] + [part.positions for part in prompt_parts]
        )
        parts += prompt_parts
        # (A step without rows has no logits to read: ``x`` stays empty.)
        logits = x = w.tok_emb[ids] + w.pos_emb[pos]
        if prof is not None:
            t0 = prof.lap(f"{stage}_setup", t0)
        results: List[Optional[np.ndarray]] = [None] * len(states)
        if parts:
            for layer_idx in range(cfg.n_layers):
                x, attn_out, solo = self._attend(layer_idx, parts, x, stage)
                t0 = prof.start() if prof is not None else 0.0
                if exact:
                    # The model's own fp64 FFN half, grouped as the
                    # oracle's.
                    x = _by_sequence(
                        partial(model._residual_ffn, layer_idx),
                        _batch_solo(solo, n), x, attn_out,
                    )
                else:
                    x = self._ffn_half(layer_idx, x, attn_out)
                if prof is not None:
                    prof.stop(f"{stage}_ffn", t0)
            t0 = prof.start() if prof is not None else 0.0
            # The decode rows in batch order, then the last row of each
            # prompt that completed: cascade pruning protects the final
            # prompt token, so it survives every layer and ends its rows.
            head = sorted(range(n), key=order.__getitem__)
            done, offset = [], n
            for part in prompt_parts:
                for i, end in zip(part.indices, np.cumsum(part.sizes())):
                    if final[i]:
                        done.append(i)
                        head.append(offset + end - 1)
                offset += len(part.positions)
            lm_head = partial(_project_gemm, w=w.lm_proj)
            if exact:
                # The oracle's heads: its decode batch, and each
                # prompt's last row alone.
                solo = _batch_solo(np.ones(len(head), dtype=bool), n)
                lm_head = partial(_by_sequence, lm_head, solo)
            logits = lm_head(x[head])
            for i, row in zip(done, logits[n:]):
                results[i] = row
            logits = logits[:n]
        for state, (_, end), row in zip(states, spans, results):
            state.n_committed = end
            state.logits = row
        if prof is not None:
            prof.lap(f"{stage}_lm_head", t0)
            prof.end_step(f"{stage}_step", t_step)
        return logits, results

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
        preempted, quarantined, drained — possibly mid-prompt or straight
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
        """A block after its attention: residual + LayerNorm, the
        vectorized tanh/gelu FFN, residual + LayerNorm, in the compute
        dtype.

        Residual adds run in place on the freshly produced left operand
        (attention / FFN output buffers are never aliased to ``x``).
        FFN rows go through in blocks of :data:`_FFN_BLOCK`, so the
        ``[rows, d_ff]`` scratch stays a decode batch's size however
        many prompt rows a step carries.
        """
        w = self._weights
        attn_out += x
        x = _policy_layer_norm(
            attn_out, w.ln1_g[layer_idx], w.ln1_b[layer_idx]
        )
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
        out += x
        return _policy_layer_norm(out, w.ln2_g[layer_idx], w.ln2_b[layer_idx])

    def _store_parts(
        self, style: str, decode: _Rows, prompt: _Rows,
        positions: np.ndarray, rows_of: Dict[int, np.ndarray],
    ) -> Tuple[List[_StoreBlock], List[_StoreBlock]]:
        """Seat the step's ``style`` rows — its ``decode`` rows and the
        sequences of its ``prompt`` rows ``rows_of`` — and open their
        store blocks; returns the decode rows' blocks and the prompt
        rows'.

        A step with decode rows has the table hold exactly both: a
        pruned sentence or a dense first chunk arrives with empty caches
        (and a pruned one its control state, schedules opened), adopted
        without copying a column; a mid-prompt dense row is seated
        already.  A step without decode rows seats its prompts
        (:meth:`~repro.nn.kv_cache.RowTable.join`) and vacates nothing.
        A retirement moves the last row into the vacated one, so a
        mid-prompt dense row may sit between decode rows: each run of
        consecutive rows of one stage opens its own blocks.
        """
        owners = decode + prompt
        for i, executor in prompt if style == "pruned" else ():
            executor._init_schedules(len(rows_of[i]))
        if not owners and not (len(positions) and style in self._tables):
            return [], []
        table = self._table(style, owners)
        if len(positions):
            seated = enumerate(table.hold([ex for _, ex in owners]))
        else:
            seats = table.join([ex for _, ex in prompt])
            seated = sorted((seat.row, k) for k, seat in enumerate(seats))
        members = table.members
        blocks: Tuple[List[_StoreBlock], List[_StoreBlock]] = ([], [])
        # (place, (row, owner)): a run's rows share ``row - place``.
        for (is_decode, _), run in groupby(
            enumerate(seated),
            key=lambda e: (e[1][1] < len(decode), e[1][0] - e[0]),
        ):
            run = [(row, owners[k]) for _, (row, k) in run]
            first, chosen = run[0][0], [owner for _, owner in run]
            if not is_decode:
                blocks[1].extend(
                    self._prompt_blocks(style, first, chosen, rows_of)
                )
                continue
            indices = [i for i, _ in chosen]
            blocks[0].append(_StoreBlock(
                "decode", members, slice(first, first + len(indices)),
                # The table's first rows: a pruned sequence is seated at
                # its sentence's pass, after every decode row.
                members[-1].open_decode(positions[indices])
                if style == "pruned" else None,
                np.ones(len(indices), dtype=np.int64), positions[indices],
                indices,
            ))
        return blocks

    def _prompt_blocks(
        self, style: str, first_row: int, chosen: _Rows,
        rows_of: Dict[int, np.ndarray],
    ) -> List[_StoreBlock]:
        """The prompt store blocks of ``chosen``, consecutive rows of
        ``style``'s table from ``first_row``, sequence ``i`` bringing its
        rows ``rows_of[i]``; a pruned block opens its prompt pass on the
        resident batch control.

        A block is as many sequences as keep its padded ``[n, h, Lq,
        Lk]`` score plane — ``Lq`` the most rows one brings, ``Lk`` the
        widest row once written — within :data:`_PROMPT_PLANE_BYTES`, so
        the scratch stays that size however many prompts a step carries,
        and a short prompt is never padded out to a long one's plane
        past that budget.
        """
        members = self._tables[style].members
        spans = [rows_of[i] for i, _ in chosen]
        counts = np.array([len(span) for span in spans])
        widths = np.array([span[-1] + 1 for span in spans])
        pair_bytes = (self._model.config.n_heads
                      * np.dtype(self.policy.compute_dtype).itemsize)
        blocks, start = [], 0
        for stop in range(1, len(chosen) + 1):
            # Would the next sequence still fit this block's plane?
            if stop < len(chosen) and (
                (stop + 1 - start) * counts[start : stop + 1].max()
                * widths[start : stop + 1].max() * pair_bytes
                <= _PROMPT_PLANE_BYTES
            ):
                continue
            rows = slice(first_row + start, first_row + stop)
            cascade = None
            if style == "pruned":
                cascade = members[-1].open_prompts(
                    rows, counts[start:stop],
                    [executor for _, executor in chosen[start:stop]],
                )
            blocks.append(_StoreBlock(
                "prefill", members, rows, cascade, counts[start:stop],
                np.concatenate(spans[start:stop]),
                [i for i, _ in chosen[start:stop]],
            ))
            start = stop
        return blocks

    def project_chunk_rows(
        self, solo: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """``x @ w + b`` over an exact-tier step's rows — its fused QKV
        projection and output FC — grouped as the looped oracle groups
        them (:func:`_by_sequence`): one GEMM over the prompt rows of
        every sequence with ≥ 2 of them, and every row flagged ``solo``
        — each decode row, each prompt's only row — through the
        single-row kernel."""
        return _by_sequence(partial(_project_gemm, w=w, b=b), solo, x)


def _stage_kv_columns(
    backend: "PackedDecodeBackend", k_cols: np.ndarray, v_cols: np.ndarray,
    n_planes: int,
):
    """A block's ``[N, h, D]`` new K/V columns as a row store of
    ``n_planes`` planes takes them, plane for plane
    (:attr:`~repro.nn.kv_cache.KVRowStore.planes`).

    The inputs themselves under float storage; under int8 ``(k_codes,
    v_codes, k_scales, v_scales)`` and, for a store that keeps them
    (six planes), the columns dequantized.

    The int8 block is quantized in one pass — :func:`repro.core
    .quantization.quantize_rows` inlined, with its per-element
    operations, so codes and scales are bit-identical (asserted by
    tests/test_numerics.py) — over one ``[D, 2·N·h]`` staging plane, a
    column per (K or V, row, head) row: the max, the divide by the
    scale, ``rint``, the clip and the cast all run along rows of
    ``2·N·h`` elements rather than of ``D``.  Every op writes persistent
    scratch, and the finite-input guard is skipped because activations
    are bounded by construction (LayerNormed hidden state through finite
    weights).
    """
    if n_planes == 2:
        return k_cols, v_cols
    n, h, d = k_cols.shape
    shape = (d, 2 * n * h)
    staged = backend._flat("kv_stage", shape)
    kv = staged.reshape(d, 2, n, h)
    np.copyto(kv[:, 0], k_cols.transpose(2, 0, 1))
    np.copyto(kv[:, 1], v_cols.transpose(2, 0, 1))
    work = backend._flat("quant_work", shape)
    scales = backend._flat("quant_scales", shape[1:], dtype=np.float32)
    np.abs(staged, out=work)
    np.fmax.reduce(work, axis=0, out=scales)
    np.divide(scales, 127.0, out=scales)
    scales[scales == 0.0] = 1.0
    np.divide(staged, scales, out=work)
    np.rint(work, out=work)
    np.clip(work, -127.0, 127.0, out=work)
    # Exact integers in [-127, 127] after the rint and clip, so the
    # int8 cast is value-exact.
    codes = backend._flat("quant_codes", shape, dtype=np.int8)
    np.copyto(codes, work, casting="unsafe")
    planes = [*codes.reshape(d, 2, n, h).transpose(1, 2, 3, 0),
              *scales.reshape(2, n, h)]
    if n_planes > 4:
        # Dequantized over the staging plane: what a later pass reads.
        np.multiply(work, scales, out=staged)
        planes += [*kv.transpose(1, 2, 3, 0)]
    return planes


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
    quantized in *one* pass under int8.  A pruned prompt block
    (``block.first``: its rows held no column before this write) attends
    to the K/V it has just computed; every other block — a decode step,
    a dense prompt chunk — reads the ``[:width]`` columns as the store
    holds them: float (or dequantized)
    planes as they are
    (:meth:`~repro.nn.kv_cache.KVRowStore.compute_columns`), int8 codes
    without dequantized planes — the pruned rows' — cast once each to
    the compute dtype, the K scales multiplying the ``[n, h, Lq, Lk]``
    scores before the mask and the V scales the probabilities inside
    the A·V operand alone.  One mask
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
    planes = store.planes
    width = store.write_block(
        rows, counts, block.positions,
        *_stage_kv_columns(backend, k, v, len(planes)),
    )
    # [n, h, Lk, D] each; BLAS takes the transposed keys (and these
    # views) without materializing them.
    k_scales = v_scales = None
    if block.first:
        keys, values = (padded(a).transpose(0, 2, 1, 3) for a in (k, v))
    elif len(planes) == 4:
        # int8 codes and scales alone: attend on the codes, one cast
        # each, with the scales folded in — K's into the scores, V's
        # into the A·V operand.
        dtype = backend.policy.compute_dtype
        keys, values = (plane[rows, :, :width].astype(dtype)
                        for plane in planes[:2])
        k_scales, v_scales = (plane[rows, :, :width] for plane in planes[2:])
    else:
        keys, values = store.compute_columns(rows, width)
    labels = store.labels[rows, :width]
    probs = backend._flat("plane", (n, q.shape[1], n_queries, width))
    np.matmul(
        padded(q * backend._inv_sqrt_d).transpose(0, 2, 1, 3),
        keys.transpose(0, 1, 3, 2), out=probs,
    )
    if k_scales is not None:
        probs *= k_scales[:, :, None]
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
    prof = backend.profiler
    if cascade is not None:
        mass = (probs[:, :, 0] if n_queries == 1
                else np.add.reduce(probs, axis=2))
        lens = store.live[rows]
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
    if v_scales is not None:
        # The A·V operand alone: importance, value ranking and the
        # gate read the probabilities unscaled.
        probs = probs * v_scales[:, :, None]
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

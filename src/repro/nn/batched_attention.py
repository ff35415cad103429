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

Every tier of the numerics ladder (:mod:`repro.nn.numerics`) runs the
same per-layer attention skeleton, :meth:`PackedDecodeBackend
._attend_layer`, as SpAtten runs one datapath in which pruning and
quantization are stages (PAPER.md §IV, Fig. 8):

1. group the batch rows by
   :attr:`~repro.nn.transformer.AttentionExecutor.packed_decode_style`
   (once per call; an executor on another tier than the backend's, or
   one that opts out of packing, is a named error rather than a silent
   change of arithmetic);
2. **fused Q/K/V projection** of all ``B`` rows against one ``[d, 3d]``
   weight, split into per-head ``[B, h, 1, D]`` views;
3. ``"custom"`` rows — SpAtten on the exact tier, where the
   per-sequence core is the bit-identity oracle, and
   progressive-quantization rows on any tier, whose LSB refetch is
   decided per row from that row's own probabilities — run their own
   per-sequence core on those projections via
   :meth:`~repro.nn.transformer.AttentionExecutor.decode_attend_packed`;
4. ``"pruned"`` rows (SpAtten on ``fp32`` / ``int8`` without
   progressive quantization) run the backend's **store core**
   (:func:`_store_core`) with the cascade in its datapath: token and
   head pruning decisions and KV eviction ahead of it, then scores,
   masked softmax, local value pruning, A·V and importance
   accumulation as batch-level array operations over a padded pack,
   with the rows' control state held for the step in a batch control
   object
   (:meth:`~repro.nn.transformer.AttentionExecutor.decode_batch_control`);
5. ``"dense"`` rows (cache-only state) run the same store core with no
   cascade — the pruning stages are bypassed, as a dense run bypasses
   the accelerator's top-k engines and zero eliminators — or, on the
   exact tier, the **exact core** (:func:`_dense_core_exact`) over
   their private caches;
6. **fused output FC** over every row's merged head features.

Two pieces depend on the tier, both read off ``policy.is_exact``: the
projection kernel of steps 2 and 6 (bound once at construction) and
which core step 5 runs (step 4 exists only off the exact tier).  Weights
live in one holder at the policy's compute dtype (under fp64 it aliases
the model's own arrays) and scratch in one family of buffers grown on
demand.
:meth:`~PackedDecodeBackend.decode_layer` is the exact tier's entry
(the model keeps its fp64 residual/LayerNorm/FFN stack around it);
:meth:`~PackedDecodeBackend.decode_step_policy` is the fp32/int8 entry
and additionally runs the layer stack in the compute dtype.

The prompt pass is on the ladder too — SpAtten prunes and quantizes the
summarization stage as much as the generation stage (PAPER.md §III,
Fig. 3) — and takes the decode step's split by
``packed_decode_style``.  On the exact tier the model keeps its fp64
stack and :meth:`~PackedDecodeBackend.project_chunk_rows` only fuses the
Q/K/V projections of every in-flight prompt's chunk into one GEMM over
the concatenated rows.  On fp32/int8,
:meth:`~PackedDecodeBackend.prefill_chunk_policy` owns the step: dense
chunks and the whole sentences whose final chunk lands in it run one
compute-dtype layer stack (fused QKV GEMM, masked softmax, LayerNorm,
in-place tanh/gelu FFN, LM head).  ``"dense"`` chunks attend centrally
against their (private) caches; ``"custom"`` sentences keep the
per-sequence cascade and core; and every ``"pruned"`` sentence of the
step runs **one batched whole-sentence core per layer**
(:func:`_prefill_pruned_core`): entry token / head pruning as ranked
masks over the batch's control planes (the summarize-stage opening of
:class:`~repro.core.batched_cascade.CascadeBatch`), then one score
GEMM, causal softmax, local value pruning and A·V over a padded
``[B, h, L, L]`` plane, the sequences taken in blocks whose plane stays
under a fixed scratch budget.  Their K/V go **straight into the
``"pruned"`` row stores** — the sequences' empty caches are adopted
before the first layer, each layer writes its block once per plane
(int8 quantizes the block in one pass, live heads only) — and the
cascade's token / head importance alone accumulates in fp64: the
ranking truth, as in the decode step's batch control.

Exact tier: the bit-identity contract
-------------------------------------

Under ``exact`` the packed path must produce logits **bit-identical**
to the looped oracle, ``decode_step_batch(backend=None)``
(``tests/test_packed_decode.py`` enforces this property across
executors, ragged lengths, pruned-head sets, and mid-generation
evictions).  That constraint dictates the exact kernel and core,
because BLAS reductions are not grouping-invariant:

* multi-slice ``np.matmul`` (the gufunc) computes each 2-D slice with
  the same kernel as a standalone single-row matmul, so batching the
  projections as ``[B, 1, d] @ [d, 3d]`` is exact — but a *2-D*
  ``[B, d] @ [d, d]`` GEMM is not (single-row products take a
  GEMV-shaped path whose accumulation differs in the last ulp);
* fusing Q/K/V into one ``[d, 3d]`` weight is exact (output columns are
  independent), and concatenating chunk rows is exact for blocks of
  ≥ 2 rows (row blocks of a GEMM are independent) — single-row chunks
  are projected solo;
* zero-padding the *reduction* axis is **not** exact on OpenBLAS (the
  k-loop blocking changes with length), so scores and A·V run per
  sequence at exact lengths over zero-copy views of each sequence's
  KV buffers (:class:`~repro.nn.kv_cache.LayerKVCache`), never over a
  padded pack;
* ``max`` is order-exact, and exp/shift/normalize are elementwise, so
  those softmax stages batch across the padded scratch; the softmax
  *denominator* (a length-sensitive pairwise sum) reduces per sequence
  over exact-length views.

SpAtten's per-sequence surviving-head sets are honored by gathering
live-head slices from the full-width rows (per-head projections are
independent output columns).

fp32 / int8 tiers: batch-resident rows, one padded-pack core
------------------------------------------------------------

Under a non-exact :class:`~repro.nn.numerics.NumericsPolicy` the
bit-identity constraint is *traded away* for a declared accuracy
budget, which unlocks the padded-pack design the contract above
forbids:

* projections are plain 2-D GEMMs (one call, not ``B`` GEMVs);
* the K/V of every row one of the backend's cores decodes *are*
  batch-resident: one :class:`~repro.nn.kv_cache.KVRowStore` per layer
  and style (``"dense"``, ``"pruned"``) holds its rows' columns at the
  storage dtype — ``[S, h, cap, D]`` planes in one row order across
  layers — and each :class:`~repro.nn.kv_cache.LayerKVCache` is a
  handle on its row.  A pruned sequence is a store row from the first
  column its prompt pass computes; a dense one is adopted on its first
  decode step (one copy per layer, its private buffers freed).  Either
  lives there until it retires;
  :meth:`PackedDecodeBackend.decode_step_policy` reconciles the stores'
  rows with the step's batch once, before the first layer;
* the step's new columns are one indexed store per plane, and the
  score and A·V stages run as *one* batched ``[n, h, 1, width]`` gufunc
  matmul each over ``store[:n, :, :width]`` views, with a masked
  softmax batched over the padded scratch (columns without a token —
  the ragged tail, and evicted ones not yet compacted away — are
  masked to ``-1e30`` and underflow to exact 0);
* LayerNorm, the tanh/gelu FFN, and the LM head run vectorized in the
  compute dtype over weight copies cast once at backend construction,
  for decode steps and prompt passes alike;
* the ``int8`` tier quantizes each step's *batch* of new K/V columns in
  one pass, so score GEMMs read fp32 Q against dequantized int8 K (fp32
  accumulation) — exactly what the store holds.  Dense rows, which
  never evict and so are the long ones, keep their columns dequantized
  in two further planes of the same store (written from the quantizer's
  own dequantized output, filled once at adoption); pruned rows
  dequantize their shorter width each step, one multiply per plane;
* a pruned row adds SpAtten's stages to that datapath, as the
  accelerator keeps its top-k engine beside batch-parallel Q·K / A·V
  units so pruning control never starves them (PAPER.md §IV-B).
  Cascade eviction — which changes the live columns of most rows at
  most layers of every step — is one gathered mask that relabels the
  dead columns where they sit, with a row compacted only once a page
  of them has built up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import split_heads
from .functional import GELU_C, softmax_inplace
from .kv_cache import NO_TOKEN, KVRowStore, ragged_arange
from .numerics import NumericsMismatchError, resolve_numerics
from .transformer import AttentionExecutor, PrefillState, TransformerModel

__all__ = ["PackedDecodeBackend", "UnpackableExecutorError"]

#: Sentinel score for padding columns; matches the masking convention of
#: :func:`repro.nn.attention.scaled_dot_attention` and underflows to an
#: exact 0.0 after the softmax's exp.
_MASKED = -1e30

#: Column growth quantum of the score scratch.
_SCRATCH_PAGE = 64

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


def _project_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` for ``x [B, n]``, each row through the single-row kernel.

    The exact tier's projection: the ``[B, 1, n]`` gufunc computes every
    slice exactly as the looped path's ``x[i:i+1] @ w``, so the batch is
    bit-identical to the oracle row for row.
    """
    out = np.matmul(x[:, None, :], w)
    out += b
    return out[:, 0, :]


def _project_gemm(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` as one 2-D GEMM (the ``[B, 1, n]`` gufunc dispatches
    ``B`` separate GEMVs) — the non-exact tiers' projection."""
    out = x @ w
    out += b
    return out


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


class _PromptRows:
    """One ``"dense"`` or ``"custom"`` sequence's rows in a prompt step
    (:meth:`PackedDecodeBackend.prefill_chunk_policy`).

    ``indices`` holds the sequence's place in the step's states;
    ``dense`` whether the backend runs its attention core centrally;
    ``positions`` the original positions of its rows still in the
    residual stream — the chunk ``[start, end)`` going in, fewer as
    cascade pruning drops rows layer by layer.
    """

    __slots__ = ("indices", "executor", "dense", "positions")

    def __init__(self, index, executor, dense, start, end):
        self.indices = [index]
        self.executor = executor
        self.dense = dense
        self.positions = np.arange(start, end)

    @property
    def core_stage(self) -> str:
        return "prefill_dense_core" if self.dense else "prefill_custom_core"

    def ends(self) -> List[int]:
        return [len(self.positions)]

    def prune(self, layer_idx: int) -> np.ndarray:
        """Entry pruning; returns the surviving rows' indices."""
        if self.dense:
            return np.arange(len(self.positions))
        survivors = self.executor.summarize_control(layer_idx, self.positions)
        self.positions = self.positions[survivors]
        return survivors

    def attend(self, backend, layer_idx, heads, out) -> None:
        """``heads`` ``[L, 3, h, D]`` projections → ``out`` ``[L, d]``."""
        q, k, v = heads.transpose(1, 2, 0, 3)  # three [h, L, D] views
        if self.dense:
            _prefill_dense_core(
                backend, self.executor.decode_kv_cache(layer_idx),
                q, k, v, self.positions, out,
            )
        else:
            out[...] = self.executor.summarize_attend_packed(
                layer_idx, backend._model, q, k, v, self.positions
            )


class _PrunedBlock:
    """``"pruned"`` sequences of a prompt step that share one padded
    score plane — the whole sentence of each.

    ``indices`` are their places in the step's states, ``cascade`` their
    batch control (:meth:`~repro.nn.transformer.AttentionExecutor
    .summarize_batch_control`) and ``rows`` the rows their caches were
    adopted into, empty, in every layer's ``"pruned"`` store.  The rows
    still in the residual stream are flat, sequence after sequence:
    ``seq_of`` names each one's sequence (of the block) and
    ``positions`` its original position.
    """

    __slots__ = ("indices", "cascade", "rows", "seq_of", "positions")
    core_stage = "prefill_pruned_core"

    def __init__(self, indices, cascade, rows, lengths):
        self.indices = indices
        self.cascade = cascade
        self.rows = rows
        self.seq_of = np.repeat(np.arange(len(lengths)), lengths)
        self.positions = ragged_arange(np.asarray(lengths))

    def ends(self) -> np.ndarray:
        return np.cumsum(self.cascade.n_alive)

    def prune(self, layer_idx: int) -> np.ndarray:
        """Entry pruning; returns the surviving rows' indices."""
        self.cascade.prune(layer_idx)
        survivors = np.flatnonzero(
            self.cascade.alive[self.seq_of, self.positions]
        )
        self.seq_of = self.seq_of[survivors]
        self.positions = self.positions[survivors]
        return survivors

    def attend(self, backend, layer_idx, heads, out) -> None:
        _prefill_pruned_core(
            backend, backend._stores["pruned"][layer_idx], self, heads, out
        )


class PackedDecodeBackend:
    """Batched attention executor state shared across serving steps.

    One backend instance serves one model at one numerics tier; the
    serving engine creates it once and passes it to every
    :meth:`~repro.nn.transformer.TransformerModel.decode_step_batch` /
    :meth:`~repro.nn.transformer.TransformerModel.prefill_chunk_batch`
    call.  The backend holds the fused per-layer projection weights and
    reusable scratch tensors (scores, denominators, head outputs), which
    grow with the live batch instead of being rebuilt every step — and,
    off the exact tier, the K/V of the ``"dense"`` and ``"pruned"`` rows
    themselves (one :class:`~repro.nn.kv_cache.KVRowStore` per layer and
    style; see :meth:`release` and :meth:`reset`).
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
        #: The resident rows' K/V by style, one store per layer (built
        #: from the style's first row's caches), a style's rows in one
        #: order throughout.
        self._stores: Dict[str, List[KVRowStore]] = {}
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

    def _scores(self, n: int, max_len: int) -> np.ndarray:
        """``[n, h, 1, max_len]`` score scratch (columns grow by pages)."""
        buf = self._scratch.get("scores")
        if buf is None or buf.shape[0] < n or buf.shape[3] < max_len:
            rows, cap = (0, 0) if buf is None else (buf.shape[0], buf.shape[3])
            pages = -(-max_len // _SCRATCH_PAGE)
            buf = self._scratch["scores"] = np.zeros(
                (max(n, rows), self._model.config.n_heads, 1,
                 max(pages * _SCRATCH_PAGE, cap)),
                dtype=self.policy.compute_dtype,
            )
        return buf[:n, :, :, :max_len]

    def _prompt_plane(self, n: int, length: int) -> np.ndarray:
        """``[n, h, length, length]`` score scratch of a block of pruned
        prompts, contiguous at whatever shape is asked for."""
        shape = (n, self._model.config.n_heads, length, length)
        size = int(np.prod(shape))
        buf = self._scratch.get("prompt_plane")
        if buf is None or buf.size < size:
            buf = self._scratch["prompt_plane"] = np.empty(
                size, dtype=self.policy.compute_dtype
            )
        return buf[:size].reshape(shape)

    # ------------------------------------------------------------------
    # The per-layer skeleton and its two entry points
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
        """Validate the batch and split it into its rows by style.

        Executor styles cannot change mid-step, so the policy entry
        groups once and reuses the grouping across every layer.
        """
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

    def _attend_layer(
        self,
        layer_idx: int,
        x: np.ndarray,
        positions: np.ndarray,
        rows: Dict[str, _Rows],
        cascade=None,
        sels=None,
    ) -> np.ndarray:
        """Packed attention of one block: ``x [B, d]`` → ``attn_out [B, d]``.

        ``cascade`` is the step's batch control of the pruned rows and
        ``sels`` each resident style's batch indices, all in row-store
        order (:meth:`decode_step_policy` opens and commits the one and
        :meth:`_resident` gives the others).
        """
        model = self._model
        cfg = model.config
        batch = len(x)
        w = self._weights
        prof = self.profiler

        t0 = prof.start() if prof is not None else 0.0
        qkv = self._project(x, w.wqkv[layer_idx], w.bqkv[layer_idx])
        # Batched head split: [B, 3d] → three [B, h, 1, D] views, so row
        # i's slice is the [h, 1, D] column the executor protocol takes.
        heads = qkv.reshape(batch, 3, cfg.n_heads, 1, cfg.head_dim)
        q_all, k_all, v_all = heads[:, 0], heads[:, 1], heads[:, 2]
        # Each stage starts where the one before stopped (``lap``), so
        # the layer's stages tile it.
        if prof is not None:
            t0 = prof.lap("decode_qkv_proj", t0)

        merged = self._rows("merged", batch, 1, cfg.d_model)
        for i, executor in rows["custom"]:
            merged[i] = executor.decode_attend_packed(
                layer_idx, model, q_all[i], k_all[i], v_all[i],
                positions[i : i + 1],
            )
            if prof is not None:
                t0 = prof.lap("decode_custom_core", t0)
        if rows["pruned"]:
            store = self._stores["pruned"][layer_idx]
            _prune_control(store, layer_idx, cascade)
            if prof is not None:
                t0 = prof.lap("decode_prune_control", t0)
            _store_core(
                self, store, sels["pruned"], cascade,
                q_all, k_all, v_all, positions, merged,
            )
            if prof is not None:
                t0 = prof.lap("decode_pruned_core", t0)
        if rows["dense"]:
            if self.policy.is_exact:
                _dense_core_exact(
                    self, layer_idx, rows["dense"], q_all, k_all, v_all,
                    positions, merged,
                )
            else:
                _store_core(
                    self, self._stores["dense"][layer_idx], sels["dense"],
                    None, q_all, k_all, v_all, positions, merged,
                )
            if prof is not None:
                t0 = prof.lap("decode_dense_core", t0)

        # Fused output FC over every sequence's merged head features.
        attn_out = self._project(
            merged[:, 0, :], w.wo[layer_idx], w.bo[layer_idx]
        )
        if prof is not None:
            prof.stop("decode_output_fc", t0)
        return attn_out

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
        return self._attend_layer(
            layer_idx, x, positions, self._group_rows(model, executors)
        )

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
        runs vectorized over the cast weights.  ``dense`` and ``pruned``
        executors' K/V are made resident in the row stores here (a
        ``pruned`` one served by this backend has been since its prompt
        pass); the ``pruned`` ones' cascade control is opened as one
        batch, stepped by every layer's core, and committed back to the
        executors once the stack is through; ``custom`` executors keep
        their own per-sequence core.
        """
        prof = self.profiler
        t_step = t0 = prof.start() if prof is not None else 0.0
        rows = self._group_rows(model, executors)
        residents, sels = {}, {}
        for style in ("dense", "pruned"):  # the store-resident styles
            if rows[style] or style in self._stores:
                residents[style], sels[style] = self._resident(
                    style, rows[style], len(executors)
                )
        cascade = None
        pruned = residents.get("pruned")
        if pruned:
            cascade = pruned[0].decode_batch_control(
                pruned, positions[sels["pruned"]]
            )
        w = self._weights
        x = w.tok_emb[token_ids] + w.pos_emb[positions]
        if prof is not None:
            prof.stop("decode_setup", t0)
        for layer_idx in range(model.config.n_layers):
            attn_out = self._attend_layer(
                layer_idx, x, positions, rows, cascade, sels
            )
            t0 = prof.start() if prof is not None else 0.0
            x = self._ffn_half(layer_idx, x, attn_out)
            if prof is not None:
                prof.stop("decode_ffn", t0)
        if cascade is not None:
            t0 = prof.start() if prof is not None else 0.0
            cascade.commit()
            if prof is not None:
                prof.stop("decode_commit", t0)
        t0 = prof.start() if prof is not None else 0.0
        logits = x @ w.lm_proj
        if prof is not None:
            prof.stop("decode_lm_head", t0)
            prof.stop("decode_step", t_step)
        return logits

    # ------------------------------------------------------------------
    # Row-store residency of the dense and the pruned rows
    # ------------------------------------------------------------------
    def _style_stores(
        self, style: str, executor: AttentionExecutor
    ) -> List[KVRowStore]:
        """``style``'s per-layer stores, built on first use from the
        caches of ``executor``, one of its rows."""
        stores = self._stores.get(style)
        if stores is None:
            # Dense rows never evict, so they are the long ones: on
            # int8 their stores keep the columns dequantized as well.
            dequantized = style == "dense" and self.policy.quantized_gemm
            stores = self._stores[style] = [
                KVRowStore(executor.decode_kv_cache(layer_idx), dequantized)
                for layer_idx in range(self._model.config.n_layers)
            ]
        return stores

    def _resident(self, style: str, rows: _Rows, batch: int):
        """Make ``style``'s row stores hold exactly this step's ``rows``.

        Membership is read off the rows' layer-0 caches, each of which
        knows its store and row.  While it stands — the steady state —
        this is all that happens.  When it moved, rows whose sequence
        is not in the batch (or whose cache took its columns back,
        :meth:`~repro.nn.kv_cache.KVRowStore.orphan`) are released in
        every layer's store, their caches taking the live columns with
        them, and arrivals — rows not resident yet: a dense sequence
        after its prompt pass, any sequence prefilled elsewhere or whose
        cache took its columns back — are adopted: one copy per
        sequence and layer, after which the private buffers are gone.

        Returns ``(executors, sel)`` in store-row order — the order the
        step's batch control and every layer's core run in; ``sel`` are
        the rows' batch indices (a plain slice when the two orders
        coincide: views, not fancy-index copies).
        """
        stores = (
            self._style_stores(style, rows[0][1]) if rows
            else self._stores[style]
        )
        first = stores[0]
        caches = [executor.decode_kv_cache(0) for _, executor in rows]
        if (
            len(caches) != len(first.owners)
            or any(cache._store is not first for cache in caches)
            or any(None in store.owners for store in stores)
        ):
            gone = set(range(len(first.owners))).difference(
                cache._row for cache in caches if cache._store is first
            )
            for store in stores:
                gone.update(
                    row for row, owner in enumerate(store.owners)
                    if owner is None
                )
            # Highest first: the row that fills a vacated one stays.
            for row in sorted(gone, reverse=True):
                for store in stores:
                    store.release(row, keep_columns=True)
            arrivals = [
                executor for (_, executor), cache in zip(rows, caches)
                if cache._store is not first
            ]
            for layer_idx, store in enumerate(stores):
                store.adopt([
                    executor.decode_kv_cache(layer_idx)
                    for executor in arrivals
                ])
        order = [cache._row for cache in caches]
        resident: List[Optional[AttentionExecutor]] = [None] * len(order)
        for row, (_, executor) in zip(order, rows):
            resident[row] = executor
        if order == list(range(batch)):
            return resident, slice(None)
        sel = np.empty(len(order), dtype=np.intp)
        sel[order] = [i for i, _ in rows]
        return resident, sel

    def release(self, executor: AttentionExecutor) -> None:
        """Forget a sequence that will not decode here again (retired,
        preempted, quarantined, drained — a pruned one possibly straight
        after its prompt pass, which made it resident): its store rows
        are vacated without copying the columns back, and its caches
        left empty.  Rows nobody releases are found by the next decode
        step's reconcile, which does copy them back.
        """
        stores = self._stores.get(executor.packed_decode_style)
        if stores is not None:
            cache = executor.decode_kv_cache(0)
            if cache._store is stores[0]:
                row = cache._row
                for store in stores:
                    store.release(row, keep_columns=False)

    def reset(self) -> None:
        """Hand every resident row back to its cache: a new serving run
        starts from empty stores."""
        for style in self._stores:
            self._resident(style, [], 0)

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
        delegates here (after its input validation) whenever the
        backend's policy is non-exact — the prompt pass's counterpart of
        :meth:`decode_step_policy`, with the same split by
        :attr:`~repro.nn.transformer.AttentionExecutor
        .packed_decode_style`.  Every prompt row of the step runs one
        layer stack over the cast weights: ``"dense"`` executors' next
        chunk, attended centrally against their cache
        (:func:`_prefill_dense_core`), and, for every other executor
        whose *final* chunk this is, the whole sentence — cascade
        pruning decides over all of it, so earlier chunks only advance
        the committed-token counter, as on the exact tier.  Pruned
        tokens leave the residual stream at each layer's entry, so they
        skip the projections and the FFN:

        * ``"pruned"`` sequences run **one batched core per layer**
          (:func:`_prefill_pruned_core`) under one batch control, opened
          for the pass and committed to the executors once; their K/V
          go straight into the ``"pruned"`` row stores, which adopt the
          sequences' empty caches before the first layer — a sequence
          is resident from its first column;
        * ``"custom"`` sequences (progressive quantization) prune
          through :meth:`~repro.nn.transformer.AttentionExecutor
          .summarize_control` and run their own core on the survivors'
          projections (:meth:`~repro.nn.transformer.AttentionExecutor
          .summarize_attend_packed`).

        The QKV projection, the output FC, the residual / LayerNorm /
        FFN arithmetic and the LM head each run once per layer over all
        sequences' rows.

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
        # The sequences with rows in this step, style by style.
        parts: list = [
            _PromptRows(i, executor, True, *spans[i])
            for i, executor in by_style["dense"]
        ] + [
            _PromptRows(i, executor, False, 0, spans[i][1])
            for i, executor in by_style["custom"] if final[i]
        ]
        whole = [(i, ex) for i, ex in by_style["pruned"] if final[i]]
        results: List[Optional[np.ndarray]] = [None] * len(states)
        x = None
        if parts or whole:
            lengths = [states[i].prompt_len for i, _ in whole]
            token_ids = np.concatenate(
                [states[rows.indices[0]].prompt_ids[rows.positions]
                 for rows in parts]
                + [states[i].prompt_ids for i, _ in whole]
            )
            positions = np.concatenate(
                [rows.positions for rows in parts]
                + [ragged_arange(np.array(lengths, dtype=np.int64))]
            )
            if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
                raise ValueError("token id out of vocabulary range")
            if positions.max() >= cfg.max_seq_len:
                raise ValueError(
                    f"sequence exceeds max_seq_len={cfg.max_seq_len}"
                )
            blocks = self._open_pruned_blocks(whole, lengths)
            parts += blocks
            x = w.tok_emb[token_ids] + w.pos_emb[positions]
        if prof is not None:
            t0 = prof.lap("prefill_setup", t0)
        if x is not None:
            hidden = self._prefill_layers(parts, x)
            t0 = prof.start() if prof is not None else 0.0
            for block in blocks:
                block.cascade.commit()
            if prof is not None:
                t0 = prof.lap("prefill_commit", t0)
            # A sequence's last row survives every layer (cascade pruning
            # protects the final prompt token) and ends its rows.
            done, last_rows, offset = [], [], 0
            for part in parts:
                for i, end in zip(part.indices, part.ends()):
                    if final[i]:
                        done.append(i)
                        last_rows.append(offset + end - 1)
                offset += len(part.positions)
            if done:
                logits = hidden[last_rows] @ w.lm_proj
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
    ) -> List[_PrunedBlock]:
        """Make the step's ``"pruned"`` sequences ``whole`` resident and
        open their batch controls, a block of consecutive ones each.

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
        stores = self._style_stores("pruned", executors[0])
        first_row = len(stores[0].owners)
        for layer_idx, store in enumerate(stores):
            store.adopt([
                executor.decode_kv_cache(layer_idx) for executor in executors
            ])
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
            blocks.append(_PrunedBlock(
                indices[start:stop],
                executors[start].summarize_batch_control(
                    executors[start:stop], lengths[start:stop]
                ),
                np.arange(first_row + start, first_row + stop),
                lengths[start:stop],
            ))
            start = stop
        return blocks

    def _prefill_layers(self, parts, x: np.ndarray) -> np.ndarray:
        """The layer stack of one prompt step over ``parts``' rows
        ``x``, one after the other in order.

        Returns the final hidden rows in the same order; each part's
        ``positions`` are left at its surviving rows'.
        """
        cfg = self._model.config
        w = self._weights
        prof = self.profiler
        for layer_idx in range(cfg.n_layers):
            # Entry pruning: rows the cascade drops leave the residual
            # stream before the projections (and the FFN) see them.
            t0 = prof.start() if prof is not None else 0.0
            kept, offset = [], 0
            for part in parts:
                n_rows = len(part.positions)
                kept.append(part.prune(layer_idx) + offset)
                offset += n_rows
            kept = np.concatenate(kept)
            if len(kept) < len(x):
                x = x[kept]
            # Each stage starts where the one before stopped (``lap``),
            # so the layer's stages tile it.
            if prof is not None:
                t0 = prof.lap("prefill_prune_control", t0)

            qkv = self._project(x, w.wqkv[layer_idx], w.bqkv[layer_idx])
            if prof is not None:
                t0 = prof.lap("prefill_chunk_proj", t0)

            heads = qkv.reshape(len(x), 3, cfg.n_heads, cfg.head_dim)
            merged = np.empty_like(x)
            offset = 0
            for part in parts:
                block = slice(offset, offset + len(part.positions))
                offset = block.stop
                part.attend(self, layer_idx, heads[block], merged[block])
                if prof is not None:
                    t0 = prof.lap(part.core_stage, t0)

            attn_out = self._project(merged, w.wo[layer_idx], w.bo[layer_idx])
            x = self._ffn_half(layer_idx, x, attn_out)
            if prof is not None:
                prof.stop("prefill_ffn", t0)
        return x

    def project_chunk_rows(
        self,
        model: TransformerModel,
        layer_idx: int,
        rows: Dict[int, np.ndarray],
        executors: Sequence[AttentionExecutor],
        order: Sequence[int],
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Fused Q/K/V projection of every incremental prefill chunk
        (exact tier; :meth:`prefill_chunk_policy` projects the others').

        ``rows[i]`` holds sequence ``i``'s chunk hidden rows
        ``[L_i, d]``.  Chunks of ≥ 2 rows are concatenated into one
        GEMM (row blocks of a multi-row GEMM are bit-identical to solo
        products); single-row chunks take a solo fused matmul because
        the single-row kernel groups its accumulation differently.
        Only executors whose :attr:`packed_decode_style` is ``"dense"``
        are projected — others keep their own projection semantics.
        """
        self._check_model(model)
        prof = self.profiler
        t0 = prof.start() if prof is not None else 0.0
        eligible = [
            i for i, executor in zip(order, executors)
            if executor.packed_decode_style == "dense"
        ]
        multi = [i for i in eligible if len(rows[i]) >= 2]
        solo = [i for i in eligible if len(rows[i]) == 1]
        wqkv = self._weights.wqkv[layer_idx]
        bqkv = self._weights.bqkv[layer_idx]
        projected: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if multi:
            proj = np.concatenate([rows[i] for i in multi], axis=0) @ wqkv
            proj += bqkv
            offset = 0
            for i in multi:
                n_rows = len(rows[i])
                projected[i] = self._split_qkv(proj[offset : offset + n_rows])
                offset += n_rows
        for i in solo:
            proj = rows[i] @ wqkv
            proj += bqkv
            projected[i] = self._split_qkv(proj)
        if prof is not None:
            prof.stop("prefill_chunk_proj", t0)
        return projected

    def _split_qkv(
        self, proj: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split fused ``[L, 3d]`` rows into per-head q/k/v ``[h, L, D]``."""
        cfg = self._model.config
        d, n_heads = cfg.d_model, cfg.n_heads
        return (
            split_heads(proj[:, :d], n_heads),
            split_heads(proj[:, d : 2 * d], n_heads),
            split_heads(proj[:, 2 * d :], n_heads),
        )


def _prefill_dense_core(
    backend: "PackedDecodeBackend",
    cache,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    positions: np.ndarray,
    out: np.ndarray,
) -> None:
    """Causal attention of one dense prompt chunk against its cache.

    ``q/k/v`` are the chunk's ``[h, L, D]`` projections in the compute
    dtype.  K/V go to the cache first (int8 quantizes them from that
    dtype), and the chunk attends over what the cache then holds —
    earlier chunks and its own columns alike read back through the
    storage representation, so a chunked prompt sees the keys a
    one-chunk prompt sees.  Writes the merged head features into
    ``out [L, h*D]``.
    """
    cache.append(k, v, positions)
    keys, values = cache.compute_columns()
    scores = np.matmul(q * backend._inv_sqrt_d, keys.transpose(0, 2, 1))
    np.copyto(
        scores, _MASKED,
        where=cache.token_ids[None, :] > positions[:, None],
    )
    softmax_inplace(scores)
    out[...] = np.matmul(scores, values).transpose(1, 0, 2).reshape(out.shape)


def _prefill_pruned_core(
    backend: "PackedDecodeBackend",
    store: KVRowStore,
    block: _PrunedBlock,
    heads: np.ndarray,
    out: np.ndarray,
) -> None:
    """Whole-sentence attention core of one layer over a block of
    ``"pruned"`` prompts: K/V block write → scores → causal softmax →
    local value pruning → A·V → importance, as batched tensor ops over
    a padded ``[B, h, L, L]`` plane — the prompt pass's
    :func:`_store_core`.

    ``heads`` ``[N, 3, h, D]`` are the projections of the block's
    surviving rows, flat, and ``out`` ``[N, d]`` takes their merged head
    features.  The K/V columns (dead heads' as zeros) go to the rows'
    store in one write per plane — the block quantized in *one* pass
    under int8 — while the attention reads them un-quantized, as the
    per-sequence summarize core does.  Sequence ``j``'s ``n_j`` rows sit
    in rows and columns ``[0, n_j)`` of its plane in position order, so
    the causal mask is one triangle for the block and a real query never
    sees a padding column; padded *query* rows are zeroed after the
    softmax and contribute exact zeros from there on.  Local value
    pruning ranks each head's column mass — summed over the queries
    once, the same plane the fp64 token importance accumulates — and
    zeroes the dropped V rows, which is masking their probabilities.
    """
    cfg = backend._model.config
    cascade = block.cascade
    counts = cascade.n_alive
    n, length = len(counts), int(counts.max())
    seq_of, col_of = block.seq_of, None
    if n * length > len(seq_of):
        col_of = ragged_arange(counts)

    def padded(flat: np.ndarray, fill=0) -> np.ndarray:
        """Flat ``[N, ...]`` rows as ``[n, length, ...]``."""
        if col_of is None:
            return flat.reshape((n, length) + flat.shape[1:])
        pack = np.full((n, length) + flat.shape[1:], fill, flat.dtype)
        pack[seq_of, col_of] = flat
        return pack

    q, k, v = heads[:, 0], heads[:, 1], heads[:, 2]
    head_gate = None
    if cascade.any_head_dead:
        head_gate = cascade.head_alive[:, :, None]
        gate = head_gate[seq_of]
        k, v = k * gate, v * gate
    store.write_block(
        block.rows, counts, block.positions,
        *_stage_kv_columns(backend, k, v),
    )

    # [n, length, h, D] → [n, h, length, D] views; BLAS takes them (and
    # the transposed keys) without materializing.
    q_pack = padded(q * backend._inv_sqrt_d).transpose(0, 2, 1, 3)
    k_pack = padded(k).transpose(0, 2, 3, 1)
    v_pack = padded(v).transpose(0, 2, 1, 3)
    probs = backend._prompt_plane(n, length)
    np.matmul(q_pack, k_pack, out=probs)
    cols = np.arange(length)
    np.copyto(probs, _MASKED, where=cols > cols[:, None])
    softmax_inplace(probs)
    if col_of is not None:
        probs *= (cols < counts[:, None])[:, None, :, None]
    mass = np.add.reduce(probs, axis=2)  # [n, h, length]
    # Ranked on every head's own mass, before dead heads are zeroed.
    value_mask = cascade.value_mask(mass, counts)
    if head_gate is not None:
        mass *= head_gate
    cascade.accumulate_tokens(mass, padded(block.positions, cascade.sink))
    if value_mask is not None:
        v_pack = v_pack * value_mask[..., None]
    head_out = np.matmul(probs, v_pack)  # [n, h, length, D]
    cascade.accumulate_heads(head_out, counts)
    merged = head_out.transpose(0, 2, 1, 3).reshape(n, length, -1)
    out[...] = (
        merged.reshape(out.shape) if col_of is None
        else merged[seq_of, col_of]
    )


def _dense_core_exact(
    backend: "PackedDecodeBackend",
    layer_idx: int,
    dense_rows: _Rows,
    q_all: np.ndarray,
    k_all: np.ndarray,
    v_all: np.ndarray,
    positions: np.ndarray,
    merged: np.ndarray,
) -> None:
    """Bit-identical attention core for the dense rows of one layer.

    Each executor appends its column exactly as the looped path
    would; scores and A·V then run per sequence at exact lengths
    over zero-copy cache views (BLAS reductions are not
    padding-invariant) while the elementwise softmax stages batch
    across the padded scratch.
    """
    cfg = backend._model.config
    caches = [
        executor.decode_kv_append(
            layer_idx, k_all[i], v_all[i], positions[i : i + 1]
        )
        for i, executor in dense_rows
    ]
    lens = [len(cache) for cache in caches]
    n, max_len, min_len = len(caches), max(lens), min(lens)
    scores = backend._scores(n, max_len)
    if min_len < max_len:
        # Mask the ragged tail once for the whole batch; each
        # sequence's real columns are then overwritten in place by
        # its exact-length scores below.
        scores[:, :, :, min_len:] = _MASKED
    for j, (i, _) in enumerate(dense_rows):
        np.matmul(
            q_all[i], caches[j].keys.transpose(0, 2, 1),
            out=scores[j, :, :, : lens[j]],
        )
    scores /= np.sqrt(cfg.head_dim)
    # max is order-exact and shift/exp/normalize are elementwise, so
    # they batch; the denominator's pairwise sum is length-sensitive
    # and reduces per sequence over the exact live width.
    shift = scores.max(axis=-1, keepdims=True)
    scores -= shift
    np.exp(scores, out=scores)
    denom = backend._rows("denom", n, cfg.n_heads, 1, 1)
    head_out = backend._rows("head_out", n, cfg.n_heads, 1, cfg.head_dim)
    for j in range(n):
        np.sum(
            scores[j, :, :, : lens[j]], axis=-1, keepdims=True,
            out=denom[j],
        )
    scores /= denom
    for j, cache in enumerate(caches):
        np.matmul(scores[j, :, :, : lens[j]], cache.values, out=head_out[j])
    merged[[i for i, _ in dense_rows]] = (
        head_out.transpose(0, 2, 1, 3).reshape(n, 1, -1)
    )


def _stage_kv_columns(
    backend: "PackedDecodeBackend", k_cols: np.ndarray, v_cols: np.ndarray
):
    """This step's ``[n, h, D]`` K/V columns as a row store takes them,
    plane for plane (:attr:`~repro.nn.kv_cache.KVRowStore.planes`).

    The inputs themselves under float storage; under int8 ``(k_codes,
    v_codes, k_scales, v_scales)`` and then the columns dequantized —
    what the attention core reads back, which a store with dequantized
    planes keeps and any other drops.
    """
    if not backend.policy.quantized_gemm:
        return k_cols, v_cols
    # One fused quantization of this step's k and v rows —
    # inlined :func:`repro.core.quantization.quantize_rows`
    # (bit-identical codes and scales, asserted by
    # tests/test_numerics.py) over persistent scratch: every op
    # runs in place, and the finite-input guard is skipped
    # because decode activations are bounded by construction
    # (LayerNormed hidden state through finite weights).  Q
    # stays in the compute dtype — the score GEMM reads fp Q
    # against dequantized int8 K, matching what the cache
    # stores.
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


def _prune_control(store: KVRowStore, layer_idx: int, cascade) -> None:
    """Pruning control of one layer's pruned rows.

    The batch decides (cascade token and head pruning as ranked masks
    over the control planes), then the layer's row store — through its
    handles the truth for ``kv_lengths()``, eviction counts and pool
    pages — drops the columns whose token left the live set: one mask
    gathered over every row's labels.
    """
    cascade.prune(layer_idx)
    store.evict(cascade.alive)


def _store_core(
    backend: "PackedDecodeBackend",
    store: KVRowStore,
    sel,
    cascade,
    q_all: np.ndarray,
    k_all: np.ndarray,
    v_all: np.ndarray,
    positions: np.ndarray,
    merged: np.ndarray,
) -> None:
    """Attention core of one layer over a row store (non-exact tiers):
    append → scores → masked softmax → A·V as batched tensor ops over
    the ``[n, h, ...]`` pack, no per-sequence BLAS calls.

    With a ``cascade`` — the pruned rows' batch control — SpAtten's
    stages sit in the datapath: dead heads gated by a ``[n, h]`` plane
    (their new K/V columns are stored as zeros and their probabilities
    contribute nothing), local value pruning as one ranked mask over
    the ``[n, h, width]`` probabilities, and token / head importance
    accumulated for the whole batch.  Dense rows pass ``None`` and
    bypass them.  Probabilities are normalized before A·V —
    importance accumulates probabilities, not exponentials.

    ``store`` holds the rows' K/V in the order ``sel`` indexes the
    batch in.  This step's columns are appended with one indexed write
    per plane — the whole batch's k/v rows quantized in *one* pass under
    int8 — and the GEMMs read ``[:n, :, :width]`` float columns off the
    store (:meth:`~repro.nn.kv_cache.KVRowStore.compute_columns`).
    ``width`` spans every row's written columns: those without a token
    — evicted ones not yet compacted away, and the ragged tail — are
    labelled :data:`~repro.nn.kv_cache.NO_TOKEN`, masked out of the
    softmax and worth an exact zero from there on.
    """
    cfg = backend._model.config
    n = len(store.owners)
    k_cols, v_cols = k_all[sel][:, :, 0], v_all[sel][:, :, 0]
    head_gate = None
    if cascade is not None and cascade.any_head_dead:
        head_gate = cascade.head_alive[:, :, None]
        k_cols = k_cols * head_gate
        v_cols = v_cols * head_gate
    width = store.append(
        positions[sel], *_stage_kv_columns(backend, k_cols, v_cols)
    )
    keys, values = store.compute_columns(width)
    token_ids, lens = store.labels[:n, :width], store.live[:n]

    q_pack = backend._rows("q_pack", n, cfg.n_heads, 1, cfg.head_dim)
    np.multiply(q_all[sel], backend._inv_sqrt_d, out=q_pack)
    scores = backend._scores(n, width)
    # Keys sit in the caches' own [L, D] layout; BLAS takes the
    # transposed view without materializing it.
    np.matmul(q_pack, keys.transpose(0, 1, 3, 2), out=scores)
    if int(lens.min()) < width:
        np.copyto(
            scores, _MASKED,
            where=(token_ids == NO_TOKEN)[:, None, None, :],
        )
    softmax_inplace(scores)
    if cascade is not None:
        probs = scores[:, :, 0]  # [n, h, width] view
        # Ranked on every head's own probabilities, before dead heads
        # are zeroed: an all-zero row would be one big tie.
        value_mask = cascade.value_mask(probs, lens)
        if head_gate is not None:
            probs *= head_gate
        cascade.accumulate_tokens(probs, token_ids)
        if value_mask is not None:
            probs *= value_mask
    head_out = np.matmul(scores, values)
    if cascade is not None:
        cascade.accumulate_heads(head_out, lens)
    # [n, h, 1, D] → [n, 1, h·D] reshapes in place (the moved axis is
    # the singleton), so no transpose copy is needed.
    merged[sel] = head_out.reshape(n, 1, -1)

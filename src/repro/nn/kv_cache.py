"""Per-layer key/value cache for the GPT generation stage.

The paper's generation stage concatenates the K and V of each newly
generated token with the cached ones (Fig. 3 right).  Cascade token
pruning additionally *removes* cached entries: "once a token is pruned,
the QKV of it will never be used in all the following attention heads and
layers".  The cache therefore tracks, for every cached column, the
original sentence position it came from.

Storage model (private buffers or a table's row)
------------------------------------------------

A :class:`LayerKVCache` keeps its columns in one of two places.

**Private buffers** — the default, and the only form the ``exact``
tier, ``"custom"`` rows and the looped oracle ever see.  The
cache distinguishes the *live length* (columns holding real K/V state)
from the *capacity* (columns the backing buffers can hold).  Buffers
are preallocated and grown by amortized doubling at **page
granularity** — ``page_tokens`` columns per growth quantum, the same
unit the serving memory pool (:class:`repro.serving.KVMemoryPool`)
budgets in — so appending a decode token is an O(1) in-place write
instead of an O(L) ``np.concatenate`` (O(L²) copy traffic over a
generation).  :attr:`keys` / :attr:`values` / :attr:`token_ids` expose
zero-copy views of the live prefix, and :meth:`keep` compacts surviving
columns in place.

**A row of a** :class:`KVRowStore` — where the packed backend keeps
every sequence one of its own cores decodes off the exact tier: the
``"dense"`` and the ``"pruned"`` rows of ``fp32`` / ``int8``
(:mod:`repro.nn.batched_attention`).  One store per layer holds every
such sequence's columns as row ``j`` of batch-shaped planes, so a layer
of a step touches a block of them with a handful of array operations:
the block's new columns — a decode step's one a row, a dense prompt
chunk, a pruned prompt's whole sentence — land at each row's cursor
with one indexed store per plane (:meth:`KVRowStore.write_block`, the
store's only write), and cascade eviction is *lazy* — a newly pruned
column is relabelled :data:`NO_TOKEN` where it sits (its score is
masked, its probability an exact zero) and the row is compacted, order
preserved, only once a whole ``page_tokens`` page of such holes has
built up: the zero eliminator's software analogue (PAPER.md §IV-B).
A dense row simply never evicts.

Which sequence fills which row is one :class:`RowTable`'s per style,
one answer for every layer.  Its members are the style's stores and, for pruned rows, their
resident cascade control; row ``j`` of every member holds the sequence
of seat ``j``, and the table alone grows the row axis, adopts, moves
and releases rows (the last row fills a vacated one), driving each
member's row primitives.  A sequence the backend prefills is adopted
*empty* — a dense one at its first prompt chunk, a pruned one when its
sentence's pass opens — and each layer fills its row block by block, so
it never holds private columns at all; one prefilled elsewhere moves in
on its first decode step (one copy per layer, its private buffers
freed).
Every cache of the sequence — and its executor — then holds the same
:class:`RowSeat`, so a move writes one row index.  The cache is a
*handle* on its row: ``len()`` and :attr:`evicted_tokens` read the
store's per-row vectors, so ``kv_lengths()``, pool pages and the serving
report stay exact while the hot path never calls the cache — and
**every column-exposing accessor** (:attr:`keys`, :attr:`values`,
:attr:`token_ids`, the scales, :meth:`compute_columns`, ``append*``,
:meth:`keep`, :meth:`reserve`, :meth:`padded_to`) is a barrier that
first brings the sequence's live columns, compacted, back into private
buffers in every layer, leaving its row for the table to reclaim (and
to re-adopt the sequence from, if it decodes on).  The barrier is
structural, not remembered per accessor: adoption *deletes* the
private-buffer attributes, so the first read of one — whoever makes it
— lands in ``__getattr__``, which restores them.  A deep copy or a
pickle is no barrier: it gathers the live columns off the row into its
own buffers and leaves the row as it is.  A cache is therefore the
truth about its sequence whoever asks, and nothing outside this module
can alias a store row.

An int8 store may carry two further planes: the columns *dequantized*,
written beside the codes they mirror (appended from the same pass of
the backend's batch quantization that made the codes, filled once when
a row is adopted with columns) and dropped when a row goes home.  The
backend asks for them for its dense rows — the long ones, whose whole
width a step would otherwise dequantize again — and reads their float
columns from :meth:`KVRowStore.compute_columns`.  Its pruned rows keep
codes and scales alone: a decode step attends on the codes, cast to the compute
dtype, with the scales folded into the scores and the A·V operand, so
no step dequantizes a pruned row.

Numerics-policy storage (dtype parameterization)
------------------------------------------------

``dtype`` selects the storage representation of the cached planes, one
per :mod:`repro.nn.numerics` ladder tier:

* ``np.float64`` (default) — the bit-exact oracle representation;
  every pre-existing code path is unchanged.
* ``np.float32`` — half the resident bytes; reads are still zero-copy
  views, appends cast on write.
* ``np.int8`` — quantized codes with one fp32 scale per (head, column)
  row for K and V each (:func:`repro.core.quantization.quantize_rows`).
  A cache's reads (:attr:`keys` / :attr:`values` / :meth:`padded_to` /
  :meth:`compute_columns`) return *dequantized fp32 copies*, so every
  consumer of the cache API keeps working unmodified (the packed
  backend reads its pruned store rows on their codes, above); writers
  that already hold codes (the batched decode backend quantizes whole
  batches at once) use :meth:`append_quantized` to skip requantization.
  Scales travel with their rows through :meth:`keep` compaction — an
  evicted-and-compacted cache never requantizes surviving columns.

Memory accounting is dtype-aware: ``bytes_per_element`` describes the
*storage* width of a cache entry in DRAM, independent of the float64
arrays the exact tier computes with.  The fp16 default (2, matching
``ModelConfig.bytes_per_element``) models the paper's DRAM traffic; the
numerics policies pass their true storage width (4 for fp32, 1 for
int8, where :attr:`nbytes` additionally counts the fp32 scale columns).
:attr:`nbytes` counts live columns (what the pool pages back);
:attr:`capacity_nbytes` counts the preallocated buffers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LayerKVCache", "KVCache", "KVRowStore", "RowSeat", "RowTable", "NO_TOKEN",
]

#: The private buffers of a :class:`LayerKVCache` — attributes it lacks
#: while its columns sit in a store row.
_BUFFERS = frozenset((
    "_keys", "_values", "_kscales", "_vscales", "_token_ids", "_len",
    "_tail_dirty",
))

#: Label of a :class:`KVRowStore` column that holds no live token — an
#: evicted one, or one never written.  As an index it reads the last
#: column of a control plane, which
#: :class:`~repro.core.batched_cascade.CascadeBatch` keeps dead.
NO_TOKEN = -1


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[i] - 1`` for every ``i``, concatenated: the column
    of each entry of a flat, ragged block of rows."""
    return np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


class LayerKVCache:
    """KV cache of a single layer: per-head tensors plus position labels.

    Args:
        n_heads: number of attention heads the buffers store.
        head_dim: per-head feature width.
        bytes_per_element: DRAM storage width per scalar (accounting).
        page_tokens: growth quantum in cache columns.  Capacity is always
            a multiple of this, mirroring the serving pool's page size
            (the pool charges pages for *live* columns; the doubling
            policy may preallocate capacity up to ~2× ahead of them).
        dtype: storage dtype of the K/V planes (see module docstring);
            ``np.int8`` stores codes plus per-(head, column) fp32 scales.
    """

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        bytes_per_element: int = 2,
        page_tokens: int = 16,
        # repro: allow[det-dtype-literal] -- the *default* is the exact
        # tier's fp64; policies override it via NumericsPolicy.kv_dtype
        dtype=np.float64,
    ):
        if bytes_per_element <= 0:
            raise ValueError("bytes_per_element must be positive")
        if page_tokens < 1:
            raise ValueError("page_tokens must be >= 1")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (
            # repro: allow[det-dtype-literal] -- the exhaustive list of
            # storage dtypes the numerics ladder defines, not a hard-coding
            np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.int8)
        ):
            raise ValueError(
                f"unsupported KV storage dtype {self.dtype}; "
                "expected float64, float32, or int8"
            )
        self.quantized = self.dtype == np.dtype(np.int8)
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.bytes_per_element = bytes_per_element
        self.page_tokens = page_tokens
        self._len = 0
        self._allocate(0)
        self._evicted = 0
        #: The :class:`KVRowStore` holding this cache's columns, or
        #: ``None`` while they sit in the private buffers; the row is
        #: the sequence's :class:`RowSeat`'s.
        self._store: Optional["KVRowStore"] = None
        self._seat: Optional["RowSeat"] = None

    def __len__(self) -> int:
        if self._store is not None:
            return int(self._store.live[self._seat.row])
        return self._len

    @property
    def evicted_tokens(self) -> int:
        """Cumulative count of columns evicted by cascade pruning."""
        if self._store is not None:
            return int(self._store.evicted[self._seat.row])
        return self._evicted

    def __getattr__(self, name: str):
        # Reached only for an attribute that is missing: a private
        # buffer of a cache whose columns sit in a store row (adoption
        # deletes them).  So every read of one — whichever accessor
        # makes it — is the barrier that brings the sequence's columns
        # back first, in every layer.
        if name in _BUFFERS and self._store is not None:
            self._seat.table.orphan(self._seat)
            return getattr(self, name)
        raise AttributeError(name)

    def __getstate__(self) -> dict:
        # Deep copies and pickles hold their own columns and no row; a
        # resident cache's are gathered off its row, which stays put.
        twin = object.__new__(LayerKVCache)
        vars(twin).update(vars(self), _seat=None)
        if self._store is not None:
            self._store.hand_back(self._seat.row, twin)
        return vars(twin)

    @property
    def capacity(self) -> int:
        """Columns the backing buffers can hold without reallocating."""
        return self._keys.shape[1]

    @property
    def keys(self) -> np.ndarray:
        """Live key columns ``[h, len, D]``.

        A zero-copy view for float storage; the int8 tier returns a
        dequantized fp32 copy so consumers are representation-agnostic.
        """
        if self.quantized:
            return self._dequant(self._keys, self._kscales, 0, self._len)
        return self._keys[:, : self._len, :]

    @property
    def values(self) -> np.ndarray:
        """Live value columns ``[h, len, D]`` (see :attr:`keys`)."""
        if self.quantized:
            return self._dequant(self._values, self._vscales, 0, self._len)
        return self._values[:, : self._len, :]

    @property
    def key_scales(self) -> Optional[np.ndarray]:
        """Per-(head, column) fp32 key scales view, or None unquantized."""
        if not self.quantized:
            return None
        return self._kscales[:, : self._len]

    @property
    def value_scales(self) -> Optional[np.ndarray]:
        """Per-(head, column) fp32 value scales view, or None unquantized."""
        if not self.quantized:
            return None
        return self._vscales[:, : self._len]

    @property
    def token_ids(self) -> np.ndarray:
        """Zero-copy view of the live columns' original positions."""
        return self._token_ids[: self._len]

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _aligned(self, n_tokens: int) -> int:
        pages = -(-int(n_tokens) // self.page_tokens)  # ceil division
        return pages * self.page_tokens

    def reserve(self, n_tokens: int) -> None:
        """Grow capacity to hold at least ``n_tokens`` columns.

        Used by prefill to size buffers for a known prompt length up
        front, so chunked summarization never pays a mid-prefill
        reallocation.  A no-op when capacity already suffices.
        """
        if n_tokens > self.capacity:
            self._grow(n_tokens)

    def _allocate(self, capacity: int) -> None:
        """Fresh zeroed private buffers (whatever they held is dropped)."""
        shape = (self.n_heads, capacity, self.head_dim)
        self._keys = np.zeros(shape, dtype=self.dtype)
        self._values = np.zeros(shape, dtype=self.dtype)
        if self.quantized:
            # One fp32 scale per (head, column) row, for K and V each.
            self._kscales = np.ones(shape[:2], dtype=np.float32)
            self._vscales = np.ones(shape[:2], dtype=np.float32)
        self._token_ids = np.zeros(capacity, dtype=np.int64)
        #: Whether buffer columns past the live length may hold stale
        #: (non-zero) data — set by :meth:`keep` compaction, consumed by
        #: :meth:`padded_to`, which needs a zero tail.
        self._tail_dirty = False

    def _planes(self) -> tuple:
        """The private buffers with a column axis after the head axis —
        a row of :attr:`KVRowStore.planes`, plane for plane."""
        if self.quantized:
            return self._keys, self._values, self._kscales, self._vscales
        return self._keys, self._values

    def _grow(self, min_capacity: int) -> None:
        planes, token_ids, n_live = self._planes(), self._token_ids, self._len
        self._allocate(self._aligned(max(2 * self.capacity, min_capacity)))
        for new, old in zip(self._planes(), planes):
            new[:, :n_live] = old[:, :n_live]
        self._token_ids[:n_live] = token_ids[:n_live]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self,
        k: np.ndarray,
        v: np.ndarray,
        token_ids: np.ndarray,
        heads: Optional[np.ndarray] = None,
    ) -> None:
        """Add new per-head K/V columns (``[h, L_new, D]``) in place.

        Float storage casts on write; int8 storage quantizes each
        (head, column) row through
        :func:`repro.core.quantization.quantize_rows` — these are the
        "per-row scales computed at prefill".

        ``heads`` gives the original indices of the heads the planes
        hold (``[len(heads), L_new, D]``) when cascade head pruning
        computed only those: the other heads' new columns are stored as
        zeros — nothing reads them again — and never quantized.
        """
        n_given = self.n_heads if heads is None else len(heads)
        if k.shape != v.shape:
            raise ValueError("K and V shapes must match")
        if k.shape[0] != n_given or k.shape[2] != self.head_dim:
            raise ValueError(
                f"expected [h={n_given}, *, D={self.head_dim}], got {k.shape}"
            )
        if k.shape[1] != len(token_ids):
            raise ValueError("token_ids must label every appended column")
        if n_given == self.n_heads:
            heads = None
        if self.quantized:
            from ..core.quantization import quantize_rows

            k_codes, k_scales = quantize_rows(k, bits=8, axis=-1)
            v_codes, v_scales = quantize_rows(v, bits=8, axis=-1)
            self._append_storage(
                k_codes, v_codes, token_ids,
                k_scales[..., 0], v_scales[..., 0], heads,
            )
            return
        self._append_storage(k, v, token_ids, heads=heads)

    def append_quantized(
        self,
        k_codes: np.ndarray,
        k_scales: np.ndarray,
        v_codes: np.ndarray,
        v_scales: np.ndarray,
        token_ids: np.ndarray,
    ) -> None:
        """Add pre-quantized columns (int8 storage only).

        The batched decode backend quantizes a whole batch's new K/V
        columns in one :func:`~repro.core.quantization.quantize_rows`
        call and hands each cache its slice here, skipping per-sequence
        requantization.  ``*_codes`` are ``[h, L_new, D]`` int8;
        ``*_scales`` are ``[h, L_new]`` (or ``[h, L_new, 1]``) fp32.
        """
        if not self.quantized:
            raise ValueError("append_quantized requires int8 storage dtype")
        if k_codes.shape != v_codes.shape:
            raise ValueError("K and V code shapes must match")
        if k_codes.shape[0] != self.n_heads or k_codes.shape[2] != self.head_dim:
            raise ValueError(
                f"expected [h={self.n_heads}, *, D={self.head_dim}], "
                f"got {k_codes.shape}"
            )
        if k_codes.shape[1] != len(token_ids):
            raise ValueError("token_ids must label every appended column")
        k_scales = np.asarray(k_scales)
        v_scales = np.asarray(v_scales)
        if k_scales.ndim == 3:
            k_scales = k_scales[..., 0]
        if v_scales.ndim == 3:
            v_scales = v_scales[..., 0]
        self._append_storage(k_codes, v_codes, token_ids, k_scales, v_scales)

    def append_decode_col(self, k: np.ndarray, v: np.ndarray, token_id) -> None:
        """One decode column (``[h, D]`` per plane): :meth:`append`."""
        self.append(k[:, None, :], v[:, None, :], [token_id])

    def append_decode_col_quantized(
        self,
        k_codes: np.ndarray,
        k_scales: np.ndarray,
        v_codes: np.ndarray,
        v_scales: np.ndarray,
        token_id,
    ) -> None:
        """One pre-quantized decode column (``*_codes`` ``[h, D]`` int8,
        ``*_scales`` ``[h]`` fp32): :meth:`append_quantized`."""
        self.append_quantized(
            k_codes[:, None, :], k_scales[:, None],
            v_codes[:, None, :], v_scales[:, None], [token_id],
        )

    def _append_storage(
        self, k, v, token_ids, k_scales=None, v_scales=None, heads=None
    ):
        n_new = k.shape[1]
        if self._len + n_new > self.capacity:
            self._grow(self._len + n_new)
        cols = slice(self._len, self._len + n_new)
        rows = slice(None)
        if heads is not None:
            # The absent heads' columns: zero planes at the unit scale
            # quantize_rows gives a zero row.
            rows = heads
            self._keys[:, cols] = 0
            self._values[:, cols] = 0
            if self.quantized:
                self._kscales[:, cols] = 1.0
                self._vscales[:, cols] = 1.0
        self._keys[rows, cols] = k
        self._values[rows, cols] = v
        self._token_ids[cols] = np.asarray(token_ids)
        if self.quantized:
            self._kscales[rows, cols] = k_scales
            self._vscales[rows, cols] = v_scales
        self._len = cols.stop

    def keep(self, column_indices: np.ndarray) -> None:
        """Retain only the given cache columns (cascade token pruning).

        ``column_indices`` index the *current* cache layout and must be
        sorted so the original token order is preserved (the top-k engine
        preserves input order; Section IV-B).  Surviving columns are
        compacted toward the front of the existing buffers — no
        reallocation.  Quantized scales travel with their rows, so
        compaction never requantizes.  An empty index set empties the
        cache; out-of-range indices raise ``ValueError``.
        """
        column_indices = np.asarray(column_indices, dtype=np.int64).reshape(-1)
        n_kept, n_live = len(column_indices), self._len
        if n_kept:
            if not (column_indices[1:] > column_indices[:-1]).all():
                raise ValueError("column_indices must be strictly increasing")
            if column_indices[0] < 0 or column_indices[-1] >= n_live:
                raise ValueError(
                    f"column index out of range: cache has {n_live} columns, "
                    f"got indices in [{column_indices[0]}, {column_indices[-1]}]"
                )
        if n_kept == n_live:
            return
        self._evicted += n_live - n_kept
        planes = self._planes()
        if n_live - n_kept == 1:
            # One evicted column — the steady state of decode, where
            # roughly one old token leaves per generated one — is the
            # index missing from 0..n_live-1; the columns after it
            # shift left by one (NumPy buffers the overlapping copy).
            gap = n_live * (n_live - 1) // 2 - int(column_indices.sum())
            for plane in planes:
                plane[:, gap:n_kept] = plane[:, gap + 1 : n_live]
            self._token_ids[gap:n_kept] = self._token_ids[gap + 1 : n_live]
        else:
            # Advanced indexing on the right materializes the survivors
            # before assignment, so the overlapping copy is safe.
            for plane in planes:
                plane[:, :n_kept] = plane[:, column_indices]
            self._token_ids[:n_kept] = self._token_ids[column_indices]
        self._len = n_kept
        self._tail_dirty = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _dequant(self, codes, scales, start, end):
        return (
            codes[:, start:end, :].astype(np.float32)
            * scales[:, start:end, None]
        )

    def compute_columns(
        self, start: int = 0, end: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columns ``[start, end)`` as float arrays for compute.

        Float storage returns zero-copy views; int8 storage returns
        dequantized fp32 copies.  ``DenseExecutor``'s packed core
        attends over these, and a row store fills its dequantized
        planes from them at adoption.
        """
        end = self._len if end is None else end
        if not 0 <= start <= end <= self._len:
            raise ValueError(
                f"invalid column range [{start}, {end}) for length {self._len}"
            )
        if self.quantized:
            return (
                self._dequant(self._keys, self._kscales, start, end),
                self._dequant(self._values, self._vscales, start, end),
            )
        return (
            self._keys[:, start:end, :],
            self._values[:, start:end, :],
        )

    def padded_to(self, total: int) -> Tuple[np.ndarray, np.ndarray]:
        """K/V padded with zero columns out to ``total`` columns.

        Chunked dense prefill attends against K/V padded to the final
        prompt width so the softmax reduction matches the monolithic
        pass column-for-column (see
        :meth:`repro.nn.transformer.DenseExecutor.begin_prefill`).  For
        float storage this is a zero-copy view — capacity is grown to
        ``total`` and the tail is guaranteed zero; the int8 tier (which
        must dequantize) materializes padded copies.
        """
        if total < self._len:
            raise ValueError(
                f"cannot pad {self._len} live columns down to {total}"
            )
        if self.quantized:
            k = np.zeros((self.n_heads, total, self.head_dim), dtype=np.float32)
            v = np.zeros((self.n_heads, total, self.head_dim), dtype=np.float32)
            k[:, : self._len] = self._dequant(self._keys, self._kscales, 0, self._len)
            v[:, : self._len] = self._dequant(self._values, self._vscales, 0, self._len)
            return k, v
        self.reserve(total)
        if self._tail_dirty:
            self._keys[:, self._len :] = 0.0
            self._values[:, self._len :] = 0.0
            self._tail_dirty = False
        return self._keys[:, :total, :], self._values[:, :total, :]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def _bytes_per_column(self) -> int:
        """Storage bytes one cache column costs (K + V, all heads)."""
        per_col = 2 * self.n_heads * self.head_dim * self.bytes_per_element
        if self.quantized:
            # Two fp32 scales (K and V) per head per column.
            per_col += 2 * self.n_heads * 4
        return per_col

    @property
    def nbytes(self) -> int:
        """Live-column footprint in bytes at the configured storage width."""
        return len(self) * self._bytes_per_column

    @property
    def capacity_nbytes(self) -> int:
        """Preallocated-buffer footprint at the storage width."""
        return self.capacity * self._bytes_per_column


class KVRowStore:
    """Batch-resident K/V rows of one layer (see the module docstring).

    Which sequence fills which row is its :class:`RowTable`'s to know;
    the store keeps the rows' contents:

    * ``planes`` — K and V, ``[S, h, cap, D]`` each at the caches'
      storage dtype; on the int8 tier these are the codes and the
      K and V scales follow, ``[S, h, cap]`` fp32 each
      (:meth:`LayerKVCache._planes`' order, with a leading row axis),
      and after them, when ``dequantized`` asks, the K and V columns
      dequantized, ``[S, h, cap, D]`` fp32 each — planes like any
      other to growth, moves and compaction, which no cache takes home;
    * ``labels`` — ``[S, cap]``, the original position of each column's
      token, :data:`NO_TOKEN` for an evicted or unwritten column;
    * ``cursor`` / ``live`` / ``evicted`` — ``[S]``: the next column a
      row writes, its live columns (what ``len(cache)`` reports) and
      its cache's cumulative evictions.

    Geometry is that of ``like``, a cache of the kind the store will
    adopt.  Columns grow a ``page_tokens`` page at a time: every column
    of a row is resident whether live or not.
    """

    def __init__(self, like: LayerKVCache, dequantized: bool):
        self.page_tokens = like.page_tokens
        shape = (0, like.n_heads, 0, like.head_dim)
        self.planes = [np.zeros(shape, dtype=like.dtype) for _ in "kv"]
        if like.quantized:
            self.planes += [
                np.zeros(shape[:3], dtype=np.float32) for _ in "kv"
            ]
            if dequantized:
                self.planes += [
                    np.zeros(shape, dtype=np.float32) for _ in "kv"
                ]
        self.labels = np.zeros((0, 0), dtype=np.int64)
        self._vectors = np.zeros((3, 0), dtype=np.int64)
        self.cursor, self.live, self.evicted = self._vectors

    def _reserve(self, n_rows: int, n_cols: int) -> None:
        """Grow to ``n_rows`` rows of ``n_cols`` columns (by whole
        pages) in one reallocation, if either axis falls short — one
        plane at a time: growth never holds two of each.  (A row out of
        use is cleared, so it copies nothing.)"""
        rows, cap = self.labels.shape
        if n_rows <= rows and n_cols <= cap:
            return
        n_rows = max(n_rows, rows)
        n_cols = -(-max(n_cols, cap) // self.page_tokens) * self.page_tokens
        width = int(self.cursor.max(initial=0))
        for i, old in enumerate(self.planes):
            new = np.zeros((n_rows, old.shape[1], n_cols) + old.shape[3:],
                           old.dtype)
            new[:rows, :, :width] = old[:, :, :width]
            self.planes[i] = new
        labels = np.full((n_rows, n_cols), NO_TOKEN)
        labels[:rows, :width] = self.labels[:, :width]
        self.labels = labels
        vectors = np.zeros((3, n_rows), dtype=np.int64)
        vectors[:, :rows] = self._vectors
        self._vectors = vectors
        self.cursor, self.live, self.evicted = vectors

    # ------------------------------------------------------------------
    # Row primitives, driven by the store's RowTable
    # ------------------------------------------------------------------
    def fill_rows(self, start: int, caches: Sequence[LayerKVCache],
                  n_rows: int) -> None:
        """Move each cache's columns into rows ``start, start + 1, ...``
        (one copy) of ``n_rows`` rows, and free its private buffers."""
        lengths = [cache._len for cache in caches]
        self._reserve(n_rows, max(lengths, default=0))
        for row, (cache, n_cols) in enumerate(zip(caches, lengths), start):
            private = cache._planes()
            if len(self.planes) > len(private):
                private += cache.compute_columns()
            for plane, columns in zip(self.planes, private):
                plane[row, :, :n_cols] = columns[:, :n_cols]
            self.labels[row, :n_cols] = cache._token_ids[:n_cols]
            self.cursor[row] = self.live[row] = n_cols
            self.evicted[row] = cache._evicted
            cache._store = self
            for name in _BUFFERS:
                vars(cache).pop(name, None)

    def hand_back(self, row: int, cache: LayerKVCache,
                  end: Optional[int] = None) -> None:
        """Return row ``row``'s cache to private buffers holding the
        row's live columns (of its first ``end``, if given) in order,
        leaving the row as it is."""
        cache._store = None
        end = int(self.cursor[row]) if end is None else end
        kept = np.flatnonzero(self.labels[row, :end] != NO_TOKEN)
        n_live = cache._len = len(kept)
        cache._evicted = int(self.evicted[row])
        cache._allocate(cache._aligned(n_live))
        if n_live:
            for private, plane in zip(cache._planes(), self.planes):
                private[:, :n_live] = plane[row][:, kept]
            cache._token_ids[:n_live] = self.labels[row, kept]

    def drop(self, row: int, cache: LayerKVCache) -> None:
        """:meth:`hand_back` for a sequence nobody reads again: its
        cache keeps no columns."""
        self.hand_back(row, cache, end=0)

    def move_row(self, src: int, dst: int) -> None:
        """The last row in use, ``src``, fills row ``dst`` and is
        cleared."""
        if src != dst:
            end = int(self.cursor[src])
            for plane in self.planes:
                plane[dst, :, :end] = plane[src, :, :end]
            self.labels[dst] = self.labels[src]
            self._vectors[:, dst] = self._vectors[:, src]
        self.labels[src] = NO_TOKEN
        self._vectors[:, src] = 0

    # ------------------------------------------------------------------
    # A block of rows: eviction, the one write, the read
    # ------------------------------------------------------------------
    def evict(
        self, rows: slice, alive: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Cascade eviction over the rows ``rows`` as one gathered mask.

        ``alive`` ``[n, P]`` says, by label, which tokens each row's
        sequence still holds live; its last column — what
        :data:`NO_TOKEN` reads — must be dead.  ``offsets`` is ``P *
        arange(n)[:, None]``, where each row starts in the flat plane.
        Newly dead columns are relabelled where they sit, and a row is
        compacted once a page of them has built up.
        """
        labels = self.labels[rows, : int(self.cursor[rows].max())]
        # A 1-D gather from the flat plane: row ``j``'s label ``c`` is
        # ``c + j * P`` there, and ``NO_TOKEN`` a dead last column.
        keep = alive.reshape(-1)[labels + offsets]
        live = np.add.reduce(keep, axis=1)
        newly_dead = self.live[rows] - live
        if not newly_dead.any():
            return
        labels[~keep] = NO_TOKEN
        self.evicted[rows] += newly_dead
        self.live[rows] = live
        holes = self.cursor[rows] - live
        for row in (holes >= self.page_tokens).nonzero()[0]:
            self.compact(rows.start + int(row))

    def compact(self, row: int) -> None:
        """Close the holes of one row, order preserved (the top-k engine
        keeps stream order; PAPER.md §IV-B)."""
        end, n_live = int(self.cursor[row]), int(self.live[row])
        if n_live == end:
            return
        labels = self.labels[row, :end]
        kept = (labels != NO_TOKEN).nonzero()[0]
        for plane in self.planes:
            # ``take`` materializes the survivors before the
            # (overlapping) assignment.
            plane[row, :, :n_live] = plane[row].take(kept, axis=1)
        labels[:n_live] = labels[kept]
        labels[n_live:] = NO_TOKEN
        self.cursor[row] = n_live

    def write_block(
        self,
        rows: slice,
        counts: np.ndarray,
        labels: np.ndarray,
        *columns: np.ndarray,
    ) -> int:
        """Append a ragged block of columns at each row's cursor.

        Row ``rows.start + i`` takes ``counts[i] >= 1`` columns; the
        block is flat, row after row: ``labels`` ``[N]`` and, plane for
        plane (:attr:`planes`), ``columns`` ``[N, h(, D)]``, ``N =
        counts.sum()``.  One indexed store per plane, whatever the
        rows' lengths: a prompt block fills rows adopted empty or, a
        dense chunk, extends them, and a decode step is the all-ones
        case.

        Returns the width the rows now span — the columns a reader
        slices, of which each row's :data:`NO_TOKEN` ones are masked.
        """
        start = self.cursor[rows]
        stop = start + counts
        width = int(stop.max())
        self._reserve(0, width)
        row_of = np.arange(rows.start, rows.stop)
        col_of = start
        if len(labels) > len(counts):  # some row takes several columns
            row_of = np.repeat(row_of, counts)
            col_of = np.repeat(start, counts) + ragged_arange(counts)
        for plane, column in zip(self.planes, columns):
            plane[row_of, :, col_of] = column
        self.labels[row_of, col_of] = labels
        self.cursor[rows] = stop
        self.live[rows] += counts
        return width

    def compute_columns(
        self, rows: slice, width: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """K and V of the rows ``rows`` over columns ``[0, width)`` as
        float arrays ``[n, h, width, D]``: views of the float planes, or
        of an int8 store's dequantized ones.  (A store of codes and
        scales alone has no float columns: its reader attends on the
        codes with the scales folded in.)"""
        keys, values = self.planes[-2:]
        return keys[rows, :, :width], values[rows, :, :width]


class RowSeat:
    """One sequence's row in a :class:`RowTable`.

    Every handle on the row — the sequence's caches, its executor —
    holds this one object, so a row move rewrites one index.  ``parts``
    are the sequence's pieces, member for member of the table (a layer's
    cache, the executor), and ``home`` the indices of the members whose
    piece went home at a barrier while the row stayed.  A vacated seat
    has no ``table`` (nor ``parts``).
    """

    __slots__ = ("table", "row", "parts", "home")

    def __init__(self, table: "RowTable", row: int, parts: list):
        self.table, self.row, self.parts = table, row, parts
        self.home: set = set()


class RowTable:
    """Which sequence fills each row of a packed backend's row members —
    one :class:`KVRowStore` per layer, and for ``"pruned"`` rows their
    resident cascade control — for one style of rows.

    Row ``j`` of every member holds the sequence of ``seats[j]``.  The
    table alone grows the row axis, adopts, moves and releases rows;
    each member provides the row primitives it drives: ``fill_rows``
    (growing to the table's row count first), ``hand_back``, ``drop``
    (a ``hand_back`` for a sequence nobody reads again) and
    ``move_row``.
    ``parts(owner)`` lists a sequence's pieces, member for member, and
    ``handle(owner)`` the piece whose ``_seat`` tells where the sequence
    sits.

    A barrier sends pieces home (:meth:`orphan`): all of them — a read
    of a cache's columns — or one member's — a read of an executor's
    control state, which leaves the K/V rows in place.  :meth:`join`
    (and so :meth:`hold`) answers both: a row all of whose pieces went
    home is released and its sequence, if it decodes on, adopted anew;
    a row with some home takes them back where it is.
    """

    def __init__(self, members: list, parts, handle):
        self.members = members
        self._parts, self._handle = parts, handle
        self.seats: List[RowSeat] = []
        self._n_rows = 0

    def hold(self, owners: Sequence) -> List[int]:
        """Make the rows hold exactly ``owners`` (:meth:`join`, after
        vacating every other row); returns their indices in ``owners``
        in row order.  While membership stands — the steady state — this
        reads one handle a sequence and nothing else."""
        seats = [self._handle(owner)._seat for owner in owners]
        # As many distinct seats as rows, all here and whole: these rows.
        if len(seats) != len(self.seats) or not all(
            seat is not None and seat.table is self and not seat.home
            for seat in seats
        ):
            staying = {id(seat) for seat in seats}
            # Highest first: the row that fills a vacated one stays.
            for row in sorted((
                seat.row for seat in self.seats if id(seat) not in staying
            ), reverse=True):
                self._vacate(self.seats[row], drop=False)
            seats = self.join(owners)
        return sorted(range(len(seats)), key=lambda i: seats[i].row)

    def join(self, owners: Sequence) -> List[RowSeat]:
        """Seat each of ``owners`` here, vacating no other row; returns
        their seats.  A row all of whose pieces went home is released
        and its sequence adopted anew; a row with some home takes them
        back where it is."""
        seats = [self._handle(owner)._seat for owner in owners]
        for seat in sorted((
            seat for seat in seats if seat is not None and seat.table is self
        ), key=lambda seat: -seat.row):
            if len(seat.home) == len(self.members):
                self._vacate(seat, drop=False)
                continue
            for m in seat.home:
                self.members[m].fill_rows(
                    seat.row, [seat.parts[m]], self._n_rows
                )
            seat.home.clear()
        self.adopt([
            owner for owner, seat in zip(owners, seats)
            if seat is None or seat.table is not self
        ])
        return [self._handle(owner)._seat for owner in owners]

    def adopt(self, owners: Sequence) -> List[RowSeat]:
        """New last rows for ``owners``; a sequence sitting in another
        table leaves it first (the members' first read of a piece is its
        barrier)."""
        n = len(self.seats)
        seats = [
            RowSeat(self, n + i, self._parts(owner))
            for i, owner in enumerate(owners)
        ]
        if n + len(seats) > self._n_rows:
            # Rows grow to what is asked for (a step's arrivals ask
            # once) or by an eighth.
            self._n_rows = max(n + len(seats), self._n_rows + self._n_rows // 8)
        self.seats += seats
        for m, member in enumerate(self.members):
            member.fill_rows(
                n, [seat.parts[m] for seat in seats], self._n_rows
            )
        for seat in seats:
            for part in seat.parts:
                part._seat = seat
        return seats

    def orphan(self, seat: RowSeat, member=None) -> None:
        """A barrier: ``member``'s piece of ``seat`` — every piece, by
        default — goes home; the row stays where it is for :meth:`hold`
        to answer."""
        for m, (each, part) in enumerate(zip(self.members, seat.parts)):
            if m not in seat.home and member in (None, each):
                each.hand_back(seat.row, part)
                seat.home.add(m)

    def release(self, owner) -> None:
        """Vacate ``owner``'s row, if it has one here, whatever went
        home; its pieces still resident are dropped."""
        seat = self._handle(owner)._seat
        if seat is not None and seat.table is self:
            self._vacate(seat, drop=True)

    def _vacate(self, seat: RowSeat, drop: bool) -> None:
        """Hand ``seat``'s resident pieces back (or drop them) and free
        its row: the last row moves into it."""
        row = seat.row
        for m, (member, part) in enumerate(zip(self.members, seat.parts)):
            if m not in seat.home:
                (member.drop if drop else member.hand_back)(row, part)
        last = self.seats.pop()
        if last is not seat:
            self.seats[row], last.row = last, row
        for member in self.members:
            member.move_row(len(self.seats), row)
        # A piece may keep the seat, which keeps nothing: a retired
        # sequence frees by refcount.
        seat.table = seat.parts = None


class KVCache:
    """All-layer cache container used by the generation loop."""

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        head_dim: int,
        bytes_per_element: int = 2,
        page_tokens: int = 16,
        # repro: allow[det-dtype-literal] -- exact-tier default, overridden
        # per policy via NumericsPolicy.kv_dtype
        dtype=np.float64,
    ):
        self.layers: List[LayerKVCache] = [
            LayerKVCache(
                n_heads, head_dim, bytes_per_element,
                page_tokens=page_tokens, dtype=dtype,
            )
            for _ in range(n_layers)
        ]

    def __getitem__(self, layer_idx: int) -> LayerKVCache:
        return self.layers[layer_idx]

    def __len__(self) -> int:
        return len(self.layers)

    def reserve(self, n_tokens: int) -> None:
        """Grow every layer's capacity to at least ``n_tokens`` columns."""
        for layer in self.layers:
            layer.reserve(n_tokens)

    @property
    def total_cached_tokens(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def total_evicted_tokens(self) -> int:
        """Columns reclaimed by cascade pruning, summed over layers."""
        return sum(layer.evicted_tokens for layer in self.layers)

    def lengths(self) -> List[int]:
        """Per-layer live column counts (the serving pool syncs on these)."""
        return [len(layer) for layer in self.layers]

    @property
    def nbytes(self) -> int:
        """Total live-column footprint in bytes at the storage width."""
        return sum(layer.nbytes for layer in self.layers)

    @property
    def capacity_nbytes(self) -> int:
        """Total preallocated-buffer footprint at the storage width."""
        return sum(layer.capacity_nbytes for layer in self.layers)

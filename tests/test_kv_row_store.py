"""The batch-resident K/V row store against the caches it replaces.

A :class:`repro.nn.kv_cache.KVRowStore` holds the ``"dense"`` and the
``"pruned"`` decode rows' columns for the packed backend off the exact
tier, and every resident :class:`~repro.nn.kv_cache.LayerKVCache` is a
handle on its row.  The state machine drives one store (and a second,
to move rows between backends) with everything a step's store blocks
and the membership reconcile do to it — block writes of one column a
row or ragged counts, at each row's cursor, and block evictions —
beside a shadow list of plain private-buffer caches that take the same
appends and evictions through the per-sequence API; after every rule each handle reports what its
shadow holds — and a store that keeps its columns dequantized holds
what the shadow dequantizes.  The structural guards below it pin what
the stores are for: a steady-state decode step over dense or pruned
rows never calls the per-sequence cache mutators, and a prompt step
over pruned sequences never calls the per-sequence cascade, quantizer
or cache append — its sequences are store rows from their first column.
"""

import copy
import importlib
import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import ModelConfig, PruningConfig
from repro.core.pipeline import SpAttenExecutor
from repro.core.quantization import quantize_rows
from repro.nn import TransformerModel, random_model
from repro.nn.batched_attention import PackedDecodeBackend
from repro.nn.kv_cache import NO_TOKEN, KVRowStore, LayerKVCache
from repro.nn.transformer import DenseExecutor

N_HEADS, HEAD_DIM, PAGE = 2, 4, 4
#: Positions a sequence can reach; the alive plane is one column wider
#: (the always-dead sink that ``NO_TOKEN`` reads).
MAX_LEN = 40


class Sequence:
    """One sequence: the cache under test and its private-buffer twin."""

    def __init__(self, dtype, rng, n_prompt):
        self.cache = LayerKVCache(N_HEADS, HEAD_DIM, page_tokens=PAGE,
                                  dtype=dtype)
        self.shadow = LayerKVCache(N_HEADS, HEAD_DIM, page_tokens=PAGE,
                                   dtype=dtype)
        self.next_position = 0
        for _ in range(n_prompt):
            self.append_private(rng)

    def column(self, rng):
        k = rng.normal(size=(N_HEADS, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(N_HEADS, HEAD_DIM)).astype(np.float32)
        position, self.next_position = self.next_position, self.next_position + 1
        return k, v, position

    def append_private(self, rng):
        k, v, position = self.column(rng)
        for cache in (self.cache, self.shadow):
            cache.append(k[:, None], v[:, None], [position])


def store_planes(dtype, k, v):
    """``[n, h, D]`` K/V columns as a store takes them, plane for plane
    — as the backend calls it on int8: the dequantized columns follow
    the codes and scales, for the stores that keep them."""
    if dtype != np.int8:
        return k, v
    k_codes, k_scales = quantize_rows(k, bits=8)
    v_codes, v_scales = quantize_rows(v, bits=8)
    return (
        k_codes, v_codes, k_scales[..., 0], v_scales[..., 0],
        k_codes * k_scales, v_codes * v_scales,
    )


class RowStoreMachine(RuleBasedStateMachine):
    """Random walks over a store, a second store, and the shadow caches."""

    dtype = np.float32
    #: Whether the stores keep the int8 columns dequantized as well.
    dequantized = False

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)
        self.sequences = []
        like = LayerKVCache(N_HEADS, HEAD_DIM, page_tokens=PAGE,
                            dtype=self.dtype)
        self.stores = [
            KVRowStore(like, self.dequantized) for _ in range(2)
        ]

    @property
    def store(self):
        return self.stores[0]

    def resident(self, store=None):
        """The sequences in ``store``, in row order."""
        store = store or self.store
        by_cache = {id(seq.cache): seq for seq in self.sequences}
        return [by_cache[id(cache)] for cache in store.owners
                if cache is not None]

    def sweep(self, store):
        """What the backend's reconcile does about orphaned rows."""
        for row in reversed(range(len(store.owners))):
            if store.owners[row] is None:
                store.release(row, keep_columns=True)

    # ------------------------------------------------------------------
    @initialize(seed=st.integers(0, 2**16))
    def seed(self, seed):
        self.rng = np.random.default_rng(seed)

    @rule(
        n_prompts=st.lists(
            st.integers(0, 2 * PAGE + 1), min_size=1, max_size=3
        ),
        which=st.integers(0, 1),
    )
    def adopt(self, n_prompts, which):
        """A step's arrivals: prefilled private caches move into new
        rows, in one call."""
        if len(self.sequences) >= 6:
            return
        arrivals = [Sequence(self.dtype, self.rng, n) for n in n_prompts]
        self.sequences += arrivals
        self.stores[which].adopt([seq.cache for seq in arrivals])
        for seq in arrivals:
            assert "_keys" not in vars(seq.cache), "private buffers kept"

    @precondition(lambda self: self.store.owners)
    @rule(data=st.data(), decode=st.booleans())
    def write_block(self, data, decode):
        """A block of consecutive rows takes its new columns at each
        row's cursor in one store call — a decode step's one a row, or
        a ragged count >= 1 a row: a prompt pass onto rows adopted
        empty, or more columns onto rows that hold some.  The shadows
        take the per-sequence ``append`` / ``append_decode_col*``."""
        self.sweep(self.store)
        residents = self.resident()
        if not residents:
            return
        start = data.draw(st.integers(0, len(residents) - 1))
        stop = data.draw(st.integers(start + 1, len(residents)))
        block = residents[start:stop]
        counts = [1] * len(block) if decode else data.draw(st.lists(
            st.integers(1, 2 * PAGE + 1),
            min_size=len(block), max_size=len(block),
        ))
        if any(seq.next_position + count > MAX_LEN
               for seq, count in zip(block, counts)):
            return
        flat = [
            seq.column(self.rng)
            for seq, count in zip(block, counts) for _ in range(count)
        ]
        k = np.stack([c[0] for c in flat])
        v = np.stack([c[1] for c in flat])
        positions = np.array([c[2] for c in flat])
        planes = store_planes(self.dtype, k, v)
        width = self.store.write_block(
            slice(start, stop), np.array(counts), positions, *planes
        )
        assert width == int(self.store.cursor[start:stop].max())
        first = 0
        for seq, count in zip(block, counts):
            cols = slice(first, first + count)
            first = cols.stop
            if count > 1:
                seq.shadow.append(
                    k[cols].transpose(1, 0, 2), v[cols].transpose(1, 0, 2),
                    positions[cols],
                )
            elif self.dtype == np.int8:
                k_codes, v_codes, k_scales, v_scales = (
                    plane[cols.start] for plane in planes[:4]
                )
                seq.shadow.append_decode_col_quantized(
                    k_codes, k_scales, v_codes, v_scales, positions[cols.start]
                )
            else:
                seq.shadow.append_decode_col(
                    k[cols.start], v[cols.start], positions[cols.start]
                )

    @precondition(lambda self: self.store.owners)
    @rule(data=st.data(), keep=st.floats(0.3, 1.0))
    def mask_evict(self, data, keep):
        """Cascade eviction over a block of consecutive rows: the store
        takes one alive-by-position plane, the shadows the per-sequence
        ``keep``."""
        self.sweep(self.store)
        residents = self.resident()
        if not residents:
            return
        start = data.draw(st.integers(0, len(residents) - 1))
        stop = data.draw(st.integers(start + 1, len(residents)))
        alive = self.rng.random((stop - start, MAX_LEN + 1)) < keep
        alive[:, -1] = False  # the sink NO_TOKEN reads
        self.store.evict(slice(start, stop), alive)
        for j, seq in enumerate(residents[start:stop]):
            seq.shadow.keep(np.flatnonzero(alive[j, seq.shadow.token_ids]))

    @precondition(lambda self: self.store.owners)
    @rule(data=st.data())
    def compact(self, data):
        """Compaction at any time changes nothing a handle reports."""
        row = data.draw(st.integers(0, len(self.store.owners) - 1))
        self.store.compact(row)

    @precondition(lambda self: self.store.owners)
    @rule(data=st.data(), keep_columns=st.booleans())
    def release(self, data, keep_columns):
        """A departure: the last row moves into the vacated one."""
        self.sweep(self.store)
        residents = self.resident()
        if not residents:
            return
        row = data.draw(st.integers(0, len(residents) - 1))
        seq = residents[row]
        self.store.release(row, keep_columns)
        assert seq.cache._store is None
        if not keep_columns:  # nobody reads it again: drop the twin too
            assert len(seq.cache) == 0
            assert seq.cache.evicted_tokens == seq.shadow.evicted_tokens
            self.sequences.remove(seq)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def read_barrier(self, data):
        """A column-exposing accessor brings the columns home."""
        seq = data.draw(st.sampled_from(self.sequences))
        accessor = data.draw(st.sampled_from(
            ["keys", "token_ids", "compute_columns", "padded_to", "reserve"]
        ))
        length = len(seq.cache)
        if accessor == "compute_columns":
            seq.cache.compute_columns()
        elif accessor == "padded_to":
            seq.cache.padded_to(length + 3)
        elif accessor == "reserve":
            seq.cache.reserve(length + 1)
        else:
            getattr(seq.cache, accessor)
        assert seq.cache._store is None

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def private_append(self, data):
        """The per-sequence API on a resident cache: it leaves its row
        and the append lands in private buffers."""
        seq = data.draw(st.sampled_from(self.sequences))
        if seq.next_position < MAX_LEN:
            seq.append_private(self.rng)
            assert seq.cache._store is None

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def deepcopy(self, data):
        """A deep copy owns its columns and no row."""
        seq = data.draw(st.sampled_from(self.sequences))
        clone = copy.deepcopy(seq.cache)
        assert clone._store is None and seq.cache._store is None
        self.assert_equal(clone, seq.shadow)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), which=st.integers(0, 1))
    def adopt_elsewhere(self, data, which):
        """Adoption by a (second) store: copied out of the first, never
        aliased; a private cache is simply adopted."""
        seq = data.draw(st.sampled_from(self.sequences))
        target = self.stores[which]
        if seq.cache._store is target:
            return
        self.sweep(target)
        target.adopt([seq.cache])
        assert seq.cache._store is target

    # ------------------------------------------------------------------
    def columns_of(self, seq):
        """The live columns of ``seq.cache`` read without a barrier:
        straight off its row when it has one."""
        cache = seq.cache
        store = cache._store
        if store is None:
            planes = [p[:, : cache._len] for p in cache._planes()]
            return planes, cache._token_ids[: cache._len]
        row, cursor = cache._row, store.cursor[cache._row]
        labels = store.labels[row, :cursor]
        live = labels != NO_TOKEN
        planes = [p[row, :, :cursor][:, live] for p in store.planes]
        return planes, labels[live]

    @staticmethod
    def assert_equal(cache, shadow):
        assert len(cache) == len(shadow)
        assert cache.evicted_tokens == shadow.evicted_tokens
        assert np.array_equal(cache.token_ids, shadow.token_ids)
        assert np.array_equal(cache.keys, shadow.keys)
        assert np.array_equal(cache.values, shadow.values)
        if shadow.quantized:
            assert np.array_equal(cache.key_scales, shadow.key_scales)
            assert np.array_equal(cache.value_scales, shadow.value_scales)

    @invariant()
    def handles_report_their_shadows(self):
        for seq in self.sequences:
            shadow = seq.shadow
            assert len(seq.cache) == len(shadow)
            assert seq.cache.evicted_tokens == shadow.evicted_tokens
            assert seq.cache.nbytes == shadow.nbytes
            planes, token_ids = self.columns_of(seq)
            assert np.array_equal(token_ids, shadow.token_ids)
            for got, want in zip(planes, shadow._planes()):
                assert np.array_equal(got, want[:, : len(shadow)])
            if self.dequantized and seq.cache._store is not None:
                assert len(planes) == 6
                assert np.array_equal(planes[4], shadow.keys)
                assert np.array_equal(planes[5], shadow.values)

    @invariant()
    def rows_are_dense_and_owned_once(self):
        seen = set()
        for store in self.stores:
            n = len(store.owners)
            assert n <= store.labels.shape[0]
            for row, cache in enumerate(store.owners):
                if cache is None:
                    continue
                assert cache._store is store and cache._row == row
                assert id(cache) not in seen, "two rows alias one cache"
                seen.add(id(cache))
                cursor, live = store.cursor[row], store.live[row]
                labels = store.labels[row]
                assert np.count_nonzero(labels[:cursor] != NO_TOKEN) == live
                assert (labels[cursor:] == NO_TOKEN).all()
            assert (store.labels[n:] == NO_TOKEN).all(), "vacated row in use"
        for seq in self.sequences:
            if seq.cache._store is not None:
                assert id(seq.cache) in seen

    @invariant()
    def no_row_holds_a_page_of_holes(self):
        for store in self.stores:
            n = len(store.owners)
            assert ((store.cursor[:n] - store.live[:n]) < PAGE).all()

    def teardown(self):
        """Whatever the walk left resident comes back through the
        public accessors equal to its shadow."""
        for seq in self.sequences:
            self.assert_equal(seq.cache, seq.shadow)


class Int8RowStoreMachine(RowStoreMachine):
    dtype = np.int8


class DequantizedRowStoreMachine(Int8RowStoreMachine):
    dequantized = True


def _test_case(machine):
    # Bound to no module-level name of its own: a TestCase left behind
    # one (a loop variable, say) is collected a second time.
    machine.TestCase.settings = settings(
        max_examples=60, stateful_step_count=30, deadline=None,
    )
    return machine.TestCase


TestRowStoreFp32 = _test_case(RowStoreMachine)
TestRowStoreInt8 = _test_case(Int8RowStoreMachine)
TestRowStoreInt8Dequantized = _test_case(DequantizedRowStoreMachine)


# ----------------------------------------------------------------------
# Structural guard: no per-row cache call in a steady-state decode step
# ----------------------------------------------------------------------
PRUNING = PruningConfig(
    token_keep_final=0.4, head_keep_final=0.5, value_keep=0.9
)
PER_ROW_CALLS = (
    "keep", "append_decode_col", "append_decode_col_quantized",
    "compute_columns",
)


# The SpAtten cells keep the ids they have always had.
@pytest.mark.parametrize("family,tier", [
    pytest.param(
        family, tier, id=tier if family == "spatten" else f"{family}-{tier}"
    )
    for family in ("spatten", "dense")
    for tier in ("fp32", "int8")
])
def test_steady_state_decode_never_calls_the_per_row_cache_api(
    family, tier, monkeypatch
):
    """With membership unchanged, a decode step over dense or pruned
    rows evicts, appends and reads through the row stores alone — while
    the caches stay the truth for lengths and eviction counts."""
    config = ModelConfig(
        "store-guard", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=33))
    rng = np.random.default_rng(3)
    lengths = [48, 41, 36, 30, 27, 20, 14, 9, 33]
    executors = []
    for length in lengths:
        executor = (
            SpAttenExecutor(PRUNING, numerics=tier) if family == "spatten"
            else DenseExecutor(numerics=tier)
        )
        model.prefill(
            rng.integers(0, config.vocab_size, size=length).tolist(),
            executor,
        )
        executors.append(executor)
    style = "pruned" if family == "spatten" else "dense"
    assert {e.packed_decode_style for e in executors} == {style}
    backend = PackedDecodeBackend(model, numerics=tier)
    tokens, positions = [1] * len(lengths), list(lengths)

    def step():
        nonlocal tokens, positions
        logits = model.decode_step_batch(
            tokens, positions, executors, backend=backend
        )
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [p + 1 for p in positions]

    step()  # the arrivals' step: every row is adopted here
    calls = dict.fromkeys(PER_ROW_CALLS, 0)
    for name in PER_ROW_CALLS:
        original = getattr(LayerKVCache, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(LayerKVCache, name, counted)
    evicted = sum(e.evicted_kv_tokens for e in executors)
    for _ in range(12):
        step()
    assert calls == dict.fromkeys(PER_ROW_CALLS, 0)
    if family == "spatten":
        assert sum(e.evicted_kv_tokens for e in executors) > evicted
    stores = backend._stores[style]
    # Dense int8 rows, the long ones, keep their columns dequantized.
    assert len(stores[0].planes) == {
        ("dense", "int8"): 6, ("spatten", "int8"): 4,
    }.get((family, tier), 2)
    for executor, position in zip(executors, positions):
        if family == "dense":
            assert set(executor.kv_lengths()) == {position}
        assert executor.kv_lengths()[0] <= position
        assert all(
            executor.decode_kv_cache(layer)._store is stores[layer]
            for layer in range(config.n_layers)
        )


# ----------------------------------------------------------------------
# Structural guard: no per-sequence cascade in a pruned prompt step
# ----------------------------------------------------------------------
PER_SEQUENCE_CALLS = (
    ("repro.core.token_pruning", "prune_tokens"),
    ("repro.core.topk", "topk_indices"),
    ("repro.core.value_pruning", "local_value_keep_indices"),
    ("repro.core.value_pruning", "apply_local_value_pruning"),
    ("repro.core.quantization", "quantize_rows"),
    ("repro.core.importance", "TokenImportanceAccumulator.accumulate"),
    ("repro.core.importance", "HeadImportanceAccumulator.accumulate"),
    ("repro.nn.kv_cache", "LayerKVCache.append"),
)


def _count_calls(monkeypatch, calls, module_name, qualname):
    """Count calls of ``module.qualname`` wherever ``repro`` bound it: a
    method on its class, a function in every module that imported it."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    original = getattr(getattr(module, owner_name, module), attr)

    def counted(*args, **kwargs):
        calls[qualname] += 1
        return original(*args, **kwargs)

    if owner_name:
        monkeypatch.setattr(getattr(module, owner_name), attr, counted)
        return
    for name, bound_in in list(sys.modules.items()):
        if name.startswith("repro.") and vars(bound_in).get(attr) is original:
            monkeypatch.setattr(bound_in, attr, counted)


@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_pruned_prompt_step_never_calls_the_per_sequence_cascade(
    tier, monkeypatch
):
    """A policy-tier prompt pass over pruned sequences decides, attends,
    quantizes and stores batch by batch: no per-sequence pruning, value
    selection, importance, quantizer or cache-append call — and every
    layer cache ends the pass a handle on that layer's store."""
    config = ModelConfig(
        "store-guard", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=33))
    rng = np.random.default_rng(3)
    backend = PackedDecodeBackend(model, numerics=tier)
    # 65 leaves a trailing one-row chunk (absorbed), 40 ends mid-chunk.
    states = [
        model.prefill_begin(
            rng.integers(0, config.vocab_size, size=length).tolist(),
            SpAttenExecutor(PRUNING, numerics=tier),
        )
        for length in (96, 65, 40, 1)
    ]
    executors = [state.executor for state in states]
    assert {e.packed_decode_style for e in executors} == {"pruned"}
    calls = {qualname: 0 for _, qualname in PER_SEQUENCE_CALLS}
    for module_name, qualname in PER_SEQUENCE_CALLS:
        _count_calls(monkeypatch, calls, module_name, qualname)
    while not all(state.done for state in states):
        model.prefill_chunk_batch(
            [state for state in states if not state.done], 32,
            backend=backend,
        )
    assert calls == dict.fromkeys(calls, 0)
    stores = backend._stores["pruned"]
    assert len(stores[0].owners) == len(executors)
    for executor, state in zip(executors, states):
        assert state.logits is not None
        assert executor.kv_lengths() == list(executor._plan.token_counts)
        assert executor.kv_lengths()[-1] <= state.prompt_len
        assert all(
            executor.decode_kv_cache(layer)._store is stores[layer]
            for layer in range(config.n_layers)
        )
    assert executors[0].kv_lengths()[-1] < states[0].prompt_len

"""The batch-resident K/V row stores against the caches they replace.

Off the exact tier the packed backend keeps the ``"dense"`` and the
``"pruned"`` decode rows in one :class:`repro.nn.kv_cache.RowTable` per
style: one :class:`~repro.nn.kv_cache.KVRowStore` per layer and, for
pruned rows, the resident cascade control
(:class:`~repro.core.batched_cascade.CascadeBatch`), row ``j`` of every
member holding one sequence.  Every resident
:class:`~repro.nn.kv_cache.LayerKVCache` is a handle on its row, and so
is its executor.  The state machine drives two such tables (two
backends, to move sequences between them) over two layers with
everything a step's store blocks and the reconcile do to them — block
writes of one column a row or ragged counts, at each row's cursor,
block evictions, barriers, releases — beside a shadow list of plain
private-buffer caches, layer for layer, that take the same appends and
evictions through the per-sequence API; after every rule each handle
reports what its shadow holds — and a store that keeps its columns
dequantized holds what the shadow dequantizes.  Its decode steps run
the resident control against a twin of every sequence's executor that
takes today's per-step route instead (control state opened from the
executors, stepped, and stored back at the end of the step), and after
every rule the resident planes — or, past a barrier, the executors —
hold what the twins hold; at every row, every member names the same
sequence.  The structural guards below it pin what the stores are for:
a steady-state decode step over dense or pruned rows never calls the
per-sequence cache mutators nor loads or stores per-sequence control,
and a prompt step over pruned sequences never calls the per-sequence
cascade, quantizer or cache append — its sequences are store rows from
their first column.
"""

import copy
import importlib
import pickle
import sys
from types import SimpleNamespace

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
from repro.core.batched_cascade import CascadeBatch
from repro.core.pipeline import SpAttenExecutor
from repro.core.quantization import quantize_rows
from repro.nn import TransformerModel, random_model
from repro.nn.batched_attention import PackedDecodeBackend
from repro.nn.kv_cache import NO_TOKEN, KVRowStore, LayerKVCache, RowTable
from repro.nn.transformer import DenseExecutor

N_LAYERS, N_HEADS, HEAD_DIM, PAGE = 2, 2, 4, 4
#: Positions a sequence can reach; the alive plane is one column wider
#: (the always-dead sink that ``NO_TOKEN`` reads).
MAX_LEN = 40
#: The executors' model: only its shape matters to the stores and the
#: control planes.
CONTROL_CONFIG = ModelConfig(
    "control-machine", n_layers=N_LAYERS, n_heads=N_HEADS,
    d_model=N_HEADS * HEAD_DIM, d_ff=16, vocab_size=16,
    max_seq_len=MAX_LEN, causal=True,
)
CONTROL_PRUNING = PruningConfig(
    token_keep_final=0.4, head_keep_final=0.5, value_keep=0.75,
)


def _summarized_executor(rng, tier, length):
    """An executor as a prompt pass of ``length`` tokens leaves it, with
    drawn few-valued scores (so ranks tie) and live sets, and empty
    caches."""
    executor = SpAttenExecutor(
        CONTROL_PRUNING, kv_page_tokens=PAGE, numerics=tier
    )
    executor.begin_sequence(SimpleNamespace(config=CONTROL_CONFIG))
    executor._init_schedules(length)
    executor.token_acc.live_scores(length)[:] = rng.integers(0, 4, length)
    executor.head_acc.live_scores()[:] = rng.integers(0, 3, N_HEADS)
    alive = rng.random(length) < 0.7
    alive[rng.integers(length)] = True
    executor._alive_mask[:length] = alive
    executor._n_alive = int(alive.sum())
    executor._alive_heads = np.sort(rng.choice(
        N_HEADS, size=int(rng.integers(1, N_HEADS + 1)), replace=False
    ))
    return executor


def seated(piece):
    """Whether a cache or an executor is a handle on a table's row (a
    vacated seat has no table)."""
    return piece._seat is not None and piece._seat.table is not None


def control_table(members, n_layers):
    """A row table as a backend builds one: ``members`` are the layers'
    stores (the first ``n_layers``) and a batch control."""
    return RowTable(
        members,
        lambda executor: [
            executor.decode_kv_cache(layer) for layer in range(n_layers)
        ] + [executor],
        lambda executor: executor.decode_kv_cache(0),
    )


class Sequence:
    """One sequence: its executor — whose caches and control state a
    table holds while it is resident — a private-buffer twin of each
    layer's cache, and a twin of the executor's control state."""

    def __init__(self, tier, rng, n_prompt):
        self.executor = _summarized_executor(rng, tier, max(n_prompt, 1))
        self.twin = copy.deepcopy(self.executor)
        self.caches = self.executor._cache.layers
        self.shadows = [
            LayerKVCache(N_HEADS, HEAD_DIM, cache.bytes_per_element,
                         page_tokens=PAGE, dtype=cache.dtype)
            for cache in self.caches
        ]
        #: The table the sequence decodes in (``None``: none).
        self.table = None
        self.next_position = 0
        for _ in range(n_prompt):
            self.append_private(rng)

    def column(self, rng):
        k = rng.normal(size=(N_HEADS, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(N_HEADS, HEAD_DIM)).astype(np.float32)
        return k, v

    def append_private(self, rng, layers=range(N_LAYERS)):
        """One column through the per-sequence API, in ``layers``."""
        position, self.next_position = self.next_position, self.next_position + 1
        for layer in layers:
            k, v = self.column(rng)
            for cache in (self.caches[layer], self.shadows[layer]):
                cache.append(k[:, None], v[:, None], [position])


def store_planes(tier, k, v, dequantized):
    """``[n, h, D]`` K/V columns as a store takes them, plane for plane
    — as the backend stages them on int8: codes and scales, and the
    dequantized columns after them for a store that keeps them."""
    if tier != "int8":
        return k, v
    k_codes, k_scales = quantize_rows(k, bits=8)
    v_codes, v_scales = quantize_rows(v, bits=8)
    planes = (k_codes, v_codes, k_scales[..., 0], v_scales[..., 0])
    if dequantized:
        planes += (k_codes * k_scales, v_codes * v_scales)
    return planes


class RowStoreMachine(RuleBasedStateMachine):
    """Random walks over two row tables — two layers' stores and the
    control each — and the shadow caches."""

    tier = "fp32"
    #: Whether the stores keep the int8 columns dequantized as well.
    dequantized = False

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)
        self.sequences = []
        #: Every sequence of the walk, dropped ones too: a table may
        #: hold a row of one until its next reconcile.
        self.everyone = []
        dtype = np.int8 if self.tier == "int8" else np.float32
        like = LayerKVCache(N_HEADS, HEAD_DIM, page_tokens=PAGE, dtype=dtype)
        self.tables = [
            control_table(
                [KVRowStore(like, self.dequantized) for _ in range(N_LAYERS)]
                + [CascadeBatch(CONTROL_CONFIG)],
                N_LAYERS,
            )
            for _ in range(2)
        ]

    @property
    def table(self):
        return self.tables[0]

    @property
    def stores(self):
        return self.table.members[:N_LAYERS]

    def sequence_of(self, executor):
        return next(seq for seq in self.everyone if seq.executor is executor)

    def sweep(self, which=0):
        """A step's reconcile: table ``which`` holds exactly the
        sequences decoding in it — rows whose sequence left or whose
        caches went home are released (and re-adopted, the latter), and
        a row whose executor alone went home takes it back in place.
        Returns the sequences in row order."""
        table = self.tables[which]
        seqs = [seq for seq in self.sequences if seq.table == which]
        order = table.hold([seq.executor for seq in seqs])
        return [seqs[k] for k in order]

    def draw_block(self, data, residents):
        start = data.draw(st.integers(0, len(residents) - 1))
        stop = data.draw(st.integers(start + 1, len(residents)))
        return start, stop

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
        """A step's arrivals: prefilled sequences move into new rows of
        every member, in one call."""
        if len(self.sequences) >= 6:
            return
        arrivals = [Sequence(self.tier, self.rng, n) for n in n_prompts]
        self.sequences += arrivals
        self.everyone += arrivals
        self.tables[which].adopt([seq.executor for seq in arrivals])
        for seq in arrivals:
            seq.table = which
            for cache in seq.caches:
                assert "_keys" not in vars(cache), "private buffers kept"
            assert "token_acc" not in vars(seq.executor), "control kept"

    @precondition(lambda self: self.table.seats)
    @rule(data=st.data(), decode=st.booleans())
    def write_block(self, data, decode):
        """A block of consecutive rows takes its new columns at each
        row's cursor in one call per layer's store — a decode step's one
        a row, or a ragged count >= 1 a row: a prompt pass onto rows
        adopted empty, or more columns onto rows that hold some.  The
        shadows take the per-sequence ``append`` /
        ``append_decode_col*``."""
        residents = self.sweep()
        if not residents:
            return
        start, stop = self.draw_block(data, residents)
        block = residents[start:stop]
        counts = [1] * len(block) if decode else data.draw(st.lists(
            st.integers(1, 2 * PAGE + 1),
            min_size=len(block), max_size=len(block),
        ))
        if any(seq.next_position + count > MAX_LEN
               for seq, count in zip(block, counts)):
            return
        positions = []
        for seq, count in zip(block, counts):
            positions += range(seq.next_position, seq.next_position + count)
            seq.next_position += count
        positions = np.array(positions)
        for layer, store in enumerate(self.stores):
            flat = [seq.column(self.rng) for seq, count in zip(block, counts)
                    for _ in range(count)]
            k = np.stack([c[0] for c in flat])
            v = np.stack([c[1] for c in flat])
            planes = store_planes(self.tier, k, v, self.dequantized)
            width = store.write_block(
                slice(start, stop), np.array(counts), positions, *planes
            )
            assert width == int(store.cursor[start:stop].max())
            first = 0
            for seq, count in zip(block, counts):
                cols = slice(first, first + count)
                first = cols.stop
                shadow = seq.shadows[layer]
                if count > 1:
                    shadow.append(
                        k[cols].transpose(1, 0, 2), v[cols].transpose(1, 0, 2),
                        positions[cols],
                    )
                elif self.tier == "int8":
                    k_codes, v_codes, k_scales, v_scales = (
                        plane[cols.start] for plane in planes[:4]
                    )
                    shadow.append_decode_col_quantized(
                        k_codes, k_scales, v_codes, v_scales,
                        positions[cols.start],
                    )
                else:
                    shadow.append_decode_col(
                        k[cols.start], v[cols.start], positions[cols.start]
                    )

    @precondition(lambda self: self.table.seats)
    @rule(data=st.data(), keep=st.floats(0.3, 1.0),
          layer=st.integers(0, N_LAYERS - 1))
    def mask_evict(self, data, keep, layer):
        """Cascade eviction over a block of consecutive rows of one
        layer: the store takes one alive-by-position plane, the shadows
        the per-sequence ``keep``."""
        residents = self.sweep()
        if not residents:
            return
        start, stop = self.draw_block(data, residents)
        alive = self.rng.random((stop - start, MAX_LEN + 1)) < keep
        alive[:, -1] = False  # the sink NO_TOKEN reads
        offsets = alive.shape[1] * np.arange(stop - start)[:, None]
        self.stores[layer].evict(slice(start, stop), alive, offsets)
        for j, seq in enumerate(residents[start:stop]):
            shadow = seq.shadows[layer]
            shadow.keep(np.flatnonzero(alive[j, shadow.token_ids]))

    @precondition(lambda self: self.table.seats)
    @rule(data=st.data(), layer=st.integers(0, N_LAYERS - 1))
    def compact(self, data, layer):
        """Compaction at any time changes nothing a handle reports."""
        row = data.draw(st.integers(0, len(self.table.seats) - 1))
        self.stores[layer].compact(row)

    @precondition(lambda self: any(seq.table == 0 for seq in self.sequences))
    @rule(data=st.data(),
          barrier=st.sampled_from(["none", "kv", "control"]))
    def release(self, data, barrier):
        """A departure by sequence, whatever a barrier sent home just
        before: its row leaves every member, the last row moving into
        it, and none of its pieces stays a handle — nor keeps columns
        the row still held."""
        seq = data.draw(st.sampled_from(
            [seq for seq in self.sequences if seq.table == 0]
        ))
        seat = seq.caches[0]._seat
        if barrier == "kv":
            seq.caches[data.draw(st.integers(0, N_LAYERS - 1))].token_ids
        elif barrier == "control":
            seq.executor._alive_heads
        at_home = seq.caches[0]._store is None
        self.table.release(seq.executor)
        assert seat.table is None and seat not in self.table.seats
        assert seq.executor._control is None and not seated(seq.executor)
        for cache in seq.caches:
            assert cache._store is None and not seated(cache)
        for cache, shadow in zip(seq.caches, seq.shadows):
            # Columns a barrier brought home stay there.
            assert len(cache) == (len(shadow) if at_home else 0)
            assert cache.evicted_tokens == shadow.evicted_tokens
        self.assert_control_equal(seq.executor, seq.twin)
        self.sequences.remove(seq)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), layer=st.integers(0, N_LAYERS - 1))
    def read_barrier(self, data, layer):
        """A column-exposing accessor of one layer's cache brings the
        sequence home from its row: every layer's columns and the
        control state."""
        seq = data.draw(st.sampled_from(self.sequences))
        accessor = data.draw(st.sampled_from(
            ["keys", "token_ids", "compute_columns", "padded_to", "reserve"]
        ))
        cache = seq.caches[layer]
        length = len(cache)
        if accessor == "compute_columns":
            cache.compute_columns()
        elif accessor == "padded_to":
            cache.padded_to(length + 3)
        elif accessor == "reserve":
            cache.reserve(length + 1)
        else:
            getattr(cache, accessor)
        assert all(cache._store is None for cache in seq.caches)
        assert seq.executor._control is None

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def control_barrier(self, data):
        """A reader of an executor's control state — an attribute, its
        trace — writes its row back first, and the K/V rows stay; a
        deep copy or a pickle is a detached snapshot and no barrier."""
        seq = data.draw(st.sampled_from(self.sequences))
        reader = data.draw(st.sampled_from(
            ["_alive_heads", "trace.steps", "deepcopy", "pickle"]
        ))
        control = seq.executor._control
        stores = [cache._store for cache in seq.caches]
        if reader == "deepcopy":
            clone = copy.deepcopy(seq.executor)
        elif reader == "pickle":
            clone = pickle.loads(pickle.dumps(seq.executor))
        else:
            for name in reader.split("."):
                getattr(seq.executor if name != "steps" else
                        seq.executor.trace, name)
            clone = seq.executor
            control = None
        assert seq.executor._control is control
        assert [cache._store for cache in seq.caches] == stores
        assert clone._control is None
        self.assert_control_equal(clone, seq.twin)
        if clone is not seq.executor:
            assert clone._seat is None
            for cache, shadow in zip(clone._cache.layers, seq.shadows):
                assert cache._store is None and cache._seat is None
                self.assert_equal(cache, shadow)

    @precondition(lambda self: self.table.seats)
    @rule(data=st.data())
    def decode_control(self, data):
        """A decode step of the resident control over all its rows —
        admission, then each layer's pruning, value selection and
        importance accumulation on drawn masses — and the same step on
        the twins through today's route: their control state opened into
        a batch of their own and stored back at the end."""
        residents = self.sweep()
        control = self.table.members[-1]
        n = len(residents)
        if not residents or control.total[:n].max() >= MAX_LEN:
            return
        positions = control.total[:n].copy()
        step = control.open_decode(positions)
        twins = [seq.twin for seq in residents]
        per_step = CascadeBatch(CONTROL_CONFIG)
        twin_table = RowTable([per_step], lambda e: [e], lambda e: e)
        twin_table.adopt(twins)
        twin_step = per_step.open_decode(positions)
        for layer_idx in range(CONTROL_CONFIG.n_layers):
            step.prune(layer_idx)
            twin_step.prune(layer_idx)
            assert np.array_equal(step.alive, twin_step.alive)
            assert np.array_equal(step.head_alive, twin_step.head_alive)
            lengths = step.n_alive.copy()
            width = int(lengths.max())
            labels = np.full((n, width), NO_TOKEN)
            for j in range(n):
                labels[j, : lengths[j]] = np.flatnonzero(step.alive[j])
            real = np.arange(width) < lengths[:, None]
            probs = self.rng.integers(0, 4, (n, N_HEADS, width)) / 8.0
            probs *= real[:, None, :]
            head_out = self.rng.integers(-2, 3, (n, N_HEADS, 1, HEAD_DIM))
            head_out = head_out * step.head_alive[:, :, None, None]
            for target in (step, twin_step):
                target.value_mask(probs, lengths)
                target.accumulate_tokens(
                    probs * target.head_alive[:, :, None], labels
                )
                target.accumulate_heads(head_out, lengths)
        for twin in reversed(twins):
            twin_table.release(twin)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), layer=st.integers(0, N_LAYERS - 1))
    def private_append(self, data, layer):
        """The per-sequence API on a resident cache: the sequence leaves
        its row and the append lands in private buffers."""
        seq = data.draw(st.sampled_from(self.sequences))
        if seq.next_position < MAX_LEN:
            seq.append_private(self.rng, [layer])
            assert all(cache._store is None for cache in seq.caches)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), layer=st.integers(0, N_LAYERS - 1))
    def deepcopy(self, data, layer):
        """A deep copy owns its columns and no row, and leaves the
        original where it is."""
        seq = data.draw(st.sampled_from(self.sequences))
        cache = seq.caches[layer]
        store = cache._store
        clone = copy.deepcopy(cache)
        assert clone._store is None and clone._seat is None
        assert cache._store is store
        self.assert_equal(clone, seq.shadows[layer])

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), which=st.integers(0, 1))
    def adopt_elsewhere(self, data, which):
        """Adoption by a (second) table: copied out of the first, never
        aliased; a sequence at home is simply adopted."""
        seq = data.draw(st.sampled_from(self.sequences))
        target = self.tables[which]
        self.sweep(which)
        seat = seq.caches[0]._seat
        if seat is not None and seat.table is target:
            return
        target.adopt([seq.executor])
        seq.table = which
        for cache, store in zip(seq.caches, target.members):
            assert cache._store is store
        assert seq.executor._control is target.members[-1]

    # ------------------------------------------------------------------
    def columns_of(self, cache):
        """The live columns of ``cache`` read without a barrier:
        straight off its row when it has one."""
        store = cache._store
        if store is None:
            planes = [p[:, : cache._len] for p in cache._planes()]
            return planes, cache._token_ids[: cache._len]
        row = cache._seat.row
        cursor = store.cursor[row]
        labels = store.labels[row, :cursor]
        live = labels != NO_TOKEN
        planes = [p[row, :, :cursor][:, live] for p in store.planes]
        return planes, labels[live]

    @staticmethod
    def assert_control_equal(executor, twin):
        """An executor holding its own control state holds its twin's."""
        total = twin._total_length
        assert executor._total_length == total
        assert executor._n_alive == twin._n_alive
        assert np.array_equal(executor._alive_mask, twin._alive_mask)
        assert np.array_equal(executor._alive_heads, twin._alive_heads)
        assert np.array_equal(
            executor.token_acc.live_scores(total),
            twin.token_acc.live_scores(total),
        )
        assert np.array_equal(
            executor.head_acc.raw_scores, twin.head_acc.raw_scores
        )
        assert executor.trace.n_generated == twin.trace.n_generated
        assert (executor.trace.count_signature()
                == twin.trace.count_signature())

    @invariant()
    def resident_control_matches_the_twins(self):
        """A resident row's planes hold what its twin holds after
        today's per-step open and store-back; an executor past a barrier
        holds it itself."""
        for seq in self.sequences:
            executor, twin = seq.executor, seq.twin
            control = executor._control
            if control is None:
                self.assert_control_equal(executor, twin)
                continue
            row, total = executor._seat.row, twin._total_length
            assert control.total[row] == total
            assert control.n_alive[row] == twin._n_alive
            assert np.array_equal(
                control.alive[row, :-1], twin._alive_mask
            )
            assert not control.alive[row, -1], "the sink is alive"
            assert np.array_equal(
                np.flatnonzero(control.head_alive[row]), twin._alive_heads
            )
            assert control.n_heads_alive[row] == len(twin._alive_heads)
            assert executor.n_live_heads == len(twin._alive_heads)
            assert np.array_equal(
                control.scores[row, :total], twin.token_acc.live_scores(total)
            )
            assert not control.scores[row, total:].any()
            assert np.array_equal(
                control.head_scores[row], twin.head_acc.raw_scores
            )

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
            for cache, shadow in zip(seq.caches, seq.shadows):
                assert len(cache) == len(shadow)
                assert cache.evicted_tokens == shadow.evicted_tokens
                assert cache.nbytes == shadow.nbytes
                planes, token_ids = self.columns_of(cache)
                assert np.array_equal(token_ids, shadow.token_ids)
                for got, want in zip(planes, shadow._planes()):
                    assert np.array_equal(got, want[:, : len(shadow)])
                if self.dequantized and cache._store is not None:
                    assert len(planes) == 6
                    assert np.array_equal(planes[4], shadow.keys)
                    assert np.array_equal(planes[5], shadow.values)

    @invariant()
    def every_member_names_the_row_s_sequence(self):
        """Row ``j`` of every layer's store and of the control holds the
        sequence of seat ``j``, whose caches and executor — the pieces
        that did not go home — are handles on that row and no other."""
        seen = set()
        for table in self.tables:
            n = len(table.seats)
            *stores, control = table.members
            assert n <= len(control.total)
            for row, seat in enumerate(table.seats):
                assert seat.row == row and seat.table is table
                seq = self.sequence_of(seat.parts[-1])
                assert seat.parts == seq.caches + [seq.executor]
                for m, (member, part) in enumerate(
                    zip(table.members, seat.parts)
                ):
                    holder = (
                        part._control if member is control else part._store
                    )
                    if m in seat.home:
                        assert holder is not member
                        continue
                    assert holder is member and part._seat is seat
                    assert id(part) not in seen, "two rows alias one piece"
                    seen.add(id(part))
                for store in stores:
                    cursor, live = store.cursor[row], store.live[row]
                    labels = store.labels[row]
                    assert np.count_nonzero(
                        labels[:cursor] != NO_TOKEN
                    ) == live
                    assert (labels[cursor:] == NO_TOKEN).all()
            for store in stores:
                assert n <= store.labels.shape[0]
                assert (store.labels[n:] == NO_TOKEN).all(), (
                    "vacated row in use"
                )
        for seq in self.sequences:
            for part in seq.caches:
                if part._store is not None:
                    assert id(part) in seen
            if seq.executor._control is not None:
                assert id(seq.executor) in seen

    @invariant()
    def no_row_holds_a_page_of_holes(self):
        for table in self.tables:
            n = len(table.seats)
            for store in table.members[:-1]:
                assert ((store.cursor[:n] - store.live[:n]) < PAGE).all()

    def teardown(self):
        """Whatever the walk left resident comes back through the
        public accessors equal to its shadow."""
        for seq in self.sequences:
            for cache, shadow in zip(seq.caches, seq.shadows):
                self.assert_equal(cache, shadow)
            self.assert_control_equal(seq.executor, seq.twin)


class Int8RowStoreMachine(RowStoreMachine):
    tier = "int8"


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


def test_release_by_sequence_clears_a_partly_orphaned_row():
    """A barrier that sent a sequence's layer-0 cache home leaves its
    row taken in every member until something answers it; a release by
    sequence vacates it all the same, so no store keeps a retired
    sequence's columns and its executor no control row."""
    config = ModelConfig(
        "store-guard", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=33))
    backend = PackedDecodeBackend(model, numerics="fp32")
    rng = np.random.default_rng(4)
    states = [
        model.prefill_begin(
            rng.integers(0, config.vocab_size, size=n).tolist(),
            SpAttenExecutor(PRUNING, numerics="fp32"),
        )
        for n in (30, 22, 17)
    ]
    model.prefill_chunk_batch(states, config.max_seq_len, backend=backend)
    executor = states[1].executor
    executor.decode_kv_cache(0).keys  # the layer-0 cache goes home
    backend.release(executor)
    table = backend._tables["pruned"]
    assert len(table.seats) == 2
    assert all(executor is not seat.parts[-1] for seat in table.seats)
    for layer in range(config.n_layers):
        cache = executor.decode_kv_cache(layer)
        assert cache._store is None and not seated(cache)
    assert executor._control is None and not seated(executor)


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
    stores = backend._tables[style].members
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


CONTROL_CALLS = (
    ("repro.core.importance", "TokenImportanceAccumulator.live_scores"),
    ("repro.core.importance", "HeadImportanceAccumulator.live_scores"),
    ("repro.core.trace", "AttentionTrace.add_batched"),
)


@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_steady_state_decode_never_loads_or_commits_per_sequence_control(
    tier, monkeypatch
):
    """With membership unchanged, a decode step over pruned rows opens
    on their resident control planes and stores nothing back: no
    accumulator is read or written and no trace takes a row — until a
    barrier, where each trace takes every step it missed."""
    config = ModelConfig(
        "store-guard", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=33))
    rng = np.random.default_rng(5)
    lengths = [44, 37, 30, 21, 12, 26]
    executors = []
    for length in lengths:
        executor = SpAttenExecutor(PRUNING, numerics=tier)
        model.prefill(
            rng.integers(0, config.vocab_size, size=length).tolist(),
            executor,
        )
        executors.append(executor)
    backend = PackedDecodeBackend(model, numerics=tier)
    tokens, positions = [1] * len(lengths), list(lengths)
    n_steps = 12

    def step():
        nonlocal tokens, positions
        logits = model.decode_step_batch(
            tokens, positions, executors, backend=backend
        )
        tokens = [int(np.argmax(row)) for row in logits]
        positions = [p + 1 for p in positions]

    step()  # the arrivals' step: every row is adopted here
    calls = {qualname: 0 for _, qualname in CONTROL_CALLS}
    for module_name, qualname in CONTROL_CALLS:
        _count_calls(monkeypatch, calls, module_name, qualname)
    heads = [executor.n_live_heads for executor in executors]
    for _ in range(n_steps):
        step()
    assert calls == dict.fromkeys(calls, 0)
    assert [executor.n_live_heads for executor in executors] == heads
    assert min(heads) < config.n_heads
    for executor in executors:
        assert executor._control is backend._tables["pruned"].members[-1]
        # A read of a control attribute is the barrier.
        assert executor.trace.n_generated == n_steps + 1
        assert executor._control is None
        assert len(executor.trace.decode_steps) == (
            (n_steps + 1) * config.n_layers
        )
    assert calls["AttentionTrace.add_batched"] == (
        (n_steps + 1) * len(executors)
    )


def _read(executor, reader):
    """One barrier on ``executor``'s control state: what it returns is
    an executor holding that state."""
    if reader == "deepcopy":
        return copy.deepcopy(executor)
    if reader == "pickle":
        return pickle.loads(pickle.dumps(executor))
    if reader == "trace.steps":
        executor.trace.steps
    else:
        getattr(executor, reader)
    return executor


@pytest.mark.parametrize("reader", [
    "deepcopy", "pickle", "trace.steps", "_alive_heads",
])
@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_barriers_mid_run_leave_the_streams_unchanged(tier, reader):
    """Reading a resident executor's control state mid-run writes it
    back and the next step re-adopts the row in place; a deep copy or a
    pickle takes a detached snapshot and leaves the row resident: either
    way the run's logits, KV lengths and traces are a clean run's."""
    config = ModelConfig(
        "store-guard", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=33))
    prompts = [
        np.random.default_rng(7 + i).integers(0, 96, size=n).tolist()
        for i, n in enumerate((40, 29, 52, 17, 33))
    ]

    def run(read_at):
        backend = PackedDecodeBackend(model, numerics=tier)
        states = [
            model.prefill_begin(
                prompt, SpAttenExecutor(PRUNING, numerics=tier)
            )
            for prompt in prompts
        ]
        model.prefill_chunk_batch(states, config.max_seq_len, backend=backend)
        executors = [state.executor for state in states]
        tokens = [int(np.argmax(state.logits)) for state in states]
        positions = [len(prompt) for prompt in prompts]
        stream, copies = [], []
        for step in range(14):
            if step in read_at:
                executor = executors[step % len(executors)]
                assert executor._control is backend._tables["pruned"].members[-1]
                copies.append(_read(executor, reader))
                # A copy is no barrier: the original stays resident.
                assert (executor._control is None) != copied
            logits = model.decode_step_batch(
                tokens, positions, executors, backend=backend
            )
            if step in read_at:  # the next step re-adopted the row
                assert executor._control is backend._tables["pruned"].members[-1]
            stream.append((logits, [e.kv_lengths() for e in executors]))
            tokens = [int(np.argmax(row)) for row in logits]
            positions = [p + 1 for p in positions]
        traces = [e.trace.count_signature() for e in executors]
        return stream, traces, copies

    copied = reader in ("deepcopy", "pickle")
    clean, clean_traces, _ = run(())
    read, read_traces, copies = run((3, 9))
    for (want, want_kv), (got, got_kv) in zip(clean, read):
        assert got_kv == want_kv
        assert np.array_equal(got, want)
    assert read_traces == clean_traces
    if copied:
        # A copy holds the state of the step it was taken at.
        for step, clone in zip((3, 9), copies):
            signature = clean_traces[step % len(prompts)]
            n_layers = config.n_layers * (1 + step)  # the prompt, steps
            assert clone.trace.count_signature() == signature[:n_layers]
            assert clone.trace.n_generated == step
            assert clone._control is None
            # ... and shares what the executor shares, as any copy does.
            assert clone.trace.pruning is clone.pruning
            assert clone.trace.model is clone._model_config


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
    ("repro.nn.transformer", "DenseExecutor.decode_attend_packed"),
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


@pytest.mark.parametrize("family,tier", [
    pytest.param("spatten", tier, id=tier) for tier in ("fp32", "int8")
] + [
    pytest.param("dense", tier, id=f"dense-{tier}", marks=pytest.mark.smoke)
    for tier in ("fp32", "int8")
])
def test_pruned_prompt_step_never_calls_the_per_sequence_cascade(
    family, tier, monkeypatch
):
    """A policy-tier prompt pass decides, attends, quantizes and stores
    batch by batch: no per-sequence pruning, value selection,
    importance, quantizer, cache-append or dense-core call.  Every
    layer cache ends the pass a handle on that layer's store — a dense
    one after every chunk, being a store row from its first — and the
    next decode step adopts nothing that holds a column."""
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
            SpAttenExecutor(PRUNING, numerics=tier) if family == "spatten"
            else DenseExecutor(numerics=tier),
        )
        for length in (96, 65, 40, 1)
    ]
    executors = [state.executor for state in states]
    style = "pruned" if family == "spatten" else "dense"
    assert {e.packed_decode_style for e in executors} == {style}
    adopted = []
    fill_rows = KVRowStore.fill_rows

    def fill_spy(store, start, caches, n_rows):
        adopted.extend(cache._len for cache in caches)
        return fill_rows(store, start, caches, n_rows)

    monkeypatch.setattr(KVRowStore, "fill_rows", fill_spy)
    calls = {qualname: 0 for _, qualname in PER_SEQUENCE_CALLS}
    for module_name, qualname in PER_SEQUENCE_CALLS:
        _count_calls(monkeypatch, calls, module_name, qualname)

    def resident():
        stores = backend._tables[style].members
        return all(
            executor.decode_kv_cache(layer)._store is stores[layer]
            for executor in executors for layer in range(config.n_layers)
        )

    while not all(state.done for state in states):
        model.prefill_chunk_batch(
            [state for state in states if not state.done], 32,
            backend=backend,
        )
        assert calls == dict.fromkeys(calls, 0)
        assert family == "spatten" or resident()
    assert resident()
    assert len(backend._tables[style].seats) == len(executors)
    for executor, state in zip(executors, states):
        assert state.logits is not None
        if family == "dense":
            assert executor.kv_lengths() == [state.prompt_len] * 3
            continue
        assert executor.kv_lengths() == list(executor._plan.token_counts)
        assert executor.kv_lengths()[-1] <= state.prompt_len
    if family == "spatten":
        assert executors[0].kv_lengths()[-1] < states[0].prompt_len
    model.decode_step_batch(
        [int(np.argmax(state.logits)) for state in states],
        [state.prompt_len for state in states], executors, backend=backend,
    )
    assert adopted and not any(adopted)
    assert resident()


@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_decode_never_reads_a_dead_heads_columns(tier):
    """A decode step zeroes a dead head's probabilities before A·V and
    importance, so its store slices are never read with nonzero weight
    and a decode block writes them ungated: filling every dead head's
    slices with finite garbage before each step leaves the logits, KV
    lengths and traces of a clean run bit for bit."""
    config = ModelConfig(
        "dead-heads", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    model = TransformerModel(config, random_model(config, seed=41))
    prompts = [
        np.random.default_rng(3 + i).integers(0, 96, size=n).tolist()
        for i, n in enumerate((38, 21, 45, 30))
    ]

    def run(garbage):
        backend = PackedDecodeBackend(model, numerics=tier)
        states = [
            model.prefill_begin(
                prompt, SpAttenExecutor(PRUNING, numerics=tier)
            )
            for prompt in prompts
        ]
        model.prefill_chunk_batch(states, config.max_seq_len, backend=backend)
        executors = [state.executor for state in states]
        tokens = [int(np.argmax(state.logits)) for state in states]
        positions = [len(prompt) for prompt in prompts]
        table = backend._tables["pruned"]
        rng = np.random.default_rng(5)
        stream = []
        for _ in range(8):
            if garbage:
                dead = ~table.members[-1].head_alive[: len(table.seats)]
                assert dead.any()
                for store in table.members[:-1]:
                    for plane in store.planes:
                        rows = plane[: len(dead)]
                        rows[dead] = rng.integers(
                            1, 100, size=rows[dead].shape
                        ).astype(plane.dtype)
            logits = model.decode_step_batch(
                tokens, positions, executors, backend=backend
            )
            stream.append((logits, [e.kv_lengths() for e in executors]))
            tokens = [int(np.argmax(row)) for row in logits]
            positions = [p + 1 for p in positions]
        return stream, [e.trace.count_signature() for e in executors]

    clean, clean_traces = run(False)
    dirty, dirty_traces = run(True)
    for (want, want_kv), (got, got_kv) in zip(clean, dirty):
        assert got_kv == want_kv
        assert np.array_equal(got, want)
    assert dirty_traces == clean_traces

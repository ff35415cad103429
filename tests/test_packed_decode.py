"""Bit-identity property suite: packed vs looped decode and prefill.

The packed backend (:mod:`repro.nn.batched_attention`) batches the
serving decode hot path; its whole contract is that every batched
regrouping is *exactly* float-preserving.  These tests drive two clones
of the same batch — one through the looped oracle, one through the
packed backend — and assert bit-identical logits **and** bit-identical
executor state (KV buffers, alive sets, traces) across:

* dense and SpAtten executors (including progressive quantization),
* ragged sequence lengths within one batch,
* cascade-pruned head sets that differ per sequence,
* mid-generation ``keep()`` evictions from cascade token pruning,
* mixed executor types in one batch,
* chunked prefill through the backend's prompt pass, dense chunks and
  SpAtten sentences in one batch (single-token prompts included).

A mixed step — decode rows and prompt chunks in one layer stack — is
held to the two passes it replaces, run on deep copies: on the exact
tier bit for bit, and against the looped oracle too; off it within the
tier's budget (logits within rounding, equal cache lengths, cascade
masks and traces).

Fast representative cases are ``smoke``-marked for tier-1.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, PruningConfig, QuantConfig
from repro.core import pipeline
from repro.core.pipeline import SpAttenExecutor
from repro.nn import (
    PackedDecodeBackend,
    TransformerModel,
    UnpackableExecutorError,
    random_model,
)
from repro.nn.transformer import DenseExecutor
from repro.telemetry import HotPathProfiler


@pytest.fixture(scope="module")
def decoder():
    config = ModelConfig(
        "packed-decoder", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    return TransformerModel(config, random_model(config, seed=21))


@pytest.fixture(scope="module")
def backend(decoder):
    return PackedDecodeBackend(decoder)


PRUNING = PruningConfig(
    token_keep_final=0.4, head_keep_final=0.5, value_keep=0.9
)
QUANT = QuantConfig(msb_bits=6, lsb_bits=4, progressive=True, threshold=0.1)


class _OptOutExecutor(DenseExecutor):
    """Dense math but opted out of packed decode: the backend must
    refuse it by name instead of guessing an arithmetic for it."""

    @property
    def packed_decode_style(self) -> str:
        return "none"


def _make_batch(model, spec, seed):
    """Build prefilled executors from ``[(kind, prompt_len), ...]``."""
    rng = np.random.default_rng(seed)
    executors = []
    for kind, prompt_len in spec:
        if kind == "dense":
            executor = DenseExecutor()
        elif kind == "spatten":
            executor = SpAttenExecutor(PRUNING)
        elif kind == "quant":
            executor = SpAttenExecutor(PRUNING, QUANT)
        else:  # pragma: no cover - spec typo guard
            raise ValueError(kind)
        prompt = rng.integers(0, model.config.vocab_size, size=prompt_len)
        model.prefill(prompt.tolist(), executor)
        executors.append(executor)
    return executors


def _assert_same_state(looped, packed):
    for i, (le, pe) in enumerate(zip(looped, packed)):
        lc, pc = le._cache, pe._cache
        assert lc.lengths() == pc.lengths(), f"seq {i}: KV lengths diverged"
        for li in range(len(lc)):
            assert np.array_equal(lc[li].keys, pc[li].keys), (i, li)
            assert np.array_equal(lc[li].values, pc[li].values), (i, li)
            assert np.array_equal(lc[li].token_ids, pc[li].token_ids), (i, li)
        if isinstance(le, SpAttenExecutor):
            assert np.array_equal(le._alive_heads, pe._alive_heads), i
            assert np.array_equal(le._alive_tokens, pe._alive_tokens), i
            assert le.trace.n_generated == pe.trace.n_generated, i
            assert le.evicted_kv_tokens == pe.evicted_kv_tokens, i


def _run_twin_decode(model, backend, spec, n_steps, seed=3):
    looped = _make_batch(model, spec, seed)
    packed = _make_batch(model, spec, seed)
    tokens = [7] * len(spec)
    positions = [length for _, length in spec]
    for step in range(n_steps):
        looped_logits = model.decode_step_batch(tokens, positions, looped)
        packed_logits = model.decode_step_batch(
            tokens, positions, packed, backend=backend
        )
        assert np.array_equal(looped_logits, packed_logits), (
            f"step {step}: packed logits diverged from the looped oracle"
        )
        _assert_same_state(looped, packed)
        tokens = [int(np.argmax(row)) for row in looped_logits]
        positions = [p + 1 for p in positions]


@pytest.mark.smoke
def test_dense_ragged_batch_bit_identical(decoder, backend):
    """Dense batch with ragged lengths: the central packed core."""
    spec = [("dense", 5), ("dense", 23), ("dense", 11), ("dense", 2)]
    _run_twin_decode(decoder, backend, spec, n_steps=6)


@pytest.mark.smoke
def test_spatten_pruned_batch_bit_identical(decoder, backend):
    """SpAtten batch: pruned head sets + mid-generation evictions."""
    spec = [("spatten", 24), ("spatten", 40), ("spatten", 12)]
    _run_twin_decode(decoder, backend, spec, n_steps=6)


def test_mixed_executor_batch_bit_identical(decoder, backend):
    """Dense + SpAtten + quantized sharing one batch."""
    spec = [
        ("dense", 17), ("spatten", 30), ("quant", 12),
        ("dense", 44), ("spatten", 6),
    ]
    _run_twin_decode(decoder, backend, spec, n_steps=8)


def test_spatten_evictions_happen_and_match(decoder, backend):
    """The pruning schedule must actually evict during the run (so the
    in-place compaction path is exercised), and evictions must agree."""
    spec = [("spatten", 48), ("spatten", 36)]
    looped = _make_batch(decoder, spec, seed=5)
    packed = _make_batch(decoder, spec, seed=5)
    tokens, positions = [1, 2], [48, 36]
    for _ in range(10):
        ll = decoder.decode_step_batch(tokens, positions, looped)
        pl = decoder.decode_step_batch(tokens, positions, packed,
                                       backend=backend)
        assert np.array_equal(ll, pl)
        tokens = [int(np.argmax(row)) for row in ll]
        positions = [p + 1 for p in positions]
    assert looped[0].evicted_kv_tokens > 0, "schedule never evicted"
    _assert_same_state(looped, packed)


def test_spatten_control_runs_before_the_projection(decoder, monkeypatch):
    """Control, then core: in an exact packed decode step every SpAtten
    row — progressive quantization's too — runs its layer-``l`` control
    before layer ``l``'s fused QKV projection, as the accelerator's
    top-k engines sit ahead of its Q·K units."""
    spec = [("dense", 17), ("spatten", 30), ("quant", 12), ("spatten", 6)]
    executors = _make_batch(decoder, spec, seed=4)
    backend = PackedDecodeBackend(decoder)
    events = []
    decode_control = SpAttenExecutor.decode_control

    def control_spy(self, layer_idx, positions):
        events.append(("control", layer_idx, id(self)))
        return decode_control(self, layer_idx, positions)

    project = backend.project_chunk_rows
    wqkv = backend._weights.wqkv

    def project_spy(solo, x, w, b):
        layers = [l for l, weight in enumerate(wqkv) if weight is w]
        if layers:
            events.append(("qkv", layers[0], None))
        return project(solo, x, w, b)

    monkeypatch.setattr(SpAttenExecutor, "decode_control", control_spy)
    monkeypatch.setattr(backend, "project_chunk_rows", project_spy)
    n_layers = decoder.config.n_layers
    spatten = {id(e) for e in executors if isinstance(e, SpAttenExecutor)}
    tokens, positions = [5] * len(spec), [n for _, n in spec]
    for _ in range(3):
        events.clear()
        decoder.decode_step_batch(tokens, positions, executors, backend=backend)
        for layer_idx in range(n_layers):
            qkv = events.index(("qkv", layer_idx, None))
            controlled = {
                who for i, (kind, layer, who) in enumerate(events)
                if kind == "control" and layer == layer_idx and i < qkv
            }
            assert controlled == spatten, layer_idx
        assert len(events) == n_layers * (1 + len(spatten))
        positions = [p + 1 for p in positions]


@pytest.mark.parametrize("seed", [0, 1, 2, 15, 23])
def test_randomized_batches_bit_identical(decoder, backend, seed):
    """Property-style sweep: random composition, lengths, and horizon.

    Prompts run from one column to past 128, where NumPy's pairwise sum
    changes its blocking: the per-sequence cores reduce at exact
    lengths, and these are the lengths where padding would show.  Seed
    15 draws a one-token dense prompt, seed 23 a 137-token one.
    """
    rng = np.random.default_rng(100 + seed)
    kinds = ["dense", "spatten", "quant"]
    spec = [
        (kinds[int(rng.integers(0, len(kinds)))],
         int(rng.integers(1, 151)))
        for _ in range(int(rng.integers(2, 7)))
    ]
    _run_twin_decode(
        decoder, backend, spec, n_steps=int(rng.integers(3, 9)),
        seed=200 + seed,
    )


def test_min_tokens_one_schedule_empties_a_layer_and_matches(decoder, backend):
    """A ``min_tokens=1`` schedule can evict every old column of a layer
    before the new one is appended, so a layer's cache cannot tell a
    decode step from summarization: the step must still log ``"decode"``
    layers, and packed runs must match the looped ones bit for bit."""
    pruning = PruningConfig(
        token_keep_final=0.01, head_keep_final=0.5, min_tokens=1
    )
    spec = [("spatten", 20), ("quant", 14), ("spatten", 9)]

    def batch():
        rng = np.random.default_rng(8)
        executors = []
        for kind, n in spec:
            executor = SpAttenExecutor(
                pruning, QUANT if kind == "quant" else None
            )
            prompt = rng.integers(0, decoder.config.vocab_size, size=n)
            decoder.prefill(prompt.tolist(), executor)
            executors.append(executor)
        return executors

    looped, packed = batch(), batch()
    prompt_steps = [len(e.trace.steps) for e in looped]
    tokens, positions = [2] * len(spec), [n for _, n in spec]
    for _ in range(4):
        ll = decoder.decode_step_batch(tokens, positions, looped)
        pl = decoder.decode_step_batch(tokens, positions, packed,
                                       backend=backend)
        assert np.array_equal(ll, pl)
        _assert_same_state(looped, packed)
        tokens = [int(np.argmax(row)) for row in ll]
        positions = [p + 1 for p in positions]
    assert any(1 in e.kv_lengths() for e in looped), "no layer held 1 column"
    for le, pe, n in zip(looped, packed, prompt_steps):
        assert le.trace.steps == pe.trace.steps
        assert {step.stage for step in pe.trace.steps[n:]} == {"decode"}


def test_packed_decode_builds_no_attention_record(
    decoder, backend, monkeypatch
):
    """The packed exact core returns only the merged features, so it
    builds no :class:`AttentionRecord`; the looped ``run_layer`` still
    returns one per layer, and both paths log equal ``LayerStep`` rows."""
    spec = [("spatten", 30), ("quant", 12), ("dense", 9), ("spatten", 7)]
    looped = _make_batch(decoder, spec, seed=9)
    packed = _make_batch(decoder, spec, seed=9)
    built = []
    record_type = pipeline.AttentionRecord

    def counted(*args, **kwargs):
        built.append(record_type(*args, **kwargs))
        return built[-1]

    returned = []
    run_layer = SpAttenExecutor.run_layer

    def recording_run_layer(self, *args, **kwargs):
        execution = run_layer(self, *args, **kwargs)
        returned.append(execution.record)
        return execution

    monkeypatch.setattr(pipeline, "AttentionRecord", counted)
    monkeypatch.setattr(SpAttenExecutor, "run_layer", recording_run_layer)
    tokens, positions = [3] * len(spec), [n for _, n in spec]
    n_pruned = sum(isinstance(e, SpAttenExecutor) for e in looped)
    for step in range(5):
        packed_logits = decoder.decode_step_batch(
            tokens, positions, packed, backend=backend
        )
        assert not built, f"step {step}: the packed core built a record"
        looped_logits = decoder.decode_step_batch(tokens, positions, looped)
        assert np.array_equal(looped_logits, packed_logits)
        assert len(built) == n_pruned * decoder.config.n_layers
        assert len(returned) == len(built)
        assert all(r is b for r, b in zip(returned, built))
        built.clear()
        returned.clear()
        tokens = [int(np.argmax(row)) for row in looped_logits]
        positions = [p + 1 for p in positions]
    for le, pe in zip(looped, packed):
        if isinstance(le, SpAttenExecutor):
            assert le.trace.steps == pe.trace.steps


def test_single_sequence_batch_bit_identical(decoder, backend):
    _run_twin_decode(decoder, backend, [("dense", 9)], n_steps=4)
    _run_twin_decode(decoder, backend, [("spatten", 21)], n_steps=4)


_PROMPT_KINDS = {
    "": ("dense",) * 4,
    "mixed-": ("spatten", "dense", "dense", "spatten"),
    "swapped-": ("dense", "spatten", "spatten", "dense"),
    "quant-": ("quant", "dense", "spatten", "quant"),
}


@pytest.mark.smoke
@pytest.mark.parametrize("chunk, kinds", [
    pytest.param(chunk, kinds, id=f"{name}{chunk}")
    for name, kinds in _PROMPT_KINDS.items() for chunk in (2, 5, 32)
])
def test_chunked_prefill_packed_bit_identical(decoder, backend, chunk, kinds):
    """The backend's prompt pass commits bit-identical prefills, dense
    chunks and SpAtten sentences — progressive quantization's included —
    sharing its GEMMs."""
    rng = np.random.default_rng(31)
    prompt_lens = [1, 2, 9, 33]  # includes the single-row solo-GEMM edge
    prompts = [
        rng.integers(0, decoder.config.vocab_size, size=n).tolist()
        for n in prompt_lens
    ]

    def executor(kind):
        if kind == "dense":
            return DenseExecutor()
        return SpAttenExecutor(PRUNING, QUANT if kind == "quant" else None)

    looped = [decoder.prefill_begin(p, executor(k))
              for p, k in zip(prompts, kinds)]
    packed = [decoder.prefill_begin(p, executor(k))
              for p, k in zip(prompts, kinds)]
    while not all(s.done for s in looped):
        ll = decoder.prefill_chunk_batch(
            [s for s in looped if not s.done], chunk
        )
        pl = decoder.prefill_chunk_batch(
            [s for s in packed if not s.done], chunk, backend=backend
        )
        for a, b in zip(ll, pl):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
    _assert_same_state(
        [s.executor for s in looped], [s.executor for s in packed]
    )


@pytest.mark.parametrize("packed", [False, True], ids=["looped", "exact"])
def test_one_token_prompt_batched_matches_solo_prefill(
    decoder, backend, packed
):
    """A one-token prompt's single row must not ride the other chunks'
    multi-row FFN GEMM: its solo oracle takes the single-row kernel."""
    rng = np.random.default_rng(5)
    prompts = [
        rng.integers(0, decoder.config.vocab_size, size=n).tolist()
        for n in (1, 9)
    ]
    states = [decoder.prefill_begin(p, DenseExecutor()) for p in prompts]
    batched = decoder.prefill_chunk_batch(
        states, 64, backend=backend if packed else None
    )
    for prompt, logits in zip(prompts, batched):
        assert np.array_equal(logits, decoder.prefill(prompt, DenseExecutor()))


def test_prefill_then_packed_decode_roundtrip(decoder, backend):
    """Chunked-packed prefill feeding packed decode stays on the oracle."""
    rng = np.random.default_rng(77)
    prompts = [
        rng.integers(0, decoder.config.vocab_size, size=n).tolist()
        for n in (13, 28, 4)
    ]
    looped_states = [decoder.prefill_begin(p, DenseExecutor()) for p in prompts]
    packed_states = [decoder.prefill_begin(p, DenseExecutor()) for p in prompts]
    while not all(s.done for s in looped_states):
        decoder.prefill_chunk_batch(
            [s for s in looped_states if not s.done], 8
        )
        decoder.prefill_chunk_batch(
            [s for s in packed_states if not s.done], 8, backend=backend
        )
    tokens = [int(np.argmax(s.logits)) for s in looped_states]
    positions = [len(p) for p in prompts]
    looped = [s.executor for s in looped_states]
    packed = [s.executor for s in packed_states]
    for _ in range(5):
        ll = decoder.decode_step_batch(tokens, positions, looped)
        pl = decoder.decode_step_batch(tokens, positions, packed,
                                       backend=backend)
        assert np.array_equal(ll, pl)
        tokens = [int(np.argmax(row)) for row in ll]
        positions = [p + 1 for p in positions]


def test_backend_rejects_foreign_model(decoder, backend):
    config = ModelConfig(
        "other", n_layers=3, n_heads=4, d_model=32, d_ff=64,
        vocab_size=96, max_seq_len=160, causal=True,
    )
    other = TransformerModel(config, random_model(config, seed=99))
    executor = DenseExecutor()
    other.prefill([1, 2, 3], executor)
    with pytest.raises(ValueError, match="different model"):
        other.decode_step_batch([4], [3], [executor], backend=backend)


@pytest.mark.parametrize("numerics", ["exact", "fp32"])
def test_opt_out_executor_is_a_named_error(decoder, numerics):
    """A ``"none"``-style row is refused on every tier — no silent
    per-row fp64 fallback inside a packed (or fp32) batch."""
    backend = PackedDecodeBackend(decoder, numerics=numerics)
    executors = [
        DenseExecutor(numerics=numerics), _OptOutExecutor(numerics=numerics)
    ]
    for executor in executors:
        decoder.prefill([1, 2, 3], executor)
    with pytest.raises(UnpackableExecutorError, match="_OptOutExecutor"):
        decoder.decode_step_batch([4, 4], [3, 3], executors, backend=backend)


# ----------------------------------------------------------------------
# Every tier: one fused mixed step against its two passes
# ----------------------------------------------------------------------
#: Decode and prompt rows of a mixed step, drawn by kind and prompt
#: length: dense, pruned (SpAtten) and progressive-quantization rows.
_MIXED_ROWS = st.lists(
    st.tuples(st.sampled_from(["dense", "spatten", "quant"]),
              st.integers(2, 40)),
    min_size=1, max_size=5,
)
#: Off the exact tier both arms run one tier and differ only in how rows
#: group into GEMMs.
_MIXED_ATOL = 1e-4


def _tier_executor(kind, tier):
    if kind == "dense":
        return DenseExecutor(numerics=tier)
    return SpAttenExecutor(
        PRUNING, QUANT if kind == "quant" else None, numerics=tier
    )


def _fused_vs_two_pass(model, tier, decode_rows, prompt_rows, chunk,
                       advance, seed=0, retire=None):
    """Build a batch of resident decode rows and in-flight prompts on one
    backend — the decode row ``retire``, if given, retired after the
    prompts' earlier chunks — run one fused mixed step on it and the two
    passes on a deep copy with a backend of its own (on the exact tier
    the looped oracle on a third), and assert they agree.  Returns
    whether the step's prompt adoption grew the pruned rows' control
    planes, and the fused step's profile."""
    rng = np.random.default_rng(seed)

    def draw(kind, n):
        prompt = rng.integers(0, model.config.vocab_size, size=n).tolist()
        return model.prefill_begin(prompt, _tier_executor(kind, tier))

    backend = PackedDecodeBackend(model, numerics=tier)
    prefilled = [draw(kind, n) for kind, n in decode_rows]
    model.prefill_chunk_batch(
        prefilled, model.config.max_seq_len, backend=backend
    )
    executors = [state.executor for state in prefilled]
    positions = [state.prompt_len for state in prefilled]
    # One decode step of their own: every store row is resident.
    tokens = model.decode_step_batch(
        [int(np.argmax(state.logits)) for state in prefilled], positions,
        executors, backend=backend,
    ).argmax(axis=1).tolist()
    positions = [p + 1 for p in positions]
    states = [draw(kind, n) for kind, n in prompt_rows]
    if advance:
        # Earlier chunks: dense prompts go into the step mid-way.
        model.prefill_chunk_batch(states, chunk, backend=backend)
        states = [state for state in states if not state.done]
    if retire is not None:
        # The last row of its table fills the vacated one.
        backend.release(executors.pop(retire))
        del tokens[retire], positions[retire]

    ref_backend = PackedDecodeBackend(model, numerics=tier)
    ref_executors, ref_states = copy.deepcopy((executors, states))
    if tier == "exact":
        oracle_executors, oracle_states = copy.deepcopy((executors, states))
    table = backend._tables.get("pruned")
    capacity = 0 if table is None else len(table.members[-1].total)
    backend.profiler = prof = HotPathProfiler()
    fused = model.decode_step_batch(
        tokens, positions, executors, backend=backend,
        prefill=(states, chunk) if states else None,
    )
    backend.profiler = None
    table = backend._tables.get("pruned")
    grew = table is not None and len(table.members[-1].total) > capacity
    two_pass = model.decode_step_batch(
        tokens, positions, ref_executors, backend=ref_backend
    )
    if ref_states:
        model.prefill_chunk_batch(ref_states, chunk, backend=ref_backend)

    # One layer stack: one FFN half a layer, no prompt step of its own.
    n_layers = model.config.n_layers
    assert prof.calls("decode_step") == 1 and prof.calls("prefill_step") == 0
    assert prof.calls("decode_ffn") == n_layers
    assert prof.calls("prefill_ffn") == 0
    arms = [(fused, states, executors), (two_pass, ref_states, ref_executors)]
    if tier == "exact":
        # Bits, not a budget: the looped oracle's decode step and solo
        # prompt passes are a third arm.
        oracle = model.decode_step_batch(tokens, positions, oracle_executors)
        for state in oracle_states:
            model.prefill_chunk_batch([state], chunk)
        arms.append((oracle, oracle_states, oracle_executors))
    for arm in arms[1:]:
        _assert_same_step(tier, arms[0], arm)
    return grew, prof


def _assert_same_step(tier, one, other):
    """Two arms of one mixed step agree: bit for bit on the exact tier,
    within the tier's rounding off it."""
    def same(a, b, rtol=0):
        if tier == "exact":
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=_MIXED_ATOL)

    logits, states, executors = one
    ref_logits, ref_states, ref_executors = other
    same(logits, ref_logits)
    for a, b in zip(states, ref_states):
        assert a.n_committed == b.n_committed
        assert (a.logits is None) == (b.logits is None)
        if a.logits is not None:
            same(a.logits, b.logits)
    for i, (a, b) in enumerate(zip(
        executors + [state.executor for state in states],
        ref_executors + [state.executor for state in ref_states],
    )):
        assert a.kv_lengths() == b.kv_lengths(), i
        if isinstance(a, SpAttenExecutor) and a.trace is not None:
            assert np.array_equal(a._alive_mask, b._alive_mask), i
            assert np.array_equal(a._alive_heads, b._alive_heads), i
            total = a._total_length
            for acc_a, acc_b in ((a.token_acc.live_scores(total),
                                  b.token_acc.live_scores(total)),
                                 (a.head_acc.live_scores(),
                                  b.head_acc.live_scores())):
                same(acc_a, acc_b, rtol=1e-5)
            assert a.trace.n_generated == b.trace.n_generated, i
            assert a.trace.count_signature() == b.trace.count_signature(), i


@pytest.mark.smoke
@pytest.mark.parametrize("tier", ["exact", "fp32", "int8"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(decode_rows=_MIXED_ROWS, prompt_rows=_MIXED_ROWS,
       chunk=st.integers(2, 12), advance=st.booleans())
def test_fused_mixed_step_matches_two_passes(
    decoder, tier, decode_rows, prompt_rows, chunk, advance
):
    """Dense, pruned and progressive decode rows beside dense chunks
    mid-prompt, pruned final chunks and prompts that complete: one fused
    step agrees with the decode step and prompt step it replaces — on
    the exact tier bit for bit, and with the looped oracle too."""
    _fused_vs_two_pass(
        decoder, tier, decode_rows, prompt_rows, chunk, advance
    )


@pytest.mark.smoke
@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_fused_step_opens_the_decode_cascade_after_adoption(decoder, tier):
    """Pruned prompts completing beside resident pruned decode rows grow
    the control planes past their row capacity mid-step: the decode
    rows' cascade step opens on the grown planes, so their masks and
    traces still match the two passes."""
    assert _fused_vs_two_pass(
        decoder, tier,
        [("spatten", 40), ("spatten", 36), ("spatten", 24), ("dense", 12)],
        [("spatten", 25), ("spatten", 30), ("dense", 20)],
        chunk=32, advance=False,
    )[0]


@pytest.mark.smoke
@pytest.mark.parametrize("tier", ["fp32", "int8"])
def test_retirement_seats_a_mid_prompt_row_between_decode_rows(
    decoder, tier
):
    """A dense row retires while a dense prompt is mid-way: the prompt's
    row, the last, fills the vacated one, between two decode rows.  The
    fused step runs the dense rows as three store blocks — decode,
    prompt chunk, decode — and agrees with the two passes."""
    _, prof = _fused_vs_two_pass(
        decoder, tier,
        [("dense", 12), ("dense", 20), ("spatten", 24), ("dense", 16)],
        [("dense", 30), ("spatten", 20)],
        chunk=8, advance=True, retire=1,
    )
    n_layers = decoder.config.n_layers
    assert prof.calls("decode_dense_core") == 2 * n_layers
    assert prof.calls("prefill_dense_core") == n_layers

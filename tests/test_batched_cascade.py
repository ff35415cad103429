"""Batched cascade control ≡ the per-sequence pruning functions.

:class:`repro.core.batched_cascade.CascadeBatch` keeps the control
state of a batch's rows resident and decides for a whole decode step at
once over padded planes (:meth:`~repro.core.batched_cascade.CascadeBatch
.open_decode`) — and, opened with :meth:`~repro.core.batched_cascade
.CascadeBatch.open_prompts`, for the whole sentences of a batch of
prompts.  Every decision must be the one
the per-sequence reference (``prune_tokens``, ``prune_heads``,
``local_value_keep_indices``) makes on the same scores — with ragged
lengths, tied scores, the protected token (the current one of a decode
step, the last one of a prompt), targets at or above the live count,
and padding that is never selected.  The cases are generated:
hypothesis draws a seed, the seed draws a batch.  What the planes hold
goes back to the executors at a barrier (a release, an orphaning),
driven here by a row table whose one member is the control.
"""

import copy
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, PruningConfig
from repro.core.batched_cascade import CascadeBatch
from repro.core.head_pruning import prune_heads
from repro.core.importance import (
    HeadImportanceAccumulator,
    TokenImportanceAccumulator,
)
from repro.core.schedule import decode_token_target
from repro.core.token_pruning import prune_tokens
from repro.core.trace import AttentionTrace
from repro.core.value_pruning import local_value_keep_indices
from repro.nn.kv_cache import RowTable

N_LAYERS = 3
N_HEADS = 6
CONFIG = ModelConfig(
    "cascade-stub", n_layers=N_LAYERS, n_heads=N_HEADS, d_model=24, d_ff=48,
    vocab_size=32, max_seq_len=96, causal=True,
)


def _stub_executor(rng):
    """The control state of one prefilled SpAtten sequence, drawn at
    random — few distinct score values, so ranks tie across the cut."""
    total = int(rng.integers(2, 40))
    alive = rng.random(total) < rng.uniform(0.3, 1.0)
    alive[rng.integers(total)] = True
    token_acc = TokenImportanceAccumulator(total)
    token_acc.live_scores(total)[:] = rng.integers(0, 4, size=total)
    head_acc = HeadImportanceAccumulator(N_HEADS)
    head_acc.live_scores()[:] = rng.integers(0, 3, size=N_HEADS)
    n_live_heads = int(rng.integers(1, N_HEADS + 1))
    mask = np.zeros(CONFIG.max_seq_len, dtype=bool)
    mask[:total] = alive
    pruning = PruningConfig(
        min_tokens=int(rng.integers(1, 6)),
        value_keep=float(rng.choice([0.5, 0.75, 0.9, 1.0])),
    )
    return SimpleNamespace(
        _original_length=total, _total_length=total,
        token_acc=token_acc, head_acc=head_acc,
        _alive_mask=mask, _n_alive=int(alive.sum()),
        _alive_heads=np.sort(
            rng.choice(N_HEADS, size=n_live_heads, replace=False)
        ),
        _plan=SimpleNamespace(
            # Fractions from "keeps everything" (target >= live) downward.
            token_fracs=np.sort(rng.uniform(0.1, 1.2, size=N_LAYERS))[::-1],
            head_counts=np.sort(
                rng.integers(1, N_HEADS + 1, size=N_LAYERS)
            )[::-1],
        ),
        pruning=pruning,
        trace=AttentionTrace(CONFIG, total, 0, pruning=pruning),
    )


def _control_table():
    """A row table over one batch control: the executors are its rows'
    only pieces."""
    control = CascadeBatch(CONFIG)
    return control, RowTable([control], lambda e: [e], lambda e: e)


def _open(seed):
    """A decode step opened over a batch of drawn sequences: ``(rng,
    executors, step, positions, table, twins)`` — ``twins`` deep
    copies of the executors as they were before adoption took their
    control state."""
    rng = np.random.default_rng(seed)
    executors = [_stub_executor(rng) for _ in range(rng.integers(1, 7))]
    twins = copy.deepcopy(executors)
    positions = np.array([e._total_length for e in executors])
    control, table = _control_table()
    table.adopt(executors)
    step = control.open_decode(positions)
    return rng, executors, step, positions, table, twins


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_token_and_head_decisions_match_per_sequence(seed):
    _, _, batch, positions, _, executors = _open(seed)
    for layer_idx in range(N_LAYERS):
        before = batch.alive.copy()
        heads_before = batch.head_alive.copy()
        batch.prune(layer_idx)
        for j, executor in enumerate(executors):
            total = executor._total_length + 1
            live = np.flatnonzero(before[j])
            assert live.max() < total, "padding was alive"
            target = decode_token_target(
                executor.pruning, float(executor._plan.token_fracs[layer_idx]),
                total,
            )
            expected = live
            if target < len(live):
                expected = prune_tokens(
                    live, executor.token_acc.scores_for(live), target,
                    protected_ids=[int(positions[j])],
                ).kept_ids
            assert np.array_equal(np.flatnonzero(batch.alive[j]), expected)
            assert batch.alive[j, positions[j]], "current token pruned"
            assert not batch.alive[j, total:].any(), "padding selected"

            live_heads = np.flatnonzero(heads_before[j])
            expected = live_heads
            target = int(executor._plan.head_counts[layer_idx])
            if target < len(live_heads):
                expected = prune_heads(
                    live_heads, executor.head_acc.scores_for(live_heads),
                    target,
                ).kept_ids
            assert np.array_equal(
                np.flatnonzero(batch.head_alive[j]), expected
            )


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_head_decisions_with_and_without_a_row_that_can_prune(
    seed, prunable
):
    """A step settles once whether some row can still prune a head —
    its plan keeps fewer heads than it has live at some layer, as for a
    sequence adopted with more live heads than its plan keeps — or none
    can, as after a prompt pass.  Steps of both kinds decide heads as
    ``prune_heads`` does, and the step's dead-head gate is the live-head
    mask exactly while some row has a head dead."""
    rng = np.random.default_rng(seed)
    executors = [_stub_executor(rng) for _ in range(rng.integers(1, 7))]
    for executor in executors:
        plan = executor._plan
        # Never fewer heads than the row has live.
        plan.head_counts = np.maximum(
            plan.head_counts, len(executor._alive_heads)
        )
    if prunable:
        executor = executors[int(rng.integers(len(executors)))]
        executor._alive_heads = np.arange(N_HEADS)
        executor._plan.head_counts = np.minimum(
            executor._plan.head_counts, N_HEADS - 1
        )
    twins = copy.deepcopy(executors)
    control, table = _control_table()
    table.adopt(executors)
    step = control.open_decode(np.array([e._total_length for e in twins]))
    assert step._heads_prunable == prunable
    for layer_idx in range(N_LAYERS):
        before = step.head_alive.copy()
        step.prune(layer_idx)
        for j, twin in enumerate(twins):
            live = np.flatnonzero(before[j])
            target = int(twin._plan.head_counts[layer_idx])
            expected = live
            if target < len(live):
                expected = prune_heads(
                    live, twin.head_acc.scores_for(live), target
                ).kept_ids
            assert np.array_equal(np.flatnonzero(step.head_alive[j]), expected)
        if step.head_alive.all():
            assert step.gate is None
        else:
            assert np.array_equal(step.gate[..., 0], step.head_alive)
    if not prunable:
        assert np.array_equal(step.head_alive, before)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_value_masks_match_per_sequence(seed):
    rng, _, batch, _, _, executors = _open(seed)
    lengths = rng.integers(1, 30, size=len(executors))
    width = int(lengths.max())
    # Quantized probabilities tie; padding columns are exact zeros.
    probs = rng.integers(0, 5, size=(len(executors), N_HEADS, width)) / 8.0
    probs *= (np.arange(width) < lengths[:, None])[:, None, :]
    mask = batch.value_mask(probs, lengths)
    for j, executor in enumerate(executors):
        length = int(lengths[j])
        kept = local_value_keep_indices(
            probs[j][:, None, :length], executor.pruning.value_keep
        )
        for head in np.flatnonzero(batch.head_alive[j]):
            got = (
                np.arange(length) if mask is None
                else np.flatnonzero(mask[j, head])
            )
            assert np.array_equal(got, kept[head])
            assert got.max(initial=-1) < length, "padding column kept"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_barrier_writes_the_step_back(seed):
    """What the planes decided and accumulated over a step is what the
    executors hold after their barriers — an orphaning, or a release
    that moves the last row into the vacated one."""
    rng, executors, batch, positions, table, twins = _open(seed)
    n = len(executors)
    totals = positions + 1
    token_scores = [np.zeros(CONFIG.max_seq_len) for _ in twins]
    for scores, twin in zip(token_scores, twins):
        scores[: len(twin.token_acc)] = twin.token_acc.raw_scores
    head_scores = [e.head_acc.raw_scores for e in twins]
    for layer_idx in range(N_LAYERS):
        batch.prune(layer_idx)
        lengths = np.minimum(rng.integers(1, 9, size=n), totals)
        width = int(lengths.max())
        token_ids = np.full((n, width), -1)
        probs = rng.random((n, N_HEADS, width))
        for j, length in enumerate(lengths):
            token_ids[j, :length] = np.sort(
                rng.choice(totals[j], size=length, replace=False)
            )
            probs[j, :, length:] = 0.0
            token_scores[j][token_ids[j, :length]] += (
                probs[j, :, :length].sum(axis=0)
            )
        batch.value_mask(probs, lengths)
        batch.accumulate_tokens(probs, token_ids)
        head_out = rng.normal(size=(n, N_HEADS, 1, 4))
        batch.accumulate_heads(head_out, lengths)
        for j in range(n):
            head_scores[j] += np.abs(head_out[j]).sum(axis=(1, 2))
    alive, head_alive = batch.alive.copy(), batch.head_alive.copy()
    table.orphan(table.seats[int(rng.integers(n))])
    for _ in range(n):
        table.release(table.seats[0].parts[-1])
    assert not table.seats
    for j, executor in enumerate(executors):
        assert executor._control is None
        assert executor._total_length == totals[j]
        assert executor.trace.n_generated == 1
        assert np.array_equal(
            np.flatnonzero(executor._alive_mask), np.flatnonzero(alive[j])
        )
        assert executor._n_alive == np.count_nonzero(alive[j])
        assert np.array_equal(
            executor._alive_heads, np.flatnonzero(head_alive[j])
        )
        assert np.allclose(
            executor.token_acc.raw_scores, token_scores[j][: totals[j]]
        )
        assert np.allclose(executor.head_acc.raw_scores, head_scores[j])
        steps = executor.trace.decode_steps
        assert [step.layer for step in steps] == list(range(N_LAYERS))
        assert steps[-1].n_heads == len(executor._alive_heads)


# ----------------------------------------------------------------------
# The summarize-stage opening: a batch of whole prompts
# ----------------------------------------------------------------------
def _begun_executor(rng):
    """A sequence as ``prefill_begin`` leaves it, with a drawn plan."""
    pruning = PruningConfig(
        value_keep=float(rng.choice([0.5, 0.75, 0.9, 1.0])),
    )
    stub = SimpleNamespace(
        _original_length=None, _total_length=0,
        token_acc=TokenImportanceAccumulator(),
        head_acc=HeadImportanceAccumulator(N_HEADS),
        _alive_mask=None, _n_alive=0, _alive_heads=np.arange(N_HEADS),
        _plan=None, pruning=pruning, trace=None,
    )

    def init_schedules(sentence_length):
        stub._original_length = stub._total_length = sentence_length
        stub._alive_mask = np.zeros(CONFIG.max_seq_len, dtype=bool)
        stub._plan = SimpleNamespace(
            token_fracs=np.ones(N_LAYERS),
            # Non-increasing, from "keeps everything" (>= live) downward.
            token_counts=np.minimum.accumulate(
                rng.integers(1, sentence_length + 3, size=N_LAYERS)
            ),
            head_counts=np.sort(
                rng.integers(1, N_HEADS + 1, size=N_LAYERS)
            )[::-1],
        )
        stub.trace = AttentionTrace(CONFIG, sentence_length, 0,
                                    pruning=pruning)

    stub._init_schedules = init_schedules
    return stub


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_summarize_decisions_match_per_sequence(seed):
    """A prompt pass over a ragged batch — a one-token prompt among
    them — against the per-sequence functions layer by layer, the
    scores accumulated between layers few-valued so ranks tie."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 40, size=rng.integers(1, 7))
    lengths[rng.integers(len(lengths))] = 1
    n = len(lengths)
    executors = [_begun_executor(rng) for _ in lengths]
    control, table = _control_table()
    for executor, length in zip(executors, lengths.tolist()):
        executor._init_schedules(length)
    table.adopt(executors)
    batch = control.open_prompts(slice(0, n), lengths, executors)
    assert np.array_equal(batch.n_alive, lengths)
    live = [np.arange(length) for length in lengths]
    scores = [np.zeros(length) for length in lengths]
    live_heads = [np.arange(N_HEADS)] * n
    head_scores = [np.zeros(N_HEADS) for _ in lengths]
    signatures = [[] for _ in lengths]
    for layer_idx in range(N_LAYERS):
        batch.prune(layer_idx)
        for j, (executor, length) in enumerate(zip(executors, lengths)):
            live[j] = prune_tokens(
                live[j], scores[j][live[j]],
                int(executor._plan.token_counts[layer_idx]),
                protected_ids=[length - 1],
            ).kept_ids
            assert np.array_equal(np.flatnonzero(batch.alive[j]), live[j])
            assert batch.alive[j, length - 1], "last prompt token pruned"
            assert not batch.alive[j, length:].any(), "padding selected"
            target = int(executor._plan.head_counts[layer_idx])
            if target < len(live_heads[j]):
                live_heads[j] = prune_heads(
                    live_heads[j], head_scores[j][live_heads[j]], target
                ).kept_ids
            assert np.array_equal(
                np.flatnonzero(batch.head_alive[j]), live_heads[j]
            )
        counts = np.array([len(ids) for ids in live])
        assert np.array_equal(batch.n_alive, counts)

        # The layer's core: each head's column mass over the padded
        # plane (exact zeros on padding), quantized so that it ties.
        width = int(counts.max())
        mass = rng.integers(0, 5, size=(n, N_HEADS, width)) / 8.0
        mass *= (np.arange(width) < counts[:, None])[:, None, :]
        mask = batch.value_mask(mass, batch.n_alive)
        labels = np.full((n, width), -1)
        head_out = rng.integers(-2, 3, size=(n, N_HEADS, width, 4)).astype(float)
        head_out *= batch.head_alive[:, :, None, None]
        for j, executor in enumerate(executors):
            count = int(counts[j])
            kept = local_value_keep_indices(
                mass[j][:, None, :count], executor.pruning.value_keep
            )
            for head in live_heads[j]:
                got = (
                    np.arange(count) if mask is None
                    else np.flatnonzero(mask[j, head])
                )
                assert np.array_equal(got, kept[head])
                assert got.max() < count, "padding column kept"
            labels[j, :count] = live[j]
            scores[j][live[j]] += mass[j, live_heads[j], :count].sum(axis=0)
            head_scores[j] += np.abs(head_out[j]).sum(axis=(1, 2))
            signatures[j].append((
                layer_idx, "summarize", count, count, len(live_heads[j]),
                len(kept[0]),
            ))
        batch.accumulate_tokens(mass * batch.head_alive[:, :, None], labels)
        batch.accumulate_heads(head_out, batch.n_alive)
    for executor in reversed(executors):
        table.release(executor)
    for j, (executor, length) in enumerate(zip(executors, lengths)):
        assert executor._total_length == executor._original_length == length
        assert executor.trace.n_generated == 0
        assert np.array_equal(np.flatnonzero(executor._alive_mask), live[j])
        assert executor._n_alive == len(live[j])
        assert np.array_equal(executor._alive_heads, live_heads[j])
        assert np.array_equal(executor.token_acc.raw_scores, scores[j])
        assert np.array_equal(executor.head_acc.raw_scores, head_scores[j])
        assert executor.trace.count_signature() == signatures[j]

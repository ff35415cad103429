"""Decode-step wall clock: packed backend vs the looped oracle.

Two variants of the same batched decode step at the model level,
committing bit-identical logits (asserted while timing):

* ``looped``  — the oracle, ``decode_step_batch(backend=None)``:
  per-sequence ``run_layer`` calls over page-aligned KV buffers;
* ``packed``  — :class:`repro.nn.batched_attention.PackedDecodeBackend`
  at the exact tier: fused batch-level Q/K/V + output projections,
  central dense attention core over zero-copy cache views.

The sweep covers B ∈ {4, 16, 64} at the serving benchmark's prompt
scale plus a long-context row.

The smoke run adds a **mixed step** arm at the ``fp32`` tier: 16 decode
rows plus 2 prompt chunks, once as the one fused step
(``decode_step_batch(..., prefill=(states, chunk))``, which shares every
GEMM between the two kinds of rows) and once as the two passes the
exact tier still runs (``decode_step_batch`` followed by
``prefill_chunk_batch``), on deep copies of one prefilled batch.  The
arms alternate within each trial, the first one rotating, and the
smoke publishes the median of the per-trial ratios as
``mixed_step_fused_over_two_pass`` (lower is better).  Engine-level wall clock is
``benchmarks/e2e``'s job (``BENCHMARK.json``); the faster fp32/int8
tiers are measured by ``bench_numerics.py``.

Honest-ceiling note (recorded in the published table): a ≥ 3× step
speedup at batch 16 is not reachable on this substrate under the
bit-identity constraint.  OpenBLAS reductions are not padding-invariant
(zero-padding the k-axis or the score columns changes last-ulp
results), so the packed core must keep exact-length per-sequence
matmuls and softmax denominators; what remains removable is
interpreter overhead, and the (shared) FFN/gelu tax is identical in
both variants.  The assertions below gate the achieved win (and the CI
smoke variant fails the build on any looped-vs-packed regression,
speedup < 1×).
"""

import copy
import time

import numpy as np
import pytest

from repro.eval.reporting import Table
from repro.nn import PackedDecodeBackend
from repro.nn.transformer import DenseExecutor
from repro.workloads import serving_lm_world

PAGE_TOKENS = 16
VARIANTS = ("looped", "packed")
#: The mixed-step arm: decode rows and their context, prompts being
#: chunked alongside them, their length and chunk, timed steps a trial.
MIXED_BATCH, MIXED_CONTEXT = 16, 192
MIXED_PROMPTS, MIXED_PROMPT_LEN, MIXED_CHUNK, MIXED_STEPS = 2, 96, 32, 3


@pytest.fixture(scope="module")
def decode_world():
    _, model, _ = serving_lm_world(max_seq_len=2048)
    return model, PackedDecodeBackend(model)


def build_executors(model, batch, prompt_len, numerics=None):
    """Prefill one prototype executor and clone it across the batch."""
    rng = np.random.default_rng(1)
    prompt = rng.integers(0, model.config.vocab_size, size=prompt_len)
    prototype = DenseExecutor(kv_page_tokens=PAGE_TOKENS, numerics=numerics)
    state = model.prefill_begin(prompt.tolist(), prototype)
    while not state.done:
        model.prefill_chunk(state, 256)
    return [copy.deepcopy(prototype) for _ in range(batch)]


def time_decode_steps(model, backend, batch, prompt_len, variant,
                      steps=6, trials=3):
    """Best-of-trials per-step wall clock; returns (seconds, logits).

    Best-of is the noise-robust estimator for a microbenchmark on a
    shared runner: scheduling hiccups only ever inflate a trial, so the
    minimum tracks the code's true cost — a genuine regression slows
    every trial and still moves it.
    """
    executors = build_executors(model, batch, prompt_len)
    use = backend if variant == "packed" else None
    logits = model.decode_step_batch(
        [3] * batch, [prompt_len] * batch, executors, backend=use
    )
    position = prompt_len + 1
    samples = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(steps):
            logits = model.decode_step_batch(
                [int(np.argmax(row)) for row in logits],
                [position] * batch, executors, backend=use,
            )
            position += 1
        samples.append((time.perf_counter() - start) / steps)
    return float(np.min(samples)), logits


def decode_sweep(model, backend, cases, steps=6, trials=3):
    rows = []
    for batch, prompt_len in cases:
        per_variant = {}
        final_logits = {}
        for variant in VARIANTS:
            per_variant[variant], final_logits[variant] = time_decode_steps(
                model, backend, batch, prompt_len, variant,
                steps=steps, trials=trials,
            )
        # Both variants must have sampled identical token streams.
        assert np.array_equal(final_logits["looped"], final_logits["packed"])
        rows.append((batch, prompt_len, per_variant))
    return rows


def mixed_step_trial(model, backend, batch, fused):
    """One arm of one trial: a deep copy of ``batch`` — decode
    executors and prompt states — decodes a step outside the timer
    (adopting its rows into ``backend``), then :data:`MIXED_STEPS`
    mixed steps are timed.  Returns ``(s/step, argmax tokens)``: the
    last step's decode rows' and every completed prompt's."""
    executors, states = copy.deepcopy(batch)
    backend.reset()
    positions = [MIXED_CONTEXT] * len(executors)
    logits = model.decode_step_batch(
        [3] * len(executors), positions, executors, backend=backend
    )
    start = time.perf_counter()
    for _ in range(MIXED_STEPS):
        positions = [p + 1 for p in positions]
        tokens = logits.argmax(axis=1).tolist()
        live = [state for state in states if not state.done]
        chunks = (live, MIXED_CHUNK) if live else None
        if fused:
            logits = model.decode_step_batch(
                tokens, positions, executors, backend=backend,
                prefill=chunks,
            )
        else:
            logits = model.decode_step_batch(
                tokens, positions, executors, backend=backend
            )
            if chunks:
                model.prefill_chunk_batch(*chunks, backend=backend)
    seconds = (time.perf_counter() - start) / MIXED_STEPS
    done = [int(np.argmax(s.logits)) for s in states if s.done]
    return seconds, logits.argmax(axis=1).tolist() + done


def mixed_step_ratios(model, trials):
    """Per-trial fused / two-pass step time of the mixed-step arm (fp32):
    the arms alternate within a trial, the first one rotating trial by
    trial, and both must pick the same tokens."""
    rng = np.random.default_rng(2)
    batch = (
        build_executors(model, MIXED_BATCH, MIXED_CONTEXT, numerics="fp32"),
        [
            model.prefill_begin(
                rng.integers(0, model.config.vocab_size,
                             size=MIXED_PROMPT_LEN).tolist(),
                DenseExecutor(kv_page_tokens=PAGE_TOKENS, numerics="fp32"),
            )
            for _ in range(MIXED_PROMPTS)
        ],
    )
    backends = {
        fused: PackedDecodeBackend(model, numerics="fp32")
        for fused in (True, False)
    }
    ratios = []
    for trial in range(trials):
        order = (True, False) if trial % 2 == 0 else (False, True)
        runs = {
            fused: mixed_step_trial(model, backends[fused], batch, fused)
            for fused in order
        }
        assert runs[True][1] == runs[False][1], (
            "fused and two-pass mixed steps picked different tokens"
        )
        ratios.append(runs[True][0] / runs[False][0])
    return ratios


def speedup_table(rows, title):
    table = Table(
        title=title,
        headers=["batch", "context", "looped (ms)", "packed (ms)",
                 "packed vs looped"],
    )
    for batch, prompt_len, r in rows:
        table.add_row(
            str(batch), str(prompt_len),
            f"{r['looped'] * 1e3:.2f}", f"{r['packed'] * 1e3:.2f}",
            f"{r['looped'] / r['packed']:.2f}x",
        )
    table.add_note(
        "identical logits asserted across both variants every run; "
        "best-of-trials per-step wall clock"
    )
    table.add_note(
        "looped = decode_step_batch(backend=None), per-sequence run_layer "
        "(the bit-identity oracle); packed = fused batched projections + "
        "central attention core (exact tier)"
    )
    table.add_note(
        "a 3x-at-batch-16 win is unreachable bit-identically on this "
        "BLAS: padding-variant reductions force exact-length per-sequence "
        "matmuls (see module docstring; bench_numerics measures the "
        "fp32/int8 tiers that trade the contract away)"
    )
    return table


def test_decode_step_speedup(decode_world, benchmark, publish):
    model, backend = decode_world
    cases = [(4, 192), (16, 192), (64, 192), (16, 1024)]
    rows = benchmark.pedantic(
        decode_sweep, args=(model, backend, cases), rounds=1, iterations=1
    )
    publish("decode_step", speedup_table(
        rows, "decode step: packed backend vs the looped oracle"
    ))
    for batch, prompt_len, r in rows:
        if batch >= 16:
            # Regression gate on the batches with real headroom; the
            # B=4 row is informational (its measured margin is ~3%,
            # within scheduler noise on a shared runner).
            assert r["looped"] / r["packed"] >= 1.0, (
                f"packed slower than looped at B={batch}, L={prompt_len}"
            )


@pytest.mark.smoke
def test_decode_step_smoke(decode_world, publish, history):
    """Batch-16 regression gate for tier-1: packed must not lose to
    looped (speedup < 1x fails the build) and must stay bit-identical."""
    from repro.insight import metric

    model, backend = decode_world
    rows = decode_sweep(model, backend, [(16, 192)], steps=4, trials=4)
    ratios = mixed_step_ratios(model, trials=11)
    mixed = float(np.median(ratios))
    table = Table(
        title="mixed step smoke (fp32): one fused pass vs two passes",
        headers=["decode rows", "context", "prompt chunks",
                 "fused / two-pass (median)", "per trial"],
    )
    table.add_row(
        str(MIXED_BATCH), str(MIXED_CONTEXT),
        f"{MIXED_PROMPTS} x {MIXED_CHUNK} of {MIXED_PROMPT_LEN}",
        f"{mixed:.2f}", " ".join(f"{r:.2f}" for r in ratios),
    )
    table.add_note(
        "fused = decode_step_batch(..., prefill=(states, chunk)), one "
        "layer stack over both kinds of rows; two-pass = decode_step_batch "
        "then prefill_chunk_batch; equal argmax asserted every trial"
    )
    publish(
        "decode_step_smoke",
        speedup_table(rows, "decode step smoke (batch 16)"), table,
    )
    (_, _, r), = rows
    # Wall-clock ratios wobble with machine load, so this carries a much
    # wider tolerance floor than the simulated-clock metrics.
    history("decode_step", {
        "looped_over_packed": metric(r["looped"] / r["packed"], "x",
                                     "higher", rel_tol=0.6),
        "mixed_step_fused_over_two_pass": metric(mixed, "x", "lower",
                                                 rel_tol=0.5),
    }, context={"batch": 16, "seq_len": 192})
    assert r["looped"] / r["packed"] >= 1.0, "looped-vs-packed regression"

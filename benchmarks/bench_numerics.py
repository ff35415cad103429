"""Numerics ladder: decode-step speedup vs distribution drift per tier.

``benchmarks/bench_decode_step.py`` recorded the honest ceiling of the
bit-identical packed backend (~2× at batch 16: padding-variant BLAS
reductions force exact-length per-sequence matmuls plus the shared fp64
FFN tax).  This bench measures what the :mod:`repro.nn.numerics` ladder
buys *past* that ceiling once the contract is an accuracy budget
instead of a bit budget — and charges every tier against the budget it
declared:

* ``exact``  — the policy plumbing at fp64; asserted ``np.array_equal``
  with the per-sequence looped oracle every teacher-forced step.
* ``fp32``   — fp32 KV planes + the padded ``[B, h, 1, max_len]``
  masked-softmax core.  Gate: ≥ 1.5× over packed-exact at batch 16.
* ``int8``   — same core over int8 KV codes with per-(head, column)
  fp32 scales.  Gate: step ≤ 1.3× the ``fp32`` step at batch 16 — its
  step is the fp32 core plus KV (de)quantization, so the floor is held
  against ``fp32`` and a faster fp64 oracle cannot fail it.

Quality is measured teacher-forced against the fp64 looped oracle so
every tier sees identical inputs at every step: mean KL(oracle ‖ tier)
over next-token distributions, argmax-match rate, and the mean
next-token NLL delta (task-quality proxy).  A tier exceeding its
declared ``kl_budget`` / ``argmax_budget`` fails the build — the
ladder is only allowed to be fast where it is provably accurate
enough.

The same sweep runs a second time with **cascade pruning on**
(:data:`PRUNING`): every tier's SpAtten executors against the fp64
looped SpAtten oracle, gated by the same declared budgets — a tier
whose arithmetic flips a pruning decision pays for it in KL here.  On
``fp32`` / ``int8`` those rows take the backend's store core with the
cascade in its datapath — the core the dense rows run without one — and
the smoke run publishes ``spatten_fp32_over_dense_fp32`` (pruned over
dense decode-step time, both at fp32, batch 16) to the regression
history: ROADMAP item 3's "make pruning win" target is a ratio at or
below 1.  It publishes ``spatten_int8_over_spatten_fp32`` beside it —
the pruned decode step at int8 over the same step at fp32, the cost of
the int8 row store on the pruned route.

The **prompt pass** is on the ladder as well: a tier's backend
summarizes all :data:`BATCH` prompts in one step (dense, and SpAtten's
whole-sentence cascade with pruning on) and the ``prefill`` columns
report the next-token distribution against the fp64 oracle
``prefill()`` — ``prefill_kl`` / ``prefill_argmax``, gated by the same
declared budgets, the ``exact`` tier asserted bit-identical — and
``prefill_over_exact``, the pass's time over the exact tier's (lower is
better).  The smoke run publishes all three per tier and family.

Measurement protocol: wall-clock per-step times are *interleaved
best-of-N trials* — every trial times all tiers back to back on
freshly cloned prefilled executors (each tier's backend emptied of the
previous trial's rows before its timer starts, so a trial is adoption
plus decode steps), the arms' order rotated by one each trial, and
each tier reports its minimum.
Sequential per-tier timing is dominated by machine noise on a shared
runner (the exact baseline alone fluctuates ±10%); interleaving means
a load spike inflates one trial of every tier instead of one tier's
whole measurement, and best-of tracks the true cost (a genuine
regression slows every trial).  The smoke run's wall-clock gates take
the median over trials of each trial's ratio instead: two minima may
come from different trials, so their ratio can pair one arm's quiet
trial with the other's loaded one.
"""

import copy
import time

import numpy as np
import pytest

from repro.config import PruningConfig
from repro.core.pipeline import SpAttenExecutor
from repro.eval.reporting import Table
from repro.nn import PackedDecodeBackend
from repro.nn.functional import kl_divergence, log_softmax, softmax
from repro.nn.numerics import NUMERICS_LADDER, resolve_numerics
from repro.nn.transformer import DenseExecutor
from repro.workloads import serving_lm_world

BATCH = 16
PREFILL = 64
PAGE_TOKENS = 16
#: Full-bench bound on the int8 decode step, as a multiple of the fp32
#: step (measured 1.1-1.25x on this host; the smoke run allows 1.5x).
INT8_OVER_FP32_BOUND = 1.3
#: The cascade schedule of the SpAtten columns (the end-to-end
#: benchmark's).
PRUNING = PruningConfig(
    token_keep_final=0.35, head_keep_final=0.75, value_keep=0.9
)


@pytest.fixture(scope="module")
def numerics_world():
    config, model, _ = serving_lm_world(max_seq_len=2048)
    rng = np.random.default_rng(7)
    prompts = [
        rng.integers(0, config.vocab_size, size=PREFILL).tolist()
        for _ in range(BATCH)
    ]
    return config, model, prompts


def _executor(policy, pruning):
    if pruning is None:
        return DenseExecutor(kv_page_tokens=PAGE_TOKENS, numerics=policy)
    return SpAttenExecutor(
        pruning, kv_page_tokens=PAGE_TOKENS, numerics=policy
    )


def build_tier(model, prompts, tier, pruning=None):
    """Prefilled executors + packed backend for one ladder tier
    (SpAtten executors under ``pruning``, dense ones without)."""
    policy = resolve_numerics(tier)
    backend = PackedDecodeBackend(model, numerics=policy)
    executors = []
    for prompt in prompts:
        ex = _executor(policy, pruning)
        model.prefill(prompt, ex)
        executors.append(ex)
    return backend, executors


def measure_quality(model, prompts, steps, pruning=None):
    """Teacher-forced sweep vs the fp64 looped oracle.

    Every tier decodes the *same* oracle-chosen token at every step, so
    the per-step distributions are directly comparable.  Returns
    ``(per_tier_quality, token_streams)`` where ``token_streams`` is
    the oracle step-token list reused by the timing pass, and each
    tier's quality dict carries ``kl`` (mean KL(oracle ‖ tier)),
    ``argmax`` (match rate vs the oracle argmax), and ``nll_delta``
    (mean next-token NLL excess over the oracle).  The ``exact`` tier
    is additionally asserted bit-identical (``np.array_equal``) to the
    looped oracle at every step.
    """
    oracle_execs = [_executor(None, pruning) for _ in prompts]
    for ex, prompt in zip(oracle_execs, prompts):
        model.prefill(prompt, ex)
    tiers = {
        t: build_tier(model, prompts, t, pruning) for t in NUMERICS_LADDER
    }

    acc = {t: {"kl": 0.0, "match": 0, "nll_o": 0.0, "nll_t": 0.0}
           for t in NUMERICS_LADDER}
    tokens = [3] * len(prompts)
    token_streams = []
    n_rows = 0
    for step in range(steps):
        token_streams.append(list(tokens))
        positions = [PREFILL + step] * len(prompts)
        oracle = model.decode_step_batch(tokens, positions, oracle_execs)
        next_tokens = [int(np.argmax(row)) for row in oracle]
        log_p = log_softmax(oracle, axis=-1)
        p = np.exp(log_p)
        for tier, (backend, execs) in tiers.items():
            logits = model.decode_step_batch(
                tokens, positions, execs, backend=backend
            )
            if tier == "exact":
                assert np.array_equal(logits, oracle), (
                    f"exact tier broke bit identity at step {step}"
                )
            log_q = log_softmax(np.asarray(logits, dtype=np.float64),
                                axis=-1)
            a = acc[tier]
            a["kl"] += float(np.sum(p * (log_p - log_q)))
            a["match"] += sum(
                int(np.argmax(row)) == nt
                for row, nt in zip(logits, next_tokens)
            )
            rows = np.arange(len(prompts))
            a["nll_o"] += float(-log_p[rows, next_tokens].sum())
            a["nll_t"] += float(-log_q[rows, next_tokens].sum())
        tokens = next_tokens
        n_rows += len(prompts)

    quality = {}
    for tier, a in acc.items():
        quality[tier] = {
            "kl": a["kl"] / n_rows,
            "argmax": a["match"] / n_rows,
            "nll_delta": (a["nll_t"] - a["nll_o"]) / n_rows,
        }
    return quality, token_streams


def measure_times(model, prompts, streams_by_family, trials):
    """Interleaved per-step wall clock per tier, one sample a trial.

    ``streams_by_family`` maps ``"dense"`` / ``"spatten"`` to that
    family's teacher-forced token streams.  Each trial clones fresh
    prefilled executors for *every* tier of *every* family and times
    them back to back, starting one arm later than the trial before
    (see module docstring for why interleaving beats sequential timing
    on a shared runner).  Returns ``{family: {tier: [s/step, ...]}}``,
    trial by trial (:func:`best`, :func:`median_ratio`).
    """
    prunings = {"dense": None, "spatten": PRUNING}
    prototypes = {
        (family, tier): build_tier(model, prompts, tier, prunings[family])
        for family in streams_by_family for tier in NUMERICS_LADDER
    }
    arms = list(prototypes.items())
    samples = {variant: [] for variant in prototypes}
    for trial in range(trials):
        shift = trial % len(arms)
        for (family, tier), (backend, proto) in arms[shift:] + arms[:shift]:
            token_streams = streams_by_family[family]
            execs = [copy.deepcopy(ex) for ex in proto]
            # Outside the timer: handing the previous trial's rows back.
            backend.reset()
            start = time.perf_counter()
            for step, tokens in enumerate(token_streams):
                model.decode_step_batch(
                    tokens, [PREFILL + step] * len(prompts), execs,
                    backend=backend,
                )
            samples[family, tier].append(
                (time.perf_counter() - start) / len(token_streams)
            )
    return {
        family: {tier: samples[family, tier] for tier in NUMERICS_LADDER}
        for family in streams_by_family
    }


def best(samples):
    """Each tier's minimum over trials: ``{family: {tier: s/step}}``."""
    return {
        family: {tier: float(np.min(s)) for tier, s in tiers.items()}
        for family, tiers in samples.items()
    }


def median_ratio(samples, num, den):
    """The median over trials of one family's ``num`` / ``den`` tier
    time ratio, both sides from the same trial."""
    return float(np.median(np.divide(samples[num], samples[den])))


def measure_prefill(model, prompts, pruning, trials):
    """One family's prompt pass per tier against the fp64 oracle.

    Every tier's backend summarizes all prompts in one
    ``prefill_chunk_batch`` step.  Returns ``{tier: {"kl", "argmax",
    "seconds"}}``: mean KL(oracle ‖ tier) and argmax-match rate of the
    next-token distributions, and the interleaved best-of-``trials``
    time of the pass.
    """
    oracle = [model.prefill(p, _executor(None, pruning)) for p in prompts]
    backends = {
        tier: PackedDecodeBackend(model, numerics=tier)
        for tier in NUMERICS_LADDER
    }
    samples = {tier: [] for tier in NUMERICS_LADDER}
    logits = {}
    for _ in range(trials):
        for tier, backend in backends.items():
            states = [
                model.prefill_begin(p, _executor(backend.policy, pruning))
                for p in prompts
            ]
            start = time.perf_counter()
            logits[tier] = model.prefill_chunk_batch(
                states, PREFILL, backend=backend
            )
            samples[tier].append(time.perf_counter() - start)
    for o, t in zip(oracle, logits["exact"]):
        assert np.array_equal(o, t), "exact tier prefill broke bit identity"
    return {
        tier: {
            "kl": float(np.mean([
                kl_divergence(softmax(o), softmax(t))
                for o, t in zip(oracle, logits[tier])
            ])),
            "argmax": float(np.mean([
                int(np.argmax(o)) == int(np.argmax(t))
                for o, t in zip(oracle, logits[tier])
            ])),
            "seconds": float(np.min(samples[tier])),
        }
        for tier in NUMERICS_LADDER
    }


def measure_ladder(model, prompts, steps, trials):
    """Quality and times of both families: ``(samples, quality,
    prefill)``, each ``{family: {tier: ...}}`` — the decode step's
    times trial by trial."""
    quality, streams, prefill = {}, {}, {}
    for family, pruning in (("dense", None), ("spatten", PRUNING)):
        quality[family], streams[family] = measure_quality(
            model, prompts, steps, pruning
        )
        prefill[family] = measure_prefill(model, prompts, pruning, trials)
    return measure_times(model, prompts, streams, trials), quality, prefill


def prefill_table(prefill, title):
    table = Table(
        title=title,
        headers=["tier", "family", "ms/pass", "prefill_over_exact",
                 "prefill_kl", "prefill_argmax"],
    )
    for family, tiers in prefill.items():
        for tier in NUMERICS_LADDER:
            p = tiers[tier]
            table.add_row(
                tier, family,
                f"{p['seconds'] * 1e3:.2f}",
                f"{p['seconds'] / tiers['exact']['seconds']:.2f}",
                f"{p['kl']:.2e}",
                f"{p['argmax']:.4f}",
            )
    table.add_note(
        f"{BATCH} prompts of {PREFILL} tokens summarized in one step by "
        f"each tier's backend vs the fp64 oracle prefill(); exact tier "
        f"asserted bit-identical; same declared budgets as the decode "
        f"columns; spatten = whole-sentence cascade with pruning on"
    )
    return table


def ladder_table(times, quality, title):
    table = Table(
        title=title,
        headers=["tier", "ms/step", "speedup vs exact", "mean KL",
                 "argmax match", "NLL delta", "KV bytes/elem",
                 "spatten ms/step", "spatten KL", "spatten argmax"],
    )
    dense_t, spatten_t = times["dense"], times["spatten"]
    for tier in NUMERICS_LADDER:
        policy = resolve_numerics(tier)
        q, sq = quality["dense"][tier], quality["spatten"][tier]
        table.add_row(
            tier,
            f"{dense_t[tier] * 1e3:.2f}",
            f"{dense_t['exact'] / dense_t[tier]:.2f}x",
            f"{q['kl']:.2e}",
            f"{q['argmax']:.4f}",
            f"{q['nll_delta']:+.2e}",
            str(policy.storage_bytes_per_element(2)),
            f"{spatten_t[tier] * 1e3:.2f}",
            f"{sq['kl']:.2e}",
            f"{sq['argmax']:.4f}",
        )
    table.add_note(
        f"batch {BATCH}, prefill {PREFILL}; teacher-forced vs the fp64 "
        f"looped oracle (identical inputs every step); exact tier "
        f"asserted bit-identical"
    )
    table.add_note(
        "interleaved best-of-N trials per tier (every trial times all "
        "tiers back to back on fresh executors; min taken per tier)"
    )
    table.add_note(
        "declared budgets enforced: fp32 KL<=5e-4 argmax>=0.995, "
        "int8 KL<=5e-2 argmax>=0.99 (repro.nn.numerics)"
    )
    table.add_note(
        "KV bytes/elem is the DRAM *accounting* width: the exact tier "
        "keeps the model's declared width (2 here), fp32/int8 override it"
    )
    table.add_note(
        f"spatten columns: cascade pruning on (token keep "
        f"{PRUNING.token_keep_final}, head keep {PRUNING.head_keep_final}, "
        f"value keep {PRUNING.value_keep}) vs the fp64 looped SpAtten "
        f"oracle, same budgets; exact runs one core per sequence, "
        f"fp32/int8 the store core the dense rows run, cascade on"
    )
    table.add_note(
        f"int8 / fp32 step time: {dense_t['int8'] / dense_t['fp32']:.2f} "
        f"(full-bench bound: <= {INT8_OVER_FP32_BOUND})"
    )
    table.add_note(
        f"spatten fp32 / dense fp32 step time: "
        f"{spatten_t['fp32'] / dense_t['fp32']:.2f} (ROADMAP item 3 "
        f"target: <= 1; it rose when the dense rows joined the row "
        f"stores, which sped up the denominator alone)"
    )
    return table


def assert_quality_budgets(quality):
    """The gate the ladder's contract promises: exceed your declared
    accuracy budget and the build fails.  ``quality`` is one family's
    ``{tier: ...}``."""
    for tier, q in quality.items():
        policy = resolve_numerics(tier)
        if policy.is_exact:
            assert q["kl"] == 0.0 and q["argmax"] == 1.0
            continue
        assert q["kl"] <= policy.kl_budget, (
            f"{tier}: mean KL {q['kl']:.3e} exceeds declared budget "
            f"{policy.kl_budget:.0e}"
        )
        assert q["argmax"] >= policy.argmax_budget, (
            f"{tier}: argmax match {q['argmax']:.4f} below declared "
            f"budget {policy.argmax_budget}"
        )


def test_numerics_ladder(numerics_world, benchmark, publish):
    _, model, prompts = numerics_world
    samples, quality, prefill = benchmark.pedantic(
        measure_ladder, args=(model, prompts, 96, 4), rounds=1, iterations=1
    )
    times = best(samples)
    publish("numerics", ladder_table(
        times, quality,
        "numerics ladder: decode step at an accuracy budget (batch 16)",
    ), prefill_table(
        prefill, "numerics ladder: prompt pass at an accuracy budget",
    ))
    for family in quality:
        assert_quality_budgets(quality[family])
        assert_quality_budgets(prefill[family])
    # The headline win past the bit-identity ceiling, and int8 held to
    # the fp32 step it is built on (quantization overhead only): a
    # ratio to ``exact`` moves whenever the oracle's own step does.
    dense = times["dense"]
    assert dense["exact"] / dense["fp32"] >= 1.5, (
        "fp32 tier lost its >=1.5x win over packed-exact"
    )
    assert dense["int8"] / dense["fp32"] <= INT8_OVER_FP32_BOUND, (
        f"int8 step exceeds {INT8_OVER_FP32_BOUND}x the fp32 step"
    )


@pytest.mark.smoke
def test_numerics_smoke(numerics_world, publish, history):
    """Tier-1 gate: quality budgets are hard (near-deterministic
    teacher-forced math), wall-clock floors carry shared-runner slack
    with the full ratios tracked by the regression history."""
    from repro.insight import metric

    _, model, prompts = numerics_world
    samples, quality, prefill = measure_ladder(model, prompts, 32, 3)
    times = best(samples)
    publish("numerics_smoke", ladder_table(
        times, quality, "numerics ladder smoke (batch 16)",
    ), prefill_table(prefill, "numerics ladder smoke: prompt pass"))
    for family in quality:
        assert_quality_budgets(quality[family])
        assert_quality_budgets(prefill[family])
    dense, spatten = times["dense"], times["spatten"]
    prefill_metrics = {}
    for family, tiers in prefill.items():
        for tier in ("fp32", "int8"):
            p, name = tiers[tier], f"prefill_{family}_{tier}"
            # fp32's KL sits at the rounding floor (~1e-11 against a
            # 5e-4 budget): only an order of magnitude is a signal.
            prefill_metrics[f"{name}_kl"] = metric(
                p["kl"], "nats", "lower",
                rel_tol=9.0 if tier == "fp32" else 0.6)
            prefill_metrics[f"{name}_argmax"] = metric(
                p["argmax"], "frac", "higher", rel_tol=0.05)
            prefill_metrics[f"{name}_over_exact"] = metric(
                p["seconds"] / tiers["exact"]["seconds"], "x", "lower",
                rel_tol=0.5)
    history("numerics", {
        **prefill_metrics,
        "fp32_speedup": metric(dense["exact"] / dense["fp32"], "x",
                               "higher", rel_tol=0.5),
        "int8_speedup": metric(dense["exact"] / dense["int8"], "x",
                               "higher", rel_tol=0.5),
        "int8_kl": metric(quality["dense"]["int8"]["kl"], "nats", "lower",
                          rel_tol=0.6),
        "int8_argmax": metric(quality["dense"]["int8"]["argmax"], "frac",
                              "higher", rel_tol=0.05),
        "spatten_fp32_over_dense_fp32": metric(
            spatten["fp32"] / dense["fp32"], "x", "lower", rel_tol=0.5),
        "spatten_int8_over_spatten_fp32": metric(
            spatten["int8"] / spatten["fp32"], "x", "lower", rel_tol=0.5),
    }, context={"batch": BATCH, "prefill": PREFILL})
    # Wall-clock floors with slack for loaded runners, each the median
    # of per-trial ratios; the full bench holds the 1.5x and
    # INT8_OVER_FP32_BOUND lines.
    fp32_speedup = median_ratio(samples["dense"], "exact", "fp32")
    assert fp32_speedup >= 1.2, (
        f"fp32 speedup regressed: {fp32_speedup:.3f}x < 1.2x (exact "
        f"{dense['exact'] * 1e3:.3f} ms/step, fp32 "
        f"{dense['fp32'] * 1e3:.3f} ms/step, best of trials)")
    int8_over_fp32 = median_ratio(samples["dense"], "int8", "fp32")
    assert int8_over_fp32 <= 1.5, (
        f"int8 step regressed: {int8_over_fp32:.3f}x > 1.5x (int8 "
        f"{dense['int8'] * 1e3:.3f} ms/step, fp32 "
        f"{dense['fp32'] * 1e3:.3f} ms/step, best of trials)")

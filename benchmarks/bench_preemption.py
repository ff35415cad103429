"""Admission-mode sweep: reservation vs optimistic + preemption.

One pruning-heavy trace — mostly short and long prompts on an
aggressive cascade schedule, a dense minority for pressure — is
replayed through the serving engine at a *fixed, tight* pool budget
under every admission configuration:

* ``reserve`` — the PR-1 contract: worst-case schedule-bound pages
  held from admission to retirement.  Pages reclaimed by mid-flight
  pruning drain back to the pool but cannot admit work already refused
  at reservation time — the admission-starvation bug this sweep
  quantifies.
* ``optimistic`` (× victim policy) — admission bills the prompt
  footprint against *actual* usage; decode growth is recovered by
  preemption (recompute-on-preempt) when the optimism turns out wrong.

Three claims are gated, matching the acceptance bar:

1. optimistic admission + preemption **strictly improves throughput
   and TTFT p95** over reservation-only admission at the same pool
   budget;
2. **zero token loss**: every cell commits bit-identical per-request
   token streams (greedy recompute replays exactly), and every request
   runs to its full decode budget;
3. the pool ledger stays clean: the engine audits after every
   preemption cycle, and the final audit passes here for every cell —
   with preemption actually exercised (``n_preemptions > 0``).
"""

import pytest

from repro.config import PruningConfig
from repro.eval.reporting import Table
from repro.serving import KVMemoryPool, ServingEngine
from repro.workloads import (
    TrafficClass,
    heterogeneous_request_trace,
    serving_lm_world,
)

PAGE_TOKENS = 16
POOL_PAGES = 96
PREFILL_CHUNK = 32
TRACE_SEED = 29
N_REQUESTS = 48
RATE = 2000.0

HEAVY_PRUNING = PruningConfig(
    token_keep_final=0.3, head_keep_final=0.625, value_keep=0.9
)
#: Pruning-heavy: 85% of arrivals run the aggressive cascade schedule
#: (the workload whose reclaimed pages reserve-mode admission wastes);
#: a 15% dense minority keeps real pressure on the pool.
PRUNING_HEAVY_CLASSES = [
    TrafficClass("pruned-short", weight=0.55, prompt_len=32,
                 max_new_tokens=(16, 32), pruning=HEAVY_PRUNING),
    TrafficClass("pruned-long", weight=0.30, prompt_len=96,
                 max_new_tokens=(16, 32), pruning=HEAVY_PRUNING),
    TrafficClass("dense-short", weight=0.15, prompt_len=32,
                 max_new_tokens=(16, 32), pruning=None),
]

#: (admission, preempt_policy, headroom_pages) cells; reserve ignores
#: the policy and headroom.  ``headroom=0`` is fully optimistic — on
#: this trace it over-admits into a preemption thrash (recompute work
#: rivals useful work) and *loses* to reserve mode, which is exactly
#: why the headroom knob exists; 12 pages of slack absorbs the
#: resident set's decode growth and flips the sweep to a strict win
#: with preemption still exercised.
HEADROOM = 12
CELLS = [
    ("reserve", "-", 0),
    ("optimistic", "lowest_priority", 0),
    ("optimistic", "lowest_priority", HEADROOM),
    ("optimistic", "most_pages", HEADROOM),
    ("optimistic", "latest_arrival", HEADROOM),
]
SMOKE_CELLS = [
    ("reserve", "-", 0),
    ("optimistic", "lowest_priority", HEADROOM),
]
BASELINE_KEY = ("reserve", "-", 0)
OPTIMISTIC_KEY = ("optimistic", "lowest_priority", HEADROOM)


@pytest.fixture(scope="module")
def preemption_world():
    return serving_lm_world(corpus_tokens=8192)


def pool_budget_bytes(config):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return POOL_PAGES * PAGE_TOKENS * per_token


def pruning_heavy_trace(corpus):
    return heterogeneous_request_trace(
        corpus, PRUNING_HEAVY_CLASSES, n_requests=N_REQUESTS,
        rate_per_s=RATE, seed=TRACE_SEED,
    )


def run_cell(config, model, requests, admission, policy, headroom):
    pool = KVMemoryPool(
        config, budget_bytes=pool_budget_bytes(config),
        page_tokens=PAGE_TOKENS,
    )
    engine = ServingEngine(
        model, pool, prefill_chunk=PREFILL_CHUNK, admission=admission,
        preempt_policy=policy if policy != "-" else "lowest_priority",
        headroom_pages=headroom,
    )
    stats = engine.run(requests)
    pool.audit()  # the engine also audits after every preemption cycle
    return stats


def admission_sweep(config, model, requests, cells):
    return {
        cell: run_cell(config, model, requests, *cell)
        for cell in cells
    }


def tokens_by_id(stats):
    return {r.request.request_id: list(r.token_ids) for r in stats.records}


def make_table(results, title):
    ms = 1e3
    table = Table(
        title=title,
        headers=["admission", "preempt policy", "headroom", "tok/s",
                 "ttft p95 (ms)", "ttft p99 (ms)", "queue p95 (ms)",
                 "preempts", "recompute toks", "occ peak"],
    )
    for (admission, policy, headroom), stats in results.items():
        table.add_row(
            admission, policy, str(headroom), f"{stats.throughput_tps:.0f}",
            f"{stats.ttft_p95 * ms:.1f}", f"{stats.ttft_p99 * ms:.1f}",
            f"{stats.queue_wait_p95 * ms:.1f}",
            str(stats.n_preemptions), str(stats.recompute_tokens),
            f"{stats.occupancy_peak:.0%}",
        )
    table.add_note(
        f"one pruning-heavy trace ({N_REQUESTS} requests at {RATE:.0f} "
        f"req/s: 85% aggressive cascade schedule, 15% dense), replayed "
        f"per cell against a fixed pool of {POOL_PAGES} pages x "
        f"{PAGE_TOKENS} tokens; bit-identical token streams asserted "
        f"across every cell (preemption costs latency, never tokens)"
    )
    return table


def check_claims(results):
    reserve = results[BASELINE_KEY]
    optimistic = results[OPTIMISTIC_KEY]
    # Claim 2 first: identical, complete token streams everywhere.
    reference = tokens_by_id(reserve)
    for key, stats in results.items():
        assert tokens_by_id(stats) == reference, (
            f"{key} changed the committed token streams"
        )
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.records
        ), f"{key} lost tokens"
    # Claim 3: preemption was actually exercised, not vacuously gated.
    assert optimistic.n_preemptions > 0, (
        "optimistic cell never preempted; the sweep is not exercising "
        "the pressure path"
    )
    # Claim 1: strict throughput and TTFT-tail win at the same budget.
    assert optimistic.throughput_tps > reserve.throughput_tps, (
        f"optimistic admission lost throughput: "
        f"{optimistic.throughput_tps:.0f} vs {reserve.throughput_tps:.0f} "
        f"tok/s"
    )
    assert optimistic.ttft_p95 < reserve.ttft_p95, (
        f"optimistic admission lost the TTFT tail: "
        f"{optimistic.ttft_p95:.4f}s vs {reserve.ttft_p95:.4f}s"
    )


def test_admission_mode_sweep(preemption_world, benchmark, publish):
    config, model, corpus = preemption_world
    requests = pruning_heavy_trace(corpus)
    results = benchmark.pedantic(
        admission_sweep, args=(config, model, requests, CELLS),
        rounds=1, iterations=1,
    )
    publish(
        "preemption",
        make_table(results,
                   "admission modes at a fixed pool budget (serving)"),
    )
    check_claims(results)


@pytest.mark.smoke
def test_admission_mode_smoke(preemption_world, publish, history):
    """Tier-1 gate: optimistic admission must not lose to reserve mode.

    Runs only the two cells the acceptance bar needs and fails the
    build if optimistic admission + preemption stops strictly beating
    reservation-only admission on throughput or TTFT p95, if any token
    stream diverges, or if the pool ledger audit fails.
    """
    config, model, corpus = preemption_world
    requests = pruning_heavy_trace(corpus)
    results = admission_sweep(config, model, requests, SMOKE_CELLS)
    publish(
        "preemption_smoke",
        make_table(results, "admission modes smoke (reserve vs optimistic)"),
    )
    check_claims(results)
    from repro.insight import metric

    reserve = results[BASELINE_KEY]
    optimistic = results[OPTIMISTIC_KEY]
    history("preemption", {
        "reserve_tps": metric(reserve.throughput_tps, "tok/s", "higher"),
        "optimistic_tps": metric(optimistic.throughput_tps, "tok/s",
                                 "higher"),
        "optimistic_ttft_p95_ms": metric(optimistic.ttft_p95 * 1e3, "ms",
                                         "lower"),
    }, context={"cells": "smoke"})

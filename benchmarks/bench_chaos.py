"""Chaos soak: the fleet under deterministic fault plans.

One fixed arrival trace is replayed through a two-replica cluster
under seeded :class:`repro.faults.FaultPlan` schedules, sweeping
fault-plan seed x intensity profile (``light`` / ``moderate`` /
``heavy``), plus a pressure cell that runs the graceful-degradation
ladder on a deliberately starved pool.  Four claims are gated,
matching the acceptance bar:

1. **ledgers stay clean**: every chaos run audits the sharded pool
   after each placement (``audit_every=1``) and once more after the
   run;
2. **zero token loss**: every non-failed request delivers its full
   decode budget, and every surviving non-degraded stream is
   bit-identical to the fault-free baseline's (crashes, stragglers,
   and corruption cost latency, never tokens);
3. **goodput retention**: mean goodput across the ``moderate`` seeds
   stays at or above 70% of the fault-free baseline;
4. **deterministic replay**: re-running a chaos cell under the same
   plan reproduces the stats document byte for byte.

The degradation cell additionally requires the ladder to be
*observable*: under sustained pressure the fleet must shed best-effort
load and escalate schedules (with preemption as the existing
backstop), all visible in the archived counters.

Fleet-health metrics (availability, MTTR, retries, recoveries) are
archived per cell under ``benchmarks/results/chaos_soak.txt`` and, for
downstream tooling, ``benchmarks/results/chaos_soak.json``.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import PruningConfig
from repro.eval.reporting import Table
from repro.faults import CHAOS_PROFILES, FaultPlan
from repro.serving import DegradationPolicy, Request, RequestStatus
from repro.workloads import (
    serving_lm_world,
    synthetic_request_trace,
)

RESULTS_DIR = Path(__file__).parent / "results"

PAGE_TOKENS = 8
POOL_PAGES = 128
DEGRADE_POOL_PAGES = 48
N_REPLICAS = 2
PROMPT_LEN = 24
N_REQUESTS = 24
RATE = 1200.0
TRACE_SEED = 11
RETRY_BUDGET = 4
RETRY_BACKOFF_S = 0.01

SOAK_SEEDS = list(range(6))
SMOKE_SEEDS = list(range(3))
PROFILES = ["light", "moderate", "heavy"]
GOODPUT_RETENTION_FLOOR = 0.70

AGGRESSIVE = PruningConfig(
    token_keep_final=0.3, head_keep_final=0.625, value_keep=0.9
)
DEGRADE_POLICY = DegradationPolicy(
    free_page_frac=0.5, sustain_steps=2, shed_priority_floor=1,
    reprune=AGGRESSIVE,
)


@pytest.fixture(scope="module")
def chaos_world():
    return serving_lm_world(n_layers=4, d_model=64, n_heads=4,
                            max_seq_len=160, corpus_tokens=4096)


def make_pool(config, pages=POOL_PAGES):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return ShardedKVPool(
        config, total_budget_bytes=pages * PAGE_TOKENS * per_token,
        n_replicas=N_REPLICAS, page_tokens=PAGE_TOKENS,
    )


def soak_trace(corpus):
    return synthetic_request_trace(
        corpus, n_requests=N_REQUESTS, rate_per_s=RATE,
        prompt_len=PROMPT_LEN, max_new_tokens=(8, 16), seed=TRACE_SEED,
    )


def tiered(requests):
    """Alternate interactive (0) and best-effort (1) priority tiers."""
    return [
        Request(r.request_id, r.prompt_ids, r.max_new_tokens,
                r.arrival_time, priority=r.request_id % 2)
        for r in requests
    ]


def run_cell(config, model, requests, plan=None, pages=POOL_PAGES,
             degradation=None, admission="reserve"):
    pool = make_pool(config, pages)
    stats = ClusterEngine(
        model, pool, policy="least_loaded",
        faults=plan.events if plan is not None else (),
        heartbeat_timeout_s=(
            plan.heartbeat_timeout_s if plan is not None else None
        ),
        retry_budget=RETRY_BUDGET, retry_backoff_s=RETRY_BACKOFF_S,
        degradation=degradation, admission=admission,
        audit_every=1,
    ).run(requests)
    pool.audit()
    return stats


def surviving_tokens(stats):
    """request_id -> stream for FINISHED, non-degraded records."""
    return {
        r.request.request_id: list(r.token_ids)
        for r in stats.fleet.records
        if r.status is RequestStatus.FINISHED and not r.degraded
    }


def check_no_token_loss(stats, base_tokens, label):
    for r in stats.fleet.records:
        assert r.status in (RequestStatus.FINISHED, RequestStatus.FAILED), (
            f"{label}: request {r.request.request_id} ended "
            f"{r.status.name}, neither FINISHED nor FAILED"
        )
        if r.status is RequestStatus.FINISHED:
            assert r.n_generated == r.request.max_new_tokens, (
                f"{label}: request {r.request.request_id} lost tokens"
            )
    for rid, stream in surviving_tokens(stats).items():
        assert stream == base_tokens[rid], (
            f"{label}: request {rid}'s surviving stream diverged from "
            f"the fault-free run"
        )


def cell_row(seed, profile, stats, baseline):
    return {
        "seed": seed,
        "profile": profile,
        "goodput_tps": stats.goodput_tps,
        "retention": stats.goodput_tps / baseline.goodput_tps,
        "availability": stats.availability,
        "mttr_s": None if stats.mttr_s != stats.mttr_s else stats.mttr_s,
        "n_failed_requests": stats.n_failed_requests,
        "n_recovered": stats.n_recovered,
        "n_retries": stats.n_retries,
        "n_breaker_trips": stats.n_breaker_trips,
        "n_corruptions": stats.fleet.n_corruptions,
    }


def chaos_matrix(config, model, requests, seeds, baseline):
    horizon = requests[-1].arrival_time + 0.05
    rows = []
    for profile in PROFILES:
        for seed in seeds:
            plan = FaultPlan.generate(
                seed, n_replicas=N_REPLICAS, horizon_s=horizon,
                profile=profile,
            )
            stats = run_cell(config, model, requests, plan=plan)
            rows.append((plan, stats, cell_row(seed, profile, stats,
                                               baseline)))
    return rows


def make_matrix_table(rows, baseline, title):
    table = Table(
        title=title,
        headers=["profile", "seed", "goodput tok/s", "retention",
                 "avail", "mttr (ms)", "failed", "recovered", "retries",
                 "breaker", "corrupt"],
    )
    table.add_row("(fault-free)", "-", f"{baseline.goodput_tps:.0f}",
                  "1.00", "100%", "-", "0", "0", "0", "0", "0")
    for _, _, row in rows:
        mttr = "-" if row["mttr_s"] is None else f"{row['mttr_s']*1e3:.1f}"
        table.add_row(
            row["profile"], str(row["seed"]),
            f"{row['goodput_tps']:.0f}", f"{row['retention']:.2f}",
            f"{row['availability']:.0%}", mttr,
            str(row["n_failed_requests"]), str(row["n_recovered"]),
            str(row["n_retries"]), str(row["n_breaker_trips"]),
            str(row["n_corruptions"]),
        )
    table.add_note(
        f"one trace ({N_REQUESTS} requests at {RATE:.0f} req/s) replayed "
        f"per cell under a seeded FaultPlan; every cell audits the "
        f"sharded ledger after each placement, loses no tokens, and "
        f"replays byte-identically; goodput = FINISHED tokens / makespan"
    )
    return table


def make_degrade_table(stats, baseline):
    f = stats.fleet
    table = Table(
        title="graceful degradation under pressure (starved pool)",
        headers=["pool pages", "goodput tok/s", "shed", "repruned",
                 "preempts", "failed", "finished"],
    )
    table.add_row(
        str(DEGRADE_POOL_PAGES), f"{stats.goodput_tps:.0f}",
        str(f.n_shed), str(f.n_repruned), str(f.n_preemptions),
        str(stats.n_failed_requests),
        str(sum(r.status is RequestStatus.FINISHED for r in f.records)),
    )
    table.add_note(
        f"same trace on a pool starved to {DEGRADE_POOL_PAGES} pages "
        f"(vs {POOL_PAGES} baseline at {baseline.goodput_tps:.0f} tok/s): "
        f"the ladder sheds best-effort arrivals, then escalates "
        f"head-of-line schedules to the aggressive cascade; preemption "
        f"stays the final backstop"
    )
    return table


def archive_json(rows, baseline, degrade_stats):
    RESULTS_DIR.mkdir(exist_ok=True)
    f = degrade_stats.fleet
    doc = {
        "trace": {"n_requests": N_REQUESTS, "rate_per_s": RATE,
                  "seed": TRACE_SEED},
        "baseline_goodput_tps": baseline.goodput_tps,
        "retention_floor": GOODPUT_RETENTION_FLOOR,
        "cells": [row for _, _, row in rows],
        "degradation": {
            "pool_pages": DEGRADE_POOL_PAGES,
            "goodput_tps": degrade_stats.goodput_tps,
            "n_shed": f.n_shed,
            "n_repruned": f.n_repruned,
            "n_preemptions": f.n_preemptions,
            "n_failed_requests": degrade_stats.n_failed_requests,
        },
    }
    path = RESULTS_DIR / "chaos_soak.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_claims(config, model, requests, rows, baseline):
    base_tokens = surviving_tokens(baseline)
    for plan, stats, row in rows:
        label = f"seed {row['seed']}/{row['profile']}"
        check_no_token_loss(stats, base_tokens, label)
    moderate = [row for _, _, row in rows if row["profile"] == "moderate"]
    retention = sum(r["retention"] for r in moderate) / len(moderate)
    assert retention >= GOODPUT_RETENTION_FLOOR, (
        f"moderate-intensity goodput retention {retention:.2f} fell "
        f"below the {GOODPUT_RETENTION_FLOOR:.0%} acceptance floor"
    )
    # Deterministic replay of the first moderate cell, byte for byte.
    plan, stats, _ = next(
        r for r in rows if r[2]["profile"] == "moderate"
    )
    replay = run_cell(config, model, requests, plan=plan)
    assert replay.to_json() == stats.to_json(), (
        "chaos run is not deterministic: replay under the same plan "
        "produced a different stats document"
    )


def run_degrade_cell(config, model, requests):
    stats = run_cell(
        config, model, tiered(requests), pages=DEGRADE_POOL_PAGES,
        degradation=DEGRADE_POLICY, admission="optimistic",
    )
    f = stats.fleet
    assert f.n_shed > 0, "degradation ladder never shed load"
    assert f.n_repruned > 0, "degradation ladder never escalated pruning"
    for r in f.records:
        if r.status is RequestStatus.FINISHED:
            assert r.n_generated == r.request.max_new_tokens
    return stats


def test_chaos_soak(chaos_world, benchmark, publish):
    config, model, corpus = chaos_world
    requests = soak_trace(corpus)
    baseline = run_cell(config, model, requests)
    rows = benchmark.pedantic(
        chaos_matrix, args=(config, model, requests, SOAK_SEEDS, baseline),
        rounds=1, iterations=1,
    )
    check_claims(config, model, requests, rows, baseline)
    degrade_stats = run_degrade_cell(config, model, requests)
    publish(
        "chaos_soak",
        make_matrix_table(rows, baseline,
                          "chaos soak: fault-plan seed x intensity"),
        make_degrade_table(degrade_stats, baseline),
    )
    archive_json(rows, baseline, degrade_stats)


@pytest.mark.smoke
def test_chaos_smoke(chaos_world, publish, history):
    """Tier-1 gate: a reduced seed sweep plus the degradation cell.

    Fails the build if any chaos cell dirties the ledger, loses a
    token, drops moderate-intensity goodput retention below the
    acceptance floor, replays non-deterministically, or if the
    degradation ladder stops being observable under pressure.
    """
    config, model, corpus = chaos_world
    requests = soak_trace(corpus)
    baseline = run_cell(config, model, requests)
    rows = chaos_matrix(config, model, requests, SMOKE_SEEDS, baseline)
    check_claims(config, model, requests, rows, baseline)
    degrade_stats = run_degrade_cell(config, model, requests)
    from repro.insight import metric

    moderate = [row for _, _, row in rows if row["profile"] == "moderate"]
    retention = sum(r["retention"] for r in moderate) / len(moderate)
    history("chaos", {
        "baseline_goodput_tps": metric(baseline.goodput_tps, "tok/s",
                                       "higher"),
        "moderate_retention": metric(retention, "x", "higher"),
    }, context={"seeds": len(SMOKE_SEEDS)})
    publish(
        "chaos_soak_smoke",
        make_matrix_table(rows, baseline,
                          "chaos soak (smoke): fault-plan seed x intensity"),
        make_degrade_table(degrade_stats, baseline),
    )
    archive_json(rows, baseline, degrade_stats)

"""Cluster scaling: replica count x routing policy at a fixed budget.

The sweep replays one *skewed* heterogeneous trace — mostly cheap
heavily-pruned short-prompt requests plus a minority of long dense
ones, every request carrying its own cascade schedule — against every
routing policy and replica count, holding the fleet's *total* KV pool
budget fixed (more replicas = smaller shards, so scaling wins have to
come from parallel compute timelines, not extra memory).

Three claims are checked, matching the subsystem's acceptance bar:

1. **fleet throughput scales**: going 1 -> 2 replicas at the same
   total budget gains >= 1.8x with pruning-aware routing;
2. **schedule-aware routing beats blind routing**: ``pruning_aware``
   strictly beats ``round_robin`` on TTFT p95 (and never loses on
   throughput) at every multi-replica point of the skewed trace —
   round-robin keeps landing dense requests on page-starved replicas
   while a cheaper replica idles;
3. **the cluster layer is free at N=1**: a single-replica cluster
   commits the same token streams with the same stats as the plain
   engine on the same trace (the event loop degenerates to
   ``ServingEngine.run``).
"""

import pytest

from repro.config import PruningConfig
from repro.cluster import ClusterEngine, ShardedKVPool
from repro.eval.reporting import Table
from repro.serving import KVMemoryPool, ServingEngine
from repro.workloads import (
    TrafficClass,
    heterogeneous_request_trace,
    serving_lm_world,
)

PAGE_TOKENS = 16
TOTAL_POOL_PAGES = 512
PREFILL_CHUNK = 32
POLICIES = ("round_robin", "least_loaded", "pruning_aware")
TRACE_SEED = 23
N_REQUESTS = 80
RATE = 2000.0

CHEAP_PRUNING = PruningConfig(
    token_keep_final=0.3, head_keep_final=0.625, value_keep=0.9
)
#: 3 of 4 requests are cheap (short prompt, aggressive cascade
#: schedule); the rest are long dense prompts.  This is the skew the
#: pruning-aware policy exists for.
SKEWED_CLASSES = [
    TrafficClass("pruned-short", weight=0.75, prompt_len=32,
                 max_new_tokens=(16, 32), pruning=CHEAP_PRUNING),
    TrafficClass("dense-long", weight=0.25, prompt_len=128,
                 max_new_tokens=(16, 32), pruning=None),
]


@pytest.fixture(scope="module")
def cluster_world():
    return serving_lm_world(corpus_tokens=8192)


def total_budget_bytes(config):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return TOTAL_POOL_PAGES * PAGE_TOKENS * per_token


def skewed_trace(config, corpus, n_requests, rate):
    return heterogeneous_request_trace(
        corpus, SKEWED_CLASSES, n_requests=n_requests, rate_per_s=rate,
        seed=TRACE_SEED,
    )


def run_cluster(config, model, requests, n_replicas, policy):
    pool = ShardedKVPool(
        config, total_budget_bytes=total_budget_bytes(config),
        n_replicas=n_replicas, page_tokens=PAGE_TOKENS,
    )
    cluster = ClusterEngine(
        model, pool, policy=policy, prefill_chunk=PREFILL_CHUNK
    )
    return cluster.run(requests)


def scaling_sweep(config, model, requests, replica_counts):
    return {
        (n, policy): run_cluster(config, model, requests, n, policy)
        for n in replica_counts
        for policy in POLICIES
    }


def make_table(results, n_requests, rate, title):
    ms = 1e3
    table = Table(
        title=title,
        headers=["replicas", "policy", "fleet tok/s", "ttft p95 (ms)",
                 "ttft p99 (ms)", "decode p95 (ms/tok)", "routed/replica",
                 "occ peak"],
    )
    for (n, policy), stats in sorted(results.items()):
        f = stats.fleet
        table.add_row(
            str(n), policy, f"{f.throughput_tps:.0f}",
            f"{f.ttft_p95 * ms:.1f}", f"{f.ttft_p99 * ms:.1f}",
            f"{f.decode_latency_p95 * ms:.2f}",
            "/".join(str(c) for c in stats.routed_counts),
            f"{f.occupancy_peak:.0%}",
        )
    table.add_note(
        f"one skewed trace ({n_requests} requests at {rate:.0f} req/s: "
        f"75% short prompts on an aggressive cascade schedule, 25% long "
        f"dense), replayed per cell; fixed total pool of "
        f"{TOTAL_POOL_PAGES} pages x {PAGE_TOKENS} tokens split across "
        f"replicas; simulated parallel replica clocks"
    )
    return table


def test_cluster_scaling(cluster_world, benchmark, publish):
    config, model, corpus = cluster_world
    requests = skewed_trace(config, corpus, N_REQUESTS, RATE)
    results = benchmark.pedantic(
        scaling_sweep, args=(config, model, requests, (1, 2, 3, 4)),
        rounds=1, iterations=1,
    )
    publish(
        "cluster_scaling",
        make_table(results, N_REQUESTS, RATE,
                   "cluster scaling, replica count x routing policy"),
    )

    # Every cell fully serves the trace: no token loss under any policy.
    for stats in results.values():
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )
    # Claim 1: fleet throughput scales >= 1.8x from 1 -> 2 replicas at
    # the same total budget (pruning-aware routing).
    one = results[(1, "pruning_aware")].fleet.throughput_tps
    two = results[(2, "pruning_aware")].fleet.throughput_tps
    assert two >= 1.8 * one, f"1->2 replica scaling only {two / one:.2f}x"
    # Claim 2: schedule-aware routing strictly beats round robin on the
    # TTFT tail wherever there is a placement choice to make.
    for n in (2, 3, 4):
        aware = results[(n, "pruning_aware")].fleet
        blind = results[(n, "round_robin")].fleet
        assert aware.ttft_p95 < blind.ttft_p95, (
            f"{n} replicas: pruning_aware ttft p95 {aware.ttft_p95:.4f}s "
            f"not better than round_robin {blind.ttft_p95:.4f}s"
        )
        assert aware.throughput_tps >= blind.throughput_tps * 0.999, (
            f"{n} replicas: pruning_aware gave up throughput"
        )


def test_single_replica_cluster_matches_plain_engine(cluster_world, publish):
    """Claim 3: the cluster layer adds nothing at N=1 — same tokens,
    same simulated-clock stats as ServingEngine.run on the same trace."""
    config, model, corpus = cluster_world
    requests = skewed_trace(config, corpus, 24, 1200.0)
    plain = ServingEngine(
        model,
        KVMemoryPool(config, total_budget_bytes(config),
                     page_tokens=PAGE_TOKENS),
        prefill_chunk=PREFILL_CHUNK,
    ).run(requests)
    clustered = run_cluster(config, model, requests, 1, "round_robin")
    replica = clustered.replicas[0]
    assert (
        [r.token_ids for r in plain.records]
        == [r.token_ids for r in replica.records]
    ), "single-replica cluster changed the committed tokens"
    plain_dict = plain.to_dict()
    replica_dict = replica.to_dict()
    assert plain_dict == replica_dict, {
        k: (plain_dict[k], replica_dict[k])
        for k in plain_dict
        if plain_dict[k] != replica_dict[k]
    }
    table = Table(
        title="single-replica cluster vs plain engine (identical)",
        headers=["path", "tok/s", "ttft p95 (ms)", "decode p95 (ms/tok)"],
    )
    for label, stats in (("plain serve", plain), ("serve-cluster x1", replica)):
        table.add_row(label, f"{stats.throughput_tps:.0f}",
                      f"{stats.ttft_p95 * 1e3:.1f}",
                      f"{stats.decode_latency_p95 * 1e3:.2f}")
    publish("cluster_single_replica_identity", table)


@pytest.mark.smoke
def test_cluster_scaling_smoke(cluster_world, publish, history):
    """Tier-1 gate: scaling >= 1.8x and the pruning-aware TTFT win.

    Runs the same trace as the full sweep but only the three cells the
    acceptance bar needs: one replica as the baseline, and both
    policies at two replicas.
    """
    config, model, corpus = cluster_world
    requests = skewed_trace(config, corpus, N_REQUESTS, RATE)
    results = {
        (n, policy): run_cluster(config, model, requests, n, policy)
        for n, policy in (
            (1, "round_robin"),
            (2, "round_robin"),
            (2, "pruning_aware"),
        )
    }
    publish(
        "cluster_scaling_smoke",
        make_table(results, N_REQUESTS, RATE, "cluster scaling smoke"),
    )
    # At one replica every policy routes identically, so round_robin is
    # the baseline for the scaling claim.
    one = results[(1, "round_robin")].fleet.throughput_tps
    two = results[(2, "pruning_aware")].fleet.throughput_tps
    assert two >= 1.8 * one, f"1->2 replica scaling only {two / one:.2f}x"
    aware = results[(2, "pruning_aware")].fleet
    blind = results[(2, "round_robin")].fleet
    assert aware.ttft_p95 < blind.ttft_p95
    from repro.insight import metric

    history("cluster_scaling", {
        "scaling_1_to_2": metric(two / one, "x", "higher"),
        "aware_ttft_p95_ms": metric(aware.ttft_p95 * 1e3, "ms", "lower"),
        "blind_ttft_p95_ms": metric(blind.ttft_p95 * 1e3, "ms", "lower"),
    }, context={"n_requests": N_REQUESTS, "rate_per_s": RATE})
    for stats in results.values():
        assert all(
            r.n_generated == r.request.max_new_tokens
            for r in stats.fleet.records
        )

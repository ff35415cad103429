"""Seeded end-to-end scenarios whose artifacts are pinned across commits.

Each scenario runs a fully traced engine (or fleet) and returns the
three deterministic artifacts a lifecycle change could move — the
Chrome trace, the Prometheus exposition and the stats JSON.
``tests/data/lifecycle_golden.json`` holds their sha256 as recorded at
the commit *before* the request lifecycle moved into one transition
function; ``tests/test_lifecycle.py`` asserts them.  The two that run
the default ``prefill_chunk=None`` (``reserve_spatten``'s second run,
``degradation_ladder``) were re-recorded when ``None`` became the
whole-prompt chunk of the one mixed-step scheduler.  None of the
scenarios sets ``deadline_s``.

Re-record (only when an intended behaviour change moves the stream)::

    PYTHONPATH=src python tests/lifecycle_scenarios.py
"""

import hashlib
import json
import pathlib

from repro.cluster import ClusterEngine, ShardedKVPool
from repro.config import GPT2_SMALL, PruningConfig
from repro.faults import FaultEvent, FaultPlan
from repro.serving import (
    DegradationPolicy,
    KVMemoryPool,
    Request,
    ServingEngine,
)
from repro.telemetry import Telemetry, chrome_trace_json
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    make_lm_corpus,
    synthetic_request_trace,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "lifecycle_golden.json"

PROMPT_LEN = 24
PRUNING = PruningConfig(token_keep_final=0.4, head_keep_final=0.75,
                        value_keep=0.9)
AGGRESSIVE = PruningConfig(token_keep_final=0.3, head_keep_final=0.625,
                           value_keep=0.9)


def build_setup():
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=4, d_model=64, n_heads=4,
        max_seq_len=160,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=2048, seed=2)
    return config, model, corpus


def _page_bytes(config, pages, page_tokens=8):
    per_token = 2 * config.n_heads * config.head_dim * config.bytes_per_element
    return pages * page_tokens * per_token


def _pool(config, pages):
    return KVMemoryPool(config, budget_bytes=_page_bytes(config, pages),
                        page_tokens=8)


def _sharded(config, total_pages, n_replicas):
    return ShardedKVPool(
        config, total_budget_bytes=_page_bytes(config, total_pages),
        n_replicas=n_replicas, page_tokens=8,
    )


def _trace(corpus, n, rate, max_new, seed):
    return synthetic_request_trace(
        corpus, n_requests=n, rate_per_s=rate, prompt_len=PROMPT_LEN,
        max_new_tokens=max_new, seed=seed,
    )


def reserve_spatten(setup):
    """Reserve-mode SpAtten serve at a real chunk size, then at the
    default whole-prompt chunk (``None``), periodic audits on."""
    config, model, corpus = setup
    requests = _trace(corpus, 8, 2000.0, (6, 12), seed=3)
    runs = []
    for chunk in (8, None):
        tel = Telemetry()
        stats = ServingEngine(
            model, _pool(config, 64), pruning=PRUNING, prefill_chunk=chunk,
            audit_every=4, telemetry=tel,
        ).run(requests)
        runs.append((tel, stats))
    return runs


def optimistic_preemption(setup):
    """Optimistic admission on a tight pool: preempt / requeue cycles."""
    config, model, corpus = setup
    requests = _trace(corpus, 16, 2000.0, (8, 16), seed=3)
    tel = Telemetry()
    stats = ServingEngine(
        model, _pool(config, 36), pruning=PRUNING, prefill_chunk=8,
        admission="optimistic", telemetry=tel,
    ).run(requests)
    return [(tel, stats)]


def degradation_ladder(setup):
    """Two-replica fleet under pressure: the ladder sheds best-effort
    load, then reprunes the head of the queue."""
    config, model, corpus = setup
    requests = [
        Request(r.request_id, r.prompt_ids, r.max_new_tokens,
                r.arrival_time, priority=r.request_id % 3)
        for r in _trace(corpus, 12, 8000.0, (10, 16), seed=5)
    ]
    tel = Telemetry()
    stats = ClusterEngine(
        model, _sharded(config, 48, 2), policy="least_loaded",
        degradation=DegradationPolicy(
            free_page_frac=0.5, sustain_steps=2, shed_priority_floor=2,
            reprune=AGGRESSIVE,
        ),
        telemetry=tel,
    ).run(requests)
    return [(tel, stats)]


def chaos_plan(requests):
    """drain -> recover -> fail -> corrupt over three replicas, timed off
    the trace's own arrival span.  All three replicas are down over
    [0.35, 0.45] of it, so displaced and arriving requests go through
    retry backoff (some exhaust it); a straggler window on replica 2
    trips the heartbeat breaker."""
    span = requests[-1].arrival_time
    return FaultPlan(n_replicas=3, events=(
        FaultEvent(0.10 * span, 2, "slow_start", factor=8.0),
        FaultEvent(0.20 * span, 0, "drain"),
        FaultEvent(0.25 * span, 2, "corrupt", u_seq=0.3, u_page=0.6),
        FaultEvent(0.30 * span, 2, "slow_end"),
        FaultEvent(0.30 * span, 1, "fail"),
        FaultEvent(0.35 * span, 2, "drain"),
        FaultEvent(0.45 * span, 0, "recover"),
        FaultEvent(0.55 * span, 2, "recover"),
        FaultEvent(0.70 * span, 0, "corrupt", u_seq=0.7, u_page=0.2),
        FaultEvent(0.85 * span, 2, "corrupt", u_seq=0.1, u_page=0.9),
    ))


def cluster_chaos(setup, numerics="exact"):
    """Three-replica optimistic fleet under :func:`chaos_plan`."""
    config, model, corpus = setup
    requests = _trace(corpus, 18, 1500.0, (6, 12), seed=11)
    span = requests[-1].arrival_time
    tel = Telemetry()
    pool = _sharded(config, 108, 3)
    stats = ClusterEngine(
        model, pool, policy="pruning_aware", pruning=PRUNING,
        prefill_chunk=8, admission="optimistic", numerics=numerics,
        faults=chaos_plan(requests).events, heartbeat_timeout_s=0.02 * span,
        retry_budget=1, retry_backoff_s=0.04 * span, audit_every=3,
        telemetry=tel,
    ).run(requests)
    pool.audit()
    return [(tel, stats)]


SCENARIOS = {
    "reserve_spatten": reserve_spatten,
    "optimistic_preemption": optimistic_preemption,
    "degradation_ladder": degradation_ladder,
    "cluster_chaos": cluster_chaos,
}


def digest(runs) -> str:
    """sha256 over every run's trace + exposition + stats JSON."""
    h = hashlib.sha256()
    for tel, stats in runs:
        for text in (chrome_trace_json(tel.tracer),
                     tel.metrics.prometheus_text(), stats.to_json()):
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    setup = build_setup()
    golden = {name: digest(fn(setup)) for name, fn in SCENARIOS.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps(golden, indent=1, sort_keys=True))

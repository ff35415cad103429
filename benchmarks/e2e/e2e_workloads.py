"""Workload definitions of the end-to-end benchmark.

Every workload is an open-loop Poisson arrival trace on the *simulated*
clock; the schedule is fixed by the trace and independent of host
speed, so in host time each workload is an offline batch and the
user-facing cost is host seconds to drain it.

Each trace is built from ``--seed`` alone: the seed draws every prompt
(and so every output stream the checks compare).  The *shape* of a
trace is the same for every seed — the number of requests of each
class, the multiset of decode budgets (evenly spaced over the class's
range), the pseudo-random order in which classes and budgets arrive and
the Poisson arrival gaps all come from :data:`SHAPE_SEED` — because the
short traces a 20 s run affords are otherwise different amounts of work
with different batch profiles from seed to seed (measured with shuffled
shapes: 11-21 % quartile spread on ``wall_tok_s``/``step_ms_p50``, and
two peak-RSS modes 30 % apart on ``decode_dense_fp32`` depending on how
arrival jitter ramps the KV arena).  Model and corpus seeds are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GPT2_SMALL, PruningConfig
from repro.serving.request import INHERIT_PRUNING, Request
from repro.workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    lm_prompts,
    make_lm_corpus,
    poisson_arrival_times,
)

#: The SpAtten cascade schedule every pruned request runs under.
PRUNING = PruningConfig(
    token_keep_final=0.35, head_keep_final=0.75, value_keep=0.9
)
PREFILL_CHUNK = 32
PAGE_TOKENS = 16
#: Orders classes and budgets and draws the arrival gaps of a trace,
#: identically for every ``--seed``.
SHAPE_SEED = 11
#: Requests per trace at ``--smoke`` scale (tier-1 smoke test).
SMOKE_REQUESTS = 8


@dataclass(frozen=True)
class RequestClass:
    """One request population of a trace."""

    share: float
    prompt_len: int
    max_new_tokens: Tuple[int, int]
    #: Per-request schedule; the default follows the engine's.
    pruning: object = INHERIT_PRUNING


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_layers: int
    numerics: str
    #: Engine-default cascade schedule (``None`` = dense).
    pruning: Optional[PruningConfig]
    classes: Tuple[RequestClass, ...]
    n_requests: int
    rate_per_s: float
    pool_kib: int
    #: Per timing metric, the share of a slowdown of the host-speed
    #: kernel (``e2e_worker.HostClock``) that this workload sees: the
    #: exponent that best explains the metric's per-repetition reading
    #: by the kernel's, fitted on this sandbox over 40-100 repetitions
    #: while its speed swung 2x (``setup_s`` takes ``wall_tok_s``'s).
    host_sensitivity: Dict[str, float]
    #: 0 runs one ``ServingEngine``; N > 0 runs a ``ClusterEngine`` of N
    #: replicas with the fleet settings in :data:`FLEET`.
    n_replicas: int = 0
    #: Span groups that must record zero calls on this workload (the
    #: "predicted no change" cells of the interaction table).
    zero_call_groups: Tuple[str, ...] = ()
    #: Least share of requests whose greedy stream must equal the
    #: exact-tier reference.  fp32 and exact reproduce it; int8 is
    #: allowed the rare argmax flip its declared KL budget permits.
    min_stream_match: float = 1.0


#: Fleet-only settings (``ClusterEngine`` keyword arguments).
FLEET = dict(
    policy="pruning_aware", admission="optimistic", headroom_pages=4,
    retry_budget=2, audit_every=8,
)

_PRUNING_CONTROL = (
    "core.pipeline.run_layer", "core.pipeline.decode_attend_packed",
    "core.topk.topk_indices", "core.token_pruning.prune_tokens",
    "core.head_pruning.prune_heads", "core.value_pruning",
    "core.importance.accumulate", "nn.kv_cache.keep",
)
_TELEMETRY = ("telemetry.tracer.emit", "telemetry.metrics.emit")
_DECODE_CLASSES = (RequestClass(1.0, 32, (32, 64)),)


def _sensitivity(wall: float, p50: float, p95: float) -> Dict[str, float]:
    return {"wall_tok_s": wall, "step_ms_p50": p50, "step_ms_p95": p95}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="decode_dense_fp32",
        why="Decode-dominated, no pruning: the padded-arena policy core and "
            "FFN do nearly all the work and core.* none; the bypass "
            "workload for any pruning-path change.",
        n_layers=4, numerics="fp32", pruning=None, classes=_DECODE_CLASSES,
        n_requests=40, rate_per_s=4000.0, pool_kib=4096,
        zero_call_groups=_PRUNING_CONTROL + _TELEMETRY,
        host_sensitivity=_sensitivity(0.65, 0.55, 0.75),
    ),
    Workload(
        name="decode_spatten_fp32",
        why="Same trace and engine as decode_dense_fp32 with the cascade "
            "schedule on, so any deficit against it is pruning-control "
            "cost (core.pipeline, core.topk, nn.kv_cache.keep).",
        n_layers=4, numerics="fp32", pruning=PRUNING, classes=_DECODE_CLASSES,
        n_requests=40, rate_per_s=4000.0, pool_kib=4096,
        zero_call_groups=_TELEMETRY,
        host_sensitivity=_sensitivity(0.95, 0.95, 1.0),
    ),
    Workload(
        name="prefill_spatten_int8",
        why="Prefill-dominated: long prompts, one whole-sentence cascade per "
            "request (run_layer summarize) instead of per-step decode "
            "control, plus the int8 KV quantize/append path.",
        n_layers=4, numerics="int8", pruning=PRUNING,
        classes=(RequestClass(1.0, 192, (4, 12)),),
        n_requests=32, rate_per_s=4000.0, pool_kib=2048,
        zero_call_groups=_TELEMETRY,
        host_sensitivity=_sensitivity(0.75, 1.1, 0.6),
        min_stream_match=0.9,
    ),
    Workload(
        name="fleet_mixed_exact",
        why="Control-plane-dominated and the only exact-tier workload: "
            "router estimators, scheduler, pool under pressure "
            "(preemption), ledger audits and telemetry all do real work "
            "while the model is small.",
        n_layers=2, numerics="exact", pruning=None,
        classes=(
            RequestClass(0.75, 32, (8, 24), PRUNING),
            RequestClass(0.25, 96, (8, 24), None),
        ),
        n_requests=64, rate_per_s=6000.0, pool_kib=768, n_replicas=3,
        zero_call_groups=("nn.batched_attention.decode_step_policy",),
        host_sensitivity=_sensitivity(0.8, 0.75, 0.85),
    ),
)}


def build_world(workload: Workload):
    """The fixed-seed model and prompt corpus a workload runs on."""
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=workload.n_layers, d_model=128,
        n_heads=8, max_seq_len=256,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=8192, seed=1)
    return config, model, corpus


def build_trace(
    workload: Workload, corpus: np.ndarray, seed: int, n_requests: int
) -> List[Request]:
    """The arrival trace of ``workload`` for one seed (fixed shape)."""
    classes = workload.classes
    class_seeds = np.random.SeedSequence(seed).spawn(len(classes))
    order_seed, arrival_seed = np.random.SeedSequence(SHAPE_SEED).spawn(2)
    # Fixed class counts: shares rounded, the last class takes the rest.
    counts = [int(round(c.share * n_requests)) for c in classes[:-1]]
    counts.append(n_requests - sum(counts))
    slots = []  # (class index, prompt, budget) before ordering
    for ci, (cls, count) in enumerate(zip(classes, counts)):
        low, high = cls.max_new_tokens
        budgets = np.linspace(low, high, count).round().astype(int)
        prompts = lm_prompts(corpus, cls.prompt_len, count,
                             seed=class_seeds[ci])
        slots += [(ci, prompts[j], int(budgets[j])) for j in range(count)]
    order = np.random.default_rng(order_seed).permutation(n_requests)
    arrivals = poisson_arrival_times(
        n_requests, workload.rate_per_s, seed=arrival_seed
    )
    requests = []
    for request_id, slot in enumerate(order):
        ci, prompt, budget = slots[slot]
        requests.append(Request(
            request_id=request_id, prompt_ids=prompt, max_new_tokens=budget,
            arrival_time=float(arrivals[request_id]),
            pruning=classes[ci].pruning,
        ))
    return requests

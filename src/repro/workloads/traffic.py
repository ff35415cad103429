"""Synthetic arrival traces for the serving engine and the cluster.

Requests arrive as a Poisson process (exponential inter-arrival times at
a configurable rate), with prompts cut from the topic-segmented LM
corpus and per-request decode budgets and priorities drawn from small
ranges — the serving analogue of the task generators in
:mod:`repro.workloads.tasks`.

Two trace shapes:

* :func:`synthetic_request_trace` — homogeneous: every request shares
  one prompt length and decode-budget range and inherits the serving
  engine's pruning schedule.
* :func:`heterogeneous_request_trace` — a weighted mix of
  :class:`TrafficClass` request classes, each with its own prompt
  length, decode budget, priority, and **per-request cascade
  schedule** (:attr:`repro.serving.request.Request.pruning`).  Skewed
  mixes — many cheap heavily-pruned requests plus a minority of long
  dense ones — are what make the cluster's schedule-aware routing
  measurably better than round-robin.

Each trace draws its random streams (class assignment and budgets,
arrival times, prompts) from adjacent integer seeds (``seed``,
``seed + 1``, ...), so traces built with seeds ``s`` and ``s + 1``
share bit streams: sweeps over consecutive seeds are cross-correlated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import PruningConfig
from ..serving.request import Request
from .tasks import lm_prompts

__all__ = [
    "poisson_arrival_times",
    "synthetic_request_trace",
    "TrafficClass",
    "heterogeneous_request_trace",
]


def poisson_arrival_times(
    n_requests: int, rate_per_s: float, seed: int = 0
) -> np.ndarray:
    """Arrival timestamps of a Poisson process with the given rate."""
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=n_requests)
    return np.cumsum(gaps)


def synthetic_request_trace(
    corpus: np.ndarray,
    n_requests: int,
    rate_per_s: float,
    prompt_len: int = 48,
    max_new_tokens: Tuple[int, int] = (8, 24),
    n_priorities: int = 1,
    seed: int = 0,
) -> List[Request]:
    """A full arrival trace: prompts, budgets, priorities, timestamps.

    Args:
        corpus: LM token stream (:func:`repro.workloads.make_lm_corpus`).
        n_requests: trace length.
        rate_per_s: Poisson arrival rate (requests per simulated second).
        prompt_len: tokens per prompt (windows of the corpus).
        max_new_tokens: inclusive ``(low, high)`` decode-budget range.
        n_priorities: priorities drawn uniformly from ``[0, n)``.
        seed: RNG seed (prompts, budgets, priorities, and arrivals all
            derive from it, so traces are reproducible).
    """
    low, high = max_new_tokens
    if not 1 <= low <= high:
        raise ValueError("max_new_tokens range must satisfy 1 <= low <= high")
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(n_requests, rate_per_s, seed=seed + 1)
    prompts = lm_prompts(corpus, prompt_len, n_requests, seed=seed + 2)
    return [
        Request(
            request_id=idx,
            prompt_ids=prompts[idx],
            max_new_tokens=int(rng.integers(low, high + 1)),
            arrival_time=float(arrivals[idx]),
            priority=int(rng.integers(0, max(1, n_priorities))),
        )
        for idx in range(n_requests)
    ]


@dataclass(frozen=True)
class TrafficClass:
    """One request population inside a heterogeneous trace.

    Attributes:
        name: label (kept out of the Request; used by trace builders
            and benchmark reporting).
        weight: relative arrival share of this class (need not be
            normalized across the mix).
        prompt_len: prompt tokens for every request of this class.
        max_new_tokens: inclusive ``(low, high)`` decode-budget range.
        pruning: the class's cascade schedule, set **explicitly** on
            each request — ``None`` forces the dense path even on a
            pruned-default engine, a :class:`~repro.config.
            PruningConfig` runs that schedule regardless of the engine
            default.
        priority: scheduling class (lower admits first).
    """

    name: str
    weight: float
    prompt_len: int
    max_new_tokens: Tuple[int, int]
    pruning: Optional[PruningConfig] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("TrafficClass.weight must be positive")
        low, high = self.max_new_tokens
        if not 1 <= low <= high:
            raise ValueError(
                "max_new_tokens range must satisfy 1 <= low <= high"
            )


def heterogeneous_request_trace(
    corpus: np.ndarray,
    classes: Sequence[TrafficClass],
    n_requests: int,
    rate_per_s: float,
    seed: int = 0,
) -> List[Request]:
    """A Poisson trace drawn from a weighted mix of request classes.

    Each arriving request is assigned a :class:`TrafficClass` with
    probability proportional to its weight, then stamped with that
    class's prompt length, decode budget, priority, and per-request
    pruning schedule.  Everything derives from ``seed``, so traces are
    reproducible, and the *same* trace can be replayed against every
    routing policy.
    """
    if not classes:
        raise ValueError("need at least one TrafficClass")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    weights = np.array([c.weight for c in classes], dtype=np.float64)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(n_requests, rate_per_s, seed=seed + 1)
    assignment = rng.choice(len(classes), size=n_requests, p=weights)
    # Draw each class's prompt pool in one call so a class's prompts do
    # not depend on how the other classes' draws interleave.
    prompts_by_class = {}
    cursor_by_class = {}
    for ci, cls in enumerate(classes):
        count = int(np.sum(assignment == ci))
        if count:
            prompts_by_class[ci] = lm_prompts(
                corpus, cls.prompt_len, count, seed=seed + 3 + ci
            )
            cursor_by_class[ci] = 0
    requests = []
    for idx in range(n_requests):
        ci = int(assignment[idx])
        cls = classes[ci]
        prompt = prompts_by_class[ci][cursor_by_class[ci]]
        cursor_by_class[ci] += 1
        low, high = cls.max_new_tokens
        requests.append(
            Request(
                request_id=idx,
                prompt_ids=prompt,
                max_new_tokens=int(rng.integers(low, high + 1)),
                arrival_time=float(arrivals[idx]),
                priority=cls.priority,
                pruning=cls.pruning,
            )
        )
    return requests

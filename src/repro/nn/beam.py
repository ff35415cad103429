"""Beam-search decoding (paper Section V-B, "Comparisons with CPUs and
GPUs"): "our techniques can also accelerate the Beam Search case
because when a token (and its K, V) is pruned, it will not be used by
any beams".

This is a reference implementation over the executor API: every
candidate continuation is scored with a fresh executor instance, so
cascade pruning applies to each hypothesis exactly as it does to greedy
decoding, and a token pruned from the shared prompt is absent from
every beam's attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .transformer import AttentionExecutor, TransformerModel

__all__ = ["BeamHypothesis", "beam_search"]


@dataclass
class BeamHypothesis:
    """One finished beam."""

    token_ids: List[int]
    log_probability: float


def beam_search(
    model: TransformerModel,
    prompt_ids: Sequence[int],
    n_new_tokens: int,
    beam_width: int = 4,
    executor_factory: Optional[Callable[[], AttentionExecutor]] = None,
) -> List[BeamHypothesis]:
    """Beam-search continuation of ``prompt_ids``.

    Args:
        model: a causal model.
        prompt_ids: the shared prompt.
        n_new_tokens: continuation length.
        beam_width: live hypotheses kept per step, and expansions
            considered per beam per step.
        executor_factory: builds the attention executor used to score a
            hypothesis (``None`` = dense attention).  A SpAtten executor
            here makes every beam run under cascade pruning.

    Returns:
        Hypotheses sorted best-first by log-probability (every one has
        ``n_new_tokens`` tokens, so no length normalisation applies).
    """
    if not model.config.causal:
        raise ValueError("beam search requires a causal model")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if n_new_tokens < 1:
        raise ValueError("n_new_tokens must be >= 1")
    prompt = list(int(t) for t in prompt_ids)

    def next_log_probs(sequence: List[int]) -> np.ndarray:
        executor = executor_factory() if executor_factory else None
        dist = model.next_token_distribution(sequence, executor=executor)
        return np.log(dist + 1e-30)

    beams: List[BeamHypothesis] = [BeamHypothesis([], 0.0)]
    for _ in range(n_new_tokens):
        candidates: List[BeamHypothesis] = []
        for beam in beams:
            log_probs = next_log_probs(prompt + beam.token_ids)
            top = np.argsort(log_probs)[::-1][:beam_width]
            for token in top:
                candidates.append(
                    BeamHypothesis(
                        beam.token_ids + [int(token)],
                        beam.log_probability + float(log_probs[token]),
                    )
                )
        candidates.sort(key=lambda h: h.log_probability, reverse=True)
        beams = candidates[:beam_width]
    return beams

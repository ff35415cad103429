"""Per-layer pruning schedules (paper Section V-A).

The paper's recipe: keep the front 15% of layers un-pruned for tokens
(30% for heads), then interpolate per-layer ratios linearly from a start
to an end value; longer sentences tolerate more pruning, so ratios are
additionally scaled by sentence length.

Schedules here are expressed as *keep fractions relative to the original
sentence length* — Fig. 1 reports surviving tokens per layer in exactly
those terms (11 -> 6 tokens, 12 -> 10 -> 8 heads).

The schedule is fixed before a sequence runs, so it is replayed once:
:meth:`SequencePlan.build` calls the count functions below and freezes
the result.  The :class:`~repro.core.pipeline.SpAttenExecutor`
(data-driven run), the analytic trace builder (:mod:`repro.core.trace`)
and the serving layer (admission, pool billing, cost model, routing
estimates — :meth:`repro.serving.engine.ServingEngine.plan_for`) all
read one plan from that one builder, which is what makes the executed
model, the analytic performance model and the serving bill agree by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import ModelConfig, PruningConfig

__all__ = [
    "SequencePlan",
    "effective_token_keep",
    "token_keep_fractions",
    "token_keep_counts",
    "head_keep_fractions",
    "head_keep_counts",
    "decode_token_target",
    "decode_token_targets",
]


def effective_token_keep(pruning: PruningConfig, sentence_length: int) -> float:
    """Final-layer token keep fraction, adjusted for sentence length.

    With ``length_adaptive`` on, longer sentences are pruned harder
    (Section III-A: "Since long sentences are naturally more redundant,
    we also adjust the pruning ratios based on sentence length").  The
    adjustment scales the *pruned* mass by ``sqrt(L / reference)``:
    at the reference length the configured keep applies exactly; a 4x
    longer sentence prunes twice as much of its prunable mass, a 4x
    shorter one half.
    """
    keep = pruning.token_keep_final
    if not pruning.length_adaptive or sentence_length <= 0:
        return keep
    scale = math.sqrt(sentence_length / pruning.reference_length)
    if scale >= 1.0:
        # Longer than reference: shrink the keep fraction toward the floor.
        keep = keep / scale
    else:
        # Shorter: prune proportionally less of the prunable mass.
        keep = 1.0 - (1.0 - keep) * scale
    floor = min(1.0, pruning.min_tokens / max(sentence_length, 1))
    return float(np.clip(keep, floor, 1.0))


def _interpolated_fractions(
    n_layers: int, front_frac: float, final_keep: float
) -> np.ndarray:
    """Linear keep-fraction ramp: 1.0 on front layers, down to final_keep."""
    fractions = np.ones(n_layers, dtype=np.float64)
    if final_keep >= 1.0 or n_layers == 0:
        return fractions
    n_front = min(n_layers - 1, max(0, math.ceil(front_frac * n_layers)))
    n_ramp = n_layers - n_front
    for offset in range(n_ramp):
        t = (offset + 1) / n_ramp
        fractions[n_front + offset] = 1.0 + (final_keep - 1.0) * t
    return fractions


def token_keep_fractions(
    pruning: PruningConfig, n_layers: int, sentence_length: int
) -> np.ndarray:
    """Per-layer token keep fractions (relative to original length)."""
    final_keep = effective_token_keep(pruning, sentence_length)
    return _interpolated_fractions(n_layers, pruning.token_front_frac, final_keep)


def token_keep_counts(
    pruning: PruningConfig, n_layers: int, sentence_length: int
) -> np.ndarray:
    """Per-layer surviving token counts for the summarization stage.

    Counts are rounded, floored at ``min_tokens`` (never below 1), and
    made non-increasing (cascade: the live set can only shrink).
    """
    fractions = token_keep_fractions(pruning, n_layers, sentence_length)
    floor = min(sentence_length, max(1, pruning.min_tokens))
    counts = np.maximum(
        np.rint(fractions * sentence_length).astype(np.int64), floor
    )
    counts = np.minimum.accumulate(counts)
    return counts


def head_keep_fractions(pruning: PruningConfig, n_layers: int) -> np.ndarray:
    """Per-layer head keep fractions."""
    return _interpolated_fractions(
        n_layers, pruning.head_front_frac, pruning.head_keep_final
    )


def head_keep_counts(
    pruning: PruningConfig, n_layers: int, n_heads: int
) -> np.ndarray:
    """Per-layer surviving head counts (floored at one head)."""
    fractions = head_keep_fractions(pruning, n_layers)
    counts = np.maximum(np.rint(fractions * n_heads).astype(np.int64), 1)
    counts = np.minimum.accumulate(counts)
    return counts


def decode_token_target(
    pruning: PruningConfig,
    layer_keep_fraction: float,
    total_length: int,
) -> int:
    """Token keep target at a decode step (generation stage).

    The live-set budget tracks the *current* total sequence length
    (prompt + generated so far): at layer ``l`` the target is
    ``keep_fraction[l] * total_length``, so roughly one old token is
    pruned for every new token generated once the budget is tight —
    keeping the KV-cache traffic proportional to the keep fraction.
    """
    floor = min(total_length, max(1, pruning.min_tokens))
    return max(int(round(layer_keep_fraction * total_length)), floor)


def decode_token_targets(
    min_tokens: np.ndarray,
    layer_keep_fractions: np.ndarray,
    total_lengths: np.ndarray,
) -> np.ndarray:
    """:func:`decode_token_target` of a whole decode batch at one layer.

    One entry per sequence (``min_tokens`` is each sequence's
    :attr:`PruningConfig.min_tokens`); ``np.rint`` and Python's
    ``round`` both round halves to even, so entry ``i`` equals the
    scalar function on sequence ``i``'s arguments.
    """
    floor = np.minimum(total_lengths, np.maximum(min_tokens, 1))
    targets = np.rint(layer_keep_fractions * total_lengths).astype(np.int64)
    return np.maximum(targets, floor)


@dataclass(frozen=True, slots=True)
class SequencePlan:
    """One sequence's cascade schedule, replayed once and frozen.

    Slotted because one plan stays on every request record for as long
    as the record does.

    Attributes:
        pruning: the resolved schedule (``None`` = dense: every layer
            keeps every token and head).
        prompt_len: sentence length the schedule was replayed for.
        max_new_tokens: decode budget ``kv_bounds`` covers.
        token_counts: per-layer surviving prompt tokens after
            summarization (:func:`token_keep_counts`) — also the
            sequence's post-prefill KV columns.
        token_fracs: per-layer keep fractions the decode targets scale
            with (:func:`token_keep_fractions`).
        head_counts: per-layer surviving heads
            (:func:`head_keep_counts`).
        kv_bounds: per-layer KV columns the sequence never exceeds:
            layer ``l`` holds ``token_counts[l]`` columns after
            summarization and at most ``decode_token_target(l, T)``
            during generation (``T = prompt + max_new``).  A safe bound,
            not a tight one: eviction is global — the live set entering
            a decode step is what the last layer kept, plus the new
            token — so layer ``l`` never holds more than
            ``max(token_counts[l], min(target_l(T), max(token_counts[-1],
            target_{L-1}(T - 1)) + 1))``, which for front layers is far
            below their own target.
    """

    pruning: Optional[PruningConfig]
    prompt_len: int
    max_new_tokens: int
    token_counts: Tuple[int, ...]
    token_fracs: Tuple[float, ...]
    head_counts: Tuple[int, ...]
    kv_bounds: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        pruning: Optional[PruningConfig],
        model: ModelConfig,
        prompt_len: int,
        max_new_tokens: int = 0,
    ) -> "SequencePlan":
        """Replay ``pruning`` for one sequence of ``model``."""
        total = prompt_len + max_new_tokens
        n_layers = model.n_layers
        if pruning is None:
            return cls(
                None, prompt_len, max_new_tokens,
                (prompt_len,) * n_layers, (1.0,) * n_layers,
                (model.n_heads,) * n_layers, (total,) * n_layers,
            )
        counts = token_keep_counts(pruning, n_layers, prompt_len)
        fracs = token_keep_fractions(pruning, n_layers, prompt_len)
        heads = head_keep_counts(pruning, n_layers, model.n_heads)
        bounds = np.maximum(
            counts, decode_token_targets(pruning.min_tokens, fracs, total)
        )
        return cls(
            pruning, prompt_len, max_new_tokens,
            tuple(counts.tolist()), tuple(fracs.tolist()),
            tuple(heads.tolist()), tuple(bounds.tolist()),
        )

    def prefix_kv_lengths(self, n_committed: int) -> List[int]:
        """Modeled per-layer KV columns after committing a prompt prefix.

        Executors that defer execution to the final chunk (cascade
        token pruning is a whole-sentence decision) have no real cache
        lengths until then; their pool pages grow with the committed
        prefix, capped at each layer's summarize keep count.  At the
        final chunk the model and the executor's real post-pruning
        lengths coincide exactly.
        """
        n_committed = min(int(n_committed), self.prompt_len)
        return [min(n_committed, count) for count in self.token_counts]

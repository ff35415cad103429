"""Numerically stable tensor primitives used by the transformer substrate.

These are deliberately small, dependency-free NumPy implementations: the
whole substrate must be auditable because the SpAtten algorithms (token
pruning, progressive quantization) reach *into* the attention computation
and any hidden numerical quirk would contaminate the reproduction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "softmax_inplace",
    "log_softmax",
    "layer_norm",
    "gelu",
    "relu",
    "linear",
    "cross_entropy",
    "kl_divergence",
]


#: ``sqrt(2 / pi)`` of the tanh-approximation gelu.
GELU_C = float(np.sqrt(2.0 / np.pi))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``.

    Matches the row-wise softmax of the paper's Algorithm 1: each row of
    attention scores becomes a probability distribution summing to 1.
    """
    # repro: allow[det-dtype-literal] -- this IS the fp64 oracle softmax
    # every numerics tier is measured against; paths that must keep a
    # narrower dtype use softmax_inplace
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, in place, in the array's own dtype.

    For scores a numerics tier computed in its compute dtype
    (:func:`softmax` promotes to fp64): the same shift / exp / normalise
    — bit-identical to :func:`softmax` on fp64 input — over a float
    array the caller owns, which must be finite: masked entries carry a
    large negative sentinel, not ``-inf``.  Returns ``scores``.
    """
    # fmax skips NaN handling (scores are finite by construction).
    scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    # repro: allow[det-dtype-literal] -- fp64 oracle log-softmax (see above)
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalisation over the last axis."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in BERT/GPT-2).

    ``x + 0.044715 x^3`` is evaluated in the factored form
    ``x (1 + 0.044715 x^2)`` (no ``np.power``), and every constant is a
    Python float, so the result keeps ``x``'s floating dtype.
    """
    inner = (x * x) * 0.044715
    inner += 1.0
    inner *= x
    inner *= GELU_C
    inner = np.tanh(inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray = None) -> np.ndarray:
    """Affine map ``x @ weight + bias`` with an optional bias."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under ``logits`` rows."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    logp = log_softmax(logits, axis=-1)
    return float(-np.mean(logp[np.arange(len(labels)), labels]))


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """KL(p || q) for probability vectors/rows; mean over rows.

    Used as the LM fidelity metric: divergence of the pruned model's
    next-token distribution from the dense model's.
    """
    p = np.clip(np.atleast_2d(p), eps, None)
    q = np.clip(np.atleast_2d(q), eps, None)
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    return float(np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=-1)))

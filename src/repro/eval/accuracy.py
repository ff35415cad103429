"""Accuracy and fidelity metrics for pruned/quantized models.

The paper's quality claim is relative: "no accuracy loss" at the chosen
pruning ratios, with Fig. 21 showing the flat-then-cliff trade-off as
ratios grow.  We measure it two ways:

* **task accuracy** — a linear readout (NumPy softmax regression /
  ridge) trained on the *dense* model's pooled features, evaluated on
  features produced under a SpAtten executor.  This mirrors the paper's
  protocol of finetuning once and then varying inference-time pruning.
* **fidelity** — direct agreement between dense and pruned model
  outputs (top-1 next-token agreement and KL divergence for LM;
  feature distortion for encoders), independent of any readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import DenseExecutor, TransformerModel
from ..nn.functional import kl_divergence, log_softmax
from ..nn.transformer import AttentionExecutor
from ..workloads.tasks import Dataset, Example

__all__ = [
    "SoftmaxReadout",
    "RidgeReadout",
    "extract_features",
    "extract_pair_features",
    "train_classification_readout",
    "train_regression_readout",
    "classification_accuracy",
    "lm_fidelity",
    "LmFidelity",
]


@dataclass
class SoftmaxReadout:
    """Multinomial logistic-regression head (trained with full-batch GD)."""

    weight: np.ndarray  # [d_feature, n_classes]
    bias: np.ndarray  # [n_classes]
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def logits(self, features: np.ndarray) -> np.ndarray:
        z = (features - self.feature_mean) / self.feature_scale
        return z @ self.weight + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=-1)


@dataclass
class RidgeReadout:
    """Closed-form ridge regression head."""

    weight: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = (features - self.feature_mean) / self.feature_scale
        return z @ self.weight + self.bias


def extract_features(
    model: TransformerModel,
    examples: Sequence[Example],
    executor_factory: Optional[Callable[[], AttentionExecutor]] = None,
) -> np.ndarray:
    """CLS-pooled sentence features for every example.

    ``executor_factory`` builds a fresh executor per sentence (executors
    carry per-sequence state); ``None`` uses dense attention.
    """
    if executor_factory is None:
        executor_factory = DenseExecutor
    features = [
        model.encode(ex.token_ids, executor=executor_factory()).pooled()
        for ex in examples
    ]
    return np.stack(features)


def extract_pair_features(
    model: TransformerModel,
    examples: Sequence[Example],
    sep_id: int,
    executor_factory: Optional[Callable[[], AttentionExecutor]] = None,
    feature_slice: Optional[slice] = None,
) -> np.ndarray:
    """Interaction features for sentence-pair tasks (STS-B style).

    Each sentence half (split at the [SEP] token's original position)
    is mean-pooled over its *surviving* tokens, and the pair feature is
    ``[h1 * h2, |h1 - h2|]`` — the standard construction that makes
    similarity linearly readable.  Robust to pruning: halves are
    located by original position, so a pruned [SEP] is harmless.

    ``feature_slice`` restricts pooling to a sub-block of the hidden
    dimension (e.g. the evidence block of a constructed model), which
    keeps the interaction features from being swamped by id-feature
    noise when the readout's training set is small.
    """
    if executor_factory is None:
        executor_factory = DenseExecutor
    features: List[np.ndarray] = []
    for example in examples:
        sep_positions = np.flatnonzero(example.token_ids == sep_id)
        if len(sep_positions) == 0:
            raise ValueError("pair example lacks a [SEP] token")
        sep_pos = int(sep_positions[0])
        result = model.encode(example.token_ids, executor=executor_factory())
        hidden = result.hidden
        if feature_slice is not None:
            hidden = hidden[:, feature_slice]
        left_mask = (result.positions > 0) & (result.positions < sep_pos)
        right_mask = result.positions > sep_pos
        overall = hidden.mean(axis=0)
        h1 = hidden[left_mask].mean(axis=0) if left_mask.any() else overall
        h2 = hidden[right_mask].mean(axis=0) if right_mask.any() else overall
        features.append(np.concatenate([h1 * h2, np.abs(h1 - h2)]))
    return np.stack(features)


def _standardise(features: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = features.mean(axis=0)
    scale = features.std(axis=0) + 1e-8
    return (features - mean) / scale, mean, scale


def train_classification_readout(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    seed: int = 0,
) -> SoftmaxReadout:
    """Full-batch gradient-descent softmax regression: 300 epochs at
    learning rate 0.5 with an L2 weight of 1e-3."""
    z, mean, scale = _standardise(features)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = z.shape
    rng = np.random.default_rng(seed)
    weight = rng.normal(0, 0.01, size=(d, n_classes))
    bias = np.zeros(n_classes)
    onehot = np.eye(n_classes)[labels]
    for _ in range(300):
        probs = np.exp(log_softmax(z @ weight + bias, axis=-1))
        grad_logits = (probs - onehot) / n
        grad_w = z.T @ grad_logits + 1e-3 * weight
        grad_b = grad_logits.sum(axis=0)
        weight -= 0.5 * grad_w
        bias -= 0.5 * grad_b
    return SoftmaxReadout(weight, bias, mean, scale)


def train_regression_readout(
    features: np.ndarray, targets: np.ndarray, l2: float = 1e-2
) -> RidgeReadout:
    """Closed-form ridge regression."""
    z, mean, scale = _standardise(features)
    targets = np.asarray(targets, dtype=np.float64)
    t_mean = float(targets.mean())
    d = z.shape[1]
    gram = z.T @ z + l2 * len(z) * np.eye(d)
    weight = np.linalg.solve(gram, z.T @ (targets - t_mean))
    return RidgeReadout(weight, t_mean, mean, scale)


def classification_accuracy(
    model: TransformerModel,
    dataset: Dataset,
    readout: SoftmaxReadout,
    executor_factory: Optional[Callable[[], AttentionExecutor]] = None,
) -> float:
    """Test-split accuracy of the (dense-trained) readout under an
    executor."""
    examples = dataset.test
    features = extract_features(model, examples, executor_factory)
    labels = np.asarray([int(ex.label) for ex in examples])
    return float(np.mean(readout.predict(features) == labels))


@dataclass
class LmFidelity:
    """LM quality of a pruned model relative to the dense one."""

    top1_agreement: float
    top5_agreement: float
    mean_kl: float
    dense_entropy: float

    @property
    def accuracy_loss(self) -> float:
        """Fractional loss of top-5 containment (0.0 == identical).

        Top-5 containment (is the dense model's argmax still among the
        pruned model's five most likely tokens?) tracks the perplexity
        deltas the paper reports without the brittleness of exact
        argmax agreement on a sharp distribution."""
        return 1.0 - self.top5_agreement


def lm_fidelity(
    model: TransformerModel,
    prompts: Sequence[np.ndarray],
    executor_factory: Callable[[], AttentionExecutor],
) -> LmFidelity:
    """Compare pruned vs dense next-token distributions over prompts."""
    agreements: List[float] = []
    top5: List[float] = []
    kls: List[float] = []
    entropies: List[float] = []
    for prompt in prompts:
        dense = model.next_token_distribution(prompt, executor=DenseExecutor())
        pruned = model.next_token_distribution(
            prompt, executor=executor_factory()
        )
        dense_top = int(np.argmax(dense))
        agreements.append(float(dense_top == np.argmax(pruned)))
        top5.append(float(dense_top in np.argsort(pruned)[-5:]))
        kls.append(kl_divergence(dense, pruned))
        entropies.append(float(-np.sum(dense * np.log(dense + 1e-12))))
    return LmFidelity(
        top1_agreement=float(np.mean(agreements)),
        top5_agreement=float(np.mean(top5)),
        mean_kl=float(np.mean(kls)),
        dense_entropy=float(np.mean(entropies)),
    )

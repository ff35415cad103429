"""Synthetic task datasets mirroring the paper's 30-benchmark suite.

Three task families cover the paper's evaluation:

* sentence classification (GLUE-style: SST-2, CoLA, MNLI, ...) —
  the label is carried by class-evidence content words scattered in a
  function-word matrix;
* sentence-pair similarity regression (STS-B-style) — the label is the
  content-word overlap between the two sentences;
* language modelling (WikiText/PTB/1BW-style) — a topic-segmented
  Zipfian stream where the next content word is predictable from the
  running topic.

Sentence lengths are sampled around the per-task averages of the real
dev sets, because the paper's pruning ratios scale with sentence length
(Section V-A: GPT-2's long inputs allow larger ratios than BERT's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .vocab import Vocabulary

__all__ = [
    "Example",
    "Dataset",
    "make_classification_dataset",
    "make_regression_dataset",
    "make_lm_corpus",
    "lm_prompts",
]


@dataclass
class Example:
    """One task instance: token ids plus a label (int or float)."""

    token_ids: np.ndarray
    label: float

    @property
    def length(self) -> int:
        return len(self.token_ids)


@dataclass
class Dataset:
    """A split task dataset."""

    name: str
    task_type: str  # "classification" | "regression" | "lm"
    n_classes: int
    train: List[Example] = field(default_factory=list)
    test: List[Example] = field(default_factory=list)

    @property
    def mean_length(self) -> float:
        examples = self.train + self.test
        return float(np.mean([e.length for e in examples])) if examples else 0.0


#: Share of a sentence's (or a corpus segment's) slots that hold content
#: words; the rest are Zipfian function words.
_CONTENT_FRACTION = 0.35


def _sample_length(rng: np.random.Generator, avg_len: int) -> int:
    """Length with realistic right-skew (clipped lognormal, at least 4)."""
    length = int(round(rng.lognormal(np.log(max(avg_len, 4)), 0.25)))
    return max(4, min(length, avg_len * 3))


def _compose_sentence(
    vocab: Vocabulary,
    rng: np.random.Generator,
    length: int,
    class_idx: Optional[int],
    signal_purity: float = 0.75,
) -> np.ndarray:
    """A sentence: Zipfian function words + planted content words.

    ``signal_purity`` of the content slots carry the target class's
    evidence words; the rest are neutral or off-class distractors, so a
    classifier genuinely has to aggregate evidence (and over-pruning
    genuinely hurts).
    """
    n_content = max(1, int(round(_CONTENT_FRACTION * length)))
    n_function = length - n_content
    fn_ids = vocab.function_ids
    fn_weights = vocab.zipf_weights[fn_ids]
    fn_weights = fn_weights / fn_weights.sum()
    tokens = list(rng.choice(fn_ids, size=n_function, p=fn_weights))

    content_pool = vocab.content_ids
    for _ in range(n_content):
        if class_idx is not None and rng.random() < signal_purity:
            pool = vocab.content_ids_of_class(class_idx)
        else:
            pool = content_pool
        tokens.append(int(rng.choice(pool)))
    rng.shuffle(tokens)
    return np.asarray(tokens, dtype=np.int64)


def make_classification_dataset(
    vocab: Vocabulary,
    name: str,
    avg_len: int,
    n_train: int = 128,
    n_test: int = 64,
    signal_purity: float = 0.75,
    seed: int = 0,
) -> Dataset:
    """GLUE-style sentence classification with a [CLS] prefix."""
    rng = np.random.default_rng(seed)
    dataset = Dataset(name, "classification", vocab.n_classes)
    for split, count in (("train", n_train), ("test", n_test)):
        examples = getattr(dataset, split)
        for _ in range(count):
            label = int(rng.integers(vocab.n_classes))
            body = _compose_sentence(
                vocab, rng, _sample_length(rng, avg_len) - 1, label,
                signal_purity=signal_purity,
            )
            ids = np.concatenate([[vocab.cls_id], body])
            examples.append(Example(ids, float(label)))
    return dataset


def make_regression_dataset(
    vocab: Vocabulary,
    name: str,
    avg_len: int,
    n_train: int = 128,
    n_test: int = 64,
    seed: int = 0,
) -> Dataset:
    """STS-B-style sentence-pair similarity regression.

    Two sentences are joined with [SEP]; the label in ``[1, 5]`` is
    driven by the fraction of content words the second sentence copies
    from the first — semantic similarity reduced to evidence overlap.
    """
    rng = np.random.default_rng(seed)
    dataset = Dataset(name, "regression", 0)
    half = max(4, avg_len // 2)
    for split, count in (("train", n_train), ("test", n_test)):
        examples = getattr(dataset, split)
        for _ in range(count):
            overlap = float(rng.random())
            first = _compose_sentence(vocab, rng, _sample_length(rng, half), None)
            second = _compose_sentence(vocab, rng, _sample_length(rng, half), None)
            first_content = [t for t in first if vocab.salience[t] >= 0.3]
            if first_content:
                second = second.copy()
                content_slots = [
                    i for i, t in enumerate(second) if vocab.salience[t] >= 0.3
                ]
                n_copy = int(round(overlap * len(content_slots)))
                for slot in content_slots[:n_copy]:
                    second[slot] = int(rng.choice(first_content))
            ids = np.concatenate(
                [[vocab.cls_id], first, [vocab.sep_id], second]
            )
            label = 1.0 + 4.0 * overlap
            examples.append(Example(ids, label))
    return dataset


def make_lm_corpus(
    vocab: Vocabulary,
    n_tokens: int,
    mean_segment: int = 24,
    seed: int = 0,
) -> np.ndarray:
    """Topic-segmented Zipfian token stream for LM benchmarks.

    The stream alternates topic segments (geometric lengths); within a
    segment, content slots draw from the topic's evidence class.  A
    model that attends to the salient context tokens can therefore
    predict upcoming content words — and pruning those tokens away
    measurably damages the next-token distribution (Fig. 21's token
    curve).
    """
    rng = np.random.default_rng(seed)
    fn_ids = vocab.function_ids
    fn_weights = vocab.zipf_weights[fn_ids]
    fn_weights = fn_weights / fn_weights.sum()

    tokens: List[int] = []
    while len(tokens) < n_tokens:
        topic = int(rng.integers(vocab.n_classes))
        segment_len = 1 + int(rng.geometric(1.0 / mean_segment))
        topic_pool = vocab.content_ids_of_class(topic)
        for _ in range(segment_len):
            if rng.random() < _CONTENT_FRACTION:
                tokens.append(int(rng.choice(topic_pool)))
            else:
                tokens.append(int(rng.choice(fn_ids, p=fn_weights)))
    return np.asarray(tokens[:n_tokens], dtype=np.int64)


def lm_prompts(
    corpus: np.ndarray, prompt_len: int, n_prompts: int, seed: int = 0
) -> List[np.ndarray]:
    """Random fixed-length windows of the corpus (LM evaluation probes)."""
    if len(corpus) < prompt_len:
        raise ValueError("corpus shorter than prompt length")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(corpus) - prompt_len + 1, size=n_prompts)
    return [corpus[s : s + prompt_len].copy() for s in starts]

"""Synthetic vocabulary with linguistic structure.

The paper's pruning exploits the redundancy of natural language:
function words (articles, prepositions, auxiliaries) receive little
attention and are safely prunable, while content words carry the
meaning.  This module builds a vocabulary that reproduces that split:

* a curated list of real English *function words* with low salience;
* *content words* (real exemplars plus synthetic fillers) with high
  salience, partitioned into classes/topics that carry evidence;
* special tokens ([CLS], [SEP], [PAD]).

Word frequencies follow a Zipf law with function words occupying the
high-frequency head — matching the empirical fact that most tokens in a
sentence are structural (paper Fig. 1 prunes an 11-token sentence down
to "film perfect").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["Vocabulary", "build_vocabulary", "FUNCTION_WORDS", "CONTENT_EXEMPLARS"]

#: Real English function words: the prunable skeleton of sentences.
FUNCTION_WORDS: List[str] = [
    "the", "a", "an", "is", "are", "was", "were", "be", "been", "being",
    "to", "of", "in", "on", "at", "by", "for", "with", "about", "as",
    "it", "its", "this", "that", "these", "those", "he", "she", "they",
    "we", "you", "i", "his", "her", "their", "our", "your", "my", "and",
    "or", "but", "if", "while", "when", "where", "which", "who", "whom",
    "what", "how", "than", "then", "so", "too", "very", "just", "also",
    "not", "no", "nor", "do", "does", "did", "have", "has", "had", "will",
    "would", "can", "could", "should", "shall", "may", "might", "must",
    "there", "here", "all", "any", "some", "such", "own", "same", "both",
    "each", "few", "more", "most", "other", "into", "through", "during",
    "before", "after", "above", "below", "up", "down", "out", "off",
    "over", "under", "again", "once", "am",
]

#: Real content-word exemplars (from the paper's Fig. 22 sentences plus
#: generic sentiment/topic words) so visualisations read naturally.
CONTENT_EXEMPLARS: List[str] = [
    "film", "movie", "perfect", "wonderful", "treat", "visual", "admire",
    "remember", "confusion", "resolve", "conception", "cat", "upset",
    "bothering", "communicate", "sound", "poet", "dynasty", "translate",
    "english", "styles", "efforts", "work", "great", "terrible", "awful",
    "boring", "brilliant", "masterpiece", "disaster", "researcher",
    "architecture", "computer", "published", "papers", "famous",
    "attention", "pruning", "quantization", "hardware", "language",
    "model", "token", "sparse", "accelerator", "energy", "memory",
    "sure", "watching", "trying", "tell", "wants", "variety", "recently",
    "tang", "du", "fu", "used", "movies", "stories", "delight", "scenes",
]

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
PAD_TOKEN = "[PAD]"


@dataclass
class Vocabulary:
    """Token inventory with salience and class/topic structure.

    Attributes:
        words: id -> surface string.
        salience: id -> attention salience in [0, 1] (see
            :class:`repro.nn.SemanticSpec`).
        class_of: id -> class/topic index, or -1 for contentless tokens.
        n_classes: number of classes/topics content words split into.
        zipf_weights: unnormalised sampling weights (Zipfian).
    """

    words: List[str]
    salience: np.ndarray
    class_of: np.ndarray
    n_classes: int
    zipf_weights: np.ndarray
    _index: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    @property
    def cls_id(self) -> int:
        return self._index[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._index[SEP_TOKEN]

    @property
    def function_ids(self) -> np.ndarray:
        return np.flatnonzero((self.class_of < 0) & (self.salience < 0.3))

    @property
    def content_ids(self) -> np.ndarray:
        return np.flatnonzero(self.salience >= 0.3)

    def content_ids_of_class(self, class_idx: int) -> np.ndarray:
        return np.flatnonzero(self.class_of == class_idx)

    def id_of(self, word: str) -> int:
        """Lookup with OOV fallback: unknown words hash to a content slot.

        This lets the Fig. 22 visualisations tokenise arbitrary English
        sentences: unknown words behave as (moderately salient) content
        words.
        """
        word = word.lower().strip()
        if word in self._index:
            return self._index[word]
        content = self.content_ids
        # crc32, not hash(): Python salts str hashing per process, which
        # made benchmark tables differ between identical runs.
        return int(content[zlib.crc32(word.encode("utf-8")) % len(content)])

    def encode(self, text: str, add_cls: bool = False) -> np.ndarray:
        """Whitespace/punctuation-light tokenisation to ids."""
        cleaned = "".join(c if (c.isalnum() or c.isspace()) else " " for c in text)
        ids = [self.id_of(w) for w in cleaned.split() if w]
        if add_cls:
            ids = [self.cls_id] + ids
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self.words[int(i)] for i in ids]

    def evidence_matrix(
        self, evidence_dim: Optional[int] = None, seed: int = 0
    ) -> np.ndarray:
        """Per-token evidence vectors for :class:`repro.nn.SemanticSpec`.

        Classification vocabularies (``evidence_dim == n_classes`` by
        default) use one-hot class rows; larger ``evidence_dim`` values
        append a random topic signature so LM models can distinguish
        individual content words.
        """
        if evidence_dim is None:
            evidence_dim = self.n_classes
        if evidence_dim < self.n_classes:
            raise ValueError("evidence_dim must cover all classes")
        rng = np.random.default_rng(seed)
        evidence = np.zeros((len(self), evidence_dim))
        for token_id in range(len(self)):
            cls = int(self.class_of[token_id])
            if cls >= 0:
                evidence[token_id, cls] = 1.0
                if evidence_dim > self.n_classes:
                    signature = rng.normal(
                        0, 0.5, size=evidence_dim - self.n_classes
                    )
                    evidence[token_id, self.n_classes:] = signature
        return evidence


def build_vocabulary(
    size: int = 512,
    n_classes: int = 2,
    seed: int = 0,
) -> Vocabulary:
    """Construct a synthetic vocabulary.

    Layout: ``[CLS] [SEP] [PAD]``, then all function words (real list,
    padded with synthetic ``fw-K`` fillers if needed), then content
    words, half of the non-special tokens.  Content words are assigned
    round-robin to classes, except a fifth of them that are salient but
    evidence-free (realistic: not every noun determines the label).

    Args:
        size: total vocabulary size.
        n_classes: classes/topics for evidence assignment.
        seed: RNG seed for salience jitter.
    """
    if size < len(FUNCTION_WORDS) + 32:
        raise ValueError(f"vocabulary size {size} too small")
    rng = np.random.default_rng(seed)

    words: List[str] = [CLS_TOKEN, SEP_TOKEN, PAD_TOKEN]
    n_specials = len(words)
    n_regular = size - n_specials
    n_content = int(round(0.5 * n_regular))
    n_function = n_regular - n_content

    function_words = list(FUNCTION_WORDS[:n_function])
    for extra in range(n_function - len(function_words)):
        function_words.append(f"fw-{extra}")
    content_words = list(CONTENT_EXEMPLARS[:n_content])
    for extra in range(n_content - len(content_words)):
        content_words.append(f"cw-{extra}")
    words += function_words + content_words

    salience = np.zeros(size)
    class_of = np.full(size, -1, dtype=np.int64)
    # Specials: [CLS] is salient enough to collect attention for pooling
    # but carries no evidence; [SEP]/[PAD] are ignorable.
    salience[0] = 0.45
    salience[1] = 0.05
    salience[2] = 0.0

    fn_slice = slice(n_specials, n_specials + n_function)
    salience[fn_slice] = rng.uniform(0.01, 0.15, size=n_function)

    ct_slice = slice(n_specials + n_function, size)
    salience[ct_slice] = rng.uniform(0.55, 1.0, size=n_content)
    n_neutral = int(round(0.2 * n_content))
    content_ids = np.arange(ct_slice.start, ct_slice.stop)
    carriers = content_ids[n_neutral:]
    class_of[carriers] = np.arange(len(carriers)) % n_classes

    # Zipf frequencies: function words take the head ranks.
    ranks = np.empty(size)
    ranks[:n_specials] = 1e9  # specials never sampled from the corpus mix
    ranks[fn_slice] = np.arange(1, n_function + 1)
    ranks[ct_slice] = np.arange(n_function + 1, n_regular + 1)
    zipf_weights = 1.0 / ranks**1.1
    zipf_weights[:n_specials] = 0.0

    return Vocabulary(
        words=words,
        salience=salience,
        class_of=class_of,
        n_classes=n_classes,
        zipf_weights=zipf_weights,
    )

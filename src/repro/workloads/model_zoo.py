"""Model construction helpers tying vocabularies to semantic weights.

Two usage scales:

* **paper scale** — BERT-Base/Large, GPT-2-Small/Medium geometries are
  used *as configurations only* by the trace-driven performance
  experiments (no weights are materialised: a BERT-Large float64
  parameter set would be ~1.2 GB and the performance results depend only
  on work shapes).
* **accuracy scale** — reduced geometries (:func:`accuracy_scale_config`)
  with full semantic weights, used for every experiment that measures
  output quality (Fig. 7 error statistics, Fig. 21 trade-off curves,
  Fig. 22/23 visualisations, executor-vs-analytic validation).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import GPT2_SMALL, ModelConfig
from ..nn import (
    SemanticModelInfo,
    SemanticSpec,
    TransformerModel,
    build_semantic_model,
)
from .tasks import make_lm_corpus
from .vocab import Vocabulary, build_vocabulary

__all__ = [
    "accuracy_scale_config",
    "build_task_model",
    "serving_lm_world",
]


def accuracy_scale_config(
    base: ModelConfig,
    vocab_size: int,
    n_layers: Optional[int] = None,
    d_model: int = 128,
    n_heads: int = 8,
    max_seq_len: int = 1024,
) -> ModelConfig:
    """Shrink a paper geometry to an accuracy-experiment scale.

    Keeps the layer count (unless overridden) so cascade schedules span
    the same depth profile, but reduces width — accuracy trends under
    pruning depend on attention structure, not on raw dimension.
    """
    return base.with_overrides(
        name=f"{base.name}-acc",
        n_layers=n_layers if n_layers is not None else base.n_layers,
        d_model=d_model,
        n_heads=n_heads,
        d_ff=4 * d_model,
        vocab_size=vocab_size,
        max_seq_len=max_seq_len,
    )


def build_task_model(
    config: ModelConfig,
    vocab: Vocabulary,
    task_type: str = "classification",
    seed: int = 0,
    **semantic_kwargs,
) -> Tuple[TransformerModel, SemanticModelInfo]:
    """Construct a semantic model aligned with a vocabulary's structure.

    Args:
        config: model geometry (``config.vocab_size`` must equal
            ``len(vocab)``).
        vocab: the task vocabulary (salience + class structure).
        task_type: ``"classification"``/``"regression"`` use class
            one-hot evidence; ``"lm"`` appends a 16-wide per-token topic
            signature so the LM head can distinguish content words.
        seed: weight-construction seed.
        semantic_kwargs: forwarded to
            :func:`repro.nn.build_semantic_model` (gains, noise, ...).
    """
    if config.vocab_size != len(vocab):
        raise ValueError(
            f"config.vocab_size={config.vocab_size} != len(vocab)={len(vocab)}"
        )
    if task_type == "classification":
        evidence = vocab.evidence_matrix()
    elif task_type in ("regression", "lm"):
        # Pair-similarity regression and language modelling both need
        # *word-identity* information in the value path (overlap /
        # next-word prediction), not just class mass: append per-token
        # signatures to the class one-hots.
        evidence = vocab.evidence_matrix(
            evidence_dim=vocab.n_classes + 16, seed=seed + 1
        )
    else:
        raise ValueError(f"unknown task_type {task_type!r}")
    spec = SemanticSpec(salience=vocab.salience, evidence=evidence)
    # Positional/local heads are far more prominent in autoregressive
    # decoders (where recency matters) than in bidirectional encoders;
    # default the local-head fraction accordingly.
    semantic_kwargs.setdefault(
        "local_frac", 0.35 if task_type == "lm" else 0.15
    )
    params, info = build_semantic_model(config, spec, seed=seed, **semantic_kwargs)
    if task_type == "lm":
        # Explicit LM head reading the evidence subspace: next-token
        # logits are driven by the topic/evidence state the attention
        # layers accumulated, not by incidental id-feature alignments.
        from ..nn.weights import EVIDENCE_START

        rng = np.random.default_rng(seed + 7)
        lm_head = rng.normal(0, 0.02, size=(config.d_model, config.vocab_size))
        e_dim = spec.evidence_dim
        lm_head[EVIDENCE_START : EVIDENCE_START + e_dim, :] += 4.0 * evidence.T
        params.lm_head = lm_head
    return TransformerModel(config, params), info


def serving_lm_world(
    n_layers: int = 6,
    d_model: int = 128,
    n_heads: int = 8,
    max_seq_len: int = 256,
    corpus_tokens: Optional[int] = None,
    seed: int = 0,
    corpus_seed: int = 2,
) -> Tuple[ModelConfig, TransformerModel, Optional[np.ndarray]]:
    """``(config, model, corpus)`` of the LM that serving runs.

    A GPT-2-style accuracy-scale model over a 512-word, four-topic
    vocabulary, plus (given ``corpus_tokens``) a topic-segmented corpus
    of that length to draw prompts from; ``None`` without.  ``seed``
    seeds the vocabulary and the weights, ``corpus_seed`` the corpus.
    """
    vocab = build_vocabulary(size=512, n_classes=4, seed=seed)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=n_layers, d_model=d_model,
        n_heads=n_heads, max_seq_len=max_seq_len,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=seed)
    corpus = None
    if corpus_tokens is not None:
        corpus = make_lm_corpus(vocab, n_tokens=corpus_tokens, seed=corpus_seed)
    return config, model, corpus

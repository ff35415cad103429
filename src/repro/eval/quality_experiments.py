"""Quality-side experiment runners: real (accuracy-scale) models are
executed under the SpAtten executor to reproduce the paper's accuracy,
quantization-error, and interpretability results.

Covered here: Fig. 1 (cascade pruning across layers), Fig. 7
(quantization error vs attention-probability dominance), Fig. 21
(pruning-ratio / accuracy trade-offs), Fig. 22 (token-pruning
visualisations), and Fig. 23 (per-layer cumulative importance).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

import numpy as np

from ..config import BERT_BASE, GPT2_SMALL, PruningConfig, QuantConfig
from ..core import SpAttenExecutor
from ..core.quantization import LinearQuantizer, attention_prob_error
from ..eval.flops import step_flops, trace_flops
from ..nn import DenseExecutor, TransformerModel
from ..workloads import (
    accuracy_scale_config,
    build_task_model,
    build_vocabulary,
    lm_prompts,
    make_classification_dataset,
    make_lm_corpus,
)
from .accuracy import (
    classification_accuracy,
    extract_features,
    lm_fidelity,
    train_classification_readout,
)
from .reporting import Table, fmt_ratio

__all__ = [
    "classification_world",
    "lm_world",
    "fig01_cascade_pruning",
    "fig07_quant_error",
    "fig21_accuracy_tradeoff",
    "fig22_visualization",
    "fig23_importance_map",
    "PAPER_SENTENCES",
]


# ----------------------------------------------------------------------
# Cached accuracy-scale worlds (vocab + model + dataset + readout)
# ----------------------------------------------------------------------
@dataclass
class ClassificationWorld:
    vocab: object
    model: TransformerModel
    dataset: object
    readout: object
    dense_accuracy: float
    head_strengths: np.ndarray


@lru_cache(maxsize=4)
def classification_world(
    avg_len: int = 25,
    n_test: int = 64,
    signal_purity: float = 0.75,
) -> ClassificationWorld:
    """SST-2/CoLA-style world with a trained readout (cached): six
    layers, 96 training sentences."""
    vocab = build_vocabulary(size=512, n_classes=2, seed=0)
    config = accuracy_scale_config(
        BERT_BASE, len(vocab), n_layers=6, d_model=128, n_heads=8,
        max_seq_len=max(4 * avg_len, 128),
    )
    model, info = build_task_model(config, vocab, "classification", seed=0)
    dataset = make_classification_dataset(
        vocab, f"cls-len{avg_len}", avg_len=avg_len,
        n_train=96, n_test=n_test, signal_purity=signal_purity,
        seed=1,
    )
    features = extract_features(model, dataset.train)
    labels = np.array([int(e.label) for e in dataset.train])
    readout = train_classification_readout(features, labels, 2, seed=0)
    dense_acc = classification_accuracy(model, dataset, readout)
    return ClassificationWorld(
        vocab, model, dataset, readout, dense_acc, info.head_strengths
    )


@dataclass
class LmWorld:
    vocab: object
    model: TransformerModel
    prompts: List[np.ndarray]


@lru_cache(maxsize=1)
def lm_world() -> LmWorld:
    """PTB/WikiText-style LM world (cached): six layers, 16 prompts of
    96 tokens."""
    vocab = build_vocabulary(size=512, n_classes=4, seed=0)
    config = accuracy_scale_config(
        GPT2_SMALL, len(vocab), n_layers=6, d_model=128, n_heads=8,
        max_seq_len=256,
    )
    model, _ = build_task_model(config, vocab, "lm", seed=0)
    corpus = make_lm_corpus(vocab, n_tokens=6144, mean_segment=24, seed=2)
    prompts = lm_prompts(corpus, 96, 16, seed=3)
    return LmWorld(vocab, model, prompts)


# ----------------------------------------------------------------------
# Fig. 1 — cascade pruning across layers
# ----------------------------------------------------------------------
@dataclass
class Fig01Result:
    sentence: List[str]
    tokens_per_layer: List[int]
    heads_per_layer: List[int]
    compute_fraction_per_layer: List[float]
    surviving_words: List[str]
    predicted_label: int
    dense_label: int
    table: Table


def fig01_cascade_pruning() -> Fig01Result:
    """Cascade pruning on an SST-2-style sentence (paper Fig. 1).

    The paper prunes "As a visual treat, the film is almost perfect."
    from 11 tokens to 6 to 2 ('film perfect') and 12 heads to 10 to 8,
    with per-layer computation dropping to 38% then 12%.
    """
    world = classification_world(avg_len=25)
    sentence = "As a visual treat, the film is almost perfect."
    ids = np.concatenate([[world.vocab.cls_id], world.vocab.encode(sentence)])

    pruning = PruningConfig(
        token_keep_final=2.0 / len(ids), head_keep_final=0.67,
        token_front_frac=0.05, head_front_frac=0.2, min_tokens=2,
    )
    executor = SpAttenExecutor(pruning=pruning)
    result = world.model.encode(ids, executor=executor)
    dense_result = world.model.encode(ids)

    steps = executor.trace.steps
    # Per-layer compute fraction relative to an unpruned layer.
    from ..core.trace import dense_trace as _dense_trace

    dense_tr = _dense_trace(world.model.config, len(ids))
    base = step_flops(dense_tr.steps[0], world.model.config).total
    fractions = [
        step_flops(s, world.model.config).total / base for s in steps
    ]

    surviving = [world.vocab.words[int(t)] for t in ids[result.positions]]
    pred = int(world.readout.predict(result.pooled()[None, :])[0])
    dense_pred = int(world.readout.predict(dense_result.pooled()[None, :])[0])

    table = Table("Fig. 1 — Cascade pruning across layers",
                  ["layer", "tokens", "heads", "compute %"])
    for step, frac in zip(steps, fractions):
        table.add_row(str(step.layer), str(step.n_queries),
                      str(step.n_heads), f"{frac * 100:.0f}%")
    table.add_note(f"survivors: {' '.join(surviving)}")
    table.add_note(f"prediction preserved: {pred == dense_pred}")
    return Fig01Result(
        sentence=[world.vocab.words[int(t)] for t in ids],
        tokens_per_layer=[s.n_queries for s in steps],
        heads_per_layer=[s.n_heads for s in steps],
        compute_fraction_per_layer=fractions,
        surviving_words=surviving,
        predicted_label=pred,
        dense_label=dense_pred,
        table=table,
    )


# ----------------------------------------------------------------------
# Fig. 7 — quantization error vs max attention probability
# ----------------------------------------------------------------------
@dataclass
class Fig07Result:
    max_probs: np.ndarray
    errors: np.ndarray
    bin_centers: np.ndarray
    bin_mean_errors: np.ndarray
    correlation: float
    table: Table


def fig07_quant_error(bits: int = 4, n_rows: int = 4000) -> Fig07Result:
    """Mean attention-probability error (fp vs int4) against the row's
    max probability — dominated rows quantize almost losslessly."""
    rng = np.random.default_rng(0)
    # Attention-score rows with a spectrum of peakedness, the same
    # mixture a trained model produces across heads and layers: flat
    # rows (nothing dominant) through sharply dominated rows.
    rows = []
    length = 32
    for _ in range(n_rows):
        sharpness = rng.uniform(0.0, 8.0)
        scores = rng.normal(0, 1.0, size=length)
        scores[int(rng.integers(length))] += sharpness
        rows.append(scores)

    quantizer = LinearQuantizer(bits, 0)
    max_probs, errors = [], []
    for scores in rows:
        q = quantizer.quantize(scores)
        scores_q = quantizer.dequantize_full(q)
        mp, err = attention_prob_error(scores, scores_q)
        max_probs.append(mp[0])
        errors.append(err[0])
    max_probs = np.asarray(max_probs)
    errors = np.asarray(errors)

    bins = np.linspace(0, 1, 11)
    centers = 0.5 * (bins[:-1] + bins[1:])
    mean_err = np.array([
        errors[(max_probs >= lo) & (max_probs < hi)].mean()
        if np.any((max_probs >= lo) & (max_probs < hi)) else np.nan
        for lo, hi in zip(bins[:-1], bins[1:])
    ])
    corr = float(np.corrcoef(max_probs, errors)[0, 1])

    table = Table(f"Fig. 7 — int{bits} attention-probability error vs "
                  "max probability",
                  ["max-prob bin", "mean abs error"])
    for center, err in zip(centers, mean_err):
        table.add_row(f"{center:.2f}", "-" if np.isnan(err) else f"{err:.4f}")
    table.add_note(f"correlation(max_prob, error) = {corr:.2f} "
                   "(paper: strongly negative — dominated rows need fewer bits)")
    return Fig07Result(max_probs, errors, centers, mean_err, corr, table)


# ----------------------------------------------------------------------
# Fig. 21 — pruning-ratio / accuracy trade-off
# ----------------------------------------------------------------------
@dataclass
class Fig21Result:
    token_ratios: List[float]
    token_losses: List[float]
    token_kls: List[float]
    head_ratios: List[float]
    head_losses: List[float]
    table: Table


def fig21_accuracy_tradeoff() -> Fig21Result:
    """Token curve on a PTB-like LM; head curve on a CoLA-like task.

    Paper shape: ~4x token pruning and ~1.2x head pruning are free;
    beyond that accuracy falls off a cliff.
    """
    # Token pruning curve (LM): loss = drop of top-1 agreement with the
    # dense model (12-bit static quantization, progressive off — the
    # paper's protocol for this figure).
    lm = lm_world()
    quant = QuantConfig(msb_bits=12, lsb_bits=4, progressive=False)
    token_ratios, token_losses, token_kls = [], [], []
    for keep in (1.0, 0.5, 0.33, 0.25, 0.2, 0.15, 0.12):
        pruning = PruningConfig(token_keep_final=keep, value_keep=1.0)
        fidelity = lm_fidelity(
            lm.model, lm.prompts,
            lambda p=pruning: SpAttenExecutor(pruning=p, quant=quant),
        )
        token_ratios.append(1.0 / keep)
        token_losses.append(-fidelity.accuracy_loss)
        token_kls.append(fidelity.mean_kl)

    # Head pruning curve (classification accuracy delta) on a
    # CoLA-style short-sentence task, matching the paper's right panel.
    world = classification_world(avg_len=11, n_test=96, signal_purity=0.70)
    head_ratios, head_losses = [], []
    for keep in (1.0, 0.89, 0.75, 0.625, 0.5, 0.42, 0.375):
        pruning = PruningConfig(head_keep_final=keep)
        acc = classification_accuracy(
            world.model, world.dataset, world.readout,
            executor_factory=lambda p=pruning: SpAttenExecutor(
                pruning=p, quant=quant
            ),
        )
        head_ratios.append(1.0 / keep)
        head_losses.append(acc - world.dense_accuracy)

    table = Table("Fig. 21 — Pruning ratio vs accuracy loss",
                  ["curve", "ratio", "accuracy delta"])
    for ratio, loss, kl in zip(token_ratios, token_losses, token_kls):
        table.add_row("token (LM top-5 containment)", fmt_ratio(ratio),
                      f"{loss * 100:+.1f}% (KL {kl:.3f})")
    for ratio, loss in zip(head_ratios, head_losses):
        table.add_row("head (classification)", fmt_ratio(ratio),
                      f"{loss * 100:+.1f}%")
    table.add_note("paper: ~4x token pruning and ~1.2x head pruning with "
                   "no accuracy loss; larger ratios degrade sharply")
    return Fig21Result(token_ratios, token_losses, token_kls,
                       head_ratios, head_losses, table)


# ----------------------------------------------------------------------
# Fig. 22 / Fig. 23 — interpretability visualisations
# ----------------------------------------------------------------------
PAPER_SENTENCES: Dict[str, str] = {
    "classification": (
        "A wonderful movie, I am sure that you will remember it, you "
        "admire its conception and are able to resolve some of the "
        "confusions you had while watching it."
    ),
    "regression": (
        "It does sound like your cat is upset about something, and trying "
        "to communicate it to you. Something is bothering your cat and he "
        "wants to tell you."
    ),
    "lm": (
        "Du Fu was a great poet of the Tang dynasty. Recently a variety "
        "of styles have been used in efforts to translate the work of Du "
        "Fu into English"
    ),
}


@dataclass
class PruningStage:
    keep_fraction: float
    surviving_words: List[str]


@dataclass
class Fig22Result:
    visualisations: Dict[str, List[PruningStage]]
    table: Table


def fig22_visualization() -> Fig22Result:
    """Progressive token-pruning renderings of the paper's sentences."""
    world = classification_world()
    stages = (0.7, 0.4, 0.2)
    table = Table("Fig. 22 — Cascade token pruning visualisation",
                  ["task", "keep", "survivors"])
    visualisations: Dict[str, List[PruningStage]] = {}
    for task, sentence in PAPER_SENTENCES.items():
        ids = world.vocab.encode(sentence, add_cls=True)
        rendered: List[PruningStage] = []
        for keep in stages:
            pruning = PruningConfig(
                token_keep_final=keep, token_front_frac=0.0, min_tokens=2
            )
            executor = SpAttenExecutor(pruning=pruning)
            result = world.model.encode(ids, executor=executor)
            words = [
                world.vocab.words[int(ids[p])]
                for p in result.positions
                if ids[p] != world.vocab.cls_id
            ]
            rendered.append(PruningStage(keep, words))
            table.add_row(task, f"{keep:.0%}", " ".join(words))
        visualisations[task] = rendered
    table.add_note("paper prunes structural words first ('a', 'is', 'to'), "
                   "keeping content words ('film', 'perfect', 'translate')")
    return Fig22Result(visualisations, table)


@dataclass
class Fig23Result:
    words: List[str]
    importance: np.ndarray  # [n_layers, n_tokens] cumulative scores
    table: Table


def fig23_importance_map() -> Fig23Result:
    """Per-layer cumulative token importance for a GPT-2-style model."""
    lm = lm_world()
    ids = lm.vocab.encode(PAPER_SENTENCES["lm"])
    executor = SpAttenExecutor()  # no pruning: observe raw importance
    result = lm.model.encode(ids, executor=executor)

    n_layers = lm.model.config.n_layers
    importance = np.zeros((n_layers, len(ids)))
    running = np.zeros(len(ids))
    for layer, record in enumerate(result.records):
        running[record.key_token_ids] += record.probs.sum(axis=(0, 1))
        importance[layer] = running / max(running.max(), 1e-9)

    words = lm.vocab.decode(ids)
    table = Table("Fig. 23 — Cumulative token importance by layer",
                  ["layer"] + [w[:6] for w in words[:12]])
    glyphs = " .:-=+*#%@"
    for layer in range(n_layers):
        cells = [str(layer)]
        for token in range(min(len(ids), 12)):
            level = int(importance[layer, token] * (len(glyphs) - 1))
            cells.append(glyphs[level] * 3)
        table.add_row(*cells)
    table.add_note("important (content) tokens stay consistently dark "
                   "across layers; function words stay light")
    return Fig23Result(words, importance, table)

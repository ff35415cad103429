"""Synthetic workloads: vocabularies, corpora, tasks, and the registry
of the paper's 30 evaluation benchmarks."""

from .benchmarks import (
    GPT2_GEN_TOKENS,
    GPT2_PROMPT_LEN,
    Benchmark,
    all_benchmarks,
    bert_benchmarks,
    get_benchmark,
    gpt2_benchmarks,
)
from .model_zoo import (
    accuracy_scale_config,
    build_task_model,
    serving_lm_world,
)
from .tasks import (
    Dataset,
    Example,
    lm_prompts,
    make_classification_dataset,
    make_lm_corpus,
    make_regression_dataset,
)
from .traffic import (
    TrafficClass,
    heterogeneous_request_trace,
    poisson_arrival_times,
    synthetic_request_trace,
)
from .vocab import CONTENT_EXEMPLARS, FUNCTION_WORDS, Vocabulary, build_vocabulary

__all__ = [
    "GPT2_GEN_TOKENS",
    "GPT2_PROMPT_LEN",
    "Benchmark",
    "all_benchmarks",
    "bert_benchmarks",
    "get_benchmark",
    "gpt2_benchmarks",
    "accuracy_scale_config",
    "build_task_model",
    "serving_lm_world",
    "Dataset",
    "Example",
    "lm_prompts",
    "make_classification_dataset",
    "make_lm_corpus",
    "make_regression_dataset",
    "poisson_arrival_times",
    "synthetic_request_trace",
    "TrafficClass",
    "heterogeneous_request_trace",
    "CONTENT_EXEMPLARS",
    "FUNCTION_WORDS",
    "Vocabulary",
    "build_vocabulary",
]

"""Tests for vocabularies, task generators, and the benchmark registry."""

import numpy as np
import pytest

from repro.workloads import (
    Benchmark,
    Vocabulary,
    all_benchmarks,
    bert_benchmarks,
    build_vocabulary,
    get_benchmark,
    gpt2_benchmarks,
    lm_prompts,
    make_classification_dataset,
    make_lm_corpus,
    make_regression_dataset,
    poisson_arrival_times,
    synthetic_request_trace,
)
from repro.workloads.benchmarks import GPT2_GEN_TOKENS, GPT2_PROMPT_LEN


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(size=512, n_classes=2, seed=0)


class TestVocabulary:
    def test_structure(self, vocab):
        assert len(vocab) == 512
        assert vocab.words[vocab.cls_id] == "[CLS]"
        assert len(vocab.function_ids) > 50
        assert len(vocab.content_ids) > 100

    def test_function_words_low_salience(self, vocab):
        the = vocab.id_of("the")
        film = vocab.id_of("film")
        assert vocab.salience[the] < 0.3
        assert vocab.salience[film] > 0.5

    def test_classes_partition_carriers(self, vocab):
        for c in range(2):
            assert len(vocab.content_ids_of_class(c)) > 20
        carriers = set(np.flatnonzero(vocab.class_of >= 0))
        assert carriers.issubset(set(vocab.content_ids.tolist()))

    def test_oov_maps_to_content(self, vocab):
        token = vocab.id_of("zyzzyva")
        assert vocab.salience[token] >= 0.3
        assert vocab.id_of("zyzzyva") == token  # deterministic

    def test_encode_decode(self, vocab):
        ids = vocab.encode("the film is perfect", add_cls=True)
        words = vocab.decode(ids)
        assert words[0] == "[CLS]"
        assert words[1:] == ["the", "film", "is", "perfect"]

    def test_encode_strips_punctuation(self, vocab):
        ids = vocab.encode("Perfect, film!")
        assert vocab.decode(ids) == ["perfect", "film"]

    def test_evidence_matrix(self, vocab):
        evidence = vocab.evidence_matrix()
        assert evidence.shape == (512, 2)
        the = vocab.id_of("the")
        assert np.all(evidence[the] == 0)
        carrier = vocab.content_ids_of_class(0)[0]
        assert evidence[carrier, 0] == 1.0

    def test_evidence_with_signatures(self, vocab):
        evidence = vocab.evidence_matrix(evidence_dim=10)
        carrier = vocab.content_ids_of_class(1)[0]
        assert np.any(evidence[carrier, 2:] != 0)
        with pytest.raises(ValueError):
            vocab.evidence_matrix(evidence_dim=1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_vocabulary(size=16)

    def test_zipf_head_is_function_words(self, vocab):
        top = np.argsort(vocab.zipf_weights)[::-1][:20]
        assert np.all(vocab.salience[top] < 0.3)


class TestDatasets:
    def test_classification_dataset(self, vocab):
        ds = make_classification_dataset(vocab, "t", avg_len=20,
                                         n_train=10, n_test=5, seed=0)
        assert len(ds.train) == 10 and len(ds.test) == 5
        for example in ds.train:
            assert example.token_ids[0] == vocab.cls_id
            assert example.label in (0.0, 1.0)
        assert 8 < ds.mean_length < 50

    def test_labels_balanced_ish(self, vocab):
        ds = make_classification_dataset(vocab, "t", avg_len=15,
                                         n_train=100, n_test=0, seed=1)
        labels = [e.label for e in ds.train]
        assert 0.3 < np.mean(labels) < 0.7

    def test_regression_dataset(self, vocab):
        ds = make_regression_dataset(vocab, "sts", avg_len=30,
                                     n_train=10, n_test=4, seed=0)
        for example in ds.train:
            assert 1.0 <= example.label <= 5.0
            assert vocab.sep_id in example.token_ids

    def test_lm_corpus(self, vocab):
        corpus = make_lm_corpus(vocab, n_tokens=500, seed=0)
        assert len(corpus) == 500
        assert np.all(corpus >= 3)  # no specials in the stream
        content_frac = np.mean(vocab.salience[corpus] > 0.3)
        assert 0.2 < content_frac < 0.55

    def test_lm_prompts(self, vocab):
        corpus = make_lm_corpus(vocab, n_tokens=300, seed=0)
        prompts = lm_prompts(corpus, 50, 7, seed=1)
        assert len(prompts) == 7
        assert all(len(p) == 50 for p in prompts)
        with pytest.raises(ValueError):
            lm_prompts(corpus, 301, 2)


class TestBenchmarkRegistry:
    def test_thirty_benchmarks(self):
        assert len(all_benchmarks()) == 30
        assert len(bert_benchmarks()) == 22
        assert len(gpt2_benchmarks()) == 8

    def test_bert_tasks_cover_glue_and_squad(self):
        tasks = {b.task for b in bert_benchmarks()}
        assert tasks == {
            "cola", "sst-2", "mrpc", "sts-b", "qqp", "mnli-m", "mnli-mm",
            "qnli", "rte", "squad-v1", "squad-v2",
        }

    def test_gpt2_workload_shape(self):
        for bench in gpt2_benchmarks():
            assert bench.seq_len == GPT2_PROMPT_LEN == 992
            assert bench.n_generate == GPT2_GEN_TOKENS == 32
            assert bench.is_generative
            assert bench.quant.progressive

    def test_bert_uses_static_quant(self):
        for bench in bert_benchmarks():
            assert not bench.quant.progressive
            assert not bench.is_generative

    def test_gpt2_prunes_harder_than_bert(self):
        bert_keep = np.mean([b.pruning.token_keep_final for b in bert_benchmarks()])
        gpt2_keep = np.mean([b.pruning.token_keep_final for b in gpt2_benchmarks()])
        assert gpt2_keep < bert_keep

    def test_longer_tasks_prune_more(self):
        cola = get_benchmark("bert-base-cola")
        squad = get_benchmark("bert-base-squad-v1")
        assert squad.pruning.token_keep_final < cola.pruning.token_keep_final
        assert squad.seq_len > cola.seq_len

    def test_lookup_errors(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("bert-base-imagenet")

    def test_keys_match_models(self):
        bench = get_benchmark("gpt2-medium-ptb")
        assert bench.model.name == "gpt2-medium"
        assert bench.model.n_layers == 24


class TestTrafficSeedSchemes:
    """Regression: a trace derives its arrival RNG as ``seed + 1``, so
    traces built with seeds ``s`` and ``s + 1`` share underlying bit
    streams — the derivation every checked-in benchmark trace rests on.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return make_lm_corpus(
            build_vocabulary(size=256, n_classes=2, seed=0),
            n_tokens=1024, seed=2,
        )

    def trace(self, corpus, seed):
        return synthetic_request_trace(
            corpus, n_requests=16, rate_per_s=100.0, prompt_len=12,
            max_new_tokens=(2, 6), seed=seed,
        )

    def test_legacy_default_is_unchanged(self, corpus):
        """The trace still derives its arrival stream from
        ``default_rng(seed + 1)`` — checked-in benchmark results stay
        valid."""
        pinned = np.cumsum(
            np.random.default_rng(10).exponential(1.0 / 100.0, size=16)
        )
        np.testing.assert_allclose(
            [r.arrival_time for r in self.trace(corpus, seed=9)], pinned
        )

    def test_legacy_adjacent_seeds_share_bit_streams(self, corpus):
        """Pinned: trace ``s``'s arrival stream *is*
        ``default_rng(s + 1)``'s bit stream, which trace ``s + 1``
        consumes as its base RNG."""
        arrivals = poisson_arrival_times(16, 100.0, seed=8)
        trace_7 = self.trace(corpus, seed=7)
        np.testing.assert_allclose(
            [r.arrival_time for r in trace_7], arrivals
        )

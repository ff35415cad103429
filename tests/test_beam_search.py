"""Tests for beam-search decoding under SpAtten executors."""

import numpy as np
import pytest

from repro.config import PruningConfig
from repro.core import SpAttenExecutor
from repro.nn import beam_search


class TestBeamSearch:
    def test_beam_one_equals_greedy(self, tiny_decoder, sample_tokens):
        greedy = tiny_decoder.generate(sample_tokens, 4)
        beams = beam_search(tiny_decoder, sample_tokens, 4, beam_width=1)
        assert beams[0].token_ids == greedy.token_ids

    def test_wider_beam_never_scores_worse(self, tiny_decoder, sample_tokens):
        narrow = beam_search(tiny_decoder, sample_tokens, 4, beam_width=1)
        wide = beam_search(tiny_decoder, sample_tokens, 4, beam_width=4)
        assert wide[0].log_probability >= narrow[0].log_probability - 1e-9

    def test_returns_sorted_hypotheses(self, tiny_decoder, sample_tokens):
        beams = beam_search(tiny_decoder, sample_tokens, 3, beam_width=3)
        scores = [b.log_probability for b in beams]
        assert scores == sorted(scores, reverse=True)
        assert all(len(b.token_ids) == 3 for b in beams)

    def test_works_under_cascade_pruning(self, tiny_decoder, sample_tokens):
        """The paper's claim: pruning composes with beam search (a
        pruned token is absent from every beam)."""
        factory = lambda: SpAttenExecutor(
            PruningConfig(token_keep_final=0.5, value_keep=0.9)
        )
        beams = beam_search(
            tiny_decoder, sample_tokens, 3, beam_width=2,
            executor_factory=factory,
        )
        assert len(beams) == 2
        dense = beam_search(tiny_decoder, sample_tokens, 3, beam_width=2)
        # Pruned scores are close to dense ones (moderate pruning).
        assert beams[0].log_probability == pytest.approx(
            dense[0].log_probability, abs=2.0
        )

    def test_validation(self, tiny_decoder, tiny_encoder, sample_tokens):
        with pytest.raises(ValueError):
            beam_search(tiny_encoder, sample_tokens, 2)
        with pytest.raises(ValueError):
            beam_search(tiny_decoder, sample_tokens, 2, beam_width=0)
        with pytest.raises(ValueError):
            beam_search(tiny_decoder, sample_tokens, 0)

"""Top-p sampling semantics and incremental generation correctness."""

import numpy as np
import pytest

from emomusic.errors import EmoMusicError
from emomusic.model import ModelConfig, forward, init_state
from emomusic.sampling import (
    SamplerConfig,
    _IncrementalModel,
    generate,
    generate_from_bits,
    nucleus_probabilities,
    sample_top_p,
)
from emomusic.tokens import BOS, EOS


class TestNucleus:
    def test_cited_distribution(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        out = nucleus_probabilities(probs, 0.9)
        assert out == pytest.approx([0.5 / 0.95, 0.3 / 0.95, 0.15 / 0.95, 0.0])

    def test_p_one_keeps_everything(self):
        probs = np.array([0.4, 0.35, 0.25])
        assert nucleus_probabilities(probs, 1.0) == pytest.approx(probs)

    def test_one_hot_always_sampled(self):
        logits = np.full(5, -100.0)
        logits[3] = 100.0
        rng = np.random.default_rng(0)
        cfg = SamplerConfig(p=0.9, max_tokens=10)
        assert all(sample_top_p(logits, cfg, rng) == 3 for _ in range(50))

    def test_token_outside_nucleus_never_drawn(self):
        # log-probs for [0.5, 0.3, 0.15, 0.05]; temperature 1 keeps them
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        rng = np.random.default_rng(1)
        cfg = SamplerConfig(p=0.9, max_tokens=10)
        draws = np.array([sample_top_p(logits, cfg, rng) for _ in range(2000)])
        assert (draws != 3).all()
        freq = np.bincount(draws, minlength=4) / draws.size
        expected = np.array([0.5, 0.3, 0.15]) / 0.95
        sigma = np.sqrt(expected * (1 - expected) / draws.size)
        assert (np.abs(freq[:3] - expected) <= 3 * sigma).all()

    def test_temperature_flattens(self):
        logits = np.array([2.0, 0.0])
        rng = np.random.default_rng(2)
        hot = sum(sample_top_p(logits, SamplerConfig(p=1.0, temperature=10.0,
                                                     max_tokens=4), rng)
                  for _ in range(2000))
        rng = np.random.default_rng(2)
        cold = sum(sample_top_p(logits, SamplerConfig(p=1.0, temperature=0.1,
                                                      max_tokens=4), rng)
                   for _ in range(2000))
        assert cold < hot  # low temperature sticks to the argmax

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "plus-inf"])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.array([0.5, bad, -1.0])
        with pytest.raises(EmoMusicError, match="logits"):
            sample_top_p(logits, SamplerConfig(), np.random.default_rng(0))

    def test_minus_inf_logits_never_drawn(self):
        logits = np.array([-np.inf, 0.0, -np.inf, 0.5])
        rng = np.random.default_rng(3)
        cfg = SamplerConfig(p=1.0)
        assert {sample_top_p(logits, cfg, rng) for _ in range(200)} == {1, 3}


def tiny_state(seed=0):
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=12, d_ffn=24, max_len=16,
                      dropout=0.0, attr_dim=3)
    return init_state(cfg, seed=seed)


class TestGenerate:
    def test_deterministic_given_seed(self):
        state = tiny_state(1)
        bits = np.array([1, 0, 1])
        cfg = SamplerConfig(p=0.9, max_tokens=12, seed=5)
        assert generate_from_bits(state, bits, cfg) == generate_from_bits(state, bits, cfg)

    def test_starts_with_bos_and_bounded(self):
        state = tiny_state(2)
        tokens = generate_from_bits(state, np.array([0, 1, 0]),
                                    SamplerConfig(p=0.9, max_tokens=9, seed=6))
        assert tokens[0] == BOS
        assert len(tokens) <= 9

    def test_binarizes_raw_values_against_medians(self):
        state = tiny_state(3)
        cfg = SamplerConfig(p=0.9, max_tokens=8, seed=7)
        via_values = generate(state, np.array([5.0, 1.0, 9.0]),
                              np.array([4.0, 2.0, 9.0]), cfg)
        via_bits = generate_from_bits(state, np.array([1, 0, 0]), cfg)
        assert via_values == via_bits

    def test_stops_at_eos(self):
        state = tiny_state(4)
        # zero the final norm gain so hidden is exactly ln_f_b, then give EOS
        # an embedding hugely aligned with it: EOS is the runaway argmax
        state.params["ln_f_g"].data[:] = 0.0
        state.params["ln_f_b"].data[:] = 0.0
        state.params["ln_f_b"].data[0] = 1.0
        state.params["tok_emb"].data[EOS] = 0.0
        state.params["tok_emb"].data[EOS, 0] = 1000.0
        tokens = generate_from_bits(state, np.array([1, 1, 1]),
                                    SamplerConfig(p=0.5, max_tokens=16, seed=8))
        assert tokens[-1] == EOS
        assert len(tokens) == 2


class TestIncrementalEqualsBatch:
    def test_stepwise_logits_match_full_forward(self):
        state = tiny_state(5)
        bits = np.array([1, 0, 1])
        prefix = [BOS, 40, 170, 22, 199]
        inc = _IncrementalModel(state, bits)
        for t, token in enumerate(prefix):
            logits_inc = inc.step(token)
            logits_full = forward(state, prefix[:t + 1], bits)[-1]
            assert logits_inc == pytest.approx(logits_full, abs=1e-9)

    def test_unconditioned_model_accepts_none_bits(self):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ffn=16, max_len=8,
                          dropout=0.0, attr_dim=0)
        state = init_state(cfg, seed=6)
        inc = _IncrementalModel(state, None)
        logits_inc = inc.step(BOS)
        logits_full = forward(state, [BOS], None)[-1]
        assert logits_inc == pytest.approx(logits_full, abs=1e-12)

"""Top-p sampling semantics and batched recurrent generation correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emomusic import sampling
from emomusic.errors import EmoMusicError
from emomusic.autodiff import Tensor, linear, phi_and_slope
from emomusic.model import (
    DecodeCache,
    ModelConfig,
    ModelState,
    attribute_embedding,
    backbone,
    init_state,
    logits_from_hidden,
)
from emomusic.sampling import generate_pieces, sample_rows, sample_top_p
from emomusic.tokens import BOS, EOS

import reference
from reference import forward


class TestNucleus:
    def test_cited_distribution(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        out = reference.nucleus_probabilities(probs, 0.9)
        assert out == pytest.approx([0.5 / 0.95, 0.3 / 0.95, 0.15 / 0.95, 0.0])

    def test_p_one_keeps_everything(self):
        probs = np.array([0.4, 0.35, 0.25])
        assert reference.nucleus_probabilities(probs, 1.0) == pytest.approx(probs)

    def test_one_hot_always_sampled(self):
        logits = np.full(5, -100.0)
        logits[3] = 100.0
        rng = np.random.default_rng(0)
        assert all(sample_top_p(logits, 0.9, rng) == 3 for _ in range(50))

    def test_token_outside_nucleus_never_drawn(self):
        # log-probs for [0.5, 0.3, 0.15, 0.05]
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        rng = np.random.default_rng(1)
        draws = np.array([sample_top_p(logits, 0.9, rng) for _ in range(2000)])
        assert (draws != 3).all()
        freq = np.bincount(draws, minlength=4) / draws.size
        expected = np.array([0.5, 0.3, 0.15]) / 0.95
        sigma = np.sqrt(expected * (1 - expected) / draws.size)
        assert (np.abs(freq[:3] - expected) <= 3 * sigma).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "plus-inf"])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.array([0.5, bad, -1.0])
        with pytest.raises(EmoMusicError, match="logits"):
            sample_top_p(logits, 0.9, np.random.default_rng(0))

    def test_draws_repeat_the_reference_sampler(self):
        rng = np.random.default_rng(12)
        for i in range(300):
            logits = rng.normal(size=244) * rng.choice([0.1, 1.0, 4.0, 40.0])
            if i % 3 == 0:
                logits = np.round(logits)  # ties in the descending sort
            if i % 5 == 0:
                logits[rng.integers(0, 244, size=60)] = -np.inf
            p = float(rng.choice([0.3, 0.9, 0.999, 1.0]))
            # divided by 0.7 or 1, as the sampler once scaled them: every case
            # keeps the logits it has always been sampled from
            logits = logits / float(rng.choice([0.7, 1.0]))
            ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(3):
                assert sample_top_p(logits, p, ours) == reference.sample_top_p(logits, p, theirs)

    def test_minus_inf_logits_never_drawn(self):
        logits = np.array([-np.inf, 0.0, -np.inf, 0.5])
        rng = np.random.default_rng(3)
        assert {sample_top_p(logits, 1.0, rng) for _ in range(200)} == {1, 3}


# p near 0, 0.5, 0.9 and 1, the last both below 1 and exactly 1
NUCLEUS_P = st.one_of(st.floats(1e-12, 1e-3), st.floats(0.45, 0.55), st.floats(0.85, 0.95),
                      st.floats(0.99, 1.0), st.just(1.0))


@st.composite
def logit_batches(draw):
    """(logits (B, 244), p) with B in 1..32. Rows may be rounded to ties, may
    tie at the top, and may hold -inf entries; none is all -inf."""
    rows = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = [draw(st.sampled_from([0.01, 0.1, 1.0, 4.0, 40.0])) for _ in range(rows)]
    logits = rng.normal(size=(rows, 244)) * np.array(scales)[:, None]
    for row in logits:
        if draw(st.booleans()):
            row[:] = np.round(row)  # ties in the descending sort
        if draw(st.booleans()):
            row[rng.integers(0, 244, size=draw(st.integers(1, 8)))] = row.max()
        n_inf = draw(st.sampled_from([0, 0, 1, 60, 243]))
        row[rng.permutation(244)[:n_inf]] = -np.inf
    return logits, draw(NUCLEUS_P)


class TestSampleRows:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(logit_batches())
    def test_draws_repeat_the_reference_sampler_row_by_row(self, case):
        logits, p = case
        ours = [np.random.default_rng(i) for i in range(len(logits))]
        theirs = [np.random.default_rng(i) for i in range(len(logits))]
        for _ in range(3):
            drawn = sample_rows(logits, p, ours)
            assert drawn.tolist() == [reference.sample_top_p(row, p, rng)
                                      for row, rng in zip(logits, theirs)]

    def test_a_draw_at_the_top_of_the_range_takes_the_last_nucleus_token(self):
        class Top:
            """A generator whose draw is the end of [0, 1], where no running sum
            lies above the target."""

            def random(self):
                return 1.0

        logits = np.log(np.array([0.05, 0.5, 0.3, 0.3, 0.15]))
        logits[2] = -np.inf
        assert sample_rows(logits[None], 0.9, [Top()]).tolist() == [4]
        assert reference.sample_top_p(logits, 0.9, Top()) == 4

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(logit_batches(), st.sampled_from([np.nan, np.inf]), st.data())
    def test_a_non_finite_row_in_the_batch_raises(self, case, bad, data):
        logits, p = case
        row = data.draw(st.integers(0, len(logits) - 1))
        logits[row, data.draw(st.integers(0, 243))] = bad
        rngs = [np.random.default_rng(i) for i in range(len(logits))]
        with pytest.raises(EmoMusicError, match="logits"):
            sample_rows(logits, p, rngs)


def tiny_state(seed=0):
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=12, d_ffn=24, max_len=16,
                      dropout=0.0, attr_dim=3)
    return init_state(cfg, seed=seed)


class TestGenerate:
    def test_deterministic_given_seed(self):
        state = tiny_state(1)
        bits = np.array([1, 0, 1])
        assert generate_pieces(state, bits[None], [5], 0.9, 12) == \
            generate_pieces(state, bits[None], [5], 0.9, 12)

    def test_starts_with_bos_and_bounded(self):
        state = tiny_state(2)
        [tokens] = generate_pieces(state, np.array([[0, 1, 0]]), [6], p=0.9, max_tokens=9)
        assert tokens[0] == BOS
        assert len(tokens) <= 9

    def test_stops_at_eos(self):
        state = tiny_state(4)
        # zero the final norm gain so hidden is exactly ln_f_b, then give EOS
        # an embedding hugely aligned with it: EOS is the runaway argmax
        state.params["ln_f_g"].data[:] = 0.0
        state.params["ln_f_b"].data[:] = 0.0
        state.params["ln_f_b"].data[0] = 1.0
        state.params["tok_emb"].data[EOS] = 0.0
        state.params["tok_emb"].data[EOS, 0] = 1000.0
        [tokens] = generate_pieces(state, np.array([[1, 1, 1]]), [8], p=0.5, max_tokens=16)
        assert tokens[-1] == EOS
        assert len(tokens) == 2


class TestIncrementalEqualsBatch:
    def test_stepwise_logits_match_full_forward(self):
        state = tiny_state(5)
        bits = np.array([1, 0, 1])
        prefix = [BOS, 40, 170, 22, 199]
        cache = DecodeCache(state.config, rows=1)
        for t, token in enumerate(prefix):
            hidden = backbone(state, [[token]], bits[None, :], cache=cache)
            logits_inc = logits_from_hidden(state, hidden).data[0, -1]
            logits_full = forward(state, prefix[:t + 1], bits)[-1]
            assert logits_inc == pytest.approx(logits_full, abs=1e-9)

    def test_decoding_step_takes_one_token_per_row(self):
        state = tiny_state(5)
        with pytest.raises(EmoMusicError, match="one token"):
            backbone(state, [[BOS, 40]], np.zeros((1, 3)), cache=DecodeCache(state.config, 1))


def constant_state(seed=0):
    """tiny_state's weights as generate_pieces decodes them."""
    return sampling.decoder_weights(tiny_state(seed))


class TestDecodeCache:
    def test_step_on_constant_weights_builds_no_graph(self):
        state = constant_state(2)
        cache = DecodeCache(state.config, rows=2)
        for token in (BOS, 40):
            hidden = backbone(state, [[token], [token]], np.eye(3)[:2], cache=cache)
            assert hidden.requires_grad is False
            assert hidden._parents == ()
            assert hidden._backward is None
        assert cache.attr.requires_grad is False

    def test_keep_leaves_attribute_embedding_aligned(self):
        state = constant_state(3)
        bits = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=float)
        cache = DecodeCache(state.config, rows=4)
        backbone(state, [[BOS]] * 4, bits, cache=cache)
        rows = np.array([False, True, False, True])
        cache.keep(rows)
        want = attribute_embedding(state, bits[rows][:, None, :]).data
        assert cache.attr.data.tobytes() == want.tobytes()
        assert cache.s.shape[1] == cache.z.shape[1] == 2
        hidden = backbone(state, [[40], [40]], bits[rows], cache=cache)
        assert hidden.shape == (2, 1, state.config.d_model)


def separate_step(cache: DecodeCache, layer: int, y: Tensor, params) -> np.ndarray:
    """One decoding step's attention as three ``linear`` projections and two
    ``phi_and_slope`` feature maps, updating ``cache``'s sums in place."""
    q, k, v = (linear(y, params[f"l{layer}.w{n}"], params[f"l{layer}.b{n}"]) for n in "qkv")
    heads = cache.z.shape[1:]
    phi_q, _ = phi_and_slope(q.data.reshape(heads))
    phi_k, _ = phi_and_slope(k.data.reshape(heads))
    s, z = cache.s[layer], cache.z[layer]
    s += phi_k.transpose(0, 1, 3, 2) * v.data.reshape(heads)
    z += phi_k
    return ((phi_q @ s) / (phi_q * z).sum(axis=-1, keepdims=True)).reshape(q.shape)


class TestFusedDecodeStep:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 32), st.sampled_from([(1, 8), (2, 12), (4, 64), (8, 128)]),
           st.integers(0, 2 ** 32 - 1))
    def test_one_projection_and_feature_map_match_the_separate_ops(self, rows, shape,
                                                                  seed):
        heads, d = shape
        config = ModelConfig(n_layers=2, n_heads=heads, d_model=d, d_ffn=8, max_len=8,
                             dropout=0.0, attr_dim=3)
        rng = np.random.default_rng(seed)
        params = {f"l{i}.{kind}{n}": Tensor(rng.normal(size=(d, d) if kind == "w" else d))
                  for i in range(2) for kind in "wb" for n in "qkv"}
        fused, separate = DecodeCache(config, rows), DecodeCache(config, rows)
        for _ in range(3):
            for layer in range(2):
                y = Tensor(rng.normal(size=(rows, 1, d)))
                qkv = fused.project(layer, y, params)
                want = np.concatenate([linear(y, params[f"l{layer}.w{n}"],
                                              params[f"l{layer}.b{n}"]).data
                                       for n in "qkv"], axis=-1)
                assert qkv.tobytes() == want.tobytes()
                out = fused.attend(layer, qkv).data
                assert out.tobytes() == separate_step(separate, layer, y, params).tobytes()
        assert fused.s.tobytes() == separate.s.tobytes()
        assert fused.z.tobytes() == separate.z.tobytes()


def eos_prone_state():
    """A tiny model with a raised EOS logit: of 30 pieces of at most 16
    tokens, some end at EOS and others run on to max_tokens."""
    state = tiny_state(6)
    state.params["ln_f_b"].data[0] = 1.0
    state.params["tok_emb"].data[EOS, 0] = 2.0
    return state


class TestBatchedDecoding:
    @pytest.mark.parametrize("cap", [32, 7])
    def test_piece_does_not_depend_on_its_batch(self, monkeypatch, cap):
        monkeypatch.setattr(sampling, "MAX_DECODE_ROWS", cap)
        state = eos_prone_state()
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(30, 3))
        seeds = [int(seed) for seed in rng.integers(0, 2 ** 31, size=30)]
        batch = generate_pieces(state, bits, seeds, 0.95, 16)
        alone = [generate_pieces(state, b[None], [seed], 0.95, 16)[0]
                 for b, seed in zip(bits, seeds)]
        assert batch == alone
        # the batch held rows that stopped at EOS while others ran to the end
        assert any(p[-1] == EOS and len(p) < 16 for p in batch)
        assert any(len(p) == 16 and EOS not in p for p in batch)

    def test_rows_stop_at_their_own_max_tokens(self):
        state = tiny_state(7)
        pieces = [generate_pieces(state, np.ones((1, 3)), [3], 0.9, m)[0] for m in (1, 5, 16)]
        assert pieces[0] == [BOS]
        assert len(pieces[1]) <= 5
        assert pieces[1] == pieces[2][:len(pieces[1])]

    def test_float32_model_decodes_in_float64(self):
        state = init_state(tiny_state().config, seed=8, dtype=np.float32)
        wide = ModelState(state.config, np.float64)
        wide.flat[...] = state.flat
        bits = np.eye(3)[[0, 1, 2, 0, 1, 2]]
        assert generate_pieces(state, bits, range(6), 0.9, 16) == \
            generate_pieces(wide, bits, range(6), 0.9, 16)

    def test_decoder_weights_are_one_cast_of_the_buffer(self):
        state = init_state(tiny_state().config, seed=8, dtype=np.float32)
        decoder = sampling.decoder_weights(state)
        assert decoder.flat.tobytes() == state.flat.astype(np.float64).tobytes()
        for name, p in decoder.params.items():
            assert p.data.base is decoder.flat and not p.requires_grad, name
            assert p.data.tobytes() == state.params[name].data.astype(np.float64).tobytes()

    def test_one_seed_per_row_required(self):
        with pytest.raises(EmoMusicError, match="rows of bits"):
            generate_pieces(tiny_state(), np.ones((2, 3)), [0], 0.9, 1280)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, np.nan])
    def test_p_outside_zero_one_rejected(self, p):
        with pytest.raises(EmoMusicError, match=r"p must be in \(0, 1\]"):
            generate_pieces(tiny_state(), np.ones((2, 3)), [0, 1], p, 4)

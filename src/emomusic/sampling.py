"""Nucleus (top-p) sampling and batched autoregressive generation.

Decoding runs ``model.backbone`` one token per row at a time with a
``DecodeCache``, in float64 on ``decoder_weights``: the model's flat buffer
cast in one copy, whose tensors do not require gradients, so every op in a
step takes its no-graph shortcut. Each layer projects q|k|v with one matmul
(``DecodeCache.project``); only the first step reads the attribute bits, and
the tied head's transpose is taken once per call. Its logits match the full
forward within 1e-9 absolute, not bit for bit: the two forms sum in
different orders. Every product is taken row by row, so a piece does not
depend on the rows decoded with it.

All rows of a call are drawn under one nucleus p and one token cap; only
the seed of each row's generator is its own. Each step takes one softmax
over all live rows; elementwise ops and sums along the last axis give each
row the bits of its own 1-D softmax. The nucleus draw stays per row: the
stable sort, the cutoff, the nucleus sum (numpy's pairwise order depends on
the row) and one draw from the row's own generator.
"""

from __future__ import annotations

import numpy as np

from .errors import EmoMusicError
from .model import DecodeCache, ModelState, backbone
from .tokens import BOS, EOS

MAX_DECODE_ROWS = 32  # rows decoded at once; a large-model row holds 1.5 MB of sums


def sample_rows(logits: np.ndarray, p: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """One token per row of ``logits`` (B, V), row i drawn with ``rngs[i]``:
    softmax, nucleus truncation at ``p``, then one categorical draw.

    The nucleus is the smallest prefix of the descending stable-sorted
    probabilities whose cumulative mass reaches p, renormalized. Tokens
    outside it can never be returned, even under float round-off in the
    cumulative sum. Logits of -inf are never drawn; a row with a NaN or +inf
    logit, or with every logit -inf, raises EmoMusicError.
    """
    if not 0.0 < p <= 1.0:
        raise EmoMusicError("p must be in (0, 1]")
    logits = np.asarray(logits, dtype=float)
    top = logits.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise EmoMusicError("logits are NaN, +inf or all -inf; cannot sample")
    probs = logits - top
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)  # each row's sum is the 1-D sum's bits
    nucleus = np.zeros(probs.shape)
    tokens = []
    for row, negated, out, rng in zip(probs, -probs, nucleus, rngs):
        # array methods rather than their np.* wrappers: this runs per row and token
        order = negated.argsort(kind="stable")
        ranked = row[order]
        cutoff = int(ranked.cumsum().searchsorted(p)) + 1  # smallest prefix >= p
        kept = ranked[:cutoff]
        out[order[:cutoff]] = kept / kept.sum()  # pairwise sum: per row
        # the running sum in token order passes over the zeros outside the
        # nucleus unchanged, so it holds the nucleus' own running sums
        cumulative = out.cumsum()
        j = cumulative.searchsorted(rng.random() * cumulative[-1], side="right")
        # the first token whose running sum passes the target, or the last
        # token in the nucleus if none does (a draw of 1.0)
        tokens.append(j if j < cumulative.size else out.nonzero()[0][-1])
    return np.array(tokens)


def sample_top_p(logits: np.ndarray, p: float, rng: np.random.Generator) -> int:
    """``sample_rows`` for one row of logits (V,)."""
    return int(sample_rows(np.asarray(logits, dtype=float)[None], p, [rng])[0])


def decoder_weights(state: ModelState) -> ModelState:
    """The float64 model that decoding runs on: ``state.flat`` cast in one
    copy, with parameters that need no gradient."""
    decoder = ModelState(state.config, np.float64, requires_grad=False)
    decoder.flat[...] = state.flat
    return decoder


def _decode(decoder: ModelState, bits: np.ndarray, seeds: list[int], p: float,
            limit: int) -> list[list[int]]:
    """The pieces of rows decoded together, row i seeded with ``seeds[i]``, each
    from BOS until EOS or ``limit`` tokens."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    tokens = np.empty((len(seeds), max(limit, 1)), dtype=np.int64)
    tokens[:, 0] = BOS
    ends = np.full(len(seeds), tokens.shape[1])  # row i's piece is tokens[i, :ends[i]]
    live = np.arange(len(seeds))  # the rows still drawing
    last = tokens[:, 0]  # each live row's last token
    cache = DecodeCache(decoder.config, live.size)
    head = decoder.params["tok_emb"].data.T  # the tied output projection
    for length in range(1, limit):  # of every live row's piece
        running = last != EOS
        if not running.all():
            ends[live[~running]] = length
            live, last = live[running], last[running]
            rngs = [rng for rng, keep in zip(rngs, running) if keep]
            if not live.size:
                break
            cache.keep(running)
        # only the first step reads the bits: the cache keeps their embedding
        hidden = backbone(decoder, last[:, None], bits[live] if length == 1 else None,
                          cache=cache)
        last = sample_rows((hidden.data @ head)[:, 0], p, rngs)
        tokens[live, length] = last
    return [row[:end].tolist() for row, end in zip(tokens, ends)]


def generate_pieces(state: ModelState, bits: np.ndarray, seeds: list[int], p: float,
                    max_tokens: int) -> list[list[int]]:
    """One piece per row of ``bits`` (B, attr_dim), row i drawn from a
    generator seeded with ``seeds[i]``, from BOS until EOS or ``max_tokens``
    (both included), every row under the same nucleus ``p``. Rows are decoded
    ``MAX_DECODE_ROWS`` at a time; a piece is the same whichever rows it is
    decoded with."""
    bits = np.asarray(bits, dtype=float)
    if len(bits) != len(seeds):
        raise EmoMusicError(f"{len(bits)} rows of bits but {len(seeds)} seeds")
    decoder = decoder_weights(state)
    limit = min(max_tokens, state.config.max_len)
    pieces = []
    for first in range(0, len(seeds), MAX_DECODE_ROWS):
        rows = slice(first, first + MAX_DECODE_ROWS)
        pieces += _decode(decoder, bits[rows], seeds[rows], p, limit)
    return pieces


def generate_from_bits(state: ModelState, bits: np.ndarray, seed: int, p: float,
                       max_tokens: int) -> list[int]:
    """One piece for the attribute bits (attr_dim,)."""
    return generate_pieces(state, np.asarray(bits)[None, :], [seed], p, max_tokens)[0]

"""Nucleus (top-p) sampling and batched autoregressive generation.

Decoding runs ``model.backbone`` one token per row at a time with a
``DecodeCache``, in float64 on a float64 copy of the weights. The copy's
tensors do not require gradients, so no op in a step builds a backward
graph. Its logits match the full forward within 1e-9 absolute, not bit for
bit: the two forms sum in different orders. Every product is taken row by
row, so a piece does not depend on the rows decoded with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import EmoMusicError
from .model import DecodeCache, ModelState, backbone, logits_from_hidden
from .tokens import BOS, EOS

MAX_DECODE_ROWS = 32  # rows decoded at once; a large-model row holds 1.5 MB of sums


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    p: float = 0.9
    temperature: float = 1.0
    max_tokens: int = 1280
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise EmoMusicError("p must be in (0, 1]")
        if self.temperature <= 0.0:
            raise EmoMusicError("temperature must be positive")


def nucleus_probabilities(probs: np.ndarray, p: float) -> np.ndarray:
    """Zero out everything outside the smallest prefix of descending-sorted
    probabilities whose cumulative mass reaches p, then renormalize."""
    probs = np.asarray(probs, dtype=float)
    # array methods rather than their np.* wrappers: this runs for every token
    order = (-probs).argsort(kind="stable")
    ranked = probs[order]
    cutoff = int(ranked.cumsum().searchsorted(p)) + 1  # smallest prefix >= p
    top = ranked[:cutoff]
    out = np.zeros(probs.shape)
    out[order[:cutoff]] = top / top.sum()
    return out


def sample_top_p(logits: np.ndarray, cfg: SamplerConfig,
                 rng: np.random.Generator) -> int:
    """Temperature, softmax, nucleus truncation, then one categorical draw.

    Tokens outside the nucleus can never be returned, even under float
    round-off in the cumulative sum. Logits of -inf are never drawn; NaN or
    +inf logits raise EmoMusicError.
    """
    scaled = np.asarray(logits, dtype=float) / cfg.temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    total = probs.sum()
    if not math.isfinite(total):
        raise EmoMusicError("logits are NaN, +inf or all -inf; cannot sample")
    probs /= total
    probs = nucleus_probabilities(probs, cfg.p)
    kept = probs.nonzero()[0]
    cumulative = probs[kept].cumsum()
    i = cumulative.searchsorted(rng.random() * cumulative[-1], side="right")
    return int(kept[min(i, kept.size - 1)])


def generate_pieces(state: ModelState, bits: np.ndarray,
                    cfgs: list[SamplerConfig]) -> list[list[int]]:
    """One piece per row of ``bits`` (B, attr_dim), row i sampled under
    ``cfgs[i]`` with a generator of its own, from BOS until EOS or its
    ``max_tokens`` (both included). Rows are decoded ``MAX_DECODE_ROWS`` at a
    time; a piece is the same whichever rows it is decoded with."""
    bits = np.asarray(bits, dtype=float)
    if len(bits) != len(cfgs):
        raise EmoMusicError(f"{len(bits)} rows of bits but {len(cfgs)} sampler configs")
    decoder = ModelState(state.config, {name: Tensor(p.data.astype(np.float64))
                                        for name, p in state.params.items()})
    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    limits = [min(cfg.max_tokens, state.config.max_len) for cfg in cfgs]
    pieces = [[BOS] for _ in cfgs]
    for first in range(0, len(cfgs), MAX_DECODE_ROWS):
        live = np.arange(first, min(first + MAX_DECODE_ROWS, len(cfgs)))  # still drawing
        cache = DecodeCache(state.config, live.size)
        while True:
            running = np.array([pieces[row][-1] != EOS and len(pieces[row]) < limits[row]
                                for row in live], dtype=bool)
            if not running.all():
                live = live[running]
                cache.keep(running)
            if not live.size:
                break
            ids = np.array([[pieces[row][-1]] for row in live])
            hidden = backbone(decoder, ids, bits[live], cache=cache)
            logits = logits_from_hidden(decoder, hidden).data[:, 0]
            for row, row_logits in zip(live, logits):
                pieces[row].append(sample_top_p(row_logits, cfgs[row], rngs[row]))
    return pieces


def generate_from_bits(state: ModelState, bits: np.ndarray,
                       cfg: SamplerConfig) -> list[int]:
    """One piece for the attribute bits (attr_dim,), sampled under ``cfg``."""
    return generate_pieces(state, np.asarray(bits)[None, :], [cfg])[0]

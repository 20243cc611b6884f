"""Nucleus (top-p) sampling and incremental autoregressive generation.

Generation keeps the running linear-attention prefix sums (one (dk, dv)
matrix and one dk vector per head and layer), so each new token costs O(1)
in sequence length. In inference mode (no dropout) the resulting logits
match the batch forward pass within 1e-9 absolute on a float64 model, not
bit for bit: the two paths sum in different orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmoMusicError
from .mapping import binarize
from .model import ModelState
from .tokens import BOS, EOS


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
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cumulative, p)) + 1  # smallest prefix >= p
    keep = order[:cutoff]
    out = np.zeros_like(probs)
    out[keep] = probs[keep] / probs[keep].sum()
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
    if not np.isfinite(total):
        raise EmoMusicError("logits are NaN, +inf or all -inf; cannot sample")
    probs /= total
    probs = nucleus_probabilities(probs, cfg.p)
    kept = np.flatnonzero(probs)
    cumulative = np.cumsum(probs[kept])
    i = np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right")
    return int(kept[min(i, kept.size - 1)])


class _IncrementalModel:
    """Inference-only forward that feeds one token at a time."""

    def __init__(self, state: ModelState, bits: np.ndarray | None):
        self.cfg = state.config
        self.p = {k: t.data for k, t in state.params.items()}
        self.t = 0
        h, dk = self.cfg.n_heads, self.cfg.d_model // self.cfg.n_heads
        self.s = [np.zeros((h, dk, dk)) for _ in range(self.cfg.n_layers)]
        self.z = [np.zeros((h, dk)) for _ in range(self.cfg.n_layers)]
        if bits is None:
            self.attr_vec = np.zeros(self.cfg.d_model)
        else:
            bits = np.asarray(bits, dtype=float)
            if bits.shape != (self.cfg.attr_dim,):
                raise EmoMusicError(f"expected {self.cfg.attr_dim} attribute bits")
            hidden = np.maximum(bits @ self.p["attr_w1"] + self.p["attr_b1"], 0.0)
            self.attr_vec = hidden @ self.p["attr_w2"] + self.p["attr_b2"]

    @staticmethod
    def _phi(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))

    @staticmethod
    def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
        mu = x.mean()
        inv = 1.0 / np.sqrt(x.var() + eps)
        return (x - mu) * inv * gamma + beta

    def step(self, token: int) -> np.ndarray:
        """Consume one token; return next-token logits."""
        if self.t >= self.cfg.max_len:
            raise EmoMusicError("sequence exceeded max_len")
        p = self.p
        heads = self.cfg.n_heads
        dk = self.cfg.d_model // heads
        x = p["tok_emb"][token] + p["pos_emb"][self.t] + self.attr_vec
        self.t += 1
        for i in range(self.cfg.n_layers):
            pre = f"l{i}."
            y = self._layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            q = (y @ p[pre + "wq"] + p[pre + "bq"]).reshape(heads, dk)
            k = (y @ p[pre + "wk"] + p[pre + "bk"]).reshape(heads, dk)
            v = (y @ p[pre + "wv"] + p[pre + "bv"]).reshape(heads, dk)
            phi_q, phi_k = self._phi(q), self._phi(k)
            self.s[i] += phi_k[:, :, None] * v[:, None, :]
            self.z[i] += phi_k
            num = np.einsum("hd,hde->he", phi_q, self.s[i])
            den = np.einsum("hd,hd->h", phi_q, self.z[i])
            attn = (num / den[:, None]).reshape(-1)
            x = x + attn @ p[pre + "wo"] + p[pre + "bo"]
            y = self._layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
            ffn = np.maximum(y @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"], 0.0)
            x = x + ffn @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
        final = self._layer_norm(x, p["ln_f_g"], p["ln_f_b"])
        return final @ p["tok_emb"].T


def generate_from_bits(state: ModelState, bits: np.ndarray,
                       cfg: SamplerConfig) -> list[int]:
    """Sample tokens from BOS until EOS or max_tokens; output includes both."""
    rng = np.random.default_rng(cfg.seed)
    model = _IncrementalModel(state, bits)
    max_tokens = min(cfg.max_tokens, state.config.max_len)
    tokens = [BOS]
    while len(tokens) < max_tokens:
        logits = model.step(tokens[-1])
        token = sample_top_p(logits, cfg, rng)
        tokens.append(token)
        if token == EOS:
            break
    return tokens


def generate(state: ModelState, attr_values: np.ndarray, medians: np.ndarray,
             cfg: SamplerConfig) -> list[int]:
    """Generate conditioned on raw attribute values (binarized with the
    training-corpus medians)."""
    return generate_from_bits(state, binarize(attr_values, medians), cfg)

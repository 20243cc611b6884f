"""Attribute-conditioned autoregressive transformer with causal linear attention.

Input at every position t is token_emb[x_t] + pos_emb[t] + attr_enc(bits):
the attribute embedding (a 2-layer ReLU feed-forward over the binarized
attribute vector) is added at every input position. Blocks are pre-norm
residual; the output projection is tied to the token embedding. Linear
attention per head follows

    out_i = (phi(q_i)^T sum_{j<=i} phi(k_j) v_j^T) / (phi(q_i)^T sum_{j<=i} phi(k_j))

with phi(x) = elu(x) + 1, computed via causal prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    Tensor,
    cross_entropy,
    dropout,
    elu_plus_one,
    embedding,
    layer_norm,
    pad_axis,
    relu,
)
from .errors import EmoMusicError
from .tokens import PAD, VOCAB_SIZE


class ShapeMismatch(EmoMusicError):
    pass


@dataclass(frozen=True, slots=True)
class ModelConfig:
    n_layers: int = 6
    n_heads: int = 8
    d_model: int = 512
    d_ffn: int = 2048
    max_len: int = 1280
    vocab_size: int = VOCAB_SIZE
    dropout: float = 0.1
    attr_dim: int = 100

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise EmoMusicError("d_model must be divisible by n_heads")

    @classmethod
    def small(cls, attr_dim: int, **overrides) -> "ModelConfig":
        """Laptop-scale configuration used by the test suite and demos."""
        base = cls(n_layers=2, n_heads=4, d_model=64, d_ffn=128, max_len=256,
                   dropout=0.1, attr_dim=attr_dim)
        return replace(base, **overrides) if overrides else base

    @classmethod
    def large(cls, attr_dim: int = 100, **overrides) -> "ModelConfig":
        """Production-scale configuration (6x512 with 8 heads, max length 1280)."""
        base = cls(attr_dim=attr_dim)
        return replace(base, **overrides) if overrides else base


@dataclass(slots=True)
class ModelState:
    config: ModelConfig
    params: dict[str, Tensor]


def init_state(config: ModelConfig, seed: int = 0,
               dtype=np.float64) -> ModelState:
    rng = np.random.default_rng(seed)
    d, ffn = config.d_model, config.d_ffn

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    params: dict[str, Tensor] = {
        "tok_emb": normal(config.vocab_size, d),
        "pos_emb": normal(config.max_len, d),
        "ln_f_g": ones(d),
        "ln_f_b": zeros(d),
    }
    if config.attr_dim > 0:
        params["attr_w1"] = normal(config.attr_dim, d)
        params["attr_b1"] = zeros(d)
        params["attr_w2"] = normal(d, d)
        params["attr_b2"] = zeros(d)
    for i in range(config.n_layers):
        params[f"l{i}.ln1_g"] = ones(d)
        params[f"l{i}.ln1_b"] = zeros(d)
        for name in ("q", "k", "v", "o"):
            params[f"l{i}.w{name}"] = normal(d, d)
            params[f"l{i}.b{name}"] = zeros(d)
        params[f"l{i}.ln2_g"] = ones(d)
        params[f"l{i}.ln2_b"] = zeros(d)
        params[f"l{i}.ffn_w1"] = normal(d, ffn)
        params[f"l{i}.ffn_b1"] = zeros(ffn)
        params[f"l{i}.ffn_w2"] = normal(ffn, d)
        params[f"l{i}.ffn_b2"] = zeros(d)
    return ModelState(config, params)


def attribute_embedding(state: ModelState, bits: np.ndarray) -> Tensor:
    """2-layer feed-forward encoder: (B, attr_dim) bits -> (B, d_model)."""
    p = state.params
    x = Tensor(np.asarray(bits, dtype=p["attr_w1"].data.dtype))
    hidden = relu(x @ p["attr_w1"] + p["attr_b1"])
    return hidden @ p["attr_w2"] + p["attr_b2"]


def _heads(x: Tensor, n_heads: int) -> Tensor:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


_CHUNK = 32


def _linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Chunked evaluation of the causal linear-attention formula (matmul-heavy,
    low memory).

    Keys before the current chunk enter through carried prefix sums; keys
    inside it through a causally masked C x C score matrix. Padded tail
    positions contribute nothing (their phi(k) is zeroed) and their bogus
    outputs are sliced off.
    """
    b, h, t, hd = q.shape
    pad = (-t) % _CHUNK
    phi_q = pad_axis(elu_plus_one(q), 2, pad)
    phi_k = pad_axis(elu_plus_one(k), 2, pad)
    v = pad_axis(v, 2, pad)
    n_chunks = (t + pad) // _CHUNK
    cshape = (b, h, n_chunks, _CHUNK, hd)
    phi_q = phi_q.reshape(*cshape)
    phi_k = phi_k.reshape(*cshape)
    v = v.reshape(*cshape)

    dtype = q.data.dtype
    causal = Tensor(np.tril(np.ones((_CHUNK, _CHUNK), dtype=dtype)))
    scores = (phi_q @ phi_k.transpose(0, 1, 2, 4, 3)) * causal  # (B,H,nC,C,C)

    kv = phi_k.transpose(0, 1, 2, 4, 3) @ v                 # per-chunk phi(k)^T v
    s_prev = kv.cumsum(axis=2) - kv                         # exclusive prefix
    z_prev = phi_k.sum(axis=3).cumsum(axis=2) - phi_k.sum(axis=3)

    num = scores @ v + phi_q @ s_prev
    den = scores.sum(axis=4, keepdims=True) \
        + (phi_q * z_prev.reshape(b, h, n_chunks, 1, hd)).sum(axis=4, keepdims=True)
    if pad:
        # padded rows have phi(q) > 0 but may face an all-zero prefix; give
        # them a harmless denominator before slicing them away
        guard = np.zeros((b, h, n_chunks, _CHUNK, 1), dtype=dtype)
        guard[:, :, -1, _CHUNK - pad:] = 1.0
        den = den + Tensor(guard)
    out = (num / den).reshape(b, h, t + pad, hd)
    return out[:, :, :t, :]


def _block(state: ModelState, layer: int, x: Tensor,
           rng: np.random.Generator | None) -> Tensor:
    p = state.params
    cfg = state.config
    pre = f"l{layer}."
    y = layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
    q = _heads(y @ p[pre + "wq"] + p[pre + "bq"], cfg.n_heads)
    k = _heads(y @ p[pre + "wk"] + p[pre + "bk"], cfg.n_heads)
    v = _heads(y @ p[pre + "wv"] + p[pre + "bv"], cfg.n_heads)
    attn = _merge_heads(_linear_attention(q, k, v)) @ p[pre + "wo"] + p[pre + "bo"]
    x = x + dropout(attn, cfg.dropout, rng)
    y = layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
    ffn = relu(y @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]) @ p[pre + "ffn_w2"] \
        + p[pre + "ffn_b2"]
    return x + dropout(ffn, cfg.dropout, rng)


def backbone(state: ModelState, ids: np.ndarray, bits: np.ndarray | None,
             rng: np.random.Generator | None = None) -> Tensor:
    """Final hidden states (B, T, d_model) for token ids (B, T).

    ``bits`` is the (B, attr_dim) binarized attribute matrix, or None to run
    unconditioned. ``rng``
    enables dropout; pass None for deterministic inference.
    """
    cfg = state.config
    p = state.params
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeMismatch("ids must be (batch, time)")
    b, t = ids.shape
    if t > cfg.max_len:
        raise ShapeMismatch(f"sequence length {t} exceeds max_len {cfg.max_len}")
    x = embedding(p["tok_emb"], ids) + p["pos_emb"][:t]
    if bits is not None:
        if cfg.attr_dim == 0:
            raise ShapeMismatch("model was built without an attribute encoder")
        bits = np.asarray(bits, dtype=float)
        if bits.shape != (b, cfg.attr_dim):
            raise ShapeMismatch(f"bits shape {bits.shape}, expected {(b, cfg.attr_dim)}")
        x = x + attribute_embedding(state, bits).reshape(b, 1, cfg.d_model)
    x = dropout(x, cfg.dropout, rng)
    for layer in range(cfg.n_layers):
        x = _block(state, layer, x, rng)
    return layer_norm(x, p["ln_f_g"], p["ln_f_b"])


def logits_from_hidden(state: ModelState, hidden: Tensor) -> Tensor:
    """Tied output projection: hidden @ token_embedding^T."""
    return hidden @ state.params["tok_emb"].transpose(1, 0)


def forward_batch(state: ModelState, ids: np.ndarray, bits: np.ndarray | None,
                  rng: np.random.Generator | None = None) -> Tensor:
    return logits_from_hidden(state, backbone(state, ids, bits, rng))


def forward(state: ModelState, tokens: list[int],
            attr_bits: np.ndarray | None) -> np.ndarray:
    """Per-position logits (T, vocab) for a single sequence, no dropout."""
    ids = np.asarray(tokens)[None, :]
    bits = None if attr_bits is None else np.asarray(attr_bits)[None, :]
    return forward_batch(state, ids, bits).data[0]


def next_token_loss(logits: Tensor, ids: np.ndarray) -> tuple[Tensor, int]:
    """Mean cross-entropy of position t against token t+1, PAD targets excluded.

    Returns (loss tensor, number of scored positions); the loss is exactly 0
    when every continuation is PAD.
    """
    b, t, v = logits.shape
    if t < 2:
        raise ShapeMismatch("need at least two positions for next-token loss")
    targets = np.asarray(ids)[:, 1:].reshape(-1)
    flat = logits[:, :-1, :].reshape(b * (t - 1), v)
    return cross_entropy(flat, targets, mask=targets != PAD)

"""Attribute-conditioned autoregressive transformer with causal linear attention.

Input at every position t is token_emb[x_t] + pos_emb[t] + attr_enc(bits):
the attribute embedding (a 2-layer ReLU feed-forward over the binarized
attribute vector) is added at every input position. Blocks are pre-norm
residual; the output projection is tied to the token embedding. Linear
attention per head follows

    out_i = (phi(q_i)^T sum_{j<=i} phi(k_j) v_j^T) / (phi(q_i)^T sum_{j<=i} phi(k_j))

with phi(x) = elu(x) + 1. Decoding runs the same ``backbone`` one token at a
time in the recurrent form (Katharopoulos et al. 2020) over a ``DecodeCache``,
with each layer's q, k and v projected by one matmul over the joined weights
and one feature map over q|k; in float64 it matches the chunked form within
1e-9 absolute, not bit for bit. Training keeps three projections: joined, the
gradient of the layer-norm output would be summed in another order.
"""

from __future__ import annotations

import itertools
import math
import mmap
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import (
    Tensor,
    cross_entropy,
    dropout,
    embedding,
    layer_norm,
    linear,
    phi_and_slope,
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "dropout":
                if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                        and 0 <= value < 1):
                    raise EmoMusicError(f"dropout must be a number in [0, 1), not {value!r}")
            elif not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                      and value >= 1):
                raise EmoMusicError(f"{f.name} must be an integer of at least 1, "
                                    f"not {value!r}")
        if self.d_model % self.n_heads:
            raise EmoMusicError(f"n_heads {self.n_heads} does not divide "
                                f"d_model {self.d_model}")

    @classmethod
    def small(cls, attr_dim: int) -> "ModelConfig":
        """Laptop-scale configuration used by the test suite and demos."""
        return cls(n_layers=2, n_heads=4, d_model=64, d_ffn=128, max_len=256,
                   dropout=0.1, attr_dim=attr_dim)

    @classmethod
    def large(cls, attr_dim: int = 100) -> "ModelConfig":
        """Production-scale configuration (6x512 with 8 heads, max length 1280)."""
        return cls(attr_dim=attr_dim)


def param_table(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's shape and initialisation ("normal", "zeros" or "ones"),
    in the order ``init_state`` draws them and a flat buffer holds them."""
    d, ffn = config.d_model, config.d_ffn
    table = {
        "tok_emb": ((config.vocab_size, d), "normal"),
        "pos_emb": ((config.max_len, d), "normal"),
        "ln_f_g": ((d,), "ones"),
        "ln_f_b": ((d,), "zeros"),
        "attr_w1": ((config.attr_dim, d), "normal"),
        "attr_b1": ((d,), "zeros"),
        "attr_w2": ((d, d), "normal"),
        "attr_b2": ((d,), "zeros"),
    }
    for i in range(config.n_layers):
        table[f"l{i}.ln1_g"] = ((d,), "ones")
        table[f"l{i}.ln1_b"] = ((d,), "zeros")
        for name in ("q", "k", "v", "o"):
            table[f"l{i}.w{name}"] = ((d, d), "normal")
            table[f"l{i}.b{name}"] = ((d,), "zeros")
        table[f"l{i}.ln2_g"] = ((d,), "ones")
        table[f"l{i}.ln2_b"] = ((d,), "zeros")
        table[f"l{i}.ffn_w1"] = ((d, ffn), "normal")
        table[f"l{i}.ffn_b1"] = ((ffn,), "zeros")
        table[f"l{i}.ffn_w2"] = ((ffn, d), "normal")
        table[f"l{i}.ffn_b2"] = ((d,), "zeros")
    return table


# Parameters start at multiples of this many elements of a flat buffer, 64 bytes
# at float32 (128 at float64): in elements, so a cast keeps the layout
ALIGN = 16


class ModelState:
    """A model's parameters, zero when made: each ``params[name].data`` is a view
    into one flat buffer ``flat``, in ``param_table`` order at multiples of
    ``ALIGN``, zeros between. ``flat`` is anonymous shared memory, so processes
    forked after it is made and this one see each other's writes to it."""

    __slots__ = ("config", "flat", "params")

    def __init__(self, config: ModelConfig, dtype=np.float64, requires_grad: bool = True):
        table = param_table(config)
        sizes = [math.prod(shape) for shape, _ in table.values()]
        starts = list(itertools.accumulate((-(-n // ALIGN) * ALIGN for n in sizes), initial=0))
        self.config = config
        self.flat = np.frombuffer(mmap.mmap(-1, max(1, starts[-1] * np.dtype(dtype).itemsize)),
                                  dtype=dtype, count=starts[-1])
        self.params = {name: Tensor(self.flat[start:start + n].reshape(shape),
                                    requires_grad=requires_grad)
                       for (name, (shape, _)), start, n in zip(table.items(), starts, sizes)}


def init_state(config: ModelConfig, seed: int = 0,
               dtype=np.float64) -> ModelState:
    """A new model: each "normal" parameter drawn from N(0, 0.02) in float64,
    in ``param_table`` order, and cast to ``dtype``; the rest zeros or ones."""
    rng = np.random.default_rng(seed)
    state = ModelState(config, dtype)
    for (shape, kind), p in zip(param_table(config).values(), state.params.values()):
        if kind == "normal":
            p.data[...] = rng.normal(0.0, 0.02, size=shape)
        elif kind == "ones":
            p.data.fill(1)
    return state


def attribute_embedding(state: ModelState, bits: np.ndarray) -> Tensor:
    """2-layer feed-forward encoder: (B, attr_dim) bits -> (B, d_model)."""
    p = state.params
    x = Tensor(np.asarray(bits, dtype=p["attr_w1"].data.dtype))
    hidden = relu(linear(x, p["attr_w1"], p["attr_b1"]))
    return linear(hidden, p["attr_w2"], p["attr_b2"])


def _heads(x: Tensor, n_heads: int) -> Tensor:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


_CHUNK = 32


# numpy's accumulate along a middle axis is several times slower than a
# Python loop over that axis's slices; it too adds one chunk at a time in
# order, so the loops below give the np.cumsum forms' bits (the forms are
# kept in tests/reference.py)


def _prefix_sums_before(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums over chunks (axis 2), as ``np.cumsum(x, axis=2) - x``:
    the running sums less each chunk's own term."""
    out = np.empty_like(x)
    out[:, :, 0] = x[:, :, 0]
    for n in range(1, x.shape[2]):
        np.add(out[:, :, n - 1], x[:, :, n], out=out[:, :, n])
    out -= x
    return out


def _sums_after(x: np.ndarray) -> np.ndarray:
    """Exclusive suffix sums over chunks (axis 2): out[n] = sum of x[m], m > n,
    added from the last chunk back. The backward of an exclusive prefix sum."""
    last = x.shape[2] - 1
    out = np.empty_like(x)
    out[:, :, last] = 0
    if last:
        out[:, :, last - 1] = x[:, :, last]
    for n in range(last - 2, -1, -1):
        np.add(out[:, :, n + 1], x[:, :, n + 1], out=out[:, :, n])
    return out


def _linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Chunked evaluation of the causal linear-attention formula (matmul-heavy,
    low memory) as one graph node.

    Keys before the current chunk enter through carried exclusive prefix sums
    S = sum phi(k)^T v and z = sum phi(k); keys inside it through a causally
    masked C x C score matrix. Padded tail positions contribute nothing
    (their phi(k) is zeroed); their rows get a harmless denominator and their
    outputs are sliced off. The backward is written out: the prefix sums'
    gradients are exclusive suffix sums over chunks.
    """
    b, h, t, hd = q.shape
    pad = (-t) % _CHUNK
    n_chunks = (t + pad) // _CHUNK
    cshape = (b, h, n_chunks, _CHUNK, hd)

    def chunked(x: np.ndarray) -> np.ndarray:
        if pad:
            full = np.zeros((b, h, t + pad, hd), dtype=x.dtype)
            full[:, :, :t] = x
            x = full
        return x.reshape(cshape)

    phi_q, slope_q = phi_and_slope(q.data)
    phi_k, slope_k = phi_and_slope(k.data)
    phi_q, phi_k, vc = chunked(phi_q), chunked(phi_k), chunked(v.data)
    phi_kt = phi_k.transpose(0, 1, 2, 4, 3)

    causal = np.tril(np.ones((_CHUNK, _CHUNK), dtype=q.data.dtype))
    scores = (phi_q @ phi_kt) * causal                      # (B,H,nC,C,C)
    kv = phi_kt @ vc                                        # per-chunk phi(k)^T v
    s_prev = _prefix_sums_before(kv)
    z_prev = _prefix_sums_before(phi_k.sum(axis=3)).reshape(b, h, n_chunks, 1, hd)

    num = scores @ vc + phi_q @ s_prev
    den = scores.sum(axis=4, keepdims=True) \
        + (phi_q * z_prev).sum(axis=4, keepdims=True)
    if pad:
        # padded rows have phi(q) > 0 but may face an all-zero prefix
        den[:, :, -1, _CHUNK - pad:] += 1.0
    out = num / den

    def backward(g):
        g_num = chunked(g) / den
        g_den = -(g_num * out).sum(axis=4, keepdims=True)
        g_raw = (g_num @ vc.swapaxes(-1, -2) + g_den) * causal
        g_q = g_raw @ phi_k + g_num @ s_prev.swapaxes(-1, -2) + g_den * z_prev
        g_kv = _sums_after(phi_q.swapaxes(-1, -2) @ g_num)
        g_k_sum = _sums_after((g_den * phi_q).sum(axis=3))
        g_k = g_raw.swapaxes(-1, -2) @ phi_q + vc @ g_kv.swapaxes(-1, -2) \
            + g_k_sum[:, :, :, None, :]
        g_v = scores.swapaxes(-1, -2) @ g_num + phi_k @ g_kv

        def unchunked(x):
            return x.reshape(b, h, t + pad, hd)[:, :, :t]

        return unchunked(g_q) * slope_q, unchunked(g_k) * slope_k, unchunked(g_v)

    return Tensor(out.reshape(b, h, t + pad, hd)[:, :, :t, :], parents=(q, k, v),
                  backward=backward)


class DecodeCache:
    """Per-row, per-layer prefix sums S = sum_j phi(k_j) v_j^T (B, H, dk, dk) and
    z = sum_j phi(k_j) (B, H, 1, dk) of B decoded rows, plus each row's
    attribute embedding (B, 1, d_model), computed at the first step from that
    step's bits and kept for the rest; ``t`` is the next position. Each
    layer's q, k and v projections are kept side by side as one weight
    [wq|wk|wv] and one bias [bq|bk|bv], joined at the layer's first step."""

    def __init__(self, config: ModelConfig, rows: int):
        h, dk = config.n_heads, config.d_model // config.n_heads
        self.s = np.zeros((config.n_layers, rows, h, dk, dk))
        self.z = np.zeros((config.n_layers, rows, h, 1, dk))
        self.attr: Tensor | None = None
        self.qkv: list[tuple[Tensor, Tensor] | None] = [None] * config.n_layers
        self.t = 0

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row that the boolean mask ``rows`` does not select."""
        self.s, self.z = self.s[:, rows], self.z[:, rows]
        if self.attr is not None:
            self.attr = self.attr[rows]

    def project(self, layer: int, y: Tensor, params: dict[str, Tensor]) -> np.ndarray:
        """q|k|v (B, 1, 3 d_model) of the layer's normed input ``y``: one
        ``linear`` over the joined weights. A column of x @ W depends only on
        that column of W, so each third is its own projection's bits."""
        if self.qkv[layer] is None:
            self.qkv[layer] = tuple(Tensor(np.concatenate(
                [params[f"l{layer}.{kind}{name}"].data for name in "qkv"], axis=-1))
                for kind in "wb")
        return linear(y, *self.qkv[layer]).data

    def attend(self, layer: int, qkv: np.ndarray) -> Tensor:
        """``_linear_attention`` for one new position, heads merged: q|k|v is
        (B, 1, 3 d_model) and the result (B, 1, d_model). At one position a
        reshape alone splits and merges the heads."""
        heads = self.z.shape[1:]  # (B, H, 1, dk)
        d = qkv.shape[-1] // 3
        phi, _ = phi_and_slope(qkv[..., :2 * d])  # elementwise: q's and k's own bits
        phi_q, phi_k = phi[..., :d].reshape(heads), phi[..., d:].reshape(heads)
        s, z = self.s[layer], self.z[layer]
        s += phi_k.transpose(0, 1, 3, 2) * qkv[..., 2 * d:].reshape(heads)
        z += phi_k
        out = (phi_q @ s) / (phi_q * z).sum(axis=-1, keepdims=True)
        return Tensor(out.reshape(heads[0], 1, d))


def _block(state: ModelState, layer: int, x: Tensor,
           rng: np.random.Generator | None, cache: DecodeCache | None) -> Tensor:
    p = state.params
    cfg = state.config
    pre = f"l{layer}."
    y = layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
    if cache is None:
        q = linear(y, p[pre + "wq"], p[pre + "bq"])
        k = linear(y, p[pre + "wk"], p[pre + "bk"])
        v = linear(y, p[pre + "wv"], p[pre + "bv"])
        h = cfg.n_heads
        heads = _merge_heads(_linear_attention(_heads(q, h), _heads(k, h), _heads(v, h)))
    else:
        heads = cache.attend(layer, cache.project(layer, y, p))
    attn = linear(heads, p[pre + "wo"], p[pre + "bo"])
    x = x + dropout(attn, cfg.dropout, rng)
    y = layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
    hidden = relu(linear(y, p[pre + "ffn_w1"], p[pre + "ffn_b1"]))
    ffn = linear(hidden, p[pre + "ffn_w2"], p[pre + "ffn_b2"])
    return x + dropout(ffn, cfg.dropout, rng)


def backbone(state: ModelState, ids: np.ndarray, bits: np.ndarray | None,
             rng: np.random.Generator | None = None,
             cache: DecodeCache | None = None) -> Tensor:
    """Final hidden states (B, T, d_model) for token ids (B, T).

    ``bits`` is the (B, attr_dim) binarized attribute matrix. ``rng`` enables
    dropout; pass None for deterministic inference. With a ``cache``, ids (B, 1)
    are each row's token at position ``cache.t``, and the step moves it on;
    the rows' attribute embedding comes from the first step's ``bits``, and
    later steps neither read nor check theirs (None will do).
    """
    cfg = state.config
    p = state.params
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeMismatch("ids must be (batch, time)")
    b, t = ids.shape
    start = 0 if cache is None else cache.t
    if start + t > cfg.max_len:
        raise ShapeMismatch(f"sequence length {start + t} exceeds max_len {cfg.max_len}")
    if cache is not None and t != 1:
        raise ShapeMismatch("a decoding step takes one token per row")
    if cache is None or cache.attr is None:
        bits = np.asarray(bits, dtype=float)
        if bits.shape != (b, cfg.attr_dim):
            raise ShapeMismatch(f"bits shape {bits.shape}, expected {(b, cfg.attr_dim)}")
    x = embedding(p["tok_emb"], ids) + p["pos_emb"][start:start + t]
    if cache is None:
        x = x + attribute_embedding(state, bits).reshape(b, 1, cfg.d_model)
    else:
        if cache.attr is None:
            cache.attr = attribute_embedding(state, bits[:, None, :])  # row by row
        x = x + cache.attr
        cache.t += 1
    x = dropout(x, cfg.dropout, rng)
    for layer in range(cfg.n_layers):
        x = _block(state, layer, x, rng, cache)
    return layer_norm(x, p["ln_f_g"], p["ln_f_b"])


def logits_from_hidden(state: ModelState, hidden: Tensor) -> Tensor:
    """Tied output projection: hidden @ token_embedding^T."""
    return hidden @ state.params["tok_emb"].transpose(1, 0)


def forward_batch(state: ModelState, ids: np.ndarray, bits: np.ndarray,
                  rng: np.random.Generator | None = None) -> Tensor:
    return logits_from_hidden(state, backbone(state, ids, bits, rng))


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

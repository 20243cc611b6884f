"""Reference calls the model tests share; no pipeline path uses them.

``softmax`` serves the softmax-attention oracle and a gradient check;
``layer_norm`` is the ``np.mean``/``np.var`` form that ``autodiff.layer_norm``
must match bit for bit, as ``relu`` and ``elu_plus_one`` are the ``np.where``
forms and ``dropout`` the two-node float64-mask form that their ``autodiff``
namesakes must match; ``linear`` is the two-node ``x @ w + b`` that
``autodiff.linear`` must match bit for bit; ``sample_top_p`` is the per-row
form whose draws ``sampling.sample_rows`` must repeat, and
``nucleus_probabilities`` the truncated, renormalized distribution a draw
samples from; ``forward`` is the single-sequence form of
``model.forward_batch``. ``linear_attention`` is the graph form of
``model._linear_attention``, built from ``pad_axis``, ``cumsum`` and
``Tensor`` ops, whose forward the fused op must repeat bit for bit.
``mul``, ``sub``, ``div`` and ``sum_axis`` are the elementwise and reduction
nodes the graph-form oracles need and ``Tensor`` does not define.

The forms the training step had before it was rewritten for speed, which the
rewrites must repeat bit for bit: ``embedding_backward`` (a 2-D ``np.add.at``
over rows), ``prefix_sums_before`` and ``sums_after`` (``np.cumsum`` along
the chunk axis), ``cross_entropy`` (the exp taken again in the backward) and
``adam_step`` (Adam array by array, with whole-array temporaries).

``init_state`` is the per-name form ``model.init_state`` had before the
parameters moved into one flat buffer: each parameter its own array, drawn
in ``param_table`` order. The views of the flat form must equal its arrays
bit for bit.
"""

import numpy as np

from emomusic.autodiff import Tensor, _unbroadcast
from emomusic.model import _CHUNK, ModelConfig, ModelState, forward_batch, param_table
from emomusic.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return Tensor(y, parents=(x,), backward=backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    d = x.data.shape[-1]

    def backward(g):
        dxhat = g * gamma.data
        dx = inv / d * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return Tensor(xhat * gamma.data + beta.data, parents=(x, gamma, beta),
                  backward=backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor(np.where(mask, x.data, 0.0), parents=(x,),
                  backward=lambda g: (g * mask,))


def elu_plus_one(x: Tensor) -> Tensor:
    pos = x.data > 0
    out_data = np.where(pos, x.data + 1.0, np.exp(np.minimum(x.data, 0.0)))
    deriv = np.where(pos, 1.0, out_data)
    return Tensor(out_data, parents=(x,), backward=lambda g: (g * deriv,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(keep.astype(x.data.dtype)))


def nucleus_probabilities(probs: np.ndarray, p: float) -> np.ndarray:
    """Zero out everything outside the smallest prefix of descending-sorted
    probabilities whose cumulative mass reaches p, then renormalize."""
    probs = np.asarray(probs, dtype=float)
    order = (-probs).argsort(kind="stable")
    ranked = probs[order]
    cutoff = int(ranked.cumsum().searchsorted(p)) + 1  # smallest prefix >= p
    top = ranked[:cutoff]
    out = np.zeros(probs.shape)
    out[order[:cutoff]] = top / top.sum()
    return out


def sample_top_p(logits: np.ndarray, p: float, rng: np.random.Generator) -> int:
    scaled = np.array(logits, dtype=float)
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cutoff = int(np.searchsorted(np.cumsum(probs[order]), p)) + 1
    keep = order[:cutoff]
    nucleus = np.zeros_like(probs)
    nucleus[keep] = probs[keep] / probs[keep].sum()
    kept = np.flatnonzero(nucleus)
    cumulative = np.cumsum(nucleus[kept])
    i = np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right")
    return int(kept[min(i, kept.size - 1)])


def init_state(config: ModelConfig, seed: int = 0,
               dtype=np.float64) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    init = {"normal": lambda shape: rng.normal(0.0, 0.02, size=shape).astype(dtype),
            "zeros": lambda shape: np.zeros(shape, dtype=dtype),
            "ones": lambda shape: np.ones(shape, dtype=dtype)}
    return {name: init[kind](shape) for name, (shape, kind) in param_table(config).items()}


def forward(state: ModelState, tokens: list[int], attr_bits: np.ndarray) -> np.ndarray:
    """Per-position logits (T, vocab) for a single sequence, no dropout."""
    ids = np.asarray(tokens)[None, :]
    return forward_batch(state, ids, np.asarray(attr_bits)[None, :]).data[0]


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):  # a constant operand (a mask) gets no gradient
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(a.data - b.data, parents=(a, b), backward=backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * out_data / b.data, b.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    def backward(g):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.shape).astype(x.data.dtype),)

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), parents=(x,), backward=backward)


def cumsum(x: Tensor, axis: int) -> Tensor:
    def backward(g):
        return (np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis),)

    return Tensor(np.cumsum(x.data, axis=axis), parents=(x,), backward=backward)


def pad_axis(x: Tensor, axis: int, after: int) -> Tensor:
    """Zero-pad the end of one axis; backward slices the padding back off."""
    if after == 0:
        return x
    widths = [(0, 0)] * x.data.ndim
    widths[axis] = (0, after)
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(0, x.data.shape[axis])
    index = tuple(index)

    def backward(g):
        return (g[index],)

    return Tensor(np.pad(x.data, widths), parents=(x,), backward=backward)


def linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
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
    scores = mul(phi_q @ phi_k.transpose(0, 1, 2, 4, 3), causal)  # (B,H,nC,C,C)

    kv = phi_k.transpose(0, 1, 2, 4, 3) @ v                 # per-chunk phi(k)^T v
    s_prev = sub(cumsum(kv, axis=2), kv)                    # exclusive prefix
    k_sum = sum_axis(phi_k, 3)
    z_prev = sub(cumsum(k_sum, axis=2), k_sum)

    num = scores @ v + phi_q @ s_prev
    den = sum_axis(scores, 4, keepdims=True) \
        + sum_axis(mul(phi_q, z_prev.reshape(b, h, n_chunks, 1, hd)), 4, keepdims=True)
    if pad:
        guard = np.zeros((b, h, n_chunks, _CHUNK, 1), dtype=dtype)
        guard[:, :, -1, _CHUNK - pad:] = 1.0
        den = den + Tensor(guard)
    out = div(num, den).reshape(b, h, t + pad, hd)
    return out[:, :, :t, :]


def embedding_backward(table: np.ndarray, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    full = np.zeros_like(table)
    np.add.at(full, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
    return full


def prefix_sums_before(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x, axis=2) - x


def sums_after(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    out[:, :, :-1] = np.cumsum(x[:, :, :0:-1], axis=2)[:, :, ::-1]
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray) -> tuple[Tensor, int]:
    n, _ = logits.data.shape
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    nll = lse - logits.data[np.arange(n), targets]
    loss_value = float((nll * mask).sum() / count) if count else 0.0

    def backward(g):
        if count == 0:
            return (np.zeros_like(logits.data),)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        return ((g * p * (mask[:, None] / count)).astype(logits.data.dtype, copy=False),)

    loss = Tensor(np.asarray(loss_value, dtype=logits.data.dtype),
                  parents=(logits,), backward=backward)
    return loss, count


def adam_step(moments: dict, t: int, params: dict, lr: float) -> None:
    """Step ``t`` (from 1) of Adam on each ``Tensor`` in ``params`` with a
    grad; ``moments`` maps each name to its (m, v), made at the first step."""
    correction1 = 1.0 - ADAM_BETA1 ** t
    correction2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad
        m, v = moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        moments[name] = m, v
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

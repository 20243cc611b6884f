"""Reference calls the model tests share; no pipeline path uses them.

``softmax`` serves the softmax-attention oracle and a gradient check;
``forward`` is the single-sequence form of ``model.forward_batch``.
"""

import numpy as np

from emomusic.autodiff import Tensor
from emomusic.model import ModelState, forward_batch


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return Tensor(y, parents=(x,), backward=backward)


def forward(state: ModelState, tokens: list[int], attr_bits: np.ndarray) -> np.ndarray:
    """Per-position logits (T, vocab) for a single sequence, no dropout."""
    ids = np.asarray(tokens)[None, :]
    return forward_batch(state, ids, np.asarray(attr_bits)[None, :]).data[0]

"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for the attribute-conditioned transformer: broadcasted
addition, batched matmul, slicing, reshape and transpose on ``Tensor``, then
``linear`` (``x @ W + b`` as one node), embedding gathers, layer norm, and a
masked cross-entropy head; ``model`` adds causal linear attention as one node.
Gradients are dense numpy arrays of the same dtype as the forward data.
``backward`` frees the graph as it goes: once a node has passed its gradient
to its parents it drops that gradient, its parents and its backward closure,
and with them the activations only it kept alive. Leaves keep their gradients;
a second ``backward`` through a spent graph raises. An op none of whose
inputs requires a gradient, as in decoding, returns a bare Tensor with the
same forward arithmetic and builds no graph.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = data if type(data) is np.ndarray else np.asarray(data)
        self.grad: np.ndarray | None = None
        if not requires_grad:
            for parent in parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        # without a parent that needs a gradient the graph stops here
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray, source: np.ndarray | None = None) -> None:
        if self.grad is None:
            # views of the child's grad (reshape/transpose/no-op broadcasts)
            # must be copied before anyone accumulates into them
            if source is not None and np.shares_memory(grad, source):
                grad = grad.copy()
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self) = 1),
        freeing the graph behind it; only the leaves keep their gradients."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._parents is None:
                raise RuntimeError("backward() through a graph that an earlier "
                                   "backward() freed; run the forward pass again")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        while topo:
            # popping drops the list's reference, so a node's data goes as
            # soon as its last child has run
            node = topo.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                for parent, parent_grad in zip(node._parents, node._backward(node.grad)):
                    if parent.requires_grad and parent_grad is not None:
                        parent._accumulate(parent_grad, source=node.grad)
            node.grad = node._backward = node._parents = None

    # -- operators ---------------------------------------------------------

    # __add__ leaves a constant operand's gradient as None, so a mask or
    # guard costs no backward work
    def __add__(self, other: Tensor):
        if not (self.requires_grad or other.requires_grad):
            return Tensor(self.data + other.data)

        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return Tensor(self.data + other.data, parents=(self, other), backward=backward)

    def __matmul__(self, other: Tensor):
        if not (self.requires_grad or other.requires_grad):
            return Tensor(self.data @ other.data)

        def backward(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            return _unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape)

        return Tensor(self.data @ other.data, parents=(self, other), backward=backward)

    def __getitem__(self, key):
        if not self.requires_grad:
            return Tensor(self.data[key])

        def backward(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return (full,)

        return Tensor(self.data[key], parents=(self,), backward=backward)

    def reshape(self, *shape):
        if not self.requires_grad:
            return Tensor(self.data.reshape(*shape))

        def backward(g):
            return (g.reshape(self.shape),)

        return Tensor(self.data.reshape(*shape), parents=(self,), backward=backward)

    def transpose(self, *axes):
        if not self.requires_grad:
            return Tensor(self.data.transpose(*axes))

        def backward(g):
            return (g.transpose(*np.argsort(axes)),)

        return Tensor(self.data.transpose(*axes), parents=(self,), backward=backward)


# relu and phi_and_slope avoid np.where, which is several times slower than an
# arithmetic pass when its mask is irregular; both stay bit-identical to the
# np.where forms kept in tests/reference.py


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)
    if not x.requires_grad:
        return Tensor(out_data)
    # max(x, 0) > 0 exactly where x > 0, so the mask needs no array of its own
    return Tensor(out_data, parents=(x,), backward=lambda g: (g * (out_data > 0),))


def phi_and_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(x) = elu(x) + 1 of an array (x + 1 for x > 0, exp(x) otherwise, so
    always positive) and its derivative: 1 for x > 0, exp(x) otherwise."""
    e = np.exp(np.minimum(x, 0.0))  # exactly 1 where x > 0
    return e + np.maximum(x, 0.0), e


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x (..., d_in), w (d_in, d_out) and b (d_out,), as one node.

    The graph keeps x, w and b but not the product. The gradients are the
    two-node ``x @ w + b``'s arithmetic, summed in the same order, bit for bit.
    """
    out_data = x.data @ w.data
    out_data += b.data
    if not (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor(out_data)

    def backward(g):
        # a constant x (the attribute bits) gets no gradient
        return (g @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None,
                _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape),
                _unbroadcast(g, b.shape))

    return Tensor(out_data, parents=(x, w, b), backward=backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (V, d) at integer ``ids`` (any shape)."""
    ids = np.asarray(ids)
    if not table.requires_grad:
        return Tensor(table.data[ids])

    def backward(g):
        # one 1-D scatter on flat indices id*d + col adds the same values in
        # the same order as the 2-D np.add.at over rows, several times faster
        d = table.data.shape[-1]
        flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        full = np.zeros_like(table.data)
        np.add.at(full.reshape(-1), flat, g.reshape(-1))
        return (full,)

    return Tensor(table.data[ids], parents=(table,), backward=backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    The moments are ``np.mean``/``np.var``'s own arithmetic, bit for bit,
    with the input centred once.
    """
    d = x.data.shape[-1]
    xc = x.data - np.add.reduce(x.data, -1, keepdims=True) / d
    var = np.add.reduce(xc * xc, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    if not (x.requires_grad or gamma.requires_grad or beta.requires_grad):
        # the graph form's scale and shift, in place on the centred temporary
        xc *= inv
        xc *= gamma.data
        xc += beta.data
        return Tensor(xc)
    xhat = xc * inv

    def backward(g):
        dxhat = g * gamma.data
        dx = inv / d * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return Tensor(xhat * gamma.data + beta.data, parents=(x, gamma, beta),
                  backward=backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray) -> tuple[Tensor, int]:
    """Mean cross-entropy of ``logits`` (N, V) against integer ``targets`` (N,).

    Positions where ``mask`` is False are excluded. Returns (loss, number of
    positions counted); with zero counted positions the loss is exactly 0.
    """
    n, _ = logits.data.shape
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    top = logits.data.max(axis=1, keepdims=True)
    # exp(logits - max) is taken once; the backward reuses it as the softmax
    e = np.exp(logits.data - top)
    e_sum = e.sum(axis=1, keepdims=True)
    lse = np.log(e_sum[:, 0]) + top[:, 0]
    nll = lse - logits.data[np.arange(n), targets]
    loss_value = float((nll * mask).sum() / count) if count else 0.0

    def backward(g):
        if count == 0:
            return (np.zeros_like(logits.data),)
        p = e
        p /= e_sum
        p[np.arange(n), targets] -= 1.0
        p *= g
        # times the float64 mask weights in float64, each product rounded
        # back into p's dtype, as a float64 product cast by astype would be
        np.multiply(p, mask[:, None] / count, out=p, casting="unsafe")
        return (p,)

    loss = Tensor(np.asarray(loss_value, dtype=logits.data.dtype),
                  parents=(logits,), backward=backward)
    return loss, count


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or rng is None (inference)."""
    if rate <= 0.0 or rng is None:
        return x
    # the float64 draws fix which units drop; the kept scale is rounded to
    # x's dtype, as a float64 mask cast to that dtype would be
    keep = (rng.random(x.shape) >= rate) * x.data.dtype.type(1.0 / (1.0 - rate))
    return Tensor(x.data * keep, parents=(x,), backward=lambda g: (g * keep,))

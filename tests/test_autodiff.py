"""Gradient correctness of every autodiff op against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emomusic.autodiff import (
    Tensor,
    cross_entropy,
    dropout,
    embedding,
    layer_norm,
    linear,
    phi_and_slope,
    relu,
)

import reference
from reference import softmax

RNG = np.random.default_rng(31)


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f()
        flat[i] = old - h
        down = f()
        flat[i] = old
        out[i] = (up - down) / (2 * h)
    return grad


def phi(x: Tensor) -> Tensor:
    """``phi_and_slope``'s value as a graph node whose backward scales by its slope."""
    out, slope = phi_and_slope(x.data)
    return Tensor(out, parents=(x,), backward=lambda g: (g * slope,))


def check_grad(build, *arrays, tol=1e-6):
    """Vector-Jacobian check: backward of build(*tensors) from a seeded
    random upstream ``w`` must match the central difference of
    sum(build(...) * w), taken in numpy, for every input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = np.random.default_rng(0).normal(size=out.shape)
    out.backward(w)
    for t, a in zip(tensors, arrays):
        numeric = numeric_grad(
            lambda: float((build(*[Tensor(x.data) for x in tensors]).data * w).sum()), a)
        assert t.grad == pytest.approx(numeric, abs=tol, rel=1e-4), "gradient mismatch"


class TestElementwise:
    def test_add_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check_grad(lambda x, y: x + y, a, b)

    def test_relu(self):
        a = RNG.normal(size=(5, 5)) + 0.05  # keep away from the kink
        check_grad(relu, a)

    def test_elu_plus_one_both_branches(self):
        a = np.array([-2.0, -0.5, 0.3, 1.5, 3.0])
        check_grad(phi, a)

    def test_elu_plus_one_is_positive(self):
        assert (phi_and_slope(np.linspace(-20, 20, 101))[0] > 0).all()


class TestShapes:
    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        check_grad(lambda x, y: x @ y, a, b)

    def test_matmul_both_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 3))
        check_grad(lambda x, y: x @ y, a, b)

    def test_reshape_transpose(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda x: x.reshape(2, 12), a)
        check_grad(lambda x: x.transpose(2, 0, 1), a)

    def test_getitem_slice(self):
        a = RNG.normal(size=(6, 3))
        check_grad(lambda x: x[:4], a)

    def test_cumsum(self):
        a = RNG.normal(size=(2, 5, 3))
        check_grad(lambda x: reference.cumsum(x, axis=1), a)


class TestNeuralOps:
    def test_embedding_gather(self):
        table = RNG.normal(size=(7, 4))
        ids = np.array([[0, 3, 3], [6, 0, 1]])
        check_grad(lambda w: embedding(w, ids), table)

    def test_layer_norm(self):
        x = RNG.normal(size=(2, 3, 6))
        g = RNG.uniform(0.5, 1.5, size=6)
        b = RNG.normal(size=6)
        check_grad(layer_norm, x, g, b, tol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    def test_layer_norm_matches_mean_var_oracle_bitwise(self, dtype, grad):
        rng = np.random.default_rng(5)
        arrays = [(rng.normal(size=(3, 5, 64)) * 7 + 2).astype(dtype),
                  rng.uniform(0.5, 1.5, size=64).astype(dtype),
                  rng.normal(size=64).astype(dtype)]
        upstream = rng.normal(size=(3, 5, 64)).astype(dtype)
        results = []
        for op in (layer_norm, reference.layer_norm):
            inputs = [Tensor(a.copy(), requires_grad=grad) for a in arrays]
            out = op(*inputs)
            assert out.requires_grad is grad
            if grad:
                out.backward(upstream)
            results.append([out.data] + [t.grad for t in inputs if grad])
        for new, old in zip(*results):
            assert new.dtype == old.dtype == dtype
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("ops", [(relu, reference.relu),
                                     (phi, reference.elu_plus_one)],
                             ids=["relu", "elu_plus_one"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    def test_activation_matches_where_oracle_bitwise(self, ops, dtype, grad):
        rng = np.random.default_rng(6)
        x = (rng.normal(size=(4, 5, 64)) * 3).astype(dtype)
        x.reshape(-1)[:8] = [0.0, -0.0, np.inf, -np.inf, 0.0, -0.0, np.inf, -np.inf]
        upstream = rng.normal(size=x.shape).astype(dtype)
        results = []
        for op in ops:
            inputs = Tensor(x.copy(), requires_grad=grad)
            out = op(inputs)
            assert out.requires_grad is grad
            if grad:
                out.backward(upstream)
            results.append([out.data] + ([inputs.grad] if grad else []))
        for new, old in zip(*results):
            assert new.dtype == old.dtype == dtype
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(6,), (3, 5)], ids=["2d", "3d"])
    def test_linear_matches_two_node_oracle_bitwise(self, dtype, lead):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=lead + (16,)).astype(dtype),
                  rng.normal(size=(16, 24)).astype(dtype),
                  rng.normal(size=24).astype(dtype)]
        upstream = rng.normal(size=lead + (24,)).astype(dtype)
        results = []
        for op in (linear, reference.linear):
            inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*inputs)
            out.backward(upstream)
            results.append([out.data] + [t.grad for t in inputs])
        for new, old in zip(*results):
            assert new.dtype == old.dtype == dtype
            assert new.tobytes() == old.tobytes()

    def test_linear_leaves_a_constant_input_without_gradient_work(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        out = linear(x, Tensor(RNG.normal(size=(3, 4)), requires_grad=True),
                     Tensor(np.zeros(4), requires_grad=True))
        grads = out._backward(np.ones((2, 4)))
        assert [g is None for g in grads] == [True, False, False]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_matches_two_node_oracle_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5, 64)).astype(dtype)
        # values that overflow once scaled: a dropped one must still give 0
        x.reshape(-1)[:64] = np.finfo(dtype).max * np.resize([1, -1], 64)
        x.reshape(-1)[64:66] = [0.0, -0.0]
        upstream = rng.normal(size=x.shape).astype(dtype)
        results = []
        for op in (dropout, reference.dropout):
            inputs = Tensor(x.copy(), requires_grad=True)
            with np.errstate(over="ignore"):
                out = op(inputs, 0.1, np.random.default_rng(3))
            out.backward(upstream)
            results.append([out.data, inputs.grad])
        for new, old in zip(*results):
            assert new.dtype == old.dtype == dtype
            assert new.tobytes() == old.tobytes()

    def test_softmax(self):
        x = RNG.normal(size=(3, 5))
        check_grad(lambda a: softmax(a, axis=-1), x)

    def test_cross_entropy_value_uniform(self):
        logits = Tensor(np.zeros((4, 244)))
        loss, count = cross_entropy(logits, np.array([0, 5, 100, 243]),
                                    np.ones(4, dtype=bool))
        assert count == 4
        assert float(loss.data) == pytest.approx(np.log(244), abs=1e-12)

    def test_cross_entropy_grad(self):
        logits = RNG.normal(size=(6, 9))
        targets = np.array([0, 1, 2, 3, 4, 5])
        mask = np.array([1, 1, 0, 1, 1, 1], dtype=bool)

        def build(x):
            loss, _ = cross_entropy(x, targets, mask)
            return loss

        check_grad(build, logits)

    def test_cross_entropy_all_masked_is_zero_with_flag(self):
        logits = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        loss, count = cross_entropy(logits, np.array([0, 1, 2]),
                                    np.zeros(3, dtype=bool))
        assert count == 0
        assert float(loss.data) == 0.0
        loss.backward()
        assert not logits.grad.any()

    def test_dropout_inference_is_identity(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        assert (dropout(x, 0.5, None).data == x.data).all()
        assert (dropout(x, 0.0, np.random.default_rng(0)).data == x.data).all()

    def test_dropout_scales_kept_values(self):
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, np.random.default_rng(1)).data
        kept = out[out > 0]
        assert kept == pytest.approx(np.full(kept.shape, 1 / 0.75))
        assert 0.6 < kept.size / 1000 < 0.9


class TestGraph:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x + x + x[::-1]  # three paths into x
        y.backward(np.array([1.0, 10.0]))
        assert x.grad == pytest.approx([12.0, 21.0])

    @pytest.mark.parametrize("op", ["add"])
    def test_constant_operand_gets_no_gradient_work(self, op):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        mask = Tensor(np.tril(np.ones((2, 3))))
        for out in (getattr(x, f"__{op}__")(mask), getattr(mask, f"__{op}__")(x)):
            grads = out._backward(np.ones((2, 3)))
            assert [g is None for g in grads] == [p is mask for p in out._parents]

    def test_second_backward_through_a_spent_graph_raises(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x + x
        y.backward(np.array([1.0, 3.0]))
        with pytest.raises(RuntimeError, match="freed"):
            y.backward(np.array([1.0, 3.0]))
        assert x.grad == pytest.approx([2.0, 6.0])

    def test_no_grad_for_constants(self):
        x = Tensor(np.ones(3))
        y = x + Tensor(2.0)
        assert not y.requires_grad

    @pytest.mark.parametrize("op", [
        lambda x, w, b: x + b, lambda x, w, b: x @ w, lambda x, w, b: x[1:, ::2],
        lambda x, w, b: x.reshape(4, 3, 2), lambda x, w, b: x.transpose(1, 0, 2),
        lambda x, w, b: linear(x, w, b), lambda x, w, b: embedding(w, [[0, 2], [1, 1]]),
        lambda x, w, b: layer_norm(x, b, b)],
        ids=["add", "matmul", "getitem", "reshape", "transpose", "linear", "embedding",
             "layer_norm"])
    def test_ops_on_constants_build_no_graph(self, op):
        arrays = [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 4)), RNG.normal(size=4)]
        graph = op(*[Tensor(a.copy(), requires_grad=True) for a in arrays])
        bare = op(*[Tensor(a.copy()) for a in arrays])
        assert bare.requires_grad is False
        assert bare._parents == () and bare._backward is None
        assert bare.data.dtype == graph.data.dtype
        assert bare.data.tobytes() == graph.data.tobytes()


# values whose sums depend on the order they are added in, and both zeros
EXACT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e8, -1e8, 1.0, 1e-8]),
                         st.floats(-1e3, 1e3, allow_nan=False, width=32))


@st.composite
def embedding_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    vocab, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 7)))
    size = shape[0] * shape[1]
    ids = np.array(draw(st.lists(st.integers(0, vocab - 1), min_size=size, max_size=size)))
    g = draw(st.lists(EXACT_VALUES, min_size=size * d, max_size=size * d))
    return (np.zeros((vocab, d), dtype=dtype), ids.reshape(shape),
            np.array(g, dtype=dtype).reshape(*shape, d))


@st.composite
def cross_entropy_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, vocab = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    logits = draw(st.lists(st.floats(-30, 30, allow_nan=False, width=32),
                            min_size=n * vocab, max_size=n * vocab))
    targets = draw(st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    upstream = draw(st.sampled_from([1.0, -1.0, 0.37, 3.0]))
    return (np.array(logits, dtype=dtype).reshape(n, vocab), np.array(targets),
            np.array(mask), upstream)


class TestExactRewrites:
    """The fast forms equal the forms they replaced, kept in reference.py, bit
    for bit."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(embedding_cases())
    def test_embedding_backward_matches_2d_add_at(self, case):
        table, ids, g = case
        weights = Tensor(table, requires_grad=True)
        embedding(weights, ids).backward(g)
        expected = reference.embedding_backward(table, ids, g)
        assert weights.grad.dtype == expected.dtype
        assert weights.grad.tobytes() == expected.tobytes()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(cross_entropy_cases())
    def test_cross_entropy_matches_two_exp_form(self, case):
        logits, targets, mask, upstream = case
        results = []
        for op in (cross_entropy, reference.cross_entropy):
            x = Tensor(logits.copy(), requires_grad=True)
            loss, count = op(x, targets, mask)
            loss.backward(upstream)
            results.append((loss.data.tobytes(), count, x.grad.dtype, x.grad.tobytes()))
        assert results[0] == results[1]

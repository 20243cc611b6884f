"""Transformer model: linear-attention oracles, causality, loss, schedule,
training behavior, and checkpointing."""

import ctypes
import json
import platform
import resource
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emomusic.model
import emomusic.training
from emomusic.autodiff import Tensor
from emomusic.errors import EmoMusicError
from emomusic.model import (
    ALIGN,
    ModelConfig,
    ShapeMismatch,
    _linear_attention,
    _prefix_sums_before,
    _sums_after,
    forward_batch,
    init_state,
    next_token_loss,
    param_table,
)
from emomusic.tokens import BOS, EOS, PAD, VOCAB_SIZE
from emomusic.training import (
    Adam,
    NonFiniteLoss,
    TrainConfig,
    load_checkpoint,
    lr_schedule,
    make_batches,
    pad_batch,
    save_checkpoint,
    train,
)

import reference
from conftest import assert_reaped, use_cpus
from reference import cumsum, div, forward, mul, softmax, sum_axis


def _linear_attention_scan(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Direct causal prefix-sum evaluation; O(T * dk * dv) memory."""
    b, h, t, hd = q.shape
    phi_q = reference.elu_plus_one(q)
    phi_k = reference.elu_plus_one(k)
    kv = mul(phi_k.reshape(b, h, t, hd, 1), v.reshape(b, h, t, 1, hd))
    s = cumsum(kv, axis=2)                                  # (B,H,T,dk,dv)
    num = sum_axis(mul(phi_q.reshape(b, h, t, hd, 1), s), 3)  # (B,H,T,dv)
    z = cumsum(phi_k, axis=2)
    den = sum_axis(mul(phi_q, z), 3, keepdims=True)         # (B,H,T,1), > 0
    return div(num, den)


def _softmax_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Causal softmax attention; equals linear attention at length one."""
    t = q.shape[2]
    hd = q.shape[3]
    scores = mul(q @ k.transpose(0, 1, 3, 2), Tensor(1.0 / np.sqrt(hd)))
    causal = np.triu(np.full((t, t), -1e30, dtype=q.data.dtype), k=1)
    attn = softmax(scores + Tensor(causal), axis=-1)
    return attn @ v


def reference_linear_attention(q, k, v):
    """Independent double-loop oracle for the causal linear-attention formula."""
    def phi(x):
        return np.where(x > 0, x + 1.0, np.exp(x))

    b, h, t, d = q.shape
    out = np.zeros_like(v)
    for bi in range(b):
        for hi in range(h):
            for i in range(t):
                num = np.zeros(v.shape[-1])
                den = 0.0
                for j in range(i + 1):
                    weight = phi(q[bi, hi, i]) @ phi(k[bi, hi, j])
                    num += weight * v[bi, hi, j]
                    den += weight
                out[bi, hi, i] = num / den
    return out


class TestLinearAttention:
    def test_hand_computed_three_token_trace(self):
        # phi(1)=2, phi(0)=1; prefix sums worked out by hand
        q = np.array([[[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]]])
        v = np.array([[[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]])
        out = _linear_attention(Tensor(q), Tensor(q.copy()), Tensor(v)).data
        expected = np.array([[1.0, 2.0],
                             [19.0 / 9.0, 28.0 / 9.0],
                             [3.2, 4.2]])
        assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(41)
        q = rng.normal(size=(2, 3, 7, 4))
        k = rng.normal(size=(2, 3, 7, 4))
        v = rng.normal(size=(2, 3, 7, 4))
        out = _linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert out == pytest.approx(reference_linear_attention(q, k, v), abs=1e-10)

    def test_chunked_equals_scan_across_lengths(self):
        rng = np.random.default_rng(44)
        for t in (1, 5, 32, 33, 80):
            q = rng.normal(size=(2, 2, t, 4))
            k = rng.normal(size=(2, 2, t, 4))
            v = rng.normal(size=(2, 2, t, 4))
            chunked = _linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
            scan = _linear_attention_scan(Tensor(q), Tensor(k), Tensor(v)).data
            assert chunked == pytest.approx(scan, abs=1e-9)

    def test_chunked_gradients_finite_and_match_scan(self):
        rng = np.random.default_rng(45)
        q = rng.normal(size=(1, 1, 40, 3))
        k = rng.normal(size=(1, 1, 40, 3))
        v = rng.normal(size=(1, 1, 40, 3))
        grads = []
        for attend in (_linear_attention, _linear_attention_scan):
            tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
            out = attend(tq, tk, tv)
            out.backward(2.0 * out.data)  # d/d(out) of the sum of squares
            grads.append((tq.grad, tk.grad, tv.grad))
            assert all(np.isfinite(g).all() for g in grads[-1])
        for a, b in zip(*grads):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("t", [1, 5, 31, 32, 33, 64, 100, 256])
    def test_fused_matches_graph_form(self, t):
        rng = np.random.default_rng(46)
        # (B, H, T, dk) views of (B, T, H, dk) arrays, laid out as the model's
        arrays = [rng.normal(size=(2, t, 3, 8)).transpose(0, 2, 1, 3) for _ in range(3)]
        for dtype in (np.float32, np.float64):
            fused, graph = (op(*(Tensor(a.astype(dtype)) for a in arrays)).data
                            for op in (_linear_attention, reference.linear_attention))
            assert fused.dtype == graph.dtype == dtype
            assert fused.tobytes() == graph.tobytes()
        upstream = rng.normal(size=(2, 3, t, 8))
        grads = []
        for op in (_linear_attention, reference.linear_attention):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            op(*tensors).backward(upstream)
            grads.append([x.grad for x in tensors])
        for fused, graph in zip(*grads):
            assert np.abs(fused - graph).max() <= 1e-12

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 9),
           st.sampled_from([(3,), (2, 3)]), st.integers(0, 2**32 - 1))
    def test_chunk_loops_match_cumsum_forms(self, dtype, n_chunks, tail, seed):
        # (B, H, nC, ...) as z (hd) and S (hd x hd), with large and tiny
        # terms so that the order of the additions shows, and both zeros
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(2, 3, n_chunks, *tail))
             * rng.choice([1e-8, 1.0, 1e8], size=(2, 3, n_chunks, *tail))).astype(dtype)
        x[rng.random(x.shape) < 0.2] = -0.0
        for fast, slow in ((_prefix_sums_before, reference.prefix_sums_before),
                           (_sums_after, reference.sums_after)):
            got, expected = fast(x), slow(x)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_length_one_equals_softmax_attention(self):
        rng = np.random.default_rng(42)
        q = rng.normal(size=(1, 2, 1, 4))
        k = rng.normal(size=(1, 2, 1, 4))
        v = rng.normal(size=(1, 2, 1, 4))
        lin = _linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
        soft = _softmax_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert lin == pytest.approx(soft, abs=1e-12)
        assert lin == pytest.approx(v, abs=1e-12)  # single key gets weight 1


def tiny_config(**overrides):
    base = dict(n_layers=2, n_heads=1, d_model=16, d_ffn=32, max_len=8,
                dropout=0.0, attr_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestForward:
    def test_output_shape(self):
        state = init_state(tiny_config(), seed=1)
        logits = forward(state, [BOS, 5, 6, EOS], np.array([1, 0, 1, 0]))
        assert logits.shape == (4, VOCAB_SIZE)

    def test_causality_bitwise(self):
        state = init_state(tiny_config(), seed=2)
        bits = np.array([1, 0, 0, 1])
        a = forward(state, [BOS, 10, 20, 30, 40], bits)
        b = forward(state, [BOS, 10, 20, 99, 77], bits)
        assert (a[:2] == b[:2]).all()
        assert not (a[3:] == b[3:]).all()

    def test_conditioning_liveness(self):
        state = init_state(tiny_config(), seed=3)
        a = forward(state, [BOS, 10], np.array([0, 0, 0, 0]))
        b = forward(state, [BOS, 10], np.array([1, 1, 0, 0]))
        assert np.abs(a[0] - b[0]).max() > 0

    def test_too_long_sequence_rejected(self):
        state = init_state(tiny_config(), seed=4)
        with pytest.raises(ShapeMismatch):
            forward(state, [BOS] * 9, np.zeros(4))

    def test_wrong_bits_length_rejected(self):
        state = init_state(tiny_config(), seed=5)
        with pytest.raises(ShapeMismatch):
            forward(state, [BOS, 1], np.zeros(7))

    def test_softmax_and_linear_agree_on_length_one_model(self, monkeypatch):
        state = init_state(tiny_config(), seed=6)
        bits = np.array([1, 0, 1, 0])
        a = forward(state, [BOS], bits)
        monkeypatch.setattr(emomusic.model, "_linear_attention", _softmax_attention)
        b = forward(state, [BOS], bits)
        assert a == pytest.approx(b, abs=1e-12)


class TestLoss:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((1, 3, VOCAB_SIZE)))
        loss, count = next_token_loss(logits, np.array([[BOS, 5, 6]]))
        assert count == 2
        assert float(loss.data) == pytest.approx(np.log(244), abs=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        ids = np.array([[BOS, 7, 9]])
        logits_data = np.zeros((1, 3, VOCAB_SIZE))
        logits_data[0, 0, 7] = 50.0
        logits_data[0, 1, 9] = 50.0
        loss, _ = next_token_loss(Tensor(logits_data), ids)
        assert float(loss.data) < 1e-12

    def test_all_pad_continuation_counts_zero(self):
        ids = np.array([[BOS, PAD, PAD]])
        loss, count = next_token_loss(Tensor(np.zeros((1, 3, VOCAB_SIZE))), ids)
        assert count == 0
        assert float(loss.data) == 0.0


class TestSchedule:
    def test_peak_at_warmup(self):
        cfg = TrainConfig(base_lr=1e-4, warmup_steps=16000)
        assert lr_schedule(16000, cfg) == pytest.approx(1e-4, abs=0)

    def test_linear_warmup_point(self):
        cfg = TrainConfig(base_lr=1e-4, warmup_steps=16000)
        assert lr_schedule(4000, cfg) == pytest.approx(2.5e-5, abs=0)

    def test_inverse_sqrt_decay_point(self):
        cfg = TrainConfig(base_lr=1e-4, warmup_steps=16000)
        assert lr_schedule(64000, cfg) == pytest.approx(5e-5, abs=0)


def two_sequence_dataset():
    seq_a = [BOS, 30, 40, 50, 60, EOS]
    seq_b = [BOS, 130, 140, 150, 160, EOS]
    return [(seq_a, np.array([1, 0, 0, 1])), (seq_b, np.array([0, 1, 1, 0]))]


class TestTraining:
    def test_zero_lr_leaves_parameters_unchanged(self):
        state = init_state(tiny_config(), seed=7)
        before = {k: p.data.copy() for k, p in state.params.items()}
        train(state, two_sequence_dataset(),
              TrainConfig(batch_size=2, base_lr=0.0, warmup_steps=5, max_steps=20))
        for name, p in state.params.items():
            assert (p.data == before[name]).all()

    def test_mixed_parameter_dtypes_are_rejected(self):
        # training updates the state's one flat buffer, of one dtype; a
        # parameter given an array of its own would never be trained
        state = init_state(tiny_config(), seed=7)
        state.params["ln_f_b"].data = state.params["ln_f_b"].data.astype(np.float32)
        with pytest.raises(EmoMusicError, match="ln_f_b is not a view"):
            train(state, two_sequence_dataset(), TrainConfig(batch_size=2, max_steps=1))

    def test_same_seed_identical_loss_log(self):
        cfg = TrainConfig(batch_size=2, base_lr=1e-3, warmup_steps=10,
                          max_steps=30, seed=9)
        _, log_a = train(init_state(tiny_config(dropout=0.1), seed=8),
                         two_sequence_dataset(), cfg)
        _, log_b = train(init_state(tiny_config(dropout=0.1), seed=8),
                         two_sequence_dataset(), cfg)
        assert log_a == log_b

    def test_loss_decreases_when_overfitting(self):
        state = init_state(tiny_config(d_model=32, d_ffn=64), seed=10)
        cfg = TrainConfig(batch_size=2, base_lr=3e-3, warmup_steps=20,
                          max_steps=150, seed=11)
        _, log = train(state, two_sequence_dataset(), cfg)
        assert log[-1][2] < 0.25 < log[0][2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_loss_aborts(self, monkeypatch, forked, cpus):
        use_cpus(monkeypatch, cpus)
        state = init_state(tiny_config(), seed=12)
        state.params["tok_emb"].data[:] = np.inf
        with pytest.raises(NonFiniteLoss, match="at step 1$"), \
                np.errstate(invalid="ignore", over="ignore"):
            train(state, two_sequence_dataset(),
                  TrainConfig(batch_size=2, base_lr=1e-3, warmup_steps=5, max_steps=5))
        assert len(forked) == (2 if cpus == 2 else 0)
        assert_reaped(forked)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_later_steps_fault_in_no_heap_pages(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(16)
        dataset = [([BOS, *rng.integers(BOS + 1, VOCAB_SIZE, size=int(n)), EOS],
                    rng.integers(0, 2, size=20))
                   for n in rng.integers(190, 200, size=16)]
        state = init_state(ModelConfig.small(attr_dim=20), seed=17)
        cfg = TrainConfig(batch_size=8, base_lr=1e-3, warmup_steps=10, max_steps=5)

        def faults(*args) -> tuple[int, int]:
            """Minor faults of this process and of its reaped workers during train()."""
            before = [resource.getrusage(who).ru_minflt
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
            train(*args)
            return tuple(resource.getrusage(who).ru_minflt - b for who, b in
                         zip((resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN), before))

        _, first_workers = faults(state, dataset, cfg)  # steps 1-5 grow the heap to its peak
        own, workers = faults(state, dataset, replace(cfg, max_steps=10))  # steps 6-15
        # about 216k when glibc trims the heap after every step, about 230 kept
        assert own < 5000
        # the second call's workers grow their heaps in their first five steps
        # as the first call's did; they inherit the heap settings, so their
        # steps 6-10 fault in almost nothing more
        assert workers - first_workers < 5000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_glibc_takes_both_heap_settings(self):
        assert emomusic.training._keep_heap() == (1, 1)

    @pytest.mark.parametrize("lookup", ["libc_ver", "cdll"])
    def test_other_c_libraries_train_unchanged(self, monkeypatch, lookup):
        cfg = TrainConfig(batch_size=2, base_lr=1e-3, warmup_steps=10, max_steps=12, seed=18)
        _, expected = train(init_state(tiny_config(), seed=19), two_sequence_dataset(), cfg)
        if lookup == "libc_ver":
            monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        else:
            def missing(name):
                raise OSError(f"{name}: cannot open shared object file")
            monkeypatch.setattr(ctypes, "CDLL", missing)
        assert emomusic.training._keep_heap() == ()
        _, log = train(init_state(tiny_config(), seed=19), two_sequence_dataset(), cfg)
        assert log == expected


class TestShardedStep:
    """One step's gradient and loss, combined from the two row shards, against
    one graph over the whole batch: float64, no dropout."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", [4, 3, 1])  # shards of 2 + 2, 2 + 1 and 1 + 0 rows
    def test_combined_gradient_equals_the_full_batch(self, monkeypatch, forked, cpus, rows):
        use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(20 + rows)
        # unequal lengths, so the shards score unequal position counts
        dataset = [([BOS, *rng.integers(BOS + 1, VOCAB_SIZE, size=int(n)), EOS],
                    rng.integers(0, 2, size=4)) for n in rng.permutation([1, 13, 4, 7])[:rows]]
        seen = {}
        clip = emomusic.training.clip_gradients

        def record(params, max_norm):
            seen.update({name: p.grad.copy() for name, p in params.items()})
            return clip(params, max_norm)

        monkeypatch.setattr(emomusic.training, "clip_gradients", record)
        config = tiny_config(max_len=16)
        _, log = train(init_state(config, seed=21), dataset,
                       TrainConfig(batch_size=rows, base_lr=1e-3, warmup_steps=5,
                                   max_steps=1, seed=22))

        whole = init_state(config, seed=21)
        ids = pad_batch([seq for seq, _ in dataset], config.max_len)
        bits = np.stack([b for _, b in dataset]).astype(float)
        loss, _ = next_token_loss(forward_batch(whole, ids, bits), ids)
        loss.backward()
        assert log[0][2] == pytest.approx(float(loss.data), rel=1e-12, abs=0)
        for name, p in whole.params.items():
            assert np.abs(seen[name] - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name
        assert len(forked) == (2 if cpus == 2 else 0)
        assert_reaped(forked)


class TestMakeBatches:
    LENGTHS = np.random.default_rng(4).integers(20, 257, size=101)

    @staticmethod
    def padded(batches, lengths) -> int:
        return sum(len(b) * int(lengths[b].max()) - int(lengths[b].sum())
                   for b in batches)

    def test_every_index_once_per_epoch(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            batches = make_batches(list(self.LENGTHS), 8, rng)
            assert sorted(np.concatenate(batches).tolist()) == list(range(101))

    def test_batches_hold_at_most_batch_size(self):
        batches = make_batches(list(self.LENGTHS), 8, np.random.default_rng(1))
        assert max(len(b) for b in batches) == 8
        assert len(batches) == 13

    def test_same_seed_same_batches(self):
        a = make_batches(list(self.LENGTHS), 8, np.random.default_rng(2))
        b = make_batches(list(self.LENGTHS), 8, np.random.default_rng(2))
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_pads_far_less_than_random_batches(self):
        rng = np.random.default_rng(3)
        order = rng.permutation(101)
        random = [order[i:i + 8] for i in range(0, 101, 8)]
        bucketed = make_batches(list(self.LENGTHS), 8, rng)
        assert self.padded(bucketed, self.LENGTHS) < 0.2 * self.padded(random, self.LENGTHS)


class TestTrainingStepMemory:
    """One float32 step of the small model on a longest (8 x 256) batch."""

    @staticmethod
    def step_loss():
        state = init_state(ModelConfig.small(attr_dim=20), seed=3, dtype=np.float32)
        rng = np.random.default_rng(4)
        ids = rng.integers(BOS + 1, VOCAB_SIZE, size=(8, 256))
        bits = rng.integers(0, 2, size=(8, 20)).astype(float)
        logits = forward_batch(state, ids, bits, rng=np.random.default_rng(5))
        return state, next_token_loss(logits, ids)[0]

    def test_backward_peak_stays_near_the_forward_graph(self):
        tracemalloc.start()
        try:
            _, loss = self.step_loss()
            graph, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # freeing each node once its gradient has moved on keeps the peak
        # near the graph itself; holding every gradient took it past 2x
        assert peak <= 1.3 * graph

    def test_forward_graph_holds_no_matmul_outputs(self):
        self.step_loss()  # lazy imports and first-call caches stay out of the trace
        tracemalloc.start()
        try:
            _, loss = self.step_loss()
            graph, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fused x @ W + b keeps no matmul output: 38.3 MiB, against 45.8 MiB
        # with a separate product and sum
        assert graph <= 41 * 2**20

    def test_backward_leaves_only_parameter_grads(self):
        state, loss = self.step_loss()
        inner, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in inner:
                inner[id(node)] = node
                stack.extend(node._parents)
        assert len(inner) > 50
        loss.backward()
        assert all(node.grad is None and node._backward is None
                   and node._parents is None for node in inner.values())
        for name, p in state.params.items():
            assert p.grad is not None and p.grad.shape == p.data.shape, name


class TestGradientCheck:
    def test_every_parameter_group_matches_finite_differences(self):
        state = init_state(tiny_config(), seed=13)
        ids = np.array([[BOS, 9, 55, 200, 7, 120, 33, EOS]])
        bits = np.array([[1.0, 0.0, 1.0, 1.0]])

        def loss_value() -> float:
            loss, _ = next_token_loss(forward_batch(state, ids, bits), ids)
            return float(loss.data)

        for p in state.params.values():
            p.grad = None
        loss, _ = next_token_loss(forward_batch(state, ids, bits), ids)
        loss.backward()

        rng = np.random.default_rng(14)
        h = 1e-5
        for name, p in state.params.items():
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in picks:
                old = flat[i]
                flat[i] = old + h
                up = loss_value()
                flat[i] = old - h
                down = loss_value()
                flat[i] = old
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[i]), 1e-8)
                assert abs(numeric - grad[i]) / denom < 1e-3, name


def test_float32_backward_passes_only_float32_gradients(monkeypatch):
    """Every gradient a float32 loss hands to a node keeps the forward data's
    dtype, the loss's own backward included."""
    state = init_state(tiny_config(), seed=13, dtype=np.float32)
    ids = np.array([[BOS, 9, 55, 200, 7, EOS], [BOS, 120, 33, EOS, PAD, PAD]])
    bits = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    dtypes = []
    accumulate = Tensor._accumulate

    def recording(self, grad, source=None):
        dtypes.append(grad.dtype)
        accumulate(self, grad, source)

    monkeypatch.setattr(Tensor, "_accumulate", recording)
    loss, _ = next_token_loss(forward_batch(state, ids, bits), ids)
    loss.backward()
    assert len(dtypes) > 50
    assert [d for d in dtypes if d != np.float32] == []


class TestFlatState:
    """Every parameter is a view into the state's one flat buffer, and
    ``init_state`` draws the arrays the per-name form drew."""

    # the tiny model's sizes are not multiples of ALIGN, so its layout pads
    CONFIGS = {"small": ModelConfig.small(attr_dim=20),
               "tiny": tiny_config(n_layers=1, d_model=8, d_ffn=12, max_len=5, attr_dim=3)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", ["small", "tiny"])
    def test_views_equal_the_per_name_draws(self, size, dtype):
        config = self.CONFIGS[size]
        state = init_state(config, seed=23, dtype=dtype)
        expected = reference.init_state(config, seed=23, dtype=dtype)
        assert list(state.params) == list(expected)
        for name, p in state.params.items():
            assert p.data.dtype == dtype and p.data.shape == expected[name].shape, name
            assert p.data.tobytes() == expected[name].tobytes(), name
            assert p.requires_grad, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", ["small", "tiny"])
    def test_parameters_are_aligned_views_in_table_order(self, size, dtype):
        config = self.CONFIGS[size]
        state = init_state(config, seed=23, dtype=dtype)
        flat = state.flat
        start = 0  # the first element after the parameters so far
        for name in param_table(config):
            data = state.params[name].data
            assert data.base is flat and data.flags.c_contiguous, name
            offset = data.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
            assert offset % 64 == 0, name
            offset //= flat.itemsize
            assert start <= offset < start + ALIGN, name  # packed, in table order
            assert not flat[start:offset].any(), name  # zeros between
            start = offset + data.size
        assert flat.size - start < ALIGN and not flat[start:].any()


def edit_manifest(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = init_state(tiny_config(), seed=15)
        medians = np.array([0.5, 1.5, 2.5, 3.5])
        save_checkpoint(tmp_path / "ckpt.npy", state, step=42,
                        catalog_version="v1", indices=[1, 2, 3, 4], medians=medians)
        loaded, manifest = load_checkpoint(tmp_path / "ckpt.npy")
        assert manifest["step"] == 42
        assert manifest["catalog_version"] == "v1"
        assert manifest["indices"] == [1, 2, 3, 4]
        assert manifest["medians"] == medians.tolist()
        for name, p in state.params.items():
            assert (loaded.params[name].data == p.data).all()
        ids = [BOS, 4, 5]
        bits = np.array([1, 0, 1, 0])
        assert forward(loaded, ids, bits) == pytest.approx(forward(state, ids, bits))

    def test_load_draws_no_random_model(self, tmp_path, monkeypatch):
        state = init_state(tiny_config(), seed=15)
        save_checkpoint(tmp_path / "ckpt.npy", state, indices=[0, 1, 2, 3],
                        medians=np.zeros(4))
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise
        loaded, _ = load_checkpoint(tmp_path / "ckpt.npy")
        assert list(loaded.params) == list(state.params)
        for name, p in state.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
            assert loaded.params[name].requires_grad

    def save_edited(self, path, edit):
        """A checkpoint whose blob ``edit`` replaced, the manifest left as it was."""
        save_checkpoint(path, init_state(tiny_config(), seed=15), indices=[0, 1, 2, 3],
                        medians=np.zeros(4))
        np.save(path, edit(np.load(path)))

    def test_missing_parameter_rejected(self, tmp_path):
        # the blob without its last parameter
        assert list(param_table(tiny_config()).values())[-1] == ((ALIGN,), "zeros")
        self.save_edited(tmp_path / "ckpt.npy", lambda blob: blob[:-ALIGN])
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy .*shape.*ckpt\.json"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_wrong_shape_rejected(self, tmp_path):
        # a 2-D blob of the right size would still fill the buffer
        self.save_edited(tmp_path / "ckpt.npy", lambda blob: blob.reshape(-1, ALIGN))
        with pytest.raises(EmoMusicError, match=rf"ckpt\.npy .*shape \(\d+, {ALIGN}\)"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_array_the_config_does_not_name_rejected(self, tmp_path):
        self.save_edited(tmp_path / "ckpt.npy",
                         lambda blob: np.concatenate([blob, np.zeros(ALIGN)]))
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy .*shape.*ckpt\.json"):
            load_checkpoint(tmp_path / "ckpt.npy")

    @pytest.mark.parametrize("dtype", [">f8", "<f2", "<i8"])
    def test_blob_of_another_dtype_rejected(self, tmp_path, dtype):
        # a big-endian blob holds the same bytes, so its checksum would pass
        self.save_edited(tmp_path / "ckpt.npy", lambda blob: blob.astype(dtype))
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy .*float32 or float64"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_fewer_layers_than_the_blob_rejected(self, tmp_path):
        # the l1.* arrays of a 2-layer blob used to be dropped without a word
        save_checkpoint(tmp_path / "ckpt.npy", init_state(tiny_config(), seed=15),
                        indices=[0, 1, 2, 3], medians=np.zeros(4))
        edit_manifest(tmp_path / "ckpt.json", lambda doc: doc["config"].update(n_layers=1))
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy .*shape.*ckpt\.json"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_changed_weight_fails_the_checksum(self, tmp_path):
        def nudge(blob):
            blob[5] = np.nextafter(blob[5], 1.0)
            return blob
        self.save_edited(tmp_path / "ckpt.npy", nudge)
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy does not match the crc32 in "
                                                r".*ckpt\.json"):
            load_checkpoint(tmp_path / "ckpt.npy")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        # one NaN weight used to surface only at the first sampled token, as
        # non-finite logits, with no file named
        state = init_state(tiny_config(), seed=15)
        state.params["l1.ffn_w2"].data[3, 2] = value
        save_checkpoint(tmp_path / "ckpt.npy", state, indices=[0, 1, 2, 3],
                        medians=np.zeros(4))
        with pytest.raises(EmoMusicError, match=r"ckpt\.npy: parameter l1\.ffn_w2 .*not finite"):
            load_checkpoint(tmp_path / "ckpt.npy")

    @pytest.mark.parametrize("key, value", [
        ("medians", [0.0, 0.0, 0.0]),
        ("medians", [0.0] * 5),
        ("medians", {"a": 1}),
        ("medians", [0.0, 0.0, 0.0, "a"]),
        ("indices", [0, 1, 2]),
        ("indices", "0123"),
        ("indices", [0, 1, 2, 3.5]),
    ], ids=["medians-short", "medians-long", "medians-object", "medians-string",
            "indices-short", "indices-string", "indices-float"])
    def test_manifest_vector_that_does_not_fit_attr_dim_rejected(self, tmp_path, key,
                                                                   value):
        save_checkpoint(tmp_path / "ckpt.npy", init_state(tiny_config(), seed=15),
                        indices=[0, 1, 2, 3], medians=np.zeros(4))
        edit_manifest(tmp_path / "ckpt.json", lambda doc: doc.update({key: value}))
        with pytest.raises(EmoMusicError, match=rf"ckpt\.json.*{key}"):
            load_checkpoint(tmp_path / "ckpt.npy")

    @pytest.mark.parametrize("config", ["x", [1], None, 3])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, config):
        save_checkpoint(tmp_path / "ckpt.npy", init_state(tiny_config(), seed=15),
                        indices=[0, 1, 2, 3], medians=np.zeros(4))
        edit_manifest(tmp_path / "ckpt.json", lambda doc: doc.update(config=config))
        with pytest.raises(EmoMusicError, match=r"ckpt\.json.*config"):
            load_checkpoint(tmp_path / "ckpt.npy")

    @pytest.mark.parametrize("field, value", [
        ("n_heads", 0), ("n_layers", 0), ("d_model", -4), ("d_ffn", 0), ("max_len", 0),
        ("vocab_size", 0), ("attr_dim", 0), ("n_heads", 3), ("n_heads", 1.0),
        ("d_model", "16"), ("n_layers", True), ("dropout", "a"), ("dropout", 1.0),
        ("dropout", -0.1), ("dropout", None), ("dropout", float("nan")),
    ])
    def test_bad_config_field_rejected(self, tmp_path, field, value):
        with pytest.raises(EmoMusicError, match=field):
            tiny_config(**{field: value})
        save_checkpoint(tmp_path / "ckpt.npy", init_state(tiny_config(), seed=15),
                        indices=[0, 1, 2, 3], medians=np.zeros(4))
        edit_manifest(tmp_path / "ckpt.json", lambda doc: doc["config"].update({field: value}))
        with pytest.raises(EmoMusicError, match=rf"ckpt\.json.*{field}"):
            load_checkpoint(tmp_path / "ckpt.npy")

    def test_good_config_values_accepted(self):
        assert tiny_config(dropout=0).dropout == 0
        assert tiny_config(dropout=0.999).dropout == 0.999
        assert tiny_config(n_heads=np.int64(2)).n_heads == 2


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        weights = np.array([1.0])
        opt = Adam()
        opt.step(weights, np.array([0.5]), lr=0.1)
        # first step: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
        assert weights[0] == pytest.approx(1.0 - 0.1 * 0.5 / (0.5 + 1e-9))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_array_by_array_adam(self, monkeypatch, dtype):
        # blocks of 7 cut across the arrays and leave a short last block
        monkeypatch.setattr(emomusic.training, "ADAM_BLOCK", 7)
        rng = np.random.default_rng(48)
        shapes = [(3, 4), (5,), (2, 3)]
        params = {f"p{i}": Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                  for i, shape in enumerate(shapes)}
        weights = np.concatenate([p.data.reshape(-1) for p in params.values()])
        opt, moments = Adam(), {}
        for t, lr in enumerate([1e-3, 0.5, 2e-2], 1):
            grads = rng.normal(size=weights.size).astype(dtype)
            grads[::5] = -0.0
            offset = 0
            for p in params.values():
                p.grad = grads[offset:offset + p.data.size].reshape(p.data.shape)
                offset += p.data.size
            opt.step(weights, grads, lr)
            reference.adam_step(moments, t, params, lr)
            assert weights.tobytes() == np.concatenate(
                [p.data.reshape(-1) for p in params.values()]).tobytes()

"""Training loop: Adam, inverse-square-root schedule, checkpoints, loss log."""

from __future__ import annotations

import csv
import ctypes
import itertools
import json
import math
import mmap
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .autodiff import Tensor
from .model import ModelConfig, ModelState, forward_batch, next_token_loss, param_table
from .parallel import Workers
from .tokens import PAD


# Adam's moment decays and denominator guard (Vaswani et al. 2017)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9

# glibc mallopt parameters, and the largest values a 64-bit glibc and a C int take
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 * 1024 * 1024
TRIM_THRESHOLD_MAX = 2**31 - 1

# Every batch is split by rows into this many shards, each with its own
# dropout stream. Fixed, so that no byte depends on the machine's CPU count.
SHARDS = 2


class NonFiniteLoss(EmoMusicError):
    pass


@dataclass(frozen=True, slots=True)
class TrainConfig:
    batch_size: int = 8
    base_lr: float = 1e-4
    warmup_steps: int = 16000
    max_steps: int = 100000
    grad_clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warmup_steps < 1:
            raise EmoMusicError("warmup_steps must be >= 1")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """base_lr * min(step/warmup, sqrt(warmup/step)); peak at step == warmup."""
    if step < 1:
        raise EmoMusicError("schedule is defined for steps >= 1")
    return cfg.base_lr * min(step / cfg.warmup_steps,
                             math.sqrt(cfg.warmup_steps / step))


@dataclass(slots=True)
class Adam:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict, lr: float) -> None:
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / correction1
            v_hat = self.v[name] / correction2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)  # in place: workers read it


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def make_batches(lengths: list[int], batch_size: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of index batches, each of pieces with similar ``lengths``.

    A random order is stable-sorted by length, cut into batches and the
    batch order shuffled, so a batch pads little and the epoch still visits
    lengths in random order (sequence bucketing, Khomenko et al. 2016).
    """
    order = rng.permutation(len(lengths))
    order = order[np.argsort(np.asarray(lengths)[order], kind="stable")]
    batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    return [batches[i] for i in rng.permutation(len(batches))]


def pad_batch(sequences: list[list[int]], max_len: int) -> np.ndarray:
    """Right-pad with PAD to the longest (truncated) sequence in the batch."""
    clipped = [seq[:max_len] for seq in sequences]
    width = max(len(seq) for seq in clipped)
    ids = np.full((len(clipped), width), PAD, dtype=int)
    for i, seq in enumerate(clipped):
        ids[i, :len(seq)] = seq
    return ids


def _keep_heap() -> tuple[int, ...]:
    """Have glibc keep freed heap pages for reuse; returns mallopt's results.

    Backward frees the graph as it goes, so the heap is nearly empty when a
    step ends. By default glibc then trims it, and puts large arrays in
    mmaps of their own, so every step would fault its pages in again. With
    arrays up to 32 MiB on the heap and the trim threshold at its maximum,
    the heap stays at its peak and later steps reuse it. The settings hold
    for the whole process from this call on, not for training alone. With
    a C library other than glibc this does nothing and returns ().
    """
    if platform.libc_ver()[0] != "glibc":
        return ()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return ()
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX),
            libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_MAX))


def _shared_zeros(like: dict[str, np.ndarray], copies: int) -> list[dict[str, np.ndarray]]:
    """``copies`` sets of zeroed arrays shaped like ``like``, all in one
    anonymous shared mmap, so that forked processes see each other's writes."""
    sizes = [-(-a.nbytes // 64) * 64 for a in like.values()]  # 64-byte aligned
    buffer = mmap.mmap(-1, max(1, copies * sum(sizes)))
    out, offset = [], 0
    for _ in range(copies):
        arrays = {}
        for (name, a), size in zip(like.items(), sizes):
            arrays[name] = np.frombuffer(buffer, dtype=a.dtype, count=a.size,
                                         offset=offset).reshape(a.shape)
            offset += size
        out.append(arrays)
    return out


def _shard_step(state: ModelState, grads: dict[str, np.ndarray],
                rng: np.random.Generator, ids: np.ndarray,
                bits: np.ndarray) -> tuple[float, int]:
    """Forward and backward of one shard: its mean loss and scored count,
    with the gradient of that mean written to ``grads``. An empty shard
    scores nothing and has a zero gradient; a non-finite loss is returned
    without a backward pass, and the caller stops."""
    for p in state.params.values():
        p.grad = None  # in this process it may hold the last combined gradient
    value, count = 0.0, 0
    if len(ids):
        # no name holds the logits, so backward can free them with the graph
        loss, count = next_token_loss(forward_batch(state, ids, bits, rng=rng), ids)
        value = float(loss.data)
        if not math.isfinite(value):
            return value, count
        loss.backward()
    for name, p in state.params.items():
        if p.grad is None:
            grads[name].fill(0)
        else:
            grads[name][...] = p.grad
        p.grad = None
    return value, count


def train(state: ModelState, dataset: list[tuple[list[int], np.ndarray]],
          cfg: TrainConfig, log_every: int = 1,
          ) -> tuple[ModelState, list[tuple[int, float, float]]]:
    """Self-supervised next-token training.

    Each dataset entry pairs a token sequence with the binarized attribute
    vector extracted from that same sequence's score. Returns the trained
    state and a (step, lr, loss) log. Deterministic given cfg.seed and a
    fixed BLAS thread count, and the same at any CPU count.

    Synchronous data parallelism (Goyal et al. 2017): each padded batch is
    split by rows into ``SHARDS`` fixed shards, the first ceil(B/2) rows and
    the rest. Shard s draws its dropout from ``SeedSequence([seed, 2, s])``.
    With two usable CPUs each shard runs in a worker forked once per call,
    which reads the weights from, and writes its gradient to, memory shared
    with this process; otherwise the same shard calls run here. The step's
    gradient is the count-weighted sum of the shard gradients, in shard
    order, and one Adam in this process updates the weights in place.
    """
    if not dataset:
        raise EmoMusicError("empty training dataset")
    _keep_heap()
    params = state.params
    weights, *shard_grads = _shared_zeros({k: p.data for k, p in params.items()},
                                          1 + SHARDS)
    for name, p in params.items():
        weights[name][...] = p.data
        p.data = weights[name]
        p.grad = None
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, s]))
            for s in range(SHARDS)]

    def run_shard(s: int, rows: tuple[np.ndarray, np.ndarray]) -> tuple[float, int]:
        return _shard_step(state, shard_grads[s], rngs[s], *rows)

    optimizer = Adam()
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    log: list[tuple[int, float, float]] = []
    lengths = [min(len(seq), state.config.max_len) for seq, _ in dataset]
    epochs = (batch for _ in itertools.count()
              for batch in make_batches(lengths, cfg.batch_size, shuffle_rng))
    try:
        with Workers(run_shard, SHARDS) as workers:
            for step, batch_idx in enumerate(itertools.islice(epochs, cfg.max_steps), 1):
                ids = pad_batch([dataset[i][0] for i in batch_idx], state.config.max_len)
                bits = np.stack([dataset[i][1] for i in batch_idx]).astype(float)
                answers = workers.call(list(zip(np.array_split(ids, SHARDS),
                                                np.array_split(bits, SHARDS))))
                n = sum(count for _, count in answers)
                value = sum(loss * count for loss, count in answers) / n if n else 0.0
                if not math.isfinite(value):
                    raise NonFiniteLoss(f"loss became {value} at step {step}")
                shares = [count / n if n else 0.0 for _, count in answers]
                for name, p in params.items():
                    p.grad = shares[0] * shard_grads[0][name]
                    for share, grads in zip(shares[1:], shard_grads[1:]):
                        p.grad += share * grads[name]
                clip_gradients(params, cfg.grad_clip_norm)
                lr = lr_schedule(step, cfg)
                optimizer.step(params, lr)
                if step % log_every == 0 or step == cfg.max_steps:
                    log.append((step, lr, value))
    finally:
        for p in params.values():  # off the shared mmap, which goes with this call
            p.data = p.data.copy()
    return state, log


def save_loss_log(path: str | Path, log: list[tuple[int, float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss"])
        writer.writerows(log)


def save_checkpoint(path: str | Path, state: ModelState, *, step: int = 0,
                    catalog_version: str = "", indices: list[int] | None = None,
                    medians: np.ndarray | None = None) -> None:
    """Binary tensor blob (.npz) plus a JSON manifest (same stem, .json)."""
    path = Path(path)
    np.savez_compressed(path, **{k: p.data for k, p in state.params.items()})
    cfg = state.config
    manifest = {
        "config": {
            "n_layers": cfg.n_layers, "n_heads": cfg.n_heads,
            "d_model": cfg.d_model, "d_ffn": cfg.d_ffn, "max_len": cfg.max_len,
            "vocab_size": cfg.vocab_size, "dropout": cfg.dropout,
            "attr_dim": cfg.attr_dim,
        },
        "catalog_version": catalog_version,
        "indices": indices if indices is not None else [],
        "medians": medians.tolist() if medians is not None else [],
        "step": step,
    }
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=1) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    path = Path(path)
    manifest_path = path.with_suffix(".json")
    manifest = read_json(manifest_path, "checkpoint manifest",
                         keys=("config", "indices", "medians"))
    config = dict(manifest["config"])
    # older manifests name the attention kind; linear is the only one there is
    attention = config.pop("attention", "linear")
    if attention != "linear":
        raise EmoMusicError(f"checkpoint {manifest_path}: unsupported attention "
                            f"{attention!r}; only linear attention is implemented")
    try:
        model_config = ModelConfig(**config)
    except TypeError as exc:
        raise EmoMusicError(f"checkpoint {manifest_path}: bad model config "
                            f"({exc})") from exc
    blob_path = path if path.suffix == ".npz" else path.with_suffix(".npz")
    blob = np.load(blob_path)
    params = {}
    for name, (shape, _) in param_table(model_config).items():
        if name not in blob.files:
            raise EmoMusicError(f"checkpoint {blob_path} lacks parameter {name}")
        data = blob[name]
        if data.shape != shape:
            raise EmoMusicError(f"checkpoint {blob_path}: parameter {name} has shape "
                                f"{data.shape}, the model needs {shape}")
        params[name] = Tensor(data, requires_grad=True)
    return ModelState(model_config, params), manifest

"""Training loop: Adam, inverse-square-root schedule, checkpoints, loss log."""

from __future__ import annotations

import csv
import ctypes
import itertools
import json
import math
import platform
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .model import ModelConfig, ModelState, forward_batch, next_token_loss
from .parallel import Workers
from .tokens import PAD


# Adam's moment decays and denominator guard (Vaswani et al. 2017)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
# Global gradient-norm bound applied before every Adam step
GRAD_CLIP_NORM = 1.0

# glibc mallopt parameters, and the largest values a 64-bit glibc and a C int take
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 * 1024 * 1024
TRIM_THRESHOLD_MAX = 2**31 - 1

# Every batch is split by rows into this many shards, each with its own
# dropout stream. Fixed, so that no byte depends on the machine's CPU count.
SHARDS = 2

# The .npy header readers by format version; np.save writes 1.0 unless the
# header needs more than 64 KiB
_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}


class NonFiniteLoss(EmoMusicError):
    pass


@dataclass(frozen=True, slots=True)
class TrainConfig:
    batch_size: int = 8
    base_lr: float = 1e-4
    warmup_steps: int = 16000
    max_steps: int = 100000
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


# Adam works through the flat weight span this many elements at a time, so
# its temporaries stay small next to the span
ADAM_BLOCK = 32768


@dataclass(slots=True)
class Adam:
    """Adam over one flat weight array and its same-shaped gradient; the
    moments are flat arrays of that shape, made at the first step."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def step(self, weights: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """One update of ``weights`` in place (workers read them). Each element
        takes the textbook arithmetic in its order, written into block buffers:
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
        w -= lr (m / c1) / (sqrt(v / c2) + eps)."""
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        if self.m is None:
            self.m, self.v = np.zeros_like(weights), np.zeros_like(weights)
        scratch = np.empty((2, min(ADAM_BLOCK, weights.size)), dtype=weights.dtype)
        for start in range(0, weights.size, ADAM_BLOCK):
            part = slice(start, start + ADAM_BLOCK)
            w, g, m, v = weights[part], grads[part], self.m[part], self.v[part]
            a, b = scratch[0, :w.size], scratch[1, :w.size]
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1 - ADAM_BETA1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, 1 - ADAM_BETA2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, correction2, out=a)
            np.sqrt(a, out=a)
            np.add(a, ADAM_EPS, out=a)
            np.divide(m, correction1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(w, b, out=w)


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
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
        grads[name][...] = 0 if p.grad is None else p.grad
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
    which reads the weights from ``state.flat`` and writes its gradient to
    the buffer of a state of the same layout, both shared with this process;
    otherwise the same shard calls run here. The step's gradient is the
    count-weighted sum of the shard gradients, in shard order, formed in
    place in shard 0's buffer; one Adam in this process updates ``state.flat``
    in place. Every parameter must be a view into ``state.flat``.
    """
    if not dataset:
        raise EmoMusicError("empty training dataset")
    params = state.params
    for name, p in params.items():
        if p.data.base is not state.flat:
            raise EmoMusicError(f"parameter {name} is not a view into the model's flat "
                                f"buffer, which training updates")
    _keep_heap()
    grads = [ModelState(state.config, state.flat.dtype) for _ in range(SHARDS)]
    shard_grads = [{name: g.data for name, g in shard.params.items()} for shard in grads]
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
            # combined in place in shard 0's span, which the grads view;
            # the next call overwrites every shard's span
            combined = grads[0].flat
            combined *= shares[0]
            for share, shard in zip(shares[1:], grads[1:]):
                shard.flat *= share
                combined += shard.flat
            for name, p in params.items():
                p.grad = shard_grads[0][name]
            clip_gradients(params, GRAD_CLIP_NORM)
            lr = lr_schedule(step, cfg)
            optimizer.step(state.flat, combined, lr)
            if step % log_every == 0 or step == cfg.max_steps:
                log.append((step, lr, value))
    return state, log


def save_loss_log(path: str | Path, log: list[tuple[int, float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss"])
        writer.writerows(log)


def save_checkpoint(path: str | Path, state: ModelState, *, indices: list[int],
                    medians: np.ndarray, step: int = 0, catalog_version: str = "") -> None:
    """The model's flat buffer as one ``.npy`` array (the blob), and a JSON
    manifest: ``path`` with the suffixes ``.npy`` and ``.json``.

    The manifest holds the model config, the attribute indices and medians,
    the step, and the blob's CRC-32, which ``load_checkpoint`` checks."""
    path = Path(path)
    np.save(path.with_suffix(".npy"), state.flat)
    manifest = {
        "config": asdict(state.config),
        "catalog_version": catalog_version,
        "indices": indices,
        "medians": medians.tolist(),
        "step": step,
        "crc32": zlib.crc32(state.flat),
    }
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=1) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    """The model and manifest that ``save_checkpoint`` wrote at ``path``.

    The manifest's fields are checked one by one. The blob must be a 1-D
    float32 or float64 array of the size its config lays out, match the
    manifest's CRC-32, and hold only finite weights; otherwise this raises
    ``EmoMusicError`` naming the file."""
    path = Path(path)
    manifest_path = path.with_suffix(".json")
    manifest = read_json(manifest_path, "checkpoint manifest",
                         keys=("config", "indices", "medians"))
    if "crc32" not in manifest:  # as in one written before the one-array checkpoint.npy
        raise EmoMusicError(f"checkpoint manifest {manifest_path} lacks key(s) crc32; "
                            f"run train again")
    if not isinstance(manifest["config"], dict):
        raise EmoMusicError(f"checkpoint {manifest_path}: config must be a JSON object, "
                            f"not {manifest['config']!r}")
    try:
        model_config = ModelConfig(**manifest["config"])
    except (TypeError, EmoMusicError) as exc:
        raise EmoMusicError(f"checkpoint {manifest_path}: bad model config "
                            f"({exc})") from exc
    # one catalog index and one median per attribute the model is conditioned on
    for key, kinds in (("indices", (int,)), ("medians", (int, float))):
        values = manifest[key]
        if not (isinstance(values, list) and len(values) == model_config.attr_dim
                and all(type(v) in kinds for v in values)):
            raise EmoMusicError(f"checkpoint {manifest_path}: {key} must be a list of "
                                f"attr_dim = {model_config.attr_dim} numbers")
    blob_path = path.with_suffix(".npy")
    try:
        fh = open(blob_path, "rb")
    except OSError as exc:
        raise EmoMusicError(f"cannot read checkpoint {blob_path}: {exc!r}") from exc
    with fh:
        # the .npy header is checked against the config's layout before any
        # data is read, and the data is read straight into the state's buffer
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f".npy format version {version}, not 1.0 or 2.0")
            shape, fortran_order, dtype = _NPY_HEADER_READERS[version](fh)
        except Exception as exc:  # noqa: BLE001 - a damaged header fails in a dozen ways
            raise EmoMusicError(f"cannot read checkpoint {blob_path}: {exc!r}") from exc
        state = ModelState(model_config, np.float32 if dtype == np.float32 else np.float64)
        if shape != state.flat.shape or dtype != state.flat.dtype or fortran_order:
            raise EmoMusicError(f"checkpoint {blob_path} holds {dtype} of shape {shape}"
                                f"{' in Fortran order' if fortran_order else ''}; the "
                                f"config in {manifest_path} lays out {state.flat.shape} "
                                f"float32 or float64")
        read = fh.readinto(memoryview(state.flat).cast("B"))
    if read != state.flat.nbytes:
        raise EmoMusicError(f"checkpoint {blob_path} ends after {read} of its "
                            f"{state.flat.nbytes} data bytes; run train again")
    if zlib.crc32(state.flat) != manifest["crc32"]:
        raise EmoMusicError(f"checkpoint {blob_path} does not match the crc32 in "
                            f"{manifest_path}; run train again")
    if not np.isfinite(state.flat).all():
        bad = next((f"parameter {name}" for name, p in state.params.items()
                    if not np.isfinite(p.data).all()), "the padding between parameters")
        raise EmoMusicError(f"checkpoint {blob_path}: {bad} holds a weight that is not "
                            f"finite; run train again")
    return state, manifest

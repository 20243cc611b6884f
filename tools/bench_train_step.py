"""Time the training step layer by layer at the benchmark's run-cold scale.

    python tools/bench_train_step.py [--src DIR] [--out BENCH_train_step.json]
                                     [--corpus-seed 1] [--repeats 5]

Builds the run-cold training input: a synthetic corpus of 4 x 100 pieces
(noise 0.3, ``--corpus-seed``), the pipeline run through ``map-emotion``
(50 trees, k = 20, pipeline seed 0), and the dataset, config and small
float32 model that the ``train`` stage hands to ``training.train``. The
model is built with ``init_state``. Then, with one BLAS thread:

- ``per_step_ms``: ``train`` runs 60 steps ``--repeats`` times, forking its
  two shard workers when two CPUs are usable. Per step: the ``Workers.call``
  that runs both shards, the parent's combine of the shard gradients (from
  the call's return to ``clip_gradients``), ``clip_gradients`` and
  ``Adam.step``.
- ``per_shard_ms``: the same batches' shards run in this process through
  ``training._shard_step``, ``--repeats`` times. Per shard call: the whole
  call, the forward (model and loss) and backward passes, the embedding
  backward, the causal linear attention forward and backward (both layers),
  and the cross-entropy forward and backward.

Every figure is the median over all steps or shard calls. ``--src`` picks
the ``emomusic`` source tree to time (default: this checkout's ``src``), so
two trees can be timed by the same script on the same machine. Only
functions both trees reach through module attributes are wrapped.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_cold_training_input(work: Path, corpus_seed: int):
    """(model config, dataset, train config) as run-cold's ``train`` stage
    passes them to ``training.train``."""
    from emomusic import pipeline
    from emomusic.synth import SynthSpec, synth_corpus

    manifest = synth_corpus(SynthSpec(noise=0.3), 100, corpus_seed, work / "corpus")
    config = pipeline.PipelineConfig(
        artifact_dir=str(work / "art"), corpus_manifest=str(manifest), seed=0,
        forest_trees=50, selection_k=20, model_size="small", train_steps=60,
        n_generate_per_quadrant=4)
    captured = {}

    def capture(state, dataset, cfg, log_every=1):
        captured.update(config=state.config, dataset=dataset, cfg=cfg)
        return state, []

    real_train, pipeline.train = pipeline.train, capture
    try:
        pipeline.Pipeline(config).run(until="train")
    finally:
        pipeline.train = real_train
    return captured["config"], captured["dataset"], captured["cfg"]


class Clock:
    """Named lists of durations in ms, and wrappers that fill them."""

    def __init__(self):
        self.ms = defaultdict(list)
        self.marks = {}

    def wrap(self, owner, name: str, key: str, backward_key: str | None = None):
        """Time calls of ``owner.name``; with ``backward_key``, also the
        backward closure of the Tensor it returns (first item of a tuple)."""
        real = getattr(owner, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = real(*args, **kwargs)
            end = time.perf_counter()
            self.ms[key].append((end - start) * 1e3)
            self.marks[key] = end
            tensor = out[0] if isinstance(out, tuple) else out
            if backward_key and tensor._backward is not None:
                tensor._backward = self.timed_backward(tensor._backward, backward_key)
            return out

        setattr(owner, name, timed)
        return real

    def timed_backward(self, backward, key: str):
        def timed(g):
            start = time.perf_counter()
            out = backward(g)
            self.ms[key].append((time.perf_counter() - start) * 1e3)
            return out

        return timed


def per_step(model_config, dataset, cfg, repeats: int) -> tuple[dict, list[float]]:
    import numpy as np

    from emomusic import parallel, training
    from emomusic.model import init_state

    clock = Clock()
    real_call = clock.wrap(parallel.Workers, "call", "worker_call")
    real_clip = training.clip_gradients
    real_step = training.Adam.step

    def clip(params, max_norm):
        start = time.perf_counter()
        clock.ms["parent_combine"].append((start - clock.marks["worker_call"]) * 1e3)
        out = real_clip(params, max_norm)
        clock.ms["clip"].append((time.perf_counter() - start) * 1e3)
        return out

    def adam(self, *args, **kwargs):
        start = time.perf_counter()
        real_step(self, *args, **kwargs)
        clock.ms["adam"].append((time.perf_counter() - start) * 1e3)

    training.clip_gradients, training.Adam.step = clip, adam
    train_s = []
    try:
        for _ in range(repeats):
            state = init_state(model_config, seed=0, dtype=np.float32)
            start = time.perf_counter()
            training.train(state, dataset, cfg, log_every=1)
            train_s.append(time.perf_counter() - start)
    finally:
        parallel.Workers.call = real_call
        training.clip_gradients, training.Adam.step = real_clip, real_step
    return {key: statistics.median(values) for key, values in clock.ms.items()}, train_s


def per_shard(model_config, dataset, cfg, repeats: int) -> dict:
    import numpy as np

    from emomusic import autodiff, model, training
    from emomusic.model import init_state

    clock = Clock()
    originals = [(owner, name, clock.wrap(owner, name, key, backward_key))
                 for owner, name, key, backward_key in (
                     (training, "_shard_step", "step", None),
                     (training, "forward_batch", "forward_model", None),
                     (training, "next_token_loss", "forward_loss", None),
                     (autodiff.Tensor, "backward", "backward", None),
                     (model, "embedding", "embedding_forward", "embedding_backward"),
                     (model, "_linear_attention", "attention_forward",
                      "attention_backward"),
                     (model, "cross_entropy", "cross_entropy_forward",
                      "cross_entropy_backward"))]
    layers = model_config.n_layers
    try:
        for _ in range(repeats):
            state = init_state(model_config, seed=0, dtype=np.float32)
            grads = {name: np.zeros_like(p.data) for name, p in state.params.items()}
            rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, s]))
                    for s in range(training.SHARDS)]
            shuffle = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
            lengths = [min(len(seq), model_config.max_len) for seq, _ in dataset]
            batches = []
            while len(batches) < cfg.max_steps:
                batches += training.make_batches(lengths, cfg.batch_size, shuffle)
            for batch in batches[:cfg.max_steps]:
                ids = training.pad_batch([dataset[i][0] for i in batch], model_config.max_len)
                bits = np.stack([dataset[i][1] for i in batch]).astype(float)
                for s, rows in enumerate(zip(np.array_split(ids, training.SHARDS),
                                             np.array_split(bits, training.SHARDS))):
                    training._shard_step(state, grads, rngs[s], *rows)
    finally:
        for owner, name, real in originals:
            setattr(owner, name, real)
    ms = clock.ms
    calls = len(ms["step"])
    # one forward is the model plus the loss; the two attention layers of a
    # shard call are added together
    out = {"step": ms["step"], "backward": ms["backward"],
           "forward": [a + b for a, b in zip(ms["forward_model"], ms["forward_loss"])],
           "embedding_backward": ms["embedding_backward"],
           "cross_entropy_forward": ms["cross_entropy_forward"],
           "cross_entropy_backward": ms["cross_entropy_backward"]}
    for key in ("attention_forward", "attention_backward"):
        values = ms[key]
        assert len(values) == layers * calls, (key, len(values), calls)
        out[key] = [sum(values[i:i + layers]) for i in range(0, len(values), layers)]
    return {key: statistics.median(values) for key, values in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree that holds the emomusic package")
    parser.add_argument("--label", default="",
                        help="what to call the timed tree in the output, e.g. a commit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_train_step.json"))
    parser.add_argument("--corpus-seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))

    import numpy as np

    import emomusic

    with tempfile.TemporaryDirectory() as work:
        model_config, dataset, cfg = run_cold_training_input(Path(work), args.corpus_seed)
    steps, train_s = per_step(model_config, dataset, cfg, args.repeats)
    shards = per_shard(model_config, dataset, cfg, args.repeats)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "tool": "tools/bench_train_step.py",
        "tree": args.label or str(Path(emomusic.__file__).resolve().parent.parent),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
        "corpus_seed": args.corpus_seed, "repeats": args.repeats,
        "steps": cfg.max_steps, "batch_size": cfg.batch_size, "rows": len(dataset),
        "train_s": [round(s, 4) for s in train_s],
        "per_step_ms": {k: round(v, 4) for k, v in sorted(steps.items())},
        "per_shard_ms": {k: round(v, 4) for k, v in sorted(shards.items())},
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

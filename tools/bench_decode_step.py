"""Time decoding layer by layer at the benchmark's generate scale.

    python tools/bench_decode_step.py [--src DIR] [--out BENCH_decode_step.json]
                                      [--corpus-seed 1] [--repeats 5] [--steps 64]

Builds the ``generate`` workload's set-up: a synthetic corpus of 4 x 50
pieces (noise 0.3, ``--corpus-seed``) and the pipeline run through ``train``
(20 trees, k = 20, small model, 30 steps, pipeline seed 0). Then, with one
BLAS thread, on the float64 decoder weights that ``generate_pieces`` decodes
with (``sampling.decoder_weights``, or one float64 copy per parameter in
trees that predate it):

- ``backbone_us``: one ``model.backbone`` decode step at B = 1, 4 and 16
  rows, from BOS on for ``--steps`` positions of fixed random tokens, the
  rows conditioned on the four quadrants' bits in turn.
- ``draw_us_per_row``: softmax plus nucleus draw over the B rows of logits
  that those steps give, per row: ``sampling.sample_rows`` at p = 0.9, with
  one ``SamplerConfig`` per row in trees whose sampler still takes them.
- ``generate``: the workload's four requests, ``generate --emotion Q --n 4``
  for Q1 to Q4, through ``cli.main``, with ``pipeline.generate_pieces``
  timed: tokens drawn (BOS excluded), decoding ms and tokens/s over the four
  requests.

Each figure is given as the minimum and the median over all steps of all
``--repeats`` rounds, or over the rounds for ``generate``. On a host shared
with other tenants their load only adds time, and it drifts over minutes,
so the minimum is the figure that two runs of the script can compare.
``--src`` picks the ``emomusic`` source tree to time (default: this
checkout's ``src``), so two trees can be timed by the same script on the
same machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROWS = (1, 4, 16)
QUADRANTS = ("Q1", "Q2", "Q3", "Q4")


def generate_setup(work: Path, corpus_seed: int) -> Path:
    """The generate workload's corpus, config and trained model under
    ``work``; returns the config file."""
    from emomusic import cli
    from emomusic.synth import SynthSpec, synth_corpus

    manifest = synth_corpus(SynthSpec(noise=0.3), 50, corpus_seed, work / "corpus")
    config = work / "config.json"
    config.write_text(json.dumps({
        "artifact_dir": str(work / "art"), "corpus_manifest": str(manifest), "seed": 0,
        "forest_trees": 20, "selection_k": 20, "model_size": "small",
        "train_steps": 30}))
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["train", "--config", str(config)]) != 0:
            raise RuntimeError("the set-up's train command failed")
    return config


def quadrant_bits(config: Path):
    """The trained model, and the binarized mapping vector of each quadrant,
    as ``generate`` builds it."""
    import numpy as np

    from emomusic.mapping import EmotionQuadrant, MappingTable, binarize
    from emomusic.pipeline import Pipeline, PipelineConfig
    from emomusic.training import load_checkpoint

    pipe = Pipeline(PipelineConfig.from_json(config))
    state, manifest = load_checkpoint(pipe.checkpoint_path)
    table = MappingTable.load(pipe.mapping_path)
    medians = np.asarray(manifest["medians"])
    return state, [binarize(table.vector_for(EmotionQuadrant[q]), medians)
                   for q in QUADRANTS]


def summary(values: list[float]) -> dict:
    return {"min": round(min(values), 2), "median": round(statistics.median(values), 2)}


def per_step(state, bits_by_quadrant, steps: int, repeats: int) -> tuple[dict, dict]:
    """Backbone step and softmax-plus-draw per row, in us, by B."""
    import numpy as np

    from emomusic import sampling
    from emomusic.autodiff import Tensor
    from emomusic.model import DecodeCache, ModelState, backbone, logits_from_hidden
    from emomusic.tokens import BOS, VOCAB_SIZE

    if hasattr(sampling, "decoder_weights"):
        decoder = sampling.decoder_weights(state)
    else:  # a tree whose state holds one array per parameter
        decoder = ModelState(state.config, {name: Tensor(p.data.astype(np.float64))
                                            for name, p in state.params.items()})
    per_row = hasattr(sampling, "SamplerConfig")  # a tree that takes one config per row
    step_us, draw_us = {}, {}
    for b in ROWS:
        bits = np.array([bits_by_quadrant[i % 4] for i in range(b)], dtype=float)
        ids = np.random.default_rng(b).integers(0, VOCAB_SIZE, size=(steps, b, 1))
        ids[0] = BOS
        p = [sampling.SamplerConfig(p=0.9)] * b if per_row else 0.9
        steps_us, draws_us = [], []
        for _ in range(repeats):
            cache = DecodeCache(state.config, b)
            rngs = [np.random.default_rng(i) for i in range(b)]
            for t in range(steps):
                start = time.perf_counter()
                hidden = backbone(decoder, ids[t], bits, cache=cache)
                steps_us.append((time.perf_counter() - start) * 1e6)
                logits = logits_from_hidden(decoder, hidden).data[:, 0]
                start = time.perf_counter()
                sampling.sample_rows(logits, p, rngs)
                draws_us.append((time.perf_counter() - start) * 1e6 / b)
        step_us[str(b)], draw_us[str(b)] = summary(steps_us), summary(draws_us)
    return step_us, draw_us


def generate_requests(config: Path, out: Path, repeats: int) -> dict:
    """The workload's four requests, with the decoding call timed."""
    from emomusic import cli, pipeline

    real = pipeline.generate_pieces
    calls = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        pieces = real(*args, **kwargs)
        calls.append((time.perf_counter() - start, sum(len(p) - 1 for p in pieces)))
        return pieces

    pipeline.generate_pieces = timed
    rounds = []
    try:
        for _ in range(repeats):
            del calls[:]
            for quadrant in QUADRANTS:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(["generate", "--config", str(config), "--emotion", quadrant,
                                 "--n", "4", "--out-dir", str(out / quadrant)]) != 0:
                        raise RuntimeError(f"generate --emotion {quadrant} failed")
            rounds.append((sum(s for s, _ in calls), sum(n for _, n in calls)))
    finally:
        pipeline.generate_pieces = real
    tokens = {n for _, n in rounds}
    assert len(tokens) == 1, f"the requests drew different token counts: {tokens}"
    ms = [s * 1e3 for s, _ in rounds]
    fastest, median = min(ms), statistics.median(ms)
    return {"requests": len(QUADRANTS), "pieces_per_request": 4, "tokens": tokens.pop(),
            "decode_ms": summary(ms), "decode_ms_rounds": [round(v, 3) for v in ms],
            "tokens_per_s": {"at_min": round(rounds[0][1] / fastest * 1e3, 1),
                             "at_median": round(rounds[0][1] / median * 1e3, 1)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree that holds the emomusic package")
    parser.add_argument("--label", default="",
                        help="what to call the timed tree in the output, e.g. a commit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_decode_step.json"))
    parser.add_argument("--corpus-seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--steps", type=int, default=64)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))

    import numpy as np

    import emomusic

    with tempfile.TemporaryDirectory() as work:
        config = generate_setup(Path(work), args.corpus_seed)
        state, bits = quadrant_bits(config)
        step_us, draw_us = per_step(state, bits, args.steps, args.repeats)
        generate = generate_requests(config, Path(work) / "requests", args.repeats)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "tool": "tools/bench_decode_step.py",
        "tree": args.label or str(Path(emomusic.__file__).resolve().parent.parent),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
        "corpus_seed": args.corpus_seed, "repeats": args.repeats, "steps": args.steps,
        "backbone_us": step_us, "draw_us_per_row": draw_us,
        "generate": generate,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

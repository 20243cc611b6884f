"""In-process A/B of this checkout's ``emomusic`` against another revision's.

    python tools/ab.py --base REV [--rounds 15] PROBE...

``git archive REV src/emomusic`` is unpacked and imported as ``emomusic_base``
beside ``emomusic``; every import inside ``src/emomusic`` is relative, so the
trees share no module. A probe sets up once per tree, each tree making its own
artifacts from the same corpus files, then calls the trees in turn, the base
first in even rounds. ``BENCH_ab_<probe>.json``, written to the current dir,
gives per figure each tree's ``min`` and ``median`` over the rounds, the [q1,
median, q3] of the paired ``ratio`` change / base, and the ``wins``: rounds in
which the change took less time (had the higher ``_per_s``). Per part it says
whether the trees' outputs were ``identical`` bytes in every round.

Probes, at the ``perfbench/workloads.py`` scales, corpus seed 1, pipeline seed 0:

- ``train``: run-cold's ``train`` stage, twice a round. Unpinned: ``train_s``
  and ``per_step_ms`` (``worker_call``, ``parent_combine`` up to ``clip``,
  ``clip``, ``adam``). Pinned to one CPU, so that ``Workers`` runs both shards
  here: ``per_shard_ms`` (``step``, its ``forward`` and ``backward``,
  ``embedding_backward``, attention and cross-entropy forward and backward).
- ``decode``: on the generate workload's model, 64 steps of random tokens and
  bits at B = 1, 4, 16 and 32 rows: ``backbone_us.B`` and ``draw_us_per_row.B``.
- ``generate``: ``generate --emotion Q --n 4`` for Q1 to Q4 via ``cli.main``:
  ``requests_ms``, ``decode_ms`` and ``tokens_per_s``; ``load_checkpoint_ms``.
- ``forest``: ``extract_ms_per_score`` and ``fit_s`` on the attributes corpus.

Per-call figures are medians over the round. A probe resolves the names it
calls in both trees before any set-up; a name that a tree lacks exits 2 and is
named. Both trees share process-wide settings: one BLAS thread, set before
numpy loads, and ``training._keep_heap``'s ``mallopt`` from the first
``train()`` of either. Forked workers run their own tree's code.
"""

import os

if __name__ == "__main__":  # before numpy loads: one BLAS thread for both trees
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402
from pkgutil import resolve_name  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import PIPELINE_SEED, QUADRANTS, WORKLOADS  # noqa: E402

BASE = "emomusic_base"
CORPUS_SEED = 1
DECODE_ROWS = (1, 4, 16, 32)
DECODE_STEPS = 64
LOADS = 8
# what train() is timed by: function -> (key, key of its backward, (earlier key, gap key))
STEP_WRAPS = {"pipeline.train": ("train",), "parallel.Workers.call": ("worker_call",),
              "training.clip_gradients": ("clip", None, ("worker_call", "parent_combine")),
              "training.Adam.step": ("adam",)}
SHARD_WRAPS = {"training._shard_step": ("step",),
               "training.forward_batch": ("forward_model",),
               "training.next_token_loss": ("forward_loss",),
               "autodiff.Tensor.backward": ("backward",),
               "model.embedding": ("embedding_forward", "embedding_backward"),
               "model._linear_attention": ("attention_forward", "attention_backward"),
               "model.cross_entropy": ("cross_entropy_forward", "cross_entropy_backward")}


def names(tree: str, *dotted: str) -> list:
    """The objects ``dotted`` names in ``tree``; ``LookupError(tree, missing)``
    lists every one not found."""
    found, missing = [], []
    for name in dotted:
        try:
            found.append(resolve_name(f"{tree}.{name}"))
        except (ImportError, AttributeError):
            missing.append(name)
    if missing:
        raise LookupError(tree, missing)
    return found


@contextlib.contextmanager
def base_tree(src: Path):
    """For the block, the package whose ``__init__.py`` is in ``src``, imported
    as ``emomusic_base``; its name is yielded."""
    spec = importlib.util.spec_from_file_location(BASE, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    sys.modules[BASE] = module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield BASE
    finally:
        for name in [n for n in sys.modules if n == BASE or n.startswith(BASE + ".")]:
            del sys.modules[name]


@contextlib.contextmanager
def clock(tree: str, wraps: dict):
    """For the block, each function ``wraps`` names appends its calls' ms to
    ``ms[key]`` of the dict it yields; ``STEP_WRAPS`` shows the other fields."""
    ms, ends = {}, {}

    def timed(real, key: str, backward_key: str | None = None, gap=None):
        def call(*args, **kwargs):
            start = time.perf_counter()
            if gap:
                ms.setdefault(gap[1], []).append((start - ends[gap[0]]) * 1e3)
            out = real(*args, **kwargs)
            ends[key] = end = time.perf_counter()
            ms.setdefault(key, []).append((end - start) * 1e3)
            tensor = out[0] if isinstance(out, tuple) else out  # (loss, count) or a Tensor
            if backward_key and tensor._backward is not None:
                tensor._backward = timed(tensor._backward, backward_key)
            return out
        return call

    with contextlib.ExitStack() as stack:
        for dotted, spec in wraps.items():
            real = resolve_name(f"{tree}.{dotted}")
            stack.enter_context(mock.patch(f"{tree}.{dotted}", timed(real, *spec)))
        yield ms


def clocked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the seconds it took."""
    start = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - start


def digest(*blobs: bytes) -> str:
    return hashlib.sha256(b"".join(blobs)).hexdigest()


def digest_outputs(root: Path) -> str:
    """The digest of every file's path and bytes under ``root``, ``stage_meta/`` aside."""
    return digest(*(str(f.relative_to(root)).encode() + f.read_bytes()
                    for f in sorted(root.rglob("*")) if f.is_file()
                    and f.parent.name != "stage_meta"))


def quiet(main, argv: list[str]) -> None:
    with contextlib.redirect_stdout(StringIO()):
        if main(argv) != 0:
            raise RuntimeError(f"command {argv} failed")


def corpus(work: Path, workload: str) -> Path:
    """The workload's corpus manifest, which this checkout's synth writes once."""
    manifest = work / workload / "manifest.json"
    if not manifest.exists():
        from emomusic.synth import SynthSpec, synth_corpus
        spec = dict(WORKLOADS[workload].corpus)
        n = spec.pop("n_per_quadrant")
        synth_corpus(SynthSpec(**spec), n, CORPUS_SEED, manifest.parent)
    return manifest


def config(work: Path, tree: str, workload: str) -> Path:
    """The workload's pipeline config for ``tree``, over an artifact dir of its own."""
    path = work / tree / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"artifact_dir": str(path.with_suffix("")), "seed": PIPELINE_SEED,
                                "corpus_manifest": str(corpus(work, workload)),
                                **WORKLOADS[workload].config}))
    return path


def train_probe(tree: str, work: Path):
    main, = names(tree, "cli.main", *STEP_WRAPS, *SHARD_WRAPS)[:1]
    yield
    path = config(work, tree, "run-cold")
    quiet(main, ["map-emotion", "--config", str(path)])
    art = path.with_suffix("")

    def timed_train(wraps):
        (art / "stage_meta" / "train.json").unlink(missing_ok=True)  # so that train runs
        with clock(tree, wraps) as ms:
            quiet(main, ["train", "--config", str(path)])
        return ms, digest_outputs(art)

    while True:
        steps, per_step = timed_train(STEP_WRAPS)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            shards, per_shard = timed_train(SHARD_WRAPS)
        finally:
            os.sched_setaffinity(0, cpus)
        train_s = steps.pop("train")[0] / 1e3
        # a forward is the model plus the loss; a call's attention layers are added
        shards["forward"] = [a + b for a, b in zip(shards.pop("forward_model"),
                                                   shards.pop("forward_loss"))]
        layers = len(shards["attention_forward"]) // len(shards["step"])
        for key in ("attention_forward", "attention_backward"):
            shards[key] = np.reshape(shards[key], (-1, layers)).sum(axis=1).tolist()
        yield ({"train_s": train_s,
                **{f"per_step_ms.{k}": statistics.median(v) for k, v in steps.items()},
                **{f"per_shard_ms.{k}": statistics.median(v) for k, v in shards.items()}},
               {"per_step": per_step, "per_shard": per_shard})


def decode_probe(tree: str, work: Path):
    (main, Pipeline, PipelineConfig, VOCAB_SIZE, load_checkpoint, decoder_weights, DecodeCache,
     BOS, backbone, logits_from_hidden, sample_rows) = names(
        tree, "cli.main", "pipeline.Pipeline", "pipeline.PipelineConfig", "tokens.VOCAB_SIZE",
        "training.load_checkpoint", "sampling.decoder_weights", "model.DecodeCache", "tokens.BOS",
        "model.backbone", "model.logits_from_hidden", "sampling.sample_rows")
    yield
    path = config(work, tree, "generate")
    quiet(main, ["train", "--config", str(path)])  # a hash-skip after the first
    pipe = Pipeline(PipelineConfig.from_json(path))
    state, _ = load_checkpoint(pipe.checkpoint_path)
    decoder = decoder_weights(state)
    while True:
        figures, parts = {}, {}
        for b in DECODE_ROWS:
            rng = np.random.default_rng(b)
            bits = rng.integers(0, 2, size=(b, state.config.attr_dim)).astype(float)
            ids = rng.integers(0, VOCAB_SIZE, size=(DECODE_STEPS, b, 1))
            ids[0] = BOS
            cache = DecodeCache(state.config, b)
            rngs = [np.random.default_rng(i) for i in range(b)]
            step_s, draw_s, hidden_bytes, drawn = [], [], [], []
            for t in range(DECODE_STEPS):
                hidden, seconds = clocked(backbone, decoder, ids[t], bits, cache=cache)
                step_s.append(seconds)
                logits = logits_from_hidden(decoder, hidden).data[:, 0]
                tokens, seconds = clocked(sample_rows, logits, pipe.config.sampler_p, rngs)
                draw_s.append(seconds / b)
                hidden_bytes.append(hidden.data.tobytes())
                drawn.append(tokens.tobytes())
            figures[f"backbone_us.{b}"] = statistics.median(step_s) * 1e6
            figures[f"draw_us_per_row.{b}"] = statistics.median(draw_s) * 1e6
            parts[f"backbone.{b}"] = digest(*hidden_bytes)
            parts[f"sample_rows.{b}"] = digest(*drawn)
        yield figures, parts


def generate_probe(tree: str, work: Path):
    main, Pipeline, PipelineConfig, load_checkpoint, generate_pieces = names(
        tree, "cli.main", "pipeline.Pipeline", "pipeline.PipelineConfig",
        "training.load_checkpoint", "pipeline.generate_pieces")
    yield
    path = config(work, tree, "generate")
    quiet(main, ["train", "--config", str(path)])  # a hash-skip after the first
    checkpoint = Pipeline(PipelineConfig.from_json(path)).checkpoint_path
    out = path.with_name("requests")
    calls = []

    def timed(*args, **kwargs):
        pieces, seconds = clocked(generate_pieces, *args, **kwargs)
        calls.append((seconds, sum(len(p) - 1 for p in pieces)))  # BOS is not drawn
        return pieces

    def requests():
        with mock.patch(f"{tree}.pipeline.generate_pieces", timed):
            for q in QUADRANTS:
                quiet(main, ["generate", "--config", str(path), "--emotion", q, "--n",
                             str(WORKLOADS["generate"].pieces), "--out-dir", str(out / q)])

    while True:
        calls.clear()
        _, requests_s = clocked(requests)
        loads = [clocked(load_checkpoint, checkpoint) for _ in range(LOADS)]
        decode_s, tokens = sum(s for s, _ in calls), sum(n for _, n in calls)
        yield ({"requests_ms": requests_s * 1e3, "decode_ms": decode_s * 1e3,
                "tokens_per_s": tokens / decode_s,
                "load_checkpoint_ms": statistics.median(s for _, s in loads) * 1e3},
               {"requests": digest_outputs(out),
                "load_checkpoint": digest(*(p.data.tobytes()
                                            for p in loads[-1][0][0].params.values()))})


def forest_probe(tree: str, work: Path):
    load_corpus_scores, extract_corpus, LabeledCorpus, ForestConfig, train_forest = names(
        tree, "pipeline.load_corpus_scores", "features.extract_corpus", "mapping.LabeledCorpus",
        "forest.ForestConfig", "forest.train_forest")
    yield
    scores, labels, _ = load_corpus_scores(corpus(work, "attributes"))
    forest_config = ForestConfig(n_trees=WORKLOADS["attributes"].config["forest_trees"],
                                 seed=PIPELINE_SEED)
    while True:
        matrix, extract_s = clocked(extract_corpus, scores)
        forest, fit_s = clocked(train_forest, LabeledCorpus(matrix, labels), forest_config)
        yield ({"extract_ms_per_score": extract_s * 1e3 / len(scores), "fit_s": fit_s},
               {"extract_features": digest(matrix.values.tobytes()),
                "train_forest": digest(*(a.tobytes() for t in forest.trees for a in
                                         (t.feature, t.threshold, t.left, t.right, t.counts)))})


PROBES = {"train": train_probe, "decode": decode_probe, "generate": generate_probe,
          "forest": forest_probe}


def summary(probe: str, revs: dict, rounds: list[tuple]) -> dict:
    """The BENCH_ab document of ``rounds``: per round, the base's and then the
    change's (figures, parts)."""
    def spread(values):
        return {"min": round(min(values), 4), "median": round(float(np.median(values)), 4)}

    figures = {}
    for name in rounds[0][0][0]:
        base, change = ([side[0][name] for side in r] for r in zip(*rounds))
        ratios = [c / b for b, c in zip(base, change)]
        higher = name.endswith("_per_s")
        figures[name] = {
            "base": spread(base), "change": spread(change),
            "ratio": [round(r, 4) for r in np.percentile(ratios, [25, 50, 75])],
            "wins": sum((c > b) if higher else (c < b) for b, c in zip(base, change))}
    return {"probe": probe, "base": revs[BASE], "change": revs["emomusic"],
            "rounds": len(rounds), "cpus": len(os.sched_getaffinity(0)), "figures": figures,
            "identical": {part: all(b[1][part] == c[1][part] for b, c in rounds)
                          for part in rounds[0][0][1]}}


def git(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=text)


def run(base_src: Path, base_rev: str, probes: list[str], rounds: int) -> int:
    """A/B each probe of the tree at ``base_src`` against this checkout's and
    write its file; 2 when a probe calls a name that a tree lacks."""
    revs = {BASE: base_rev, "emomusic": git("describe", "--always", "--dirty").stdout.strip()}
    with base_tree(base_src) as base, tempfile.TemporaryDirectory() as work:
        sides = {probe: [PROBES[probe](tree, Path(work)) for tree in (base, "emomusic")]
                 for probe in probes}
        try:
            for side in (side for pair in sides.values() for side in pair):
                next(side)  # the names, before any set-up
        except LookupError as exc:
            tree, missing = exc.args
            print(f"ab: {tree} at {revs[tree]} has no {', '.join(missing)}", file=sys.stderr)
            return 2
        for probe, pair in sides.items():
            results = []
            for r in range(rounds):  # the base first in even rounds
                got = {i: next(pair[i]) for i in (r % 2, 1 - r % 2)}
                results.append((got[0], got[1]))
            doc = summary(probe, revs, results)
            Path(f"BENCH_ab_{probe}.json").write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote BENCH_ab_{probe}.json; identical: {doc['identical']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("probes", nargs="+", choices=PROBES, metavar="PROBE",
                        help=", ".join(PROBES))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    archive = git("archive", f"{args.base}^{{commit}}", "src/emomusic", text=False)
    if archive.returncode:
        print(f"ab: cannot archive src/emomusic at {args.base}: "
              f"{archive.stderr.decode().strip()}", file=sys.stderr)
        return 2
    rev = git("rev-parse", "--short", f"{args.base}^{{commit}}").stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        return run(Path(tmp) / "src" / "emomusic", rev, args.probes, args.rounds)


if __name__ == "__main__":
    sys.exit(main())

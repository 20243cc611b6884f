"""The benchmark's workloads: how each is set up, what one timed iteration
runs through ``emomusic.cli.main``, and the output checks that iteration makes.

The workload seed only picks the synthetic corpus; every program command uses
the fixed pipeline seed below, so the program sees nothing but its inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from emomusic import cli
from emomusic.midi import parse_midi, write_midi

PIPELINE_SEED = 0
QUADRANTS = ("Q1", "Q2", "Q3", "Q4")


@dataclass(slots=True)
class Op:
    """One CLI command of the timed phase and whether it passed its checks."""

    command: str
    seconds: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(slots=True)
class Iteration:
    ops: list[Op]
    digest: str
    facts: dict = field(default_factory=dict)  # values read from the outputs
    speed_scale: float = 1.0  # to nominal machine speed, from the speed probe

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.speed_scale


class Runner:
    """Runs CLI commands in-process, each inside a benchmark span, and
    samples machine speed after each when given a probe."""

    def __init__(self, tracer, probe=None):
        self.tracer = tracer
        self.probe = probe

    def __call__(self, args: list[str]) -> tuple[Op, list[str]]:
        out = io.StringIO()
        index = len(self.tracer.spans)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = self.tracer.span(f"cli.{args[0]}", cli.main, [str(a) for a in args])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        op = Op(args[0], self.tracer.spans[index].seconds)
        if self.probe:
            self.probe.after(op.seconds)
        lines = out.getvalue().splitlines()
        if rc != 0:
            op.problems.append(f"exit {rc}: {lines[-1] if lines else ''}")
        return op, lines


def digest_dir(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def midi_problems(directory: Path, expected: int) -> list[str]:
    files = sorted(directory.glob("*.mid"))
    problems = [] if len(files) == expected else \
        [f"{len(files)} .mid files in {directory.name}, expected {expected}"]
    for path in files:
        data = path.read_bytes()
        if write_midi(parse_midi(data)) != data:
            problems.append(f"{path.name} does not round-trip")
    return problems


def final_loss(path: Path, last: int = 10) -> tuple[float, list[str]]:
    """Mean loss over the last logged steps, and any non-finite row found."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r[k]) for r in rows for k in ("lr", "loss")]
    problems = [] if rows and all(math.isfinite(v) for v in values) \
        else [f"{path.name} is empty or not finite"]
    losses = [float(r["loss"]) for r in rows[-last:]]
    return (sum(losses) / len(losses) if losses else float("nan")), problems


class Workload:
    """A named workload: the corpus it synthesises, the pipeline config its
    commands run with, and one timed iteration with its checks."""

    name = ""
    corpus: dict = {}
    config: dict = {}
    # Plain iterations that always run; two, so every run checks a repeat.
    min_plain = 2

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}  # first digest seen per output

    def paths(self, root: Path) -> tuple[Path, Path]:
        return root / "art", root / "config.json"

    def setup(self, root: Path, seed: int, run) -> None:
        """Write the corpus and config under root; runs in its own process."""
        art, config = self.paths(root)
        corpus = root / "corpus"
        op, _ = run(["synth-corpus", "--artifact-dir", art, "--out-dir", corpus,
                     "--seed", seed] + [x for k, v in self.corpus.items()
                                        for x in ("--" + k.replace("_", "-"), v)])
        if not op.ok:
            raise RuntimeError(f"setup synth-corpus failed: {op.problems}")
        doc = {"artifact_dir": str(art), "corpus_manifest": str(corpus / "manifest.json"),
               "seed": PIPELINE_SEED, **self.config}
        config.write_text(json.dumps(doc, indent=1) + "\n")

    def check_digest(self, key: str, digest: str, op: Op) -> None:
        """Outputs of a repeated command with the same inputs must be identical."""
        expected = self.reference.setdefault(key, digest)
        if digest != expected:
            op.problems.append(f"{key}: output digest changed between repeats")

    def iterate(self, root: Path, run) -> Iteration:
        raise NotImplementedError


class RunCold(Workload):
    """Every stage as a user runs it, one subcommand each, from an empty
    artifact dir. The only workload that trains, that evaluates, and that
    runs the cache's skip checks (each subcommand re-checks its upstream)."""

    name = "run-cold"
    corpus = {"n_per_quadrant": 100, "noise": 0.3}
    config = {"forest_trees": 50, "selection_k": 20, "model_size": "small",
              "train_steps": 60, "n_generate_per_quadrant": 4}
    commands = ("extract", "train-forest", "select-attrs", "map-emotion", "train",
                "evaluate")
    # Only two iterations fit in a run, and the mean of two follows one
    # iteration that hit a slow spell; the median of three does not.
    min_plain = 3

    def iterate(self, root: Path, run) -> Iteration:
        art, config = self.paths(root)
        shutil.rmtree(art, ignore_errors=True)
        ops = []
        for command in self.commands:
            op, lines = run([command, "--config", config])
            if op.ok and (not lines or lines[-1] != f"{command}: ran"):
                op.problems.append(f"expected '{command}: ran', got {lines[-1:]}")
            ops.append(op)
        train, evaluate = ops[4], ops[5]
        facts = {}
        if not all(op.ok for op in ops):
            return Iteration(ops, "", facts)
        facts["train_loss_final"], problems = final_loss(art / "loss_log.csv")
        train.problems += problems
        report = json.loads((art / "report.json").read_text())
        facts["objective_accuracy"] = report["objective_accuracy"]
        n = 4 * self.config["n_generate_per_quadrant"]
        if report["n_generated"] != n:
            evaluate.problems.append(f"n_generated {report['n_generated']} != {n}")
        evaluate.problems += midi_problems(art / "generated", n)
        stages = sorted(p.stem for p in (art / "stage_meta").glob("*.json"))
        if len(stages) != 8:
            evaluate.problems.append(f"stage_meta holds {stages}")
        digest = digest_dir(art)
        self.check_digest("artifacts", digest, evaluate)
        return Iteration(ops, digest, facts)


class Generate(Workload):
    """Requests 'generate --emotion Q --n 4', Q1 to Q4, on a model trained in
    set-up: decoding, checkpoint loads and MIDI writes, with no backward pass
    and no forest, so a model change that trades training speed for decoding
    speed shows here against run-cold."""

    name = "generate"
    corpus = {"n_per_quadrant": 50, "noise": 0.3}
    config = {"forest_trees": 20, "selection_k": 20, "model_size": "small",
              "train_steps": 30}
    pieces = 4

    def setup(self, root: Path, seed: int, run) -> None:
        super().setup(root, seed, run)
        op, _ = run(["train", "--config", self.paths(root)[1]])
        if not op.ok:
            raise RuntimeError(f"setup train failed: {op.problems}")

    def iterate(self, root: Path, run) -> Iteration:
        _, config = self.paths(root)
        ops, digests = [], []
        for quadrant in QUADRANTS:
            out = root / "requests" / quadrant
            shutil.rmtree(out, ignore_errors=True)
            op, _ = run(["generate", "--config", config, "--emotion", quadrant,
                         "--n", self.pieces, "--out-dir", out])
            if op.ok:
                op.problems += midi_problems(out, self.pieces)
                digests.append(digest_dir(out))
                self.check_digest(quadrant, digests[-1], op)
            ops.append(op)
        return Iteration(ops, hashlib.sha256("".join(digests).encode()).hexdigest())


class Attributes(Workload):
    """'map-emotion' from an empty artifact dir on noisier labels: split,
    features and the forest fit, with no transformer at all, so a training
    or decoding change must show no difference here."""

    name = "attributes"
    corpus = {"n_per_quadrant": 100, "noise": 0.3, "boundary_label_noise": 0.3}
    config = {"forest_trees": 25, "selection_k": 20}

    def iterate(self, root: Path, run) -> Iteration:
        art, config = self.paths(root)
        shutil.rmtree(art, ignore_errors=True)
        op, lines = run(["map-emotion", "--config", config])
        if op.ok:
            if not lines or lines[-1] != "map-emotion: ran":
                op.problems.append(f"expected 'map-emotion: ran', got {lines[-1:]}")
            stages = sorted(p.stem for p in (art / "stage_meta").glob("*.json"))
            if len(stages) != 5:
                op.problems.append(f"stage_meta holds {stages}")
        digest = ""
        if op.ok:
            digest = digest_dir(art)
            self.check_digest("artifacts", digest, op)
        return Iteration([op], digest)


WORKLOADS = {w.name: w for w in (RunCold, Generate, Attributes)}

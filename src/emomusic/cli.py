"""Command-line interface.

One subcommand per pipeline stage plus corpus plumbing:

    synth-corpus, split, extract, train-forest, select-attrs, map-emotion,
    train, generate, evaluate, analyze-bias, run

The stage commands come from the stage table in ``pipeline.py``: each runs
the table up to its stage, hash-skipping the fresh ones, and ``run`` runs all
of it. ``generate`` instead writes extra pieces from the saved model.
Configuration comes from a JSON file (--config) overridable by flags; a flag
wins when given and the file's value stands otherwise, so ``split`` follows
the config's split_ratios unless --ratios overrides them. Cache records
written by older versions do not match and their stages re-run once.
The artifact root defaults to $EMOMUSIC_ARTIFACT_DIR or ./artifacts.
Exit codes: 0 success, 1 usage error, 2 data error (also a bad config file or
a corrupt cache record), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import EmoMusicError
from .mapping import EmotionQuadrant, MappingTable, binarize
from .pipeline import STAGES, Pipeline, PipelineConfig
from .synth import SynthSpec, synth_corpus
from .training import load_checkpoint

# PipelineConfig fields the stage commands take as flags: a stage command
# takes those its table row reads, and `run` takes all but split_ratios.
_STAGE_FLAGS = ("split_ratios", "forest_trees", "selection_method", "selection_k",
                "mapping_method", "model_size", "train_steps", "batch_size",
                "base_lr", "warmup_steps", "sampler_p", "n_generate_per_quadrant")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="pipeline config JSON; flags override it")
    p.add_argument("--artifact-dir", help="artifact root "
                   f"(default $EMOMUSIC_ARTIFACT_DIR or ./artifacts)")
    p.add_argument("--corpus-manifest", help="corpus manifest JSON path")
    p.add_argument("--seed", type=int, help="global seed")


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _add_fields(p: argparse.ArgumentParser, names) -> None:
    """One flag per PipelineConfig field, typed like the field's default."""
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    for name in names:
        if name == "split_ratios":
            p.add_argument("--ratios", dest=name, type=_ratios, metavar="TRAIN,VALID,TEST",
                           help="split fractions (overrides the config)")
        else:
            p.add_argument("--" + name.replace("_", "-"), type=type(defaults[name]))


def _build_config(args) -> PipelineConfig:
    return PipelineConfig.from_json(args.config, **{
        f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)})


def build_parser() -> _Parser:
    parser = _Parser(prog="emomusic", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="write a synthetic labeled corpus")
    _add_common(p)
    p.add_argument("--out-dir", help="corpus directory (default <artifacts>/corpus)")
    p.add_argument("--n-per-quadrant", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--boundary-label-noise", type=float, default=0.0)

    p = sub.add_parser("generate", help="generate pieces from the mapping table")
    _add_common(p)
    p.add_argument("--emotion", choices=[q.name for q in EmotionQuadrant],
                   help="emotion quadrant to condition on")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--attr-file", help="JSON list of raw attribute values over "
                   "the selected dims, used instead of the mapping table")
    p.add_argument("--out-dir", help="output directory (default <artifacts>/generated)")
    _add_fields(p, ["sampler_p"])

    p = sub.add_parser("analyze-bias", help="center/boundary accuracy probe")
    _add_common(p)
    _add_fields(p, ["bias_n"])

    for stage in STAGES:
        if stage.name in sub.choices:  # the generate stage has no command of its own
            continue
        p = sub.add_parser(stage.name, help=f"pipeline stage: {stage.name}")
        _add_common(p)
        _add_fields(p, [f for f in _STAGE_FLAGS if f in stage.fields])
    p = sub.add_parser("run", help="every pipeline stage")
    _add_common(p)
    _add_fields(p, [f for f in _STAGE_FLAGS if f != "split_ratios"])
    return parser


def _cmd_synth(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir) if args.out_dir \
        else Path(config.artifact_dir) / "corpus"
    spec = SynthSpec(noise=args.noise,
                     boundary_label_noise=args.boundary_label_noise)
    manifest = synth_corpus(spec, args.n_per_quadrant, config.seed, out_dir)
    print(f"wrote corpus manifest {manifest}")
    return 0


def _cmd_generate(args, config: PipelineConfig) -> int:
    pipe = Pipeline(config)
    state, manifest = load_checkpoint(pipe.checkpoint_path)
    medians = np.asarray(manifest["medians"])
    out_dir = Path(args.out_dir) if args.out_dir else pipe.generated_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.attr_file:
        values = np.asarray(json.loads(Path(args.attr_file).read_text()), dtype=float)
        bits_by_name = {"custom": binarize(values, medians)}
    else:
        table = MappingTable.load(pipe.mapping_path)
        quadrants = [EmotionQuadrant[args.emotion]] if args.emotion \
            else list(EmotionQuadrant)
        bits_by_name = {q.name: binarize(table.vector_for(q), medians)
                        for q in quadrants}

    for name, bits in bits_by_name.items():
        name_key = sum(name.encode())  # stable across interpreter runs
        for path, n_notes in pipe.write_pieces(state, bits, out_dir, f"cli_{name}",
                                               [config.seed, 13, name_key], args.n):
            print(f"wrote {path} ({n_notes} notes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "synth-corpus":
            return _cmd_synth(args, config)
        if args.command == "generate":
            return _cmd_generate(args, config)

        pipe = Pipeline(config)
        if args.command == "analyze-bias":
            print(json.dumps(pipe.analyze_bias(), indent=1))
        elif args.command == "run":
            result = pipe.run()
            print(json.dumps(result["stages"], indent=1))
            print(json.dumps(result["report"], indent=1))
        else:  # a stage command: the table up to that stage
            status = pipe.run(until=args.command)["stages"]
            print(f"{args.command}: {status[args.command]}")
        return 0
    except EmoMusicError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

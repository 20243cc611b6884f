"""Command-line interface.

One subcommand per pipeline stage plus corpus plumbing:

    synth-corpus, split, extract, train-forest, select-attrs, map-emotion,
    train, generate, evaluate, analyze-bias, run

The stage commands come from the stage table in ``pipeline.py``: each runs
its stage and every stage that stage depends on, hash-skipping the fresh
ones. ``run`` runs the table through evaluate, and ``analyze-bias`` runs the
bias stage the same way and prints its report. ``generate`` instead writes
extra pieces from the saved model.
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

from .errors import EmoMusicError, read_json
from .mapping import EmotionQuadrant, MappingTable, binarize
from .pipeline import STAGES, Pipeline, PipelineConfig, with_deps
from .synth import SynthSpec, synth_corpus
from .training import load_checkpoint

# PipelineConfig fields the stage commands take as flags: a stage command
# takes those its table row reads, `analyze-bias` those the rows the bias row
# depends on read, and `run` takes all but split_ratios.
_STAGE_FLAGS = ("split_ratios", "forest_trees", "selection_method", "selection_k",
                "mapping_method", "model_size", "train_steps", "batch_size",
                "base_lr", "warmup_steps", "sampler_p", "n_generate_per_quadrant")


def _flags_of(rows) -> list[str]:
    """The stage flags that any of the table rows ``rows`` reads."""
    return [f for f in _STAGE_FLAGS if any(f in row.fields for row in rows)]


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


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", help="corpus directory (default <artifacts>/corpus)")
    p.add_argument("--n-per-quadrant", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--boundary-label-noise", type=float, default=0.0)


def _generate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emotion", choices=[q.name for q in EmotionQuadrant],
                   help="emotion quadrant to condition on")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--attr-file", help="JSON list of raw attribute values over "
                   "the selected dims, used instead of the mapping table")
    p.add_argument("--out-dir", help="output directory (default <artifacts>/generated)")
    _add_fields(p, ["sampler_p"])


def _fields_args(names: list[str]):
    return lambda p: _add_fields(p, names)


# every command, in the order usage and --help list them: its name, its help
# and what adds its own arguments after the common ones
_COMMANDS = (
    ("synth-corpus", "write a synthetic labeled corpus", _synth_args),
    ("generate", "generate pieces from the mapping table", _generate_args),
    ("analyze-bias", "center/boundary accuracy probe",
     _fields_args(_flags_of(with_deps("bias")[:-1]) + ["bias_n"])),
    # the generate stage has no command of its own, and analyze-bias runs bias
    *((stage.name, f"pipeline stage: {stage.name}", _fields_args(_flags_of([stage])))
      for stage in STAGES if stage.name not in ("generate", "bias")),
    ("run", "every pipeline stage",
     _fields_args([f for f in _STAGE_FLAGS if f != "split_ratios"])),
)
_NAMES = [name for name, _, _ in _COMMANDS]


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of ``command``'s subparser alone.

    ``main`` builds only the named command's subparser; --help, -h and an
    unknown or missing command build them all. Either way the top-level usage
    line names every command, so usage errors print the same bytes."""
    parser = _Parser(prog="emomusic", description=__doc__,  # the --help text
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # argparse writes the choices as "{a,b,...}"; a narrowed parser's metavar
    # spells the same line. Kept off the full parser, whose errors name the
    # action by its metavar when it has one.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=command and "{" + ",".join(_NAMES) + "}")
    for name, text, add_args in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            _add_common(p)
            add_args(p)
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
    """Every input is read and checked before any directory is made."""
    if args.n < 1:
        raise EmoMusicError(f"--n must be at least 1, not {args.n}")
    pipe = Pipeline(config)
    state, manifest = load_checkpoint(pipe.checkpoint_path)
    medians = np.asarray(manifest["medians"])

    if args.attr_file:
        path = Path(args.attr_file)
        custom = read_json(path, "attribute file")
        # true and false would pass as 1 and 0, and NaN as bit 0
        if not isinstance(custom, list) or any(type(v) not in (int, float) for v in custom):
            raise EmoMusicError(f"attribute file {path} must hold a JSON list of numbers")
        if len(custom) != len(medians):
            raise EmoMusicError(f"attribute file {path} holds {len(custom)} values; "
                                f"the model takes {len(medians)}")
        try:
            vector = np.asarray(custom, dtype=float)
        except OverflowError:  # an integer beyond the float range
            vector = np.array([np.inf])
        if not np.isfinite(vector).all():
            raise EmoMusicError(f"attribute file {path} holds a value that is not "
                                f"a finite number")
        values = {"custom": vector}
    else:
        table = MappingTable.load(pipe.mapping_path)
        if table.indices != manifest["indices"]:
            raise EmoMusicError(
                f"mapping file {pipe.mapping_path} maps other attributes than the ones "
                f"checkpoint {pipe.checkpoint_path.with_suffix('.json')} was trained on; "
                f"run train to train on this mapping")
        quadrants = [EmotionQuadrant[args.emotion]] if args.emotion \
            else list(EmotionQuadrant)
        values = {q.name: table.vector_for(q) for q in quadrants}
    # sum(name.encode()) keys the seeds stably across interpreter runs
    requests = [(name, binarize(v, medians), [config.seed, 13, sum(name.encode())])
                for name, v in values.items()]
    out_dir = Path(args.out_dir) if args.out_dir else pipe.generated_dir
    for _, path, n_notes in pipe.write_pieces(state, requests, out_dir, "cli", args.n):
        print(f"wrote {path} ({n_notes} notes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help, or a first word that is no command, needs every subparser
    narrow = argv and argv[0] in _NAMES and not {"-h", "--help"} & set(argv)
    args = build_parser(argv[0] if narrow else None).parse_args(argv)
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
        else:  # a stage command: its stage and that stage's deps
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

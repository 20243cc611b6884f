"""Resumable pipeline: corpus -> features -> forest -> selection -> mapping ->
model training -> generation -> evaluation, with content-hash stage skipping.

``STAGES`` describes the pipeline once: one row per stage, in run order,
naming the config fields the stage reads, the stages it depends on, the
files outside ``artifact_dir`` it reads and the files it writes. ``Pipeline.run``
and the CLI stage commands iterate it. Every stage writes its outputs into
``artifact_dir`` together with a meta record ``stage_meta/<stage>.json``
holding its signature, the sha256 over

- ``{field: value}`` for each config field in its row, plus the feature
  catalog version;
- the name and bytes of each of its sources (the corpus manifest, and
  for "corpus" every MIDI file it lists);
- the name and bytes of every output of every stage in its ``deps``;
- the signatures recorded for its ``deps``.

A stage reads no artifact that is not an output of one of its ``deps``, so
the graph is stated once and no file a stage reads is left out of its
signature. The record also holds the sha256 of each output file. A stage is
skipped when its signature matches the record and every output still has its
recorded hash, so a missing or damaged output is rebuilt, not served.
Records written by older versions never match, so their stages re-run once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .evaluation import (
    bias_experiment,
    l1_distance_analysis,
    objective_accuracy,
    pca_project,
    predict_quadrants,
    save_projection_csv,
)
from .features import (
    CorpusMatrix,
    default_catalog,
    extract_corpus,
    extract_features,
    load_corpus_npz,
    save_corpus_csv,
    save_corpus_npz,
)
from .forest import (
    SELECTION_METHODS,
    ForestConfig,
    SelectionConfig,
    feature_importance,
    forest_from_json,
    forest_to_json,
    load_selection,
    save_selection,
    select_attributes,
    train_forest,
)
from .mapping import (
    MAPPING_METHODS,
    EmotionQuadrant,
    LabeledCorpus,
    MappingTable,
    QUADRANTS,
    Standardizer,
    binarize,
    compute_mapping,
)
from .midi import parse_midi, write_midi
from .model import ModelConfig, ModelState, init_state
from .parallel import fork_map
from .sampling import SamplerConfig, generate_pieces
from .score import Score, merge_tracks, midi_to_score, score_to_midi
from .tokens import score_to_tokens, save_vocabulary, tokens_to_score
from .training import TrainConfig, load_checkpoint, save_checkpoint, save_loss_log, train

ARTIFACT_DIR_ENV = "EMOMUSIC_ARTIFACT_DIR"


class EmptyManifest(EmoMusicError):
    pass


# the types a PipelineConfig field of each annotation accepts
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float),
                "tuple[float, float, float]": (list, tuple)}


@dataclass(slots=True)
class PipelineConfig:
    artifact_dir: str
    corpus_manifest: str
    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # attribute design
    forest_trees: int = 200
    selection_method: str = "topk"
    selection_k: int = 100
    # emotion-to-attribute mapping
    mapping_method: str = "closest"
    kmeans_clusters: int = 4
    # attribute-to-music model
    model_size: str = "small"  # small | large
    dtype: str = "float32"     # training precision; float64 for bit-level studies
    dropout: float = 0.1
    train_steps: int = 2500
    batch_size: int = 8
    base_lr: float = 1e-3
    warmup_steps: int = 100
    grad_clip_norm: float = 1.0
    # generation / evaluation
    sampler_p: float = 0.9
    sampler_temperature: float = 1.0
    max_generate_tokens: int = 256
    n_generate_per_quadrant: int = 25
    bias_n: int = 25

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise EmoMusicError(f"config field {f.name} must be of type {f.type}, "
                                    f"not {value!r}")
        ratios = self.split_ratios = tuple(self.split_ratios)
        for name, ok, rule in (
                ("split_ratios", len(ratios) == 3
                 and all(type(r) in (int, float) for r in ratios)
                 and abs(sum(ratios) - 1.0) <= 1e-9, "three numbers summing to 1"),
                ("model_size", self.model_size in ("small", "large"), "'small' or 'large'"),
                ("dtype", self.dtype in ("float32", "float64"), "'float32' or 'float64'"),
                ("batch_size", self.batch_size >= 1, "at least 1"),
                ("forest_trees", self.forest_trees >= 1, "at least 1"),
                ("selection_k", self.selection_k >= 1, "at least 1"),
                ("kmeans_clusters", self.kmeans_clusters >= 1, "at least 1"),
                ("train_steps", self.train_steps >= 1, "at least 1"),
                ("warmup_steps", self.warmup_steps >= 1, "at least 1"),
                ("dropout", 0 <= self.dropout < 1, "at least 0 and below 1"),
                ("base_lr", self.base_lr > 0, "above 0"),
                ("sampler_p", 0 < self.sampler_p <= 1, "in (0, 1]"),
                ("sampler_temperature", self.sampler_temperature > 0, "above 0"),
                ("max_generate_tokens", self.max_generate_tokens >= 1, "at least 1"),
                ("n_generate_per_quadrant", self.n_generate_per_quadrant >= 1,
                 "at least 1"),
                ("bias_n", self.bias_n >= 1, "at least 1"),
                ("selection_method", self.selection_method in SELECTION_METHODS,
                 "one of " + ", ".join(map(repr, SELECTION_METHODS))),
                ("mapping_method", self.mapping_method in MAPPING_METHODS,
                 "one of " + ", ".join(map(repr, MAPPING_METHODS)))):
            if not ok:
                raise EmoMusicError(f"config field {name} must be {rule}, "
                                    f"not {getattr(self, name)!r}")

    @classmethod
    def from_json(cls, path: str | Path | None, **overrides) -> "PipelineConfig":
        """The config in the JSON file at ``path`` (no file when None), where
        each override that is not None wins. artifact_dir falls back to
        $EMOMUSIC_ARTIFACT_DIR or ./artifacts, and corpus_manifest to
        <artifact_dir>/corpus/manifest.json."""
        doc = {}
        if path is not None:
            doc = read_json(path, "config file")
            if not isinstance(doc, dict):
                raise EmoMusicError(f"config file {path} must hold a JSON object")
            unknown = sorted(set(doc) - {f.name for f in fields(cls)})
            if unknown:
                raise EmoMusicError(f"config file {path}: unknown key(s) "
                                    f"{', '.join(unknown)}")
        doc.update({k: v for k, v in overrides.items() if v is not None})
        doc.setdefault("artifact_dir", default_artifact_dir())
        doc.setdefault("corpus_manifest",
                       str(Path(doc["artifact_dir"]) / "corpus" / "manifest.json"))
        return cls(**doc)

    def model_config(self, attr_dim: int) -> ModelConfig:
        if self.model_size == "small":
            return ModelConfig.small(attr_dim, dropout=self.dropout)
        return ModelConfig.large(attr_dim, dropout=self.dropout)

    def train_config(self) -> TrainConfig:
        return TrainConfig(batch_size=self.batch_size, base_lr=self.base_lr,
                           warmup_steps=self.warmup_steps, max_steps=self.train_steps,
                           grad_clip_norm=self.grad_clip_norm, seed=self.seed)

    def sampler_config(self, seed: int) -> SamplerConfig:
        return SamplerConfig(p=self.sampler_p, temperature=self.sampler_temperature,
                             max_tokens=self.max_generate_tokens, seed=seed)


def default_artifact_dir() -> str:
    return os.environ.get(ARTIFACT_DIR_ENV, "artifacts")


def load_manifest(path: str | Path) -> list[dict]:
    """The manifest's items, each a JSON object with a string "file" (relative
    to the manifest) and a string "label"."""
    doc = read_json(path, "manifest")
    items = doc.get("items") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise EmoMusicError(f"manifest {path} must hold a list of items")
    if not items:
        raise EmptyManifest(f"no corpus items in {path}")
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and isinstance(item.get("file"), str)
                and isinstance(item.get("label"), str)):
            raise EmoMusicError(f"manifest {path}: item {i} must be an object with "
                                'a string "file" and a string "label"')
    return items


def _read_score(manifest_path: Path, item: dict) -> Score:
    """The merged score of one manifest item; a file that does not parse
    raises EmoMusicError naming it."""
    path = manifest_path.parent / item["file"]
    try:
        return merge_tracks(midi_to_score(parse_midi(path.read_bytes())))
    except EmoMusicError as exc:
        raise EmoMusicError(f"{path}: {exc}") from exc


def load_corpus_scores(manifest_path: str | Path,
                       ) -> tuple[list[Score], list[EmotionQuadrant], list[str]]:
    manifest_path = Path(manifest_path)
    items = load_manifest(manifest_path)
    scores, labels, names = [], [], []
    for item in items:
        scores.append(_read_score(manifest_path, item))
        labels.append(EmotionQuadrant.from_name(item["label"]))
        names.append(item["file"])
    return scores, labels, names


def split_dataset(items: list[dict], ratios: tuple[float, float, float],
                  seed: int) -> dict[str, list[int]]:
    """Seeded shuffle + contiguous cut within each label. Returns manifest
    item indices per split."""
    if not items:
        raise EmptyManifest("cannot split an empty manifest")
    rng = np.random.default_rng(seed)
    groups: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item["label"], []).append(i)

    splits: dict[str, list[int]] = {"train": [], "valid": [], "test": []}
    cum = np.cumsum(ratios)
    for key in sorted(groups):
        idx = np.array(groups[key])
        idx = idx[rng.permutation(len(idx))]
        bounds = [0] + [int(np.floor(c * len(idx) + 1e-9)) for c in cum]
        for name, lo, hi in zip(("train", "valid", "test"), bounds, bounds[1:]):
            splits[name].extend(int(i) for i in idx[lo:hi])
    for name in splits:
        splits[name].sort()
    return splits


# -- the stage table -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Stage:
    name: str                 # as the CLI and stage_meta spell it
    method: str               # the Pipeline method, looked up when called
    fields: tuple[str, ...]   # PipelineConfig fields the stage reads
    deps: tuple[str, ...]     # earlier stages whose outputs it reads
    # Files outside artifact_dir it reads: "manifest" (the corpus manifest)
    # or "corpus" (that manifest and every MIDI file it lists).
    sources: tuple[str, ...]
    # Files it writes: paths under artifact_dir, or "generated"
    # (generated/manifest.json and every piece it lists).
    outputs: tuple[str, ...]


STAGES = (
    Stage("split", "stage_split", ("split_ratios", "seed"), (), ("manifest",),
          ("splits.json",)),
    Stage("extract", "stage_extract", (), (), ("corpus",),
          ("features.npz", "features.json", "features.csv", "labels.json",
           "vocabulary.json")),
    Stage("train-forest", "stage_train_forest", ("forest_trees", "seed"),
          ("split", "extract"), (), ("forest.json",)),
    Stage("select-attrs", "stage_select", ("selection_method", "selection_k", "seed"),
          ("train-forest",), (), ("selection.json",)),
    Stage("map-emotion", "stage_map", ("mapping_method", "kmeans_clusters", "seed"),
          ("split", "extract", "select-attrs"), (), ("mapping.json",)),
    Stage("train", "stage_train",
          ("model_size", "dtype", "dropout", "train_steps", "batch_size", "base_lr",
           "warmup_steps", "grad_clip_norm", "seed"),
          ("split", "extract", "map-emotion"), ("corpus",),
          ("checkpoint.npz", "checkpoint.json", "loss_log.csv")),
    Stage("generate", "stage_generate",
          ("n_generate_per_quadrant", "sampler_p", "sampler_temperature",
           "max_generate_tokens", "seed"),
          ("train", "map-emotion"), (), ("generated",)),
    Stage("evaluate", "stage_evaluate", (), ("generate", "train-forest", "select-attrs"),
          (), ("report.json", "distances.csv", "pca.csv")),
)


def _stage(body):
    """Turn a stage body into its stage method, which runs the body unless
    the stage is fresh and returns "ran" or "skipped". The table row is the
    one whose ``method`` is the body's name."""
    stage = next(s for s in STAGES if s.method == body.__name__)

    @functools.wraps(body)
    def method(self) -> str:
        return self._run_stage(stage, lambda: body(self))

    return method


class Pipeline:
    """Executes the staged run; every stage is also callable on its own."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.art = Path(config.artifact_dir)
        self.art.mkdir(parents=True, exist_ok=True)
        self.manifest_path = Path(config.corpus_manifest)
        self.catalog = default_catalog()

    # artifact paths
    @property
    def splits_path(self) -> Path:
        return self.art / "splits.json"

    @property
    def features_path(self) -> Path:
        return self.art / "features.npz"

    @property
    def labels_path(self) -> Path:
        return self.art / "labels.json"

    @property
    def forest_path(self) -> Path:
        return self.art / "forest.json"

    @property
    def selection_path(self) -> Path:
        return self.art / "selection.json"

    @property
    def mapping_path(self) -> Path:
        return self.art / "mapping.json"

    @property
    def checkpoint_path(self) -> Path:
        return self.art / "checkpoint.npz"

    @property
    def generated_dir(self) -> Path:
        return self.art / "generated"

    @property
    def report_path(self) -> Path:
        return self.art / "report.json"

    def _paths(self, names: tuple[str, ...]) -> list[Path]:
        """The files behind row names: sources or outputs."""
        paths = []
        for name in names:
            if name == "manifest":
                paths.append(self.manifest_path)
            elif name in ("corpus", "generated"):
                manifest = self.manifest_path if name == "corpus" \
                    else self.generated_dir / "manifest.json"
                paths += [manifest] + [manifest.parent / item["file"]
                                       for item in load_manifest(manifest)]
            else:
                paths.append(self.art / name)
        return paths

    def _record(self, name: str) -> dict:
        """The stage's meta record; empty when it has none."""
        path = self.art / "stage_meta" / f"{name}.json"
        if not path.exists():
            return {}
        try:
            return read_json(path, "cache record", keys=("signature",))
        except EmoMusicError as exc:
            raise EmoMusicError(f"{exc}; delete it to re-run the stage") from exc

    def _output_hashes(self, stage: Stage) -> dict[str, str | None]:
        """sha256 of each output file; None for one that is missing, and for
        "generated" when its manifest is missing or does not parse."""
        hashes = {}
        for name in stage.outputs:
            try:
                paths = self._paths((name,))
            except (EmoMusicError, OSError):
                hashes[name] = None
                continue
            for path in paths:
                hashes[str(path.relative_to(self.art))] = \
                    hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        return hashes

    def _signature(self, stage: Stage) -> str:
        h = hashlib.sha256()
        h.update(json.dumps({
            "fields": {f: getattr(self.config, f) for f in stage.fields},
            "catalog": self.catalog.version,
            "deps": {d: self._record(d).get("signature") for d in stage.deps},
        }, sort_keys=True).encode())
        names = stage.sources + tuple(name for dep in STAGES if dep.name in stage.deps
                                      for name in dep.outputs)
        for p in self._paths(names):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    def _run_stage(self, stage: Stage, body) -> str:
        signature = self._signature(stage)
        record = self._record(stage.name)
        if record.get("signature") == signature and \
                record.get("outputs") == self._output_hashes(stage):
            return "skipped"
        try:
            body()
        except EmoMusicError as exc:
            raise EmoMusicError(f"stage {stage.name}: {exc}") from exc
        meta_path = self.art / "stage_meta" / f"{stage.name}.json"
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        meta_path.write_text(json.dumps(
            {"signature": signature, "outputs": self._output_hashes(stage)}) + "\n")
        return "ran"

    def run(self, until: str | None = None) -> dict:
        """Run the stages in table order, through ``until`` when given;
        fresh stages are hash-skipped."""
        status = {}
        for stage in STAGES:
            status[stage.name] = getattr(self, stage.method)()
            if stage.name == until:
                break
        report = read_json(self.report_path, "report") if "evaluate" in status else None
        return {"stages": status, "report": report, "artifact_dir": str(self.art)}

    # -- stages --------------------------------------------------------------

    @_stage
    def stage_split(self):
        splits = split_dataset(load_manifest(self.manifest_path),
                               self.config.split_ratios, self.config.seed)
        self.splits_path.write_text(json.dumps(splits, indent=1) + "\n")

    @_stage
    def stage_extract(self):
        items = load_manifest(self.manifest_path)
        labels = [EmotionQuadrant.from_name(item["label"]).name for item in items]

        def features_of(item: dict) -> tuple[np.ndarray, bool]:
            vector = extract_features(_read_score(self.manifest_path, item), self.catalog)
            return vector.values, vector.empty

        rows = fork_map(features_of, items)  # only the rows come back from the workers
        matrix = CorpusMatrix(np.stack([values for values, _ in rows]),
                              self.catalog.version, [empty for _, empty in rows])
        save_corpus_npz(self.features_path, matrix)
        save_corpus_csv(self.art / "features.csv", matrix, self.catalog)
        self.labels_path.write_text(json.dumps(
            {"labels": labels, "files": [item["file"] for item in items]}, indent=1) + "\n")
        save_vocabulary(self.art / "vocabulary.json")

    def _labeled_corpus(self, rows: list[int] | None = None) -> LabeledCorpus:
        matrix = load_corpus_npz(self.features_path)
        labels = [EmotionQuadrant.from_name(name)
                  for name in read_json(self.labels_path, "labels file")["labels"]]
        if rows is not None:
            matrix = replace_rows(matrix, rows)
            labels = [labels[i] for i in rows]
        return LabeledCorpus(matrix, labels)

    def _train_rows(self) -> list[int]:
        return read_json(self.splits_path, "splits file")["train"]

    @_stage
    def stage_train_forest(self):
        corpus = self._labeled_corpus(self._train_rows())
        forest = train_forest(corpus, ForestConfig(n_trees=self.config.forest_trees,
                                                   seed=self.config.seed))
        forest_to_json(forest, self.forest_path)

    @_stage
    def stage_select(self):
        cfg = self.config
        sel_cfg = SelectionConfig(method=cfg.selection_method, k=cfg.selection_k,
                                  seed=cfg.seed)
        ranking = feature_importance(forest_from_json(self.forest_path))
        indices = select_attributes(ranking, self.catalog, sel_cfg)
        save_selection(self.selection_path, self.catalog.version, sel_cfg, indices)

    @_stage
    def stage_map(self):
        cfg = self.config
        indices = load_selection(self.selection_path)["indices"]
        corpus = self._labeled_corpus(self._train_rows())
        table = compute_mapping(corpus, indices, method=cfg.mapping_method,
                                k_clusters=cfg.kmeans_clusters, seed=cfg.seed)
        table.save(self.mapping_path)

    @_stage
    def stage_train(self):
        cfg = self.config
        table = MappingTable.load(self.mapping_path)
        indices = table.indices
        medians = table.medians
        rows = self._train_rows()
        corpus = self._labeled_corpus(rows)
        items = load_manifest(self.manifest_path)
        model_cfg = cfg.model_config(attr_dim=len(indices))

        def tokens_of(item: dict) -> list[int]:
            return score_to_tokens(_read_score(self.manifest_path, item))[:model_cfg.max_len]

        token_lists = fork_map(tokens_of, [items[row] for row in rows])
        dataset = [(tokens, binarize(values[indices], medians))
                   for tokens, values in zip(token_lists, corpus.matrix.values)]
        state = init_state(model_cfg, seed=cfg.seed, dtype=np.dtype(cfg.dtype).type)
        state, log = train(state, dataset, cfg.train_config(),
                           log_every=max(1, cfg.train_steps // 200))
        save_checkpoint(self.checkpoint_path, state, step=cfg.train_steps,
                        catalog_version=self.catalog.version,
                        indices=list(indices), medians=medians)
        save_loss_log(self.art / "loss_log.csv", log)

    def write_pieces(self, state: ModelState, requests: list, out_dir: Path,
                     prefix: str, n: int):
        """For each ``(name, bits, seed_key)`` in ``requests``, generate ``n``
        pieces conditioned on ``bits`` as ``out_dir/<prefix>_<name>_<i>.mid``,
        piece i seeded from ``seed_key + [i]``. All pieces are decoded before
        any is written; yields each request name, path and note count."""
        jobs = [(name, bits, i, self.config.sampler_config(
                    int(np.random.SeedSequence(seed_key + [i]).generate_state(1)[0])))
                for name, bits, seed_key in requests for i in range(n)]
        pieces = generate_pieces(state, np.array([bits for _, bits, _, _ in jobs]),
                                 [cfg for _, _, _, cfg in jobs])
        for (name, _, i, _), tokens in zip(jobs, pieces):
            score, _ = tokens_to_score(tokens)
            path = out_dir / f"{prefix}_{name}_{i:04d}.mid"
            path.write_bytes(write_midi(score_to_midi(score)))
            yield name, path, len(score.notes)

    @_stage
    def stage_generate(self):
        cfg = self.config
        state, manifest = load_checkpoint(self.checkpoint_path)
        table = MappingTable.load(self.mapping_path)
        medians = np.asarray(manifest["medians"])
        self.generated_dir.mkdir(parents=True, exist_ok=True)
        requests = [(q.name, binarize(table.vector_for(q), medians), [cfg.seed, 7, q.value])
                    for q in QUADRANTS]
        items = [{"file": path.name, "label": name}
                 for name, path, _ in self.write_pieces(state, requests, self.generated_dir,
                                                        "gen", cfg.n_generate_per_quadrant)]
        (self.generated_dir / "manifest.json").write_text(
            json.dumps({"items": items}, indent=1) + "\n")

    @_stage
    def stage_evaluate(self):
        scores, intended, _ = load_corpus_scores(self.generated_dir / "manifest.json")
        matrix = extract_corpus(scores, self.catalog)
        predicted = predict_quadrants(forest_from_json(self.forest_path), matrix)
        accuracy = objective_accuracy(predicted, intended)
        per_quadrant = {}
        for quadrant in QUADRANTS:
            hits = [p == quadrant for p, q in zip(predicted, intended) if q == quadrant]
            if hits:
                per_quadrant[quadrant.name] = sum(hits) / len(hits)

        indices = load_selection(self.selection_path)["indices"]
        selected = matrix.values[:, indices]
        distance_doc = None
        if min(intended.count(q) for q in set(intended)) >= 2:
            z = Standardizer.fit(selected).transform(selected)
            distance = l1_distance_analysis(z, intended)
            distance.curves_to_csv(self.art / "distances.csv")
            distance_doc = {"intra_mean": distance.intra_mean,
                            "inter_mean": distance.inter_mean,
                            "gap": distance.gap}
        else:
            (self.art / "distances.csv").write_text("kind,rank,l1_distance\n")
        if len(scores) >= 3:
            save_projection_csv(self.art / "pca.csv", pca_project(selected), intended)
        else:
            (self.art / "pca.csv").write_text("pc1,pc2,label\n")

        report = {
            "objective_accuracy": accuracy,
            "n_generated": len(scores),
            "per_quadrant_accuracy": per_quadrant,
            "distance": distance_doc,
        }
        self.report_path.write_text(json.dumps(report, indent=1) + "\n")

    def analyze_bias(self, n: int | None = None) -> dict:
        """Center/boundary probe over the full corpus; retrains a forest on all
        rows so out-of-bag votes are available for the real-sample side.
        Brings extract and train up to date first, so a changed corpus is not
        reported on from the old one's features and checkpoint."""
        self.run(until="train")
        cfg = self.config
        corpus = self._labeled_corpus()
        forest = train_forest(corpus, ForestConfig(n_trees=cfg.forest_trees,
                                                   seed=cfg.seed + 1))
        state, manifest = load_checkpoint(self.checkpoint_path)
        medians = np.asarray(manifest["medians"])
        indices = manifest["indices"]
        report = bias_experiment(
            corpus, indices, state, medians, forest, n or cfg.bias_n,
            self.config.sampler_config(cfg.seed + 11))
        (self.art / "bias_report.json").write_text(json.dumps(report, indent=1) + "\n")
        return report


def replace_rows(matrix, rows: list[int]):
    return CorpusMatrix(matrix.values[rows], matrix.catalog_version,
                        [matrix.empty_flags[i] for i in rows])

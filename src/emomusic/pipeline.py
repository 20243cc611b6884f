"""Resumable pipeline: corpus -> features -> forest -> selection -> mapping ->
model training -> generation -> evaluation, with content-hash stage skipping.

``STAGES`` describes the pipeline once: one row per stage, in run order,
naming the config fields the stage reads, the stages it depends on and the
files it reads and writes. ``Pipeline.run`` and the CLI stage commands
iterate it. Every stage writes its outputs into ``artifact_dir`` together
with a meta record ``stage_meta/<stage>.json`` holding its signature, the
sha256 over

- ``{field: value}`` for each config field in its row, plus the feature
  catalog version;
- the name and bytes of each file it reads;
- the signatures recorded for its ``deps``.

A stage is skipped when its signature matches the record and its outputs
exist. Through the ``deps`` chain no output file can stand in for a model it
did not come from. Records written by older versions never match, so their
stages re-run once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import EmoMusicError
from .evaluation import (
    ForestObjectiveClassifier,
    bias_experiment,
    l1_distance_analysis,
    objective_accuracy,
    pca_project,
    save_projection_csv,
)
from .features import (
    default_catalog,
    extract_corpus,
    load_corpus_npz,
    save_corpus_csv,
    save_corpus_npz,
)
from .forest import (
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
from .sampling import SamplerConfig, generate_from_bits
from .score import QuantizationConfig, Score, merge_tracks, midi_to_score, score_to_midi
from .tokens import score_to_tokens, save_vocabulary, tokens_to_score
from .training import TrainConfig, load_checkpoint, save_checkpoint, save_loss_log, train

ARTIFACT_DIR_ENV = "EMOMUSIC_ARTIFACT_DIR"


class EmptyManifest(EmoMusicError):
    pass


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
        if len(self.split_ratios) != 3 or abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise EmoMusicError("split ratios must be three numbers summing to 1")
        if self.model_size not in ("small", "large"):
            raise EmoMusicError("model_size must be 'small' or 'large'")

    @classmethod
    def from_json(cls, path: str | Path | None, **overrides) -> "PipelineConfig":
        """The config in the JSON file at ``path`` (no file when None), where
        each override that is not None wins. artifact_dir falls back to
        $EMOMUSIC_ARTIFACT_DIR or ./artifacts, and corpus_manifest to
        <artifact_dir>/corpus/manifest.json."""
        doc = {}
        if path is not None:
            try:
                doc = json.loads(Path(path).read_text())
            except ValueError as exc:
                raise EmoMusicError(f"config file {path} is not valid JSON: {exc}") from exc
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
        if "split_ratios" in doc:
            doc["split_ratios"] = tuple(doc["split_ratios"])
        return cls(**doc)

    def to_json(self, path: str | Path) -> None:
        doc = asdict(self)
        doc["split_ratios"] = list(self.split_ratios)
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")

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
    doc = json.loads(Path(path).read_text())
    items = doc["items"] if isinstance(doc, dict) else doc
    if not items:
        raise EmptyManifest(f"no corpus items in {path}")
    return items


def load_corpus_scores(manifest_path: str | Path,
                       ) -> tuple[list[Score], list[EmotionQuadrant], list[str]]:
    manifest_path = Path(manifest_path)
    items = load_manifest(manifest_path)
    scores, labels, names = [], [], []
    for item in items:
        raw = (manifest_path.parent / item["file"]).read_bytes()
        scores.append(merge_tracks(midi_to_score(parse_midi(raw))))
        labels.append(EmotionQuadrant.from_name(item["label"]))
        names.append(item["file"])
    return scores, labels, names


def split_dataset(items: list[dict], ratios: tuple[float, float, float],
                  seed: int) -> dict[str, list[int]]:
    """Seeded shuffle + contiguous cut, stratified per quadrant when labels
    exist. Returns manifest item indices per split."""
    if not items:
        raise EmptyManifest("cannot split an empty manifest")
    rng = np.random.default_rng(seed)
    labeled = all("label" in item for item in items)
    groups: dict[str, list[int]]
    if labeled:
        groups = {}
        for i, item in enumerate(items):
            groups.setdefault(item["label"], []).append(i)
    else:
        groups = {"all": list(range(len(items)))}

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
    deps: tuple[str, ...]     # earlier stages whose signatures it chains
    # Files it reads: paths under artifact_dir, or "manifest" (the corpus
    # manifest), "corpus" (that manifest and every MIDI file it lists) or
    # "generated" (generated/manifest.json and every piece it lists).
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]  # files it writes, under artifact_dir


STAGES = (
    Stage("split", "stage_split", ("split_ratios", "seed"), (), ("manifest",),
          ("splits.json",)),
    Stage("extract", "stage_extract", (), (), ("corpus",),
          ("features.npz", "features.json", "features.csv", "labels.json")),
    Stage("train-forest", "stage_train_forest", ("forest_trees", "seed"),
          ("split", "extract"), ("features.npz", "labels.json", "splits.json"),
          ("forest.json",)),
    Stage("select-attrs", "stage_select", ("selection_method", "selection_k", "seed"),
          ("train-forest",), ("forest.json",), ("selection.json",)),
    Stage("map-emotion", "stage_map", ("mapping_method", "kmeans_clusters", "seed"),
          ("split", "extract", "select-attrs"),
          ("selection.json", "features.npz", "labels.json", "splits.json"),
          ("mapping.json",)),
    Stage("train", "stage_train",
          ("model_size", "dtype", "dropout", "train_steps", "batch_size", "base_lr",
           "warmup_steps", "grad_clip_norm", "seed"),
          ("split", "extract", "map-emotion"),
          ("mapping.json", "features.npz", "splits.json", "corpus"),
          ("checkpoint.npz", "checkpoint.json", "loss_log.csv")),
    Stage("generate", "stage_generate",
          ("n_generate_per_quadrant", "sampler_p", "sampler_temperature",
           "max_generate_tokens", "seed"),
          ("train", "map-emotion"), ("checkpoint.npz", "mapping.json"),
          ("generated/manifest.json",)),
    Stage("evaluate", "stage_evaluate", (), ("generate", "train-forest", "select-attrs"),
          ("generated", "forest.json", "selection.json"),
          ("report.json", "distances.csv", "pca.csv")),
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
        self.grid = QuantizationConfig()

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

    def _input_paths(self, names: tuple[str, ...]) -> list[Path]:
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

    def _recorded_signature(self, name: str) -> str | None:
        path = self.art / "stage_meta" / f"{name}.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())["signature"]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmoMusicError(f"corrupt cache record {path} ({exc!r}); "
                                "delete it to re-run the stage") from exc

    def _signature(self, stage: Stage) -> str:
        h = hashlib.sha256()
        h.update(json.dumps({
            "fields": {f: getattr(self.config, f) for f in stage.fields},
            "catalog": self.catalog.version,
            "deps": {d: self._recorded_signature(d) for d in stage.deps},
        }, sort_keys=True).encode())
        for p in sorted(self._input_paths(stage.inputs), key=str):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    def _run_stage(self, stage: Stage, body) -> str:
        signature = self._signature(stage)
        if self._recorded_signature(stage.name) == signature and \
                all((self.art / p).exists() for p in stage.outputs):
            return "skipped"
        try:
            body()
        except EmoMusicError as exc:
            raise EmoMusicError(f"stage {stage.name}: {exc}") from exc
        meta_path = self.art / "stage_meta" / f"{stage.name}.json"
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        meta_path.write_text(json.dumps(
            {"signature": signature, "outputs": list(stage.outputs)}) + "\n")
        return "ran"

    def run(self, until: str | None = None) -> dict:
        """Run the stages in table order, through ``until`` when given;
        fresh stages are hash-skipped."""
        status = {}
        for stage in STAGES:
            status[stage.name] = getattr(self, stage.method)()
            if stage.name == until:
                break
        report = json.loads(self.report_path.read_text()) if "evaluate" in status else None
        return {"stages": status, "report": report, "artifact_dir": str(self.art)}

    # -- stages --------------------------------------------------------------

    @_stage
    def stage_split(self):
        splits = split_dataset(load_manifest(self.manifest_path),
                               self.config.split_ratios, self.config.seed)
        self.splits_path.write_text(json.dumps(splits, indent=1) + "\n")

    @_stage
    def stage_extract(self):
        scores, labels, names = load_corpus_scores(self.manifest_path)
        matrix = extract_corpus(scores, self.catalog)
        save_corpus_npz(self.features_path, matrix)
        save_corpus_csv(self.art / "features.csv", matrix, self.catalog)
        self.labels_path.write_text(json.dumps(
            {"labels": [q.name for q in labels], "files": names}, indent=1) + "\n")
        save_vocabulary(self.art / "vocabulary.json")

    def _labeled_corpus(self, rows: list[int] | None = None) -> LabeledCorpus:
        matrix = load_corpus_npz(self.features_path)
        labels = [EmotionQuadrant.from_name(name)
                  for name in json.loads(self.labels_path.read_text())["labels"]]
        if rows is not None:
            matrix = replace_rows(matrix, rows)
            labels = [labels[i] for i in rows]
        return LabeledCorpus(matrix, labels)

    def _train_rows(self) -> list[int]:
        return json.loads(self.splits_path.read_text())["train"]

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
        scores, _, _ = load_corpus_scores(self.manifest_path)
        model_cfg = cfg.model_config(attr_dim=len(indices))
        dataset = []
        for local, row in enumerate(rows):
            tokens = score_to_tokens(scores[row], self.grid)[:model_cfg.max_len]
            bits = binarize(corpus.matrix.values[local][indices], medians)
            dataset.append((tokens, bits))
        state = init_state(model_cfg, seed=cfg.seed, dtype=np.dtype(cfg.dtype).type)
        state, log = train(state, dataset, cfg.train_config(),
                           log_every=max(1, cfg.train_steps // 200))
        save_checkpoint(self.checkpoint_path, state, step=cfg.train_steps,
                        catalog_version=self.catalog.version,
                        indices=list(indices), medians=medians)
        save_loss_log(self.art / "loss_log.csv", log)

    def write_pieces(self, state: ModelState, bits: np.ndarray, out_dir: Path,
                     prefix: str, seed_key: list[int], n: int):
        """Generate ``n`` pieces conditioned on ``bits`` as
        ``out_dir/<prefix>_<i>.mid``, piece i seeded from ``seed_key + [i]``;
        yields each path with its note count."""
        for i in range(n):
            seed = int(np.random.SeedSequence(seed_key + [i]).generate_state(1)[0])
            tokens = generate_from_bits(state, bits, self.config.sampler_config(seed))
            score, _ = tokens_to_score(tokens, self.grid)
            path = out_dir / f"{prefix}_{i:04d}.mid"
            path.write_bytes(write_midi(score_to_midi(score)))
            yield path, len(score.notes)

    @_stage
    def stage_generate(self):
        cfg = self.config
        state, manifest = load_checkpoint(self.checkpoint_path)
        table = MappingTable.load(self.mapping_path)
        medians = np.asarray(manifest["medians"])
        self.generated_dir.mkdir(parents=True, exist_ok=True)
        items = []
        for quadrant in QUADRANTS:
            bits = binarize(table.vector_for(quadrant), medians)
            for path, _ in self.write_pieces(state, bits, self.generated_dir,
                                             f"gen_{quadrant.name}",
                                             [cfg.seed, 7, quadrant.value],
                                             cfg.n_generate_per_quadrant):
                items.append({"file": path.name, "label": quadrant.name})
        (self.generated_dir / "manifest.json").write_text(
            json.dumps({"items": items}, indent=1) + "\n")

    @_stage
    def stage_evaluate(self):
        scores, intended, _ = load_corpus_scores(self.generated_dir / "manifest.json")
        clf = ForestObjectiveClassifier(forest_from_json(self.forest_path), self.catalog)
        accuracy = objective_accuracy(scores, intended, clf)
        per_quadrant = {}
        for quadrant in QUADRANTS:
            subset = [(s, q) for s, q in zip(scores, intended) if q == quadrant]
            if subset:
                per_quadrant[quadrant.name] = objective_accuracy(
                    [s for s, _ in subset], [q for _, q in subset], clf)

        indices = load_selection(self.selection_path)["indices"]
        selected = extract_corpus(scores, self.catalog).values[:, indices]
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
        rows so out-of-bag votes are available for the real-sample side."""
        cfg = self.config
        corpus = self._labeled_corpus()
        forest = train_forest(corpus, ForestConfig(n_trees=cfg.forest_trees,
                                                   seed=cfg.seed + 1))
        clf = ForestObjectiveClassifier(forest, self.catalog)
        state, manifest = load_checkpoint(self.checkpoint_path)
        medians = np.asarray(manifest["medians"])
        indices = manifest["indices"]
        report = bias_experiment(
            corpus, indices, state, medians, clf, n or cfg.bias_n,
            self.config.sampler_config(cfg.seed + 11), self.grid)
        report.to_json(self.art / "bias_report.json")
        return json.loads((self.art / "bias_report.json").read_text())


def replace_rows(matrix, rows: list[int]):
    from .features import CorpusMatrix
    return CorpusMatrix(matrix.values[rows], matrix.catalog_version,
                        [matrix.empty_flags[i] for i in rows])


def run_pipeline(config: PipelineConfig) -> dict:
    return Pipeline(config).run()

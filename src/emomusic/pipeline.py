"""Resumable pipeline: corpus -> features -> forest -> selection -> mapping ->
model training -> generation -> evaluation, with content-hash stage skipping.

Every stage writes its artifacts into ``artifact_dir`` together with a meta
record (sha256 over the stage's config slice and input files). Re-running
skips stages whose signature and outputs are unchanged; stale artifacts are
therefore detected rather than silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
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
from .model import ModelConfig, init_state
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
    workers: int = 1
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
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise EmoMusicError("split ratios must sum to 1")
        if self.model_size not in ("small", "large"):
            raise EmoMusicError("model_size must be 'small' or 'large'")

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "PipelineConfig":
        doc = json.loads(Path(path).read_text())
        doc.update({k: v for k, v in overrides.items() if v is not None})
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


# -- stage plumbing ----------------------------------------------------------


def _signature(config_slice: dict, input_paths: list[Path]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(config_slice, sort_keys=True).encode())
    for p in sorted(input_paths, key=str):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _stage_fresh(meta_path: Path, signature: str, outputs: list[Path]) -> bool:
    if not meta_path.exists():
        return False
    meta = json.loads(meta_path.read_text())
    return meta.get("signature") == signature and all(p.exists() for p in outputs)


def _write_meta(meta_path: Path, signature: str, outputs: list[Path]) -> None:
    meta_path.parent.mkdir(parents=True, exist_ok=True)
    meta_path.write_text(json.dumps(
        {"signature": signature, "outputs": [p.name for p in outputs]}) + "\n")


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

    def _corpus_files(self, manifest_path: Path) -> list[Path]:
        """The manifest and every MIDI file it lists."""
        items = load_manifest(manifest_path)
        return [manifest_path] + [manifest_path.parent / i["file"] for i in items]

    def _run_stage(self, name: str, config_slice: dict, inputs: list[Path],
                   outputs: list[Path], fn) -> str:
        signature = _signature(config_slice, inputs)
        meta_path = self.art / "stage_meta" / f"{name}.json"
        if _stage_fresh(meta_path, signature, outputs):
            return "skipped"
        try:
            fn()
        except EmoMusicError as exc:
            raise EmoMusicError(f"stage {name}: {exc}") from exc
        _write_meta(meta_path, signature, outputs)
        return "ran"

    # -- stages --------------------------------------------------------------

    def stage_split(self) -> str:
        cfg = self.config

        def fn():
            items = load_manifest(self.manifest_path)
            splits = split_dataset(items, cfg.split_ratios, cfg.seed)
            self.splits_path.write_text(json.dumps(splits, indent=1) + "\n")

        return self._run_stage(
            "split", {"ratios": list(cfg.split_ratios), "seed": cfg.seed},
            [self.manifest_path], [self.splits_path], fn)

    def stage_extract(self) -> str:
        cfg = self.config
        outputs = [self.features_path, self.features_path.with_suffix(".json"),
                   self.art / "features.csv", self.labels_path]

        def fn():
            scores, labels, names = load_corpus_scores(self.manifest_path)
            matrix = extract_corpus(scores, self.catalog, n_workers=cfg.workers)
            save_corpus_npz(self.features_path, matrix)
            save_corpus_csv(self.art / "features.csv", matrix, self.catalog)
            self.labels_path.write_text(json.dumps(
                {"labels": [q.name for q in labels], "files": names}, indent=1) + "\n")
            save_vocabulary(self.art / "vocabulary.json")

        return self._run_stage("extract", {"catalog": self.catalog.version},
                               self._corpus_files(self.manifest_path), outputs, fn)

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

    def stage_train_forest(self) -> str:
        cfg = self.config

        def fn():
            corpus = self._labeled_corpus(self._train_rows())
            forest = train_forest(corpus, ForestConfig(n_trees=cfg.forest_trees,
                                                       seed=cfg.seed))
            forest_to_json(forest, self.forest_path)

        return self._run_stage(
            "train-forest", {"n_trees": cfg.forest_trees, "seed": cfg.seed},
            [self.features_path, self.labels_path, self.splits_path],
            [self.forest_path], fn)

    def stage_select(self) -> str:
        cfg = self.config
        sel_cfg = SelectionConfig(method=cfg.selection_method, k=cfg.selection_k,
                                  seed=cfg.seed)

        def fn():
            forest = forest_from_json(self.forest_path)
            ranking = feature_importance(forest)
            indices = select_attributes(ranking, self.catalog, sel_cfg)
            save_selection(self.selection_path, self.catalog.version, sel_cfg, indices)

        return self._run_stage(
            "select-attrs",
            {"method": cfg.selection_method, "k": cfg.selection_k, "seed": cfg.seed},
            [self.forest_path], [self.selection_path], fn)

    def stage_map(self) -> str:
        cfg = self.config

        def fn():
            indices = load_selection(self.selection_path)["indices"]
            corpus = self._labeled_corpus(self._train_rows())
            table = compute_mapping(corpus, indices, method=cfg.mapping_method,
                                    k_clusters=cfg.kmeans_clusters, seed=cfg.seed)
            table.save(self.mapping_path)

        return self._run_stage(
            "map-emotion",
            {"method": cfg.mapping_method, "k_clusters": cfg.kmeans_clusters,
             "seed": cfg.seed},
            [self.selection_path, self.features_path, self.labels_path,
             self.splits_path],
            [self.mapping_path], fn)

    def stage_train(self) -> str:
        cfg = self.config
        outputs = [self.checkpoint_path, self.checkpoint_path.with_suffix(".json"),
                   self.art / "loss_log.csv"]

        def fn():
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
            state = init_state(model_cfg, seed=cfg.seed,
                               dtype=np.dtype(cfg.dtype).type)
            state, log = train(state, dataset, cfg.train_config(),
                               log_every=max(1, cfg.train_steps // 200))
            save_checkpoint(self.checkpoint_path, state, step=cfg.train_steps,
                            catalog_version=self.catalog.version,
                            indices=list(indices), medians=medians)
            save_loss_log(self.art / "loss_log.csv", log)

        return self._run_stage(
            "train",
            {"model_size": cfg.model_size, "dropout": cfg.dropout,
             "steps": cfg.train_steps, "batch": cfg.batch_size,
             "lr": cfg.base_lr, "warmup": cfg.warmup_steps, "seed": cfg.seed,
             "dtype": cfg.dtype, "grad_clip_norm": cfg.grad_clip_norm},
            [self.mapping_path, self.features_path, self.splits_path] +
            self._corpus_files(self.manifest_path),
            outputs, fn)

    def stage_generate(self) -> str:
        cfg = self.config
        gen_manifest = self.generated_dir / "manifest.json"

        def fn():
            state, manifest = load_checkpoint(self.checkpoint_path)
            table = MappingTable.load(self.mapping_path)
            medians = np.asarray(manifest["medians"])
            self.generated_dir.mkdir(parents=True, exist_ok=True)
            items = []
            for quadrant in QUADRANTS:
                values = table.vector_for(quadrant)
                bits = binarize(values, medians)
                for i in range(cfg.n_generate_per_quadrant):
                    seed = int(np.random.SeedSequence(
                        [cfg.seed, 7, quadrant.value, i]).generate_state(1)[0])
                    tokens = generate_from_bits(state, bits, cfg.sampler_config(seed))
                    score, _ = tokens_to_score(tokens, self.grid)
                    name = f"gen_{quadrant.name}_{i:04d}.mid"
                    (self.generated_dir / name).write_bytes(
                        write_midi(score_to_midi(score)))
                    items.append({"file": name, "label": quadrant.name})
            gen_manifest.write_text(json.dumps({"items": items}, indent=1) + "\n")

        return self._run_stage(
            "generate",
            {"n": cfg.n_generate_per_quadrant, "p": cfg.sampler_p,
             "temperature": cfg.sampler_temperature,
             "max_tokens": cfg.max_generate_tokens, "seed": cfg.seed},
            [self.checkpoint_path, self.mapping_path], [gen_manifest], fn)

    def stage_evaluate(self) -> str:
        cfg = self.config
        outputs = [self.report_path, self.art / "distances.csv", self.art / "pca.csv"]

        def fn():
            scores, intended, _ = load_corpus_scores(self.generated_dir / "manifest.json")
            clf = ForestObjectiveClassifier(forest_from_json(self.forest_path),
                                            self.catalog)
            accuracy = objective_accuracy(scores, intended, clf)
            per_quadrant = {}
            for quadrant in QUADRANTS:
                subset = [(s, q) for s, q in zip(scores, intended) if q == quadrant]
                if subset:
                    per_quadrant[quadrant.name] = objective_accuracy(
                        [s for s, _ in subset], [q for _, q in subset], clf)

            indices = load_selection(self.selection_path)["indices"]
            matrix = extract_corpus(scores, self.catalog, n_workers=cfg.workers)
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
                save_projection_csv(self.art / "pca.csv", pca_project(selected),
                                    intended)
            else:
                (self.art / "pca.csv").write_text("pc1,pc2,label\n")

            report = {
                "objective_accuracy": accuracy,
                "n_generated": len(scores),
                "per_quadrant_accuracy": per_quadrant,
                "distance": distance_doc,
            }
            self.report_path.write_text(json.dumps(report, indent=1) + "\n")

        return self._run_stage(
            "evaluate", {"catalog": self.catalog.version},
            self._corpus_files(self.generated_dir / "manifest.json") +
            [self.forest_path, self.selection_path],
            outputs, fn)

    def run(self) -> dict:
        stages = [
            ("split", self.stage_split),
            ("extract", self.stage_extract),
            ("train-forest", self.stage_train_forest),
            ("select-attrs", self.stage_select),
            ("map-emotion", self.stage_map),
            ("train", self.stage_train),
            ("generate", self.stage_generate),
            ("evaluate", self.stage_evaluate),
        ]
        status = {}
        for name, fn in stages:
            status[name] = fn()
        report = json.loads(self.report_path.read_text())
        return {"stages": status, "report": report,
                "artifact_dir": str(self.art)}

    def analyze_bias(self, n: int | None = None, real_eval: str = "auto") -> dict:
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
            self.config.sampler_config(cfg.seed + 11), self.grid,
            real_eval=real_eval)
        report.to_json(self.art / "bias_report.json")
        return json.loads((self.art / "bias_report.json").read_text())


def replace_rows(matrix, rows: list[int]):
    from .features import CorpusMatrix
    return CorpusMatrix(matrix.values[rows], matrix.catalog_version,
                        [matrix.empty_flags[i] for i in rows])


def run_pipeline(config: PipelineConfig) -> dict:
    return Pipeline(config).run()

"""Objective evaluation: classifier accuracy, center/boundary bias probes,
intra/inter L1 distance analysis, and a deterministic 2-D PCA export.

The objective classifier is the random forest over full attribute vectors.
Real-sample center/boundary accuracy uses out-of-bag votes when the forest was
trained on the very rows being scored, because an unlimited-depth forest
memorizes its training set and plain predictions would mask the label-noise
signal the probe looks for.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path

import numpy as np

from .errors import EmoMusicError
from .features import FeatureCatalog, default_catalog, extract_features
from .forest import RandomForest, oob_predictions, predict_class_index
from .mapping import (
    EmotionQuadrant,
    LabeledCorpus,
    QUADRANTS,
    Standardizer,
    binarize,
    center_boundary_split,
)
from .model import ModelState
from .sampling import SamplerConfig, generate_from_bits
from .score import QuantizationConfig, Score
from .tokens import tokens_to_score


class SingletonClass(UserWarning):
    pass


class ForestObjectiveClassifier:
    """Forest-backed emotion classifier over full attribute vectors."""

    def __init__(self, forest: RandomForest, catalog: FeatureCatalog | None = None):
        self.forest = forest
        self.catalog = catalog or default_catalog()
        if self.catalog.version != forest.catalog_version:
            raise EmoMusicError("classifier catalog does not match the forest")

    def predict_vector(self, values: np.ndarray) -> EmotionQuadrant:
        return EmotionQuadrant(predict_class_index(self.forest, np.asarray(values)) + 1)

    def predict_score(self, score: Score) -> EmotionQuadrant:
        return self.predict_vector(extract_features(score, self.catalog).values)


def objective_accuracy(scores: list[Score], intended: list[EmotionQuadrant],
                       clf) -> float:
    """Fraction of generated scores whose predicted emotion matches the input."""
    if not scores:
        raise EmoMusicError("no scores to evaluate")
    if len(scores) != len(intended):
        raise EmoMusicError("scores and intended labels differ in length")
    hits = sum(clf.predict_score(s) == q for s, q in zip(scores, intended))
    return hits / len(scores)


@dataclass(slots=True)
class DistanceReport:
    intra_mean: float
    inter_mean: float
    gap: float
    per_class_intra: dict[EmotionQuadrant, float]
    intra_distances: np.ndarray  # sorted, for plotting
    inter_distances: np.ndarray

    def to_json(self, path: str | Path) -> None:
        doc = {
            "intra_mean": self.intra_mean,
            "inter_mean": self.inter_mean,
            "gap": self.gap,
            "per_class_intra": {q.name: v for q, v in self.per_class_intra.items()},
        }
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")

    def curves_to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "rank", "l1_distance"])
            for rank, d in enumerate(self.intra_distances):
                writer.writerow(["intra", rank, d])
            for rank, d in enumerate(self.inter_distances):
                writer.writerow(["inter", rank, d])


def l1_distance_analysis(vectors: np.ndarray,
                         labels: list[EmotionQuadrant]) -> DistanceReport:
    """Mean L1 distance over same-label pairs (intra) and different-label
    pairs (inter), plus sorted distance curves.

    Distances are computed on the vectors as given; standardize beforehand
    when dimensions have incomparable scales. Classes with a single sample
    contribute no intra pairs (a SingletonClass warning is emitted).
    Means use exactly-rounded summation so a brute-force recomputation
    matches them exactly.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    if n != len(labels):
        raise EmoMusicError("vectors and labels differ in length")
    intra: list[float] = []
    inter: list[float] = []
    per_class: dict[EmotionQuadrant, list[float]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.abs(vectors[i] - vectors[j]).sum())
            if labels[i] == labels[j]:
                intra.append(d)
                per_class.setdefault(labels[i], []).append(d)
            else:
                inter.append(d)
    for q in set(labels):
        if labels.count(q) < 2:
            warnings.warn(f"class {q.name} has a single sample; no intra pairs",
                          SingletonClass, stacklevel=2)
    if not intra or not inter:
        raise EmoMusicError("need at least two samples in >= 2 classes")
    intra_mean = fsum(intra) / len(intra)
    inter_mean = fsum(inter) / len(inter)
    return DistanceReport(
        intra_mean=intra_mean,
        inter_mean=inter_mean,
        gap=inter_mean - intra_mean,
        per_class_intra={q: fsum(ds) / len(ds) for q, ds in sorted(per_class.items())},
        intra_distances=np.sort(np.asarray(intra)),
        inter_distances=np.sort(np.asarray(inter)),
    )


@dataclass(slots=True)
class BiasReport:
    """Objective accuracy on center vs boundary samples, real and generated."""

    real_center_accuracy: float
    real_boundary_accuracy: float
    generated_center_accuracy: float
    generated_boundary_accuracy: float
    per_quadrant: dict[str, dict[str, float]] = field(default_factory=dict)
    n_center: int = 0
    n_boundary: int = 0

    def to_json(self, path: str | Path) -> None:
        doc = {
            "real": {"center": self.real_center_accuracy,
                     "boundary": self.real_boundary_accuracy},
            "generated": {"center": self.generated_center_accuracy,
                          "boundary": self.generated_boundary_accuracy},
            "per_quadrant": self.per_quadrant,
            "n_center": self.n_center,
            "n_boundary": self.n_boundary,
        }
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _accuracy_over(ids: list[int], predictions: np.ndarray,
                   truth: np.ndarray) -> float:
    if not ids:
        return 0.0
    idx = np.asarray(ids)
    return float((predictions[idx] == truth[idx]).mean())


def bias_experiment(corpus: LabeledCorpus, indices: list[int], state: ModelState,
                    medians: np.ndarray, clf, n: int, sampler: SamplerConfig,
                    grid: QuantizationConfig | None = None) -> BiasReport:
    """Center-vs-boundary probe.

    Real side: classify the corpus' own center and boundary samples (OOB votes
    when available, see module docstring). Generated side: condition the model
    on each center/boundary sample's raw attribute values (binarized with the
    training medians), classify the generated pieces against the source
    sample's label.
    """
    split = center_boundary_split(corpus, indices, n)
    truth = corpus.label_indices()

    oob = clf.forest.oob_indices if isinstance(clf, ForestObjectiveClassifier) else None
    if oob is not None and len(oob) == clf.forest.config.n_trees:
        real_preds = oob_predictions(clf.forest, corpus.matrix.values)
    else:
        real_preds = np.array([clf.predict_vector(row).class_index
                               for row in corpus.matrix.values])

    per_quadrant: dict[str, dict[str, float]] = {}
    all_center: list[int] = []
    all_boundary: list[int] = []
    gen_hits = {"center": 0, "boundary": 0}
    gen_total = {"center": 0, "boundary": 0}
    for quadrant in QUADRANTS:
        center_ids, boundary_ids = split[quadrant]
        all_center.extend(center_ids)
        all_boundary.extend(boundary_ids)
        q_report = {
            "real_center": _accuracy_over(center_ids, real_preds, truth),
            "real_boundary": _accuracy_over(boundary_ids, real_preds, truth),
        }
        for kind, ids in (("center", center_ids), ("boundary", boundary_ids)):
            hits = 0
            for row_id in ids:
                values = corpus.matrix.values[row_id][indices]
                bits = binarize(values, medians)
                seed = (sampler.seed * 1_000_003 + row_id) % (2 ** 31)
                tokens = generate_from_bits(
                    state, bits,
                    SamplerConfig(sampler.p, sampler.temperature,
                                  sampler.max_tokens, seed))
                score, _ = tokens_to_score(tokens, grid)
                if clf.predict_score(score) == quadrant:
                    hits += 1
            q_report[f"generated_{kind}"] = hits / len(ids) if ids else 0.0
            gen_hits[kind] += hits
            gen_total[kind] += len(ids)
        per_quadrant[quadrant.name] = q_report

    return BiasReport(
        real_center_accuracy=_accuracy_over(all_center, real_preds, truth),
        real_boundary_accuracy=_accuracy_over(all_boundary, real_preds, truth),
        generated_center_accuracy=gen_hits["center"] / max(1, gen_total["center"]),
        generated_boundary_accuracy=gen_hits["boundary"] / max(1, gen_total["boundary"]),
        per_quadrant=per_quadrant,
        n_center=len(all_center),
        n_boundary=len(all_boundary),
    )


def pca_project(vectors: np.ndarray) -> np.ndarray:
    """Project z-scored vectors onto the top-2 principal components.

    Deterministic sign convention: each component's largest-magnitude loading
    is made positive. The projected centroid sits at the origin.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[0] < 3:
        raise EmoMusicError("PCA projection needs at least 3 vectors")
    z = Standardizer.fit(vectors).transform(vectors)
    cov = z.T @ z / z.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    components = eigenvectors[:, np.argsort(eigenvalues)[::-1][:2]].T
    for row in range(components.shape[0]):
        lead = int(np.argmax(np.abs(components[row])))
        if components[row, lead] < 0:
            components[row] = -components[row]
    return z @ components.T


def save_projection_csv(path: str | Path, coords: np.ndarray,
                        labels: list[EmotionQuadrant] | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pc1", "pc2", "label"])
        for i, (a, b) in enumerate(coords):
            writer.writerow([a, b, labels[i].name if labels else ""])

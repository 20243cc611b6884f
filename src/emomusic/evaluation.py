"""Objective evaluation: classifier accuracy, center/boundary bias probes,
intra/inter L1 distance analysis, and a deterministic 2-D PCA export.

The objective classifier is the random forest over full attribute vectors.
Real-sample center/boundary accuracy uses the forest's out-of-bag votes, so the
forest must be trained on the very rows being scored: an unlimited-depth forest
memorizes its training set, and plain predictions would mask the label-noise
signal the probe looks for.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from math import fsum
from pathlib import Path

import numpy as np

from .errors import EmoMusicError
from .features import CorpusMatrix, extract_corpus
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
from .sampling import generate_pieces
from .tokens import tokens_to_score


class SingletonClass(UserWarning):
    pass


def predict_quadrants(forest: RandomForest, matrix: CorpusMatrix) -> list[EmotionQuadrant]:
    """The forest's emotion for each row of ``matrix``."""
    if matrix.catalog_version != forest.catalog_version:
        raise EmoMusicError("feature catalog does not match the forest")
    return [EmotionQuadrant(predict_class_index(forest, row) + 1) for row in matrix.values]


def objective_accuracy(predicted: list[EmotionQuadrant],
                       intended: list[EmotionQuadrant]) -> float:
    """Fraction of predicted emotions that match the intended ones."""
    if not predicted:
        raise EmoMusicError("no predictions to evaluate")
    if len(predicted) != len(intended):
        raise EmoMusicError("predicted and intended labels differ in length")
    return sum(p == q for p, q in zip(predicted, intended)) / len(predicted)


@dataclass(slots=True)
class DistanceReport:
    intra_mean: float
    inter_mean: float
    gap: float
    intra_distances: np.ndarray  # sorted, for plotting
    inter_distances: np.ndarray

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
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.abs(vectors[i] - vectors[j]).sum())
            if labels[i] == labels[j]:
                intra.append(d)
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
        intra_distances=np.sort(np.asarray(intra)),
        inter_distances=np.sort(np.asarray(inter)),
    )


def _accuracy_over(ids: list[int], predictions: np.ndarray,
                   truth: np.ndarray) -> float:
    if not ids:
        return 0.0
    idx = np.asarray(ids)
    return float((predictions[idx] == truth[idx]).mean())


def bias_experiment(corpus: LabeledCorpus, indices: list[int], state: ModelState,
                    medians: np.ndarray, forest: RandomForest, n: int, seed: int,
                    p: float, max_tokens: int) -> dict:
    """Center-vs-boundary probe.

    Real side: classify the corpus' own center and boundary samples by the
    OOB votes of ``forest``, trained on ``corpus`` (see module docstring).
    Generated side: condition the model on each center/boundary sample's raw
    attribute values (binarized with the training medians), classify the
    generated pieces against the source sample's label.

    Returns the bias report's JSON document: "real" and "generated" each map
    "center" and "boundary" to an accuracy, "per_quadrant" maps each quadrant
    to the same four figures, and "n_center"/"n_boundary" count the samples.
    """
    split = center_boundary_split(corpus, indices, n)
    truth = corpus.label_indices()
    real_preds = oob_predictions(forest, corpus.matrix.values)

    # one piece per center and boundary sample, all decoded together; its
    # predicted class index is stored at its source sample's row
    rows = [row_id for quadrant in QUADRANTS for ids in split[quadrant] for row_id in ids]
    bits = np.array([binarize(corpus.matrix.values[row_id][indices], medians)
                     for row_id in rows])
    seeds = [(seed * 1_000_003 + row_id) % (2 ** 31) for row_id in rows]
    scores = [tokens_to_score(tokens)[0]
              for tokens in generate_pieces(state, bits, seeds, p, max_tokens)]
    generated_preds = np.full(len(truth), -1)
    if scores:
        generated_preds[rows] = [q.class_index for q in
                                 predict_quadrants(forest, extract_corpus(scores))]

    sides = {"real": real_preds, "generated": generated_preds}
    center = [row_id for quadrant in QUADRANTS for row_id in split[quadrant][0]]
    boundary = [row_id for quadrant in QUADRANTS for row_id in split[quadrant][1]]
    report = {side: {"center": _accuracy_over(center, preds, truth),
                     "boundary": _accuracy_over(boundary, preds, truth)}
              for side, preds in sides.items()}
    report["per_quadrant"] = {}
    for quadrant in QUADRANTS:
        report["per_quadrant"][quadrant.name] = {
            f"{side}_{kind}": _accuracy_over(ids, preds, truth)
            for side, preds in sides.items()
            for kind, ids in zip(("center", "boundary"), split[quadrant])}
    report["n_center"], report["n_boundary"] = len(center), len(boundary)
    return report


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

"""Emotion-to-attribute mapping over Russell's four valence/arousal quadrants.

Each quadrant of a labeled corpus is summarized into one attribute value
vector by supervised clustering: Closest picks the real sample nearest
the quadrant's standardized mean, Center takes the per-dimension raw mean,
KMeans returns the de-standardized centroid of the largest k-means cluster.
Distances are always measured in z-scored space (raw feature scales differ by
orders of magnitude); returned vectors are always raw-space values so that
median binarization can use corpus medians directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .features import CorpusMatrix


class EmotionQuadrant(IntEnum):
    """Russell 4Q: Q1 hv/ha, Q2 lv/ha, Q3 lv/la, Q4 hv/la. Ordered Q1<Q2<Q3<Q4."""

    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4

    @property
    def class_index(self) -> int:
        return self.value - 1

    @classmethod
    def from_name(cls, name: str) -> "EmotionQuadrant":
        try:
            return cls[name.upper()]
        except KeyError:
            raise EmoMusicError(f"unknown emotion quadrant {name!r}") from None


QUADRANTS = tuple(EmotionQuadrant)


class EmptyQuadrant(EmoMusicError):
    pass


class LengthMismatch(EmoMusicError):
    pass


@dataclass(slots=True)
class LabeledCorpus:
    matrix: CorpusMatrix
    labels: list[EmotionQuadrant]

    def __post_init__(self) -> None:
        if self.matrix.n_rows != len(self.labels):
            raise EmoMusicError("row count and label count differ")
        if self.matrix.n_rows < 1:
            raise EmoMusicError("labeled corpus is empty")

    def label_indices(self) -> np.ndarray:
        return np.array([lab.class_index for lab in self.labels], dtype=int)

    def rows_of(self, quadrant: EmotionQuadrant) -> np.ndarray:
        return np.flatnonzero(np.array([lab == quadrant for lab in self.labels]))


@dataclass(slots=True)
class Standardizer:
    """Per-dimension z-scoring with population std; constant dims get std 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std == 0, 1.0, std)
        return cls(mean, std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return z * self.std + self.mean


@dataclass(slots=True)
class MappingTable:
    """One raw attribute value vector per quadrant over the selected dimensions."""

    method: str
    catalog_version: str
    indices: list[int]
    vectors: dict[EmotionQuadrant, np.ndarray]
    medians: np.ndarray | None = None  # corpus medians over the same indices

    def vector_for(self, quadrant: EmotionQuadrant) -> np.ndarray:
        return self.vectors[quadrant]

    def save(self, path: str | Path) -> None:
        doc = {
            "method": self.method,
            "catalog_version": self.catalog_version,
            "indices": self.indices,
            "vectors": {q.name: v.tolist() for q, v in self.vectors.items()},
            "medians": None if self.medians is None else self.medians.tolist(),
        }
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MappingTable":
        doc = read_json(path, "mapping file",
                        keys=("method", "catalog_version", "indices", "vectors", "medians"))
        if not isinstance(doc["vectors"], dict) or \
                sorted(doc["vectors"]) != [q.name for q in EmotionQuadrant]:
            raise EmoMusicError(f"mapping file {path}: vectors must map each of "
                                f"{', '.join(q.name for q in EmotionQuadrant)} to a vector")
        indices = doc["indices"]
        if not (isinstance(indices, list) and all(type(i) is int for i in indices)):
            raise EmoMusicError(f"mapping file {path}: indices must be a list of integers")
        vectors = {}
        for name, v in doc["vectors"].items():
            if isinstance(v, list) and len(v) == 1 and isinstance(v[0], list):
                v = v[0]  # older files wrap each vector in a one-element list
            vectors[EmotionQuadrant[name]] = _finite_vector(
                v, len(indices), f"mapping file {path}: quadrant {name}")
        medians = doc["medians"]
        return cls(
            method=doc["method"],
            catalog_version=doc["catalog_version"],
            indices=indices,
            vectors=vectors,
            medians=None if medians is None else _finite_vector(
                medians, len(indices), f"mapping file {path}: medians"),
        )


def _finite_vector(values, n: int, what: str) -> np.ndarray:
    """``values`` as floats when it is a JSON list of ``n`` finite numbers;
    otherwise raises EmoMusicError naming ``what``. true and false would pass
    as 1 and 0, so they are not numbers here."""
    if isinstance(values, list) and len(values) == n \
            and all(type(v) in (int, float) for v in values):
        try:
            vector = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            vector = np.array([np.inf])
        if np.isfinite(vector).all():
            return vector
    raise EmoMusicError(f"{what} must be a list of {n} finite numbers, one per index")


@dataclass(slots=True)
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_trace: list[float] = field(default_factory=list)


KMEANS_MAX_ITER = 100  # Lloyd iterations per restart, unless assignments settle first


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 10) -> KMeansResult:
    """Lloyd's algorithm, seeded, best inertia over restarts.

    Empty clusters are re-seeded from the point farthest from its assigned
    centroid, so the recorded inertia trace never increases.
    """
    m = points.shape[0]
    if m == 0:
        raise EmoMusicError("kmeans needs at least one point")
    k = min(k, m)
    best: KMeansResult | None = None
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    for restart in range(restarts):
        rng = np.random.default_rng(seeds[restart])
        centroids = points[rng.choice(m, size=k, replace=False)].astype(float)
        trace: list[float] = []
        assign = np.full(m, -1)
        for _ in range(KMEANS_MAX_ITER):
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_assign = d2.argmin(axis=1)
            for _ in range(k):  # re-seed empty clusters
                counts = np.bincount(new_assign, minlength=k)
                empty = np.flatnonzero(counts == 0)
                if empty.size == 0:
                    break
                worst = int(np.argmax(d2[np.arange(m), new_assign]))
                centroids[empty[0]] = points[worst]
                d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
                new_assign = d2.argmin(axis=1)
            trace.append(float(d2[np.arange(m), new_assign].sum()))
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(k):
                members = points[assign == c]
                if members.size:
                    centroids[c] = members.mean(axis=0)
        result = KMeansResult(assign, centroids, trace[-1], trace)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


MAPPING_METHODS = ("closest", "center", "kmeans")


def compute_mapping(corpus: LabeledCorpus, indices: list[int], method: str = "closest",
                    k_clusters: int = 4, seed: int = 0) -> MappingTable:
    """Build the per-quadrant mapping table (methods: closest, center, kmeans).

    Ties go to the lowest row id (closest) or the lowest cluster id (kmeans).
    """
    if method not in MAPPING_METHODS:
        raise EmoMusicError(f"unknown mapping method {method!r}")
    x = corpus.matrix.values[:, indices]
    standardizer = Standardizer.fit(x)
    z = standardizer.transform(x)

    vectors: dict[EmotionQuadrant, np.ndarray] = {}
    for quadrant in QUADRANTS:
        rows = corpus.rows_of(quadrant)
        if rows.size == 0:
            raise EmptyQuadrant(f"no samples labeled {quadrant.name}")
        zq = z[rows]
        if method == "center":
            vectors[quadrant] = x[rows].mean(axis=0)
        elif method == "closest":
            dist = np.linalg.norm(zq - zq.mean(axis=0), axis=1)
            vectors[quadrant] = x[rows[np.argmin(dist)]].copy()  # rows ascend
        else:
            result = kmeans(zq, k_clusters, seed=seed)
            counts = np.bincount(result.assignments, minlength=result.centroids.shape[0])
            vectors[quadrant] = standardizer.inverse(result.centroids[np.argmax(counts)])

    medians = compute_medians(x)
    return MappingTable(method, corpus.matrix.catalog_version,
                        list(indices), vectors, medians)


def compute_medians(x: np.ndarray) -> np.ndarray:
    """Per-dimension median; even row counts average the two middle values."""
    if x.shape[0] < 1:
        raise EmoMusicError("median of an empty matrix")
    return np.median(x, axis=0)


def binarize(values: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """bit_j = 1 iff values_j > median_j (strict: ties go to 0)."""
    values = np.asarray(values)
    medians = np.asarray(medians)
    if values.shape != medians.shape:
        raise LengthMismatch(f"{values.shape} vs {medians.shape}")
    return (values > medians).astype(np.int8)


def center_boundary_split(corpus: LabeledCorpus, indices: list[int], n: int,
                          ) -> dict[EmotionQuadrant, tuple[list[int], list[int]]]:
    """Per quadrant: (n nearest, n farthest) sample row ids by standardized L2
    distance to the quadrant mean; ties broken by lower row id; sets disjoint
    (n shrinks to half the quadrant when it has fewer than 2n samples).
    Center ids come nearest-first, boundary ids farthest-first.
    """
    x = corpus.matrix.values[:, indices]
    z = Standardizer.fit(x).transform(x)
    split: dict[EmotionQuadrant, tuple[list[int], list[int]]] = {}
    for quadrant in QUADRANTS:
        rows = corpus.rows_of(quadrant)
        if rows.size == 0:
            raise EmptyQuadrant(f"no samples labeled {quadrant.name}")
        zq = z[rows]
        dist = np.linalg.norm(zq - zq.mean(axis=0), axis=1)
        order = rows[np.lexsort((rows, dist))]
        n_eff = min(n, rows.size // 2) if rows.size < 2 * n else n
        center = [int(i) for i in order[:n_eff]]
        boundary = [int(i) for i in order[len(order) - n_eff:][::-1]]
        split[quadrant] = (center, boundary)
    return split

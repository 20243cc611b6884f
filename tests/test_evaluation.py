"""Objective accuracy, L1 distance analysis, bias probe, and PCA export."""

import math

import numpy as np
import pytest

from emomusic.evaluation import (
    ForestObjectiveClassifier,
    SingletonClass,
    bias_experiment,
    l1_distance_analysis,
    objective_accuracy,
    pca_project,
)
from emomusic.features import CorpusMatrix, default_catalog, extract_features
from emomusic.forest import ForestConfig, train_forest
from emomusic.mapping import EmotionQuadrant, LabeledCorpus, compute_medians
from emomusic.model import ModelConfig, init_state
from emomusic.sampling import SamplerConfig
from emomusic.score import Note, Score

Q1, Q2, Q3, Q4 = EmotionQuadrant


class StubClassifier:
    def __init__(self, answers):
        self.answers = list(answers)

    def predict_score(self, score):
        return self.answers.pop(0)


class TestObjectiveAccuracy:
    def test_half_right(self):
        scores = [Score([Note(0, 480, 60, 64)], 480)] * 2
        clf = StubClassifier([Q1, Q3])
        assert objective_accuracy(scores, [Q1, Q2], clf) == 0.5

    def test_permutation_invariant(self):
        scores = [Score([Note(0, 480, p, 64)], 480) for p in (60, 61, 62, 63)]
        intended = [Q1, Q2, Q3, Q4]
        predicted = [Q1, Q2, Q4, Q4]
        forward = objective_accuracy(scores, intended, StubClassifier(predicted))
        backward = objective_accuracy(scores[::-1], intended[::-1],
                                      StubClassifier(predicted[::-1]))
        assert forward == backward

    def test_forest_classifier_on_its_training_scores(self):
        catalog = default_catalog()
        rng = np.random.default_rng(51)
        scores, labels = [], []
        for q, (pitch, tempo) in zip(EmotionQuadrant,
                                     [(72, 160.0), (55, 130.0), (45, 60.0), (62, 90.0)]):
            for _ in range(4):
                notes = [Note(i * 480, 480, pitch + int(rng.integers(0, 3)),
                              64 + int(rng.integers(0, 20))) for i in range(6)]
                scores.append(Score(notes, 480, tempo_map=[(0, tempo)]))
                labels.append(q)
        matrix = np.stack([extract_features(s, catalog).values for s in scores])
        corpus = LabeledCorpus(CorpusMatrix(matrix), labels)
        forest = train_forest(corpus, ForestConfig(n_trees=30, seed=52))
        clf = ForestObjectiveClassifier(forest, catalog)
        assert objective_accuracy(scores, labels, clf) == 1.0


class TestL1Analysis:
    def test_hand_computed_three_vector_case(self):
        vectors = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
        labels = [Q1, Q1, Q2]
        with pytest.warns(SingletonClass):
            report = l1_distance_analysis(vectors, labels)
        assert report.intra_mean == 4.0
        assert report.inter_mean == 2.0
        assert report.gap == -2.0

    def test_identical_vectors_give_zero_distances(self):
        vectors = np.ones((6, 3))
        labels = [Q1, Q1, Q2, Q2, Q3, Q3]
        report = l1_distance_analysis(vectors, labels)
        assert report.intra_mean == 0.0
        assert report.inter_mean == 0.0

    def test_planted_clusters_have_positive_gap(self):
        rng = np.random.default_rng(53)
        vectors, labels = [], []
        for idx, q in enumerate(EmotionQuadrant):
            center = np.zeros(4)
            center[idx] = 25.0
            for _ in range(8):
                vectors.append(center + rng.normal(0, 0.5, size=4))
                labels.append(q)
        report = l1_distance_analysis(np.array(vectors), labels)
        assert report.gap > 0

    def test_brute_force_recomputation_matches_exactly(self):
        rng = np.random.default_rng(54)
        vectors = rng.normal(size=(20, 5))
        labels = [EmotionQuadrant(1 + i % 4) for i in range(20)]
        report = l1_distance_analysis(vectors, labels)
        intra, inter = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                d = float(np.abs(vectors[i] - vectors[j]).sum())
                (intra if labels[i] == labels[j] else inter).append(d)
        assert report.intra_mean == math.fsum(intra) / len(intra)
        assert report.inter_mean == math.fsum(inter) / len(inter)


def _feature_space_corpus(rng, boundary_per_quadrant=4, clean_per_quadrant=12):
    """Tight per-quadrant clusters plus label-noise points parked inside a
    different quadrant's cluster (far from their own centroid)."""
    vectors, labels = [], []
    centers = {Q1: np.array([0.0, 0.0]), Q2: np.array([30.0, 0.0]),
               Q3: np.array([0.0, 30.0]), Q4: np.array([30.0, 30.0])}
    for q in EmotionQuadrant:
        for _ in range(clean_per_quadrant):
            vectors.append(centers[q] + rng.normal(0, 0.8, size=2))
            labels.append(q)
        other = EmotionQuadrant(1 + (q.value % 4))
        for _ in range(boundary_per_quadrant):
            vectors.append(centers[other] + rng.normal(0, 0.8, size=2))
            labels.append(q)  # mislabeled-looking points far from own centroid
    return LabeledCorpus(CorpusMatrix(np.array(vectors)), labels)


class TestBiasExperiment:
    def test_center_beats_boundary_on_real_side(self):
        rng = np.random.default_rng(55)
        corpus = _feature_space_corpus(rng)
        forest = train_forest(corpus, ForestConfig(n_trees=60, seed=56))
        clf = ForestObjectiveClassifier.__new__(ForestObjectiveClassifier)
        clf.forest = forest
        clf.catalog = default_catalog()
        state = init_state(ModelConfig(n_layers=1, n_heads=1, d_model=8,
                                       d_ffn=16, max_len=8, dropout=0.0,
                                       attr_dim=2), seed=57)
        medians = compute_medians(corpus.matrix.values)
        report = bias_experiment(corpus, [0, 1], state, medians, clf, n=4,
                                 sampler=SamplerConfig(p=0.9, max_tokens=8, seed=58))
        assert report.real_center_accuracy > report.real_boundary_accuracy
        assert report.n_center == report.n_boundary == 16
        for value in (report.generated_center_accuracy,
                      report.generated_boundary_accuracy):
            assert 0.0 <= value <= 1.0

    def test_degenerate_identical_corpus_equalizes(self):
        vectors = np.ones((24, 2))
        labels = [EmotionQuadrant(1 + i % 4) for i in range(24)]
        corpus = LabeledCorpus(CorpusMatrix(vectors), labels)
        forest = train_forest(corpus, ForestConfig(n_trees=20, seed=59))
        clf = ForestObjectiveClassifier.__new__(ForestObjectiveClassifier)
        clf.forest = forest
        clf.catalog = default_catalog()
        state = init_state(ModelConfig(n_layers=1, n_heads=1, d_model=8,
                                       d_ffn=16, max_len=8, dropout=0.0,
                                       attr_dim=2), seed=60)
        report = bias_experiment(corpus, [0, 1], state,
                                 compute_medians(vectors), clf, n=3,
                                 sampler=SamplerConfig(p=0.9, max_tokens=8, seed=61))
        assert report.real_center_accuracy == report.real_boundary_accuracy


class TestPcaProject:
    def test_points_on_a_line_have_flat_second_component(self):
        t = np.linspace(0, 1, 30)
        vectors = np.stack([3 * t, -2 * t, t], axis=1)
        coords = pca_project(vectors)
        assert coords[:, 1].var() == pytest.approx(0.0, abs=1e-12)

    def test_centroid_at_origin(self):
        rng = np.random.default_rng(62)
        coords = pca_project(rng.normal(size=(40, 6)))
        assert coords.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(63)
        vectors = rng.normal(size=(25, 4))
        a = pca_project(vectors)
        b = pca_project(vectors)
        assert (a == b).all()

    def test_planted_clusters_separate_by_silhouette(self):
        # cluster structure must survive z-scoring, so spread it over two
        # latent directions shared by several dimensions each (like real,
        # correlated feature data); the projection then keeps the 4 groups apart
        rng = np.random.default_rng(64)
        u = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        vectors, labels = [], []
        for idx, (a, b) in enumerate(corners):
            center = 40.0 * (a * u + b * w)
            for _ in range(10):
                vectors.append(center + rng.normal(0, 0.5, size=6))
                labels.append(idx)
        coords = pca_project(np.array(vectors))
        labels = np.array(labels)

        def silhouette(i):
            own = coords[labels == labels[i]]
            a = np.mean([np.linalg.norm(coords[i] - p) for p in own
                         if not (p == coords[i]).all()])
            b = min(np.mean(np.linalg.norm(coords[labels == other] - coords[i],
                                           axis=1))
                    for other in set(labels) - {labels[i]})
            return (b - a) / max(a, b)

        assert np.mean([silhouette(i) for i in range(len(coords))]) > 0.5


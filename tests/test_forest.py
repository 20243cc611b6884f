"""Random forest: planted-feature oracles, determinism, importance, selection."""

import numpy as np
import pytest

from emomusic.features import CorpusMatrix, FeatureCatalog, FeatureDef, default_catalog
from emomusic.forest import (
    DecisionTree,
    DegenerateCorpus,
    ForestConfig,
    ImportanceRanking,
    KTooLarge,
    RandomForest,
    SelectionConfig,
    feature_importance,
    forest_from_json,
    forest_to_json,
    oob_accuracy,
    predict_class_index,
    select_attributes,
    train_forest,
)
from emomusic.mapping import EmotionQuadrant, LabeledCorpus

QUADS = list(EmotionQuadrant)


def make_corpus(values: np.ndarray, labels: list[int]) -> LabeledCorpus:
    return LabeledCorpus(CorpusMatrix(np.asarray(values, dtype=float)),
                         [QUADS[i] for i in labels])


def planted_corpus(n_per_class=8, n_features=10, seed=0):
    """Feature 3 alone separates the four classes into disjoint value bands."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for cls in range(4):
        for _ in range(n_per_class):
            row = rng.uniform(0, 4, size=n_features)
            row[3] = cls + rng.uniform(0.3, 0.7)
            rows.append(row)
            labels.append(cls)
    return make_corpus(np.array(rows), labels)


def separable_two_class(seed=0):
    """8 samples where feature 0 alone separates two classes perfectly."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, size=(8, 5))
    rows[:4, 0] = rng.uniform(0.0, 0.3, size=4)
    rows[4:, 0] = rng.uniform(0.7, 1.0, size=4)
    return make_corpus(rows, [0, 0, 0, 0, 1, 1, 1, 1])


class TestTraining:
    def test_two_class_fixture_fits_its_own_samples(self):
        corpus = separable_two_class()
        forest = train_forest(corpus, ForestConfig(n_trees=25, seed=1))
        preds = np.array([predict_class_index(forest, row) for row in corpus.matrix.values])
        assert (preds == corpus.label_indices()).all()

    def test_identical_rows_mixed_labels_predict_majority(self):
        rows = np.ones((9, 4))
        corpus = make_corpus(rows, [0] * 5 + [1] * 4)
        forest = train_forest(corpus, ForestConfig(n_trees=15, seed=2))
        assert predict_class_index(forest, rows[0]) == EmotionQuadrant.Q1.class_index

    def test_same_seed_identical_trees(self):
        corpus = planted_corpus()
        a = train_forest(corpus, ForestConfig(n_trees=10, seed=3))
        b = train_forest(corpus, ForestConfig(n_trees=10, seed=3))
        for ta, tb in zip(a.trees, b.trees):
            assert (ta.feature == tb.feature).all()
            assert (ta.threshold == tb.threshold).all()
            assert (ta.counts == tb.counts).all()

    def test_single_class_rejected(self):
        corpus = make_corpus(np.random.default_rng(0).uniform(size=(8, 3)), [0] * 8)
        with pytest.raises(DegenerateCorpus):
            train_forest(corpus, ForestConfig(n_trees=5))

    def test_planted_feature_holdout_accuracy(self):
        # binary decoy dims cannot spuriously isolate a class at n = 32
        rng = np.random.default_rng(4)

        def draw(n_per_class):
            rows, labels = [], []
            for cls in range(4):
                for _ in range(n_per_class):
                    row = rng.integers(0, 2, size=4).astype(float)
                    row[3] = cls + rng.uniform(0.3, 0.7)
                    rows.append(row)
                    labels.append(cls)
            return np.array(rows), np.array(labels)

        values, labels = draw(8)
        corpus = make_corpus(values, labels.tolist())
        forest = train_forest(corpus, ForestConfig(n_trees=200, seed=5))
        probe, truth = draw(10)
        preds = np.array([predict_class_index(forest, row) for row in probe])
        assert (preds == truth).mean() >= 0.95

    def test_oob_accuracy_on_separable_fixture(self):
        corpus = planted_corpus(n_per_class=16)
        forest = train_forest(corpus, ForestConfig(n_trees=100, seed=6))
        assert oob_accuracy(forest, corpus) >= 0.95


class TestPredict:
    def test_single_tree_left_branch_leaf_majority(self):
        tree = DecisionTree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]),
                            np.array([1, -1, -1]), np.array([2, -1, -1]),
                            np.array([[2, 1, 3, 0], [2, 1, 0, 0], [0, 0, 3, 0]]))
        forest = RandomForest([tree], ForestConfig(n_trees=1), 1, "v1")
        assert predict_class_index(forest, np.array([0.3])) == EmotionQuadrant.Q1.class_index
        assert predict_class_index(forest, np.array([0.7])) == EmotionQuadrant.Q3.class_index

    def test_vote_tie_breaks_to_q1(self):
        leaf_q1 = DecisionTree(np.array([-1]), np.array([0.0]), np.array([-1]),
                               np.array([-1]), np.array([[5, 0, 0, 0]]))
        leaf_q3 = DecisionTree(np.array([-1]), np.array([0.0]), np.array([-1]),
                               np.array([-1]), np.array([[0, 0, 5, 0]]))
        forest = RandomForest([leaf_q1, leaf_q3], ForestConfig(n_trees=2), 1, "v1")
        assert predict_class_index(forest, np.array([0.0])) == EmotionQuadrant.Q1.class_index


class TestImportance:
    def test_sums_to_one(self):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=30, seed=10))
        ranking = feature_importance(forest)
        assert ranking.importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert (ranking.importance >= 0).all()

    def test_planted_feature_ranks_first(self):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=50, seed=11))
        assert feature_importance(forest).order[0] == 3

    def test_constant_feature_has_zero_importance(self):
        corpus = planted_corpus()
        values = corpus.matrix.values.copy()
        values[:, 7] = 1.25  # never splittable
        forest = train_forest(make_corpus(values, corpus.label_indices().tolist()),
                              ForestConfig(n_trees=30, seed=12))
        assert feature_importance(forest).importance[7] == 0.0

    def test_duplicated_feature_shares_credit(self):
        corpus = planted_corpus()
        base = train_forest(corpus, ForestConfig(n_trees=60, seed=13))
        original = feature_importance(base).importance[3]
        dup_values = np.hstack([corpus.matrix.values,
                                corpus.matrix.values[:, [3]]])
        dup = train_forest(make_corpus(dup_values, corpus.label_indices().tolist()),
                           ForestConfig(n_trees=60, seed=13))
        imp = feature_importance(dup).importance
        assert imp[3] + imp[10] <= 2 * original + 0.05


class TestSelection:
    def small_catalog(self):
        return FeatureCatalog([FeatureDef(f"f{i}", "pitch", 1, "test feature")
                               for i in range(10)], version="v1")

    def ranking_for(self, forest):
        return feature_importance(forest)

    def test_topk_all_returns_ranking_order(self):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=20, seed=14))
        ranking = feature_importance(forest)
        indices = select_attributes(ranking, self.small_catalog(),
                                    SelectionConfig("topk", k=10))
        assert indices == [int(i) for i in ranking.order]

    def test_topk_matches_brute_force_sort(self):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=40, seed=15))
        ranking = feature_importance(forest)
        indices = select_attributes(ranking, self.small_catalog(),
                                    SelectionConfig("topk", k=6))
        brute = sorted(range(10), key=lambda i: (-ranking.importance[i], i))[:6]
        assert indices == brute

    def test_k_too_large(self):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=5, seed=16))
        with pytest.raises(KTooLarge):
            select_attributes(feature_importance(forest), self.small_catalog(),
                              SelectionConfig("topk", k=11))

    def test_manual17_is_17_indices_independent_of_ranking(self):
        catalog = default_catalog()
        fake = ImportanceRanking(np.zeros(catalog.total_dim),
                                 np.arange(catalog.total_dim))
        indices = select_attributes(fake, catalog, SelectionConfig("manual17"))
        assert len(indices) == 17
        assert len(set(indices)) == 17

    def test_random_grouped_returns_exactly_n_distinct(self):
        catalog = default_catalog()
        fake = ImportanceRanking(np.zeros(catalog.total_dim),
                                 np.arange(catalog.total_dim))
        indices = select_attributes(fake, catalog,
                                    SelectionConfig("random_grouped", k=100, seed=17))
        assert len(indices) == 100
        assert len(set(indices)) == 100
        again = select_attributes(fake, catalog,
                                  SelectionConfig("random_grouped", k=100, seed=17))
        assert indices == again


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        forest = train_forest(planted_corpus(), ForestConfig(n_trees=8, seed=18))
        path = tmp_path / "forest.json"
        forest_to_json(forest, path)
        loaded = forest_from_json(path)
        assert loaded.n_features == forest.n_features
        assert loaded.catalog_version == forest.catalog_version
        probe = np.random.default_rng(19).uniform(0, 4, size=(16, 10))
        assert all(predict_class_index(loaded, row) == predict_class_index(forest, row)
                   for row in probe)

"""Emotion-to-attribute mapping: clustering oracles, medians, binarization,
center/boundary splitting."""

import numpy as np
import pytest

from emomusic.features import CorpusMatrix
from emomusic.mapping import (
    EmotionQuadrant,
    EmptyQuadrant,
    LabeledCorpus,
    LengthMismatch,
    MappingTable,
    binarize,
    center_boundary_split,
    compute_mapping,
    compute_medians,
    kmeans,
)

Q1, Q2, Q3, Q4 = EmotionQuadrant


def corpus_with_line_quadrant():
    """Q1 holds [0,0],[1,1],[2,2]; the other quadrants hold one point each."""
    values = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0],
                       [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    labels = [Q1, Q1, Q1, Q2, Q3, Q4]
    return LabeledCorpus(CorpusMatrix(values), labels)


class TestComputeMapping:
    def test_closest_picks_middle_sample(self):
        table = compute_mapping(corpus_with_line_quadrant(), [0, 1], "closest")
        assert table.vector_for(Q1) == pytest.approx([1.0, 1.0])

    def test_center_is_the_mean(self):
        table = compute_mapping(corpus_with_line_quadrant(), [0, 1], "center")
        assert table.vector_for(Q1) == pytest.approx([1.0, 1.0])

    def test_single_sample_quadrant_all_methods_agree(self):
        corpus = corpus_with_line_quadrant()
        for method in ("closest", "center", "kmeans"):
            table = compute_mapping(corpus, [0, 1], method)
            assert table.vector_for(Q2) == pytest.approx([5.0, 0.0])

    def test_missing_quadrant_raises(self):
        values = np.ones((4, 2))
        corpus = LabeledCorpus(CorpusMatrix(values), [Q1, Q1, Q2, Q3])
        with pytest.raises(EmptyQuadrant):
            compute_mapping(corpus, [0, 1], "closest")

    def test_closest_returns_a_real_corpus_row(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(40, 6)) * rng.uniform(0.1, 50, size=6)
        labels = [EmotionQuadrant(1 + i % 4) for i in range(40)]
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        table = compute_mapping(corpus, list(range(6)), "closest")
        for q in EmotionQuadrant:
            chosen = table.vector_for(q)
            assert any((chosen == row).all() for row in values)

    def test_closest_is_brute_force_minimal(self):
        rng = np.random.default_rng(22)
        values = rng.normal(size=(32, 4))
        labels = [EmotionQuadrant(1 + i % 4) for i in range(32)]
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        indices = list(range(4))
        table = compute_mapping(corpus, indices, "closest")
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        z = (values - mean) / std
        for q in EmotionQuadrant:
            rows = corpus.rows_of(q)
            zq = z[rows]
            d = np.linalg.norm(zq - zq.mean(axis=0), axis=1)
            best = rows[np.argmin(d)]
            nearest = d.min()
            chosen = table.vector_for(q)
            assert (chosen == values[best]).all()
            for i, row_d in zip(rows, d):
                assert row_d >= nearest - 1e-12

    def test_closest_argmin_invariant_to_column_scaling(self):
        rng = np.random.default_rng(23)
        values = rng.normal(size=(24, 5))
        labels = [EmotionQuadrant(1 + i % 4) for i in range(24)]
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        table = compute_mapping(corpus, list(range(5)), "closest")
        scaled_values = values * np.array([1.0, 7.5, 0.01, 300.0, 2.0])
        scaled = LabeledCorpus(CorpusMatrix(scaled_values), labels)
        scaled_table = compute_mapping(scaled, list(range(5)), "closest")
        for q in EmotionQuadrant:
            picked = np.flatnonzero((values == table.vector_for(q)).all(axis=1))
            picked_scaled = np.flatnonzero(
                (scaled_values == scaled_table.vector_for(q)).all(axis=1))
            assert (picked == picked_scaled).all()


class TestKMeans:
    def test_inertia_never_increases(self):
        rng = np.random.default_rng(24)
        points = np.vstack([rng.normal(0, 1, size=(30, 3)),
                            rng.normal(8, 1, size=(30, 3))])
        result = kmeans(points, k=4, seed=25, restarts=3)
        trace = result.inertia_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_restarts_pick_minimum_inertia(self):
        rng = np.random.default_rng(26)
        points = rng.normal(size=(50, 2))
        inertias = [kmeans(points, 3, seed=s, restarts=1).inertia for s in range(10)]
        multi = kmeans(points, 3, seed=0, restarts=1)
        best = kmeans(points, 3, seed=0, restarts=10)
        assert best.inertia <= multi.inertia + 1e-12

    def test_k_larger_than_points_shrinks(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(points, k=5, seed=0)
        assert result.centroids.shape[0] == 2

    def test_kmeans_mapping_returns_largest_cluster_center(self):
        # two tight groups of different sizes in Q1: the bigger one wins
        values = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                           [10.0, 10.0], [10.1, 10.0],
                           [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
        labels = [Q1] * 5 + [Q2, Q3, Q4]
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        table = compute_mapping(corpus, [0, 1], "kmeans", k_clusters=2, seed=1)
        center = table.vector_for(Q1)
        assert np.linalg.norm(center - values[:3].mean(axis=0)) < 0.5


class TestMedians:
    def test_odd_count(self):
        assert compute_medians(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])) == 3

    def test_even_count_averages_middle_two(self):
        assert compute_medians(np.array([[1.0], [2.0], [3.0], [4.0]])) == 2.5

    def test_constant_column(self):
        assert compute_medians(np.array([[7.0], [7.0], [7.0]])) == 7


class TestBinarize:
    def test_strict_inequality(self):
        assert binarize(np.array([4.0, 5.0]), np.array([3.0, 5.0])).tolist() == [1, 0]

    def test_values_equal_to_median_are_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert binarize(v, v).tolist() == [0, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            binarize(np.ones(3), np.ones(4))

    def test_even_distinct_column_splits_in_half(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = 2 * int(rng.integers(2, 30))
            col = rng.permutation(rng.uniform(0, 100, size=n))  # distinct a.s.
            med = compute_medians(col[:, None])[0]
            bits = (col > med).sum()
            assert bits == n // 2


class TestCenterBoundarySplit:
    def make_line_corpus(self):
        # Q1 rows 0..4 at positions 0,1,2,3,4 on a line; pad other quadrants
        values = np.array([[0.0], [1.0], [2.0], [3.0], [4.0],
                           [10.0], [10.0], [-10.0], [-10.0], [20.0], [20.0]])
        labels = [Q1] * 5 + [Q2] * 2 + [Q3] * 2 + [Q4] * 2
        return LabeledCorpus(CorpusMatrix(values), labels)

    def test_line_fixture(self):
        split = center_boundary_split(self.make_line_corpus(), [0], n=2)
        center, boundary = split[Q1]
        assert set(center) == {1, 2}   # distance ties broken by lower id
        assert set(boundary) == {0, 4}
        assert not set(center) & set(boundary)

    def test_half_split_covers_quadrant(self):
        values = np.vstack([np.arange(8)[:, None] * 1.0,
                            np.full((3, 1), 50.0), np.full((3, 1), -50.0),
                            np.full((3, 1), 99.0)])
        labels = [Q1] * 8 + [Q2] * 3 + [Q3] * 3 + [Q4] * 3
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        split = center_boundary_split(corpus, [0], n=4)
        center, boundary = split[Q1]
        assert sorted(center + boundary) == list(range(8))

    def test_identical_points_tie_rule(self):
        values = np.vstack([np.ones((6, 1)), np.zeros((2, 1)),
                            np.full((2, 1), 2.0), np.full((2, 1), 3.0)])
        labels = [Q1] * 6 + [Q2] * 2 + [Q3] * 2 + [Q4] * 2
        corpus = LabeledCorpus(CorpusMatrix(values), labels)
        split = center_boundary_split(corpus, [0], n=2)
        center, boundary = split[Q1]
        assert center == [0, 1]
        assert set(boundary) == {4, 5}


class TestMappingTableIO:
    def test_save_load_round_trip(self, tmp_path):
        table = compute_mapping(corpus_with_line_quadrant(), [0, 1], "closest")
        path = tmp_path / "mapping.json"
        table.save(path)
        loaded = MappingTable.load(path)
        assert loaded.method == "closest"
        assert loaded.indices == [0, 1]
        for q in EmotionQuadrant:
            assert loaded.vector_for(q) == pytest.approx(table.vector_for(q))
        assert loaded.medians == pytest.approx(table.medians)

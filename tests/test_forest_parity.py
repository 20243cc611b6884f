"""Vectorized forest code against the feature-by-feature loops it replaced.

``best_split_oracle`` and ``importance_oracle`` are the scalar reference
implementations; the library's array versions must reproduce them byte for
byte, so seeded forests and rankings do not depend on how they are computed.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emomusic import forest as forest_mod
from emomusic.features import CorpusMatrix
from emomusic.forest import ForestConfig, feature_importance, forest_to_json, train_forest
from emomusic.mapping import EmotionQuadrant, LabeledCorpus

QUADS = list(EmotionQuadrant)


def gini_oracle(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def best_split_oracle(x, y_onehot, candidates):
    """Per-feature scan; column j of the node block ``x`` holds feature
    candidates[j], candidates ascend, the lowest threshold wins ties."""
    n_node = x.shape[0]
    parent_counts = y_onehot.sum(axis=0)
    parent_gini = gini_oracle(parent_counts)
    best = None
    for j, f in enumerate(candidates):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cum = np.cumsum(y_onehot[order], axis=0)  # class counts left of each cut
        cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left sizes at value changes
        if cut.size == 0:
            continue
        n_left = cut.astype(float)
        n_right = n_node - n_left
        left_counts = cum[cut - 1]
        right_counts = parent_counts - left_counts
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        decrease = parent_gini - (n_left * gini_left + n_right * gini_right) / n_node
        i = int(np.argmax(decrease))  # thresholds ascend, so first max = lowest
        if decrease[i] <= 1e-12:
            continue
        threshold = (xs[cut[i] - 1] + xs[cut[i]]) / 2.0
        if best is None or decrease[i] > best[2] + 1e-15:
            best = (int(f), float(threshold), float(decrease[i]))
    return best


def importance_oracle(forest) -> np.ndarray:
    """Node-by-node mean decrease in impurity, before normalization."""
    total = np.zeros(forest.n_features)
    for tree in forest.trees:
        acc = np.zeros(forest.n_features)
        root_n = tree.counts[0].sum()
        for node in range(len(tree.feature)):
            f = tree.feature[node]
            if f == -1:
                continue
            parent = tree.counts[node]
            lc = tree.counts[tree.left[node]]
            rc = tree.counts[tree.right[node]]
            n_node, nl, nr = parent.sum(), lc.sum(), rc.sum()
            decrease = (gini_oracle(parent)
                        - (nl * gini_oracle(lc) + nr * gini_oracle(rc)) / n_node)
            acc[f] += (n_node / root_n) * decrease
        total += acc
    total /= len(forest.trees)
    s = total.sum()
    return total / s if s > 0 else total


def awkward_corpus(seed=0) -> LabeledCorpus:
    """Noisy 4-class corpus with tied values, duplicated and constant columns."""
    rng = np.random.default_rng(seed)
    n = 80
    labels = rng.integers(0, 4, size=n)
    cols = [
        labels + rng.normal(0, 0.8, size=n),           # informative, continuous
        (labels + rng.integers(-1, 2, size=n)) // 2,   # informative, heavy ties
        rng.integers(0, 3, size=n),                    # noise, heavy ties
        rng.uniform(size=n),                           # noise, continuous
        np.round(rng.normal(labels, 1.5), 1),          # informative, some ties
        np.full(n, 2.5),                               # constant
        np.zeros(n),                                   # constant
    ]
    values = np.column_stack(cols).astype(float)
    # duplicated columns: every informative column appears twice more
    values = np.hstack([values, values[:, [0, 1, 4]], values[:, [4, 1, 0]],
                        rng.integers(0, 2, size=(n, 4))])
    return LabeledCorpus(CorpusMatrix(values), [QUADS[i] for i in labels])


def assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in ("feature", "threshold", "left", "right", "counts"):
            va, vb = getattr(ta, name), getattr(tb, name)
            assert va.dtype == vb.dtype, name
            assert va.shape == vb.shape, name
            assert va.tobytes() == vb.tobytes(), name


@pytest.mark.parametrize("overrides", [{}], ids=["default"])
def test_forest_matches_per_feature_oracle(monkeypatch, overrides):
    corpus = awkward_corpus()
    config = ForestConfig(n_trees=12, seed=21, **overrides)
    fast = train_forest(corpus, config)
    monkeypatch.setattr(forest_mod, "_best_split", best_split_oracle)
    slow = train_forest(corpus, config)
    assert sum(len(t.feature) for t in fast.trees) > len(fast.trees)  # trees split
    assert_same_trees(fast, slow)


def test_importance_matches_node_loop_oracle():
    forest = train_forest(awkward_corpus(1), ForestConfig(n_trees=20, seed=22))
    got = feature_importance(forest).importance
    want = importance_oracle(forest)
    assert got.tobytes() == want.tobytes()
    assert (got > 0).sum() > 1


def onehot(labels):
    return np.eye(4)[np.asarray(labels)]


@pytest.mark.parametrize("x, labels, expected", [
    # node of size 2: the only cut separates the two classes
    ([[0.0, 1.0], [1.0, 1.0]], [0, 1], (3, 0.5, 0.5)),
    # node of size 2 with tied values in every column: no cut exists
    ([[1.0, 4.0], [1.0, 4.0]], [0, 1], None),
    # valid cuts, none lowers the impurity
    ([[0.0, 5.0], [0.0, 5.0], [1.0, 5.0], [1.0, 5.0]], [0, 1, 0, 1], None),
    # same class mix on both sides: the decrease is rounding noise (~1e-16)
    ([[0.0, 5.0]] * 3 + [[1.0, 5.0]] * 6, [0, 1, 2, 0, 0, 1, 1, 2, 2], None),
    # duplicated columns tie: the lower feature index wins
    ([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0], [2.0, 2.0]], [0, 0, 1, 1], (3, 1.0, 0.5)),
], ids=["size2", "size2_tied", "no_decrease", "rounding_noise", "duplicate_tie"])
def test_edge_nodes_match_oracle(x, labels, expected):
    x = np.asarray(x)
    candidates = np.array([3, 8])
    got = forest_mod._best_split(x, onehot(labels), candidates)
    assert got == best_split_oracle(x, onehot(labels), candidates)
    assert got == expected


def test_random_nodes_match_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 8))
        x = rng.integers(0, int(rng.integers(1, 6)), size=(n, m)).astype(float)
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        candidates = np.sort(rng.choice(50, size=m, replace=False))
        rng.integers(1, 4)  # the former min_leaf draw; keeps the later nodes as they were
        got = forest_mod._best_split(x, onehot(labels), candidates)
        assert got == best_split_oracle(x, onehot(labels), candidates)


# sha256 of forest.json as the search grew it before it skipped candidates
# that cannot split; skipping them must not move a byte of any tree
PINNED_FORESTS = {
    (0, 0, 1): "234fafb8e2d4baece546bb2eca186a5a6271f71c3c8044a04a5fdc980f1cf9ef",
    (0, 21, 12): "a5ba972c2ccf04b57aa07a4eba7898d3938e5a7fd358a4473646bd101ae2eebe",
    (1, 5, 25): "802732406685327b7d1a2c5a6d918385e4b56d787bcb1fdb8c9a7ecdf06bfcfa",
    (2, 31, 40): "f645772c7b230f06d29f75bfac858cb5f55d3598a50d77dd7dcfdeb687eddec0",
}


@pytest.mark.parametrize("corpus_seed, seed, n_trees", sorted(PINNED_FORESTS))
def test_forest_bytes_are_pinned(tmp_path, corpus_seed, seed, n_trees):
    forest = train_forest(awkward_corpus(corpus_seed), ForestConfig(n_trees=n_trees, seed=seed))
    path = tmp_path / "forest.json"
    forest_to_json(forest, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_FORESTS[corpus_seed, seed, n_trees]


@st.composite
def skip_heavy_nodes(draw):
    """A node block cut from a larger sample: most columns constant over the
    whole sample, some constant over the node rows only, some mixing +0.0
    and -0.0 (equal, so no cut between them), and a few that vary."""
    n_node = draw(st.integers(2, 24))
    n_rest = draw(st.integers(0, 12))
    n = n_node + n_rest
    small = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["constant", "constant", "constant", "node_constant", "signed_zero", "ties",
             "continuous"]), min_size=1, max_size=12)):
        if kind == "constant":
            col = [draw(small)] * n
        elif kind == "node_constant":
            col = [draw(small)] * n_node + draw(st.lists(small, min_size=n_rest,
                                                         max_size=n_rest))
        elif kind == "signed_zero":
            col = draw(st.lists(st.sampled_from([-0.0, 0.0, -0.0, 0.0, 1.0]),
                                min_size=n, max_size=n))
        elif kind == "ties":
            col = draw(st.lists(small, min_size=n, max_size=n))
        else:
            col = draw(st.lists(st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
                                min_size=n, max_size=n))
        columns.append(col)
    block = np.array(columns, dtype=float).T[:n_node]
    labels = draw(st.lists(st.integers(0, 3), min_size=n_node, max_size=n_node))
    candidates = np.array(sorted(draw(st.sets(st.integers(0, 99), min_size=len(columns),
                                              max_size=len(columns)))))
    return block, onehot(labels), candidates


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(skip_heavy_nodes())
def test_skip_heavy_nodes_match_oracle(node):
    x, y_onehot, candidates = node
    got = forest_mod._best_split(x, y_onehot, candidates)
    # repr, so that a threshold of -0.0 against 0.0 would count as a difference
    assert repr(got) == repr(best_split_oracle(x, y_onehot, candidates))

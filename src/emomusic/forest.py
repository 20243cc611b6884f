"""Random-forest emotion classifier with impurity-based attribute selection.

Written for exact, reproducible semantics: each tree trains on a seeded
bootstrap sample (with replacement, same size), each split draws
floor(sqrt(D)) candidate features without replacement and maximizes the Gini
decrease, and every tie anywhere (feature, threshold, class vote) breaks
toward the lowest index. The split search scores every cut of every
candidate at once, in one array pass over the node's candidate block; the
tie rules above hold exactly as in a feature-by-feature scan, so the trees
are the same bytes as that scan grows. A drawn candidate that is constant
over the tree's bootstrap sample has no cut and could only score -inf, so
the search skips it before any array work; the draws themselves are
unchanged. Feature importance is the classic
mean decrease in impurity, weighted by node sample counts, averaged over
trees and normalized to sum 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .features import CatalogMismatch, FeatureCatalog, GROUPS, manual_indices
from .mapping import LabeledCorpus
from .parallel import fork_map

N_CLASSES = 4


class DegenerateCorpus(EmoMusicError):
    pass


class KTooLarge(EmoMusicError):
    pass


@dataclass(frozen=True, slots=True)
class ForestConfig:
    """Trees grow to pure or unsplittable leaves, drawing floor(sqrt(D))
    candidate features per split."""

    n_trees: int = 500
    seed: int = 0


@dataclass(slots=True)
class DecisionTree:
    """Axis-aligned binary tree in flat-array form.

    ``feature[i] == -1`` marks node i as a leaf; internal nodes send
    x[feature] <= threshold to ``left`` and the rest to ``right``.
    ``counts[i]`` is the training class-count vector at node i.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def leaf_counts(self, x: np.ndarray) -> np.ndarray:
        node = 0
        while self.feature[node] != -1:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return self.counts[node]

    def predict_class(self, x: np.ndarray) -> int:
        return int(np.argmax(self.leaf_counts(x)))


@dataclass(slots=True)
class RandomForest:
    trees: list[DecisionTree]
    config: ForestConfig
    n_features: int
    catalog_version: str
    oob_indices: list[np.ndarray] | None = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class ImportanceRanking:
    importance: np.ndarray  # length D, non-negative, sums to 1 (all-zero if no splits)
    order: np.ndarray       # feature indices sorted by descending importance


SELECTION_METHODS = ("topk", "random_grouped", "manual17")


@dataclass(frozen=True, slots=True)
class SelectionConfig:
    """Attribute selection: top-k by importance, group-balanced random, or the
    fixed 17 manually designed attributes."""

    method: str = "topk"  # one of SELECTION_METHODS
    k: int = 100
    seed: int = 0


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of every row of a (nodes, classes) count matrix; 0 if empty."""
    total = counts.sum(axis=1)
    p = counts / np.where(total == 0, 1.0, total)[:, None]
    return np.where(total == 0, 0.0, 1.0 - (p * p).sum(axis=1))


def _best_split(x: np.ndarray, y_onehot: np.ndarray,
                candidates: np.ndarray) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gini decrease) over a node's candidate block.

    ``x`` is the node's (n, m) block of candidate columns, in the ascending
    feature order of ``candidates``. Every cut of every column is scored in one
    array pass; within a feature the lowest threshold wins ties, and across
    features a later one must beat the best so far by more than 1e-15.
    """
    n_node = x.shape[0]
    cols = np.arange(x.shape[1])
    order = np.argsort(x, axis=0, kind="stable")
    xs = x[order, cols]
    cum = np.cumsum(y_onehot[order], axis=0)  # (n, m, classes) left of each cut
    parent_counts = cum[-1, 0]  # the last row of any column holds the node's counts
    p = parent_counts / n_node
    parent_gini = 1.0 - (p * p).sum()  # as _gini_rows computes it for one row
    left_counts = cum[:-1]  # cut after sorted row i has i + 1 rows on its left
    right_counts = parent_counts - left_counts
    n_left = np.arange(1.0, n_node)[:, None]
    n_right = n_node - n_left
    gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
    gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
    decrease = parent_gini - (n_left * gini_left + n_right * gini_right) / n_node
    # cut only between distinct values
    decrease = np.where(xs[:-1] < xs[1:], decrease, -np.inf)
    best_j, best = -1, 0.0
    for j, value in enumerate(decrease.max(axis=0).tolist()):
        if value > 1e-12 and (best_j < 0 or value > best + 1e-15):
            best_j, best = j, value
    if best_j < 0:
        return None
    row = int(np.argmax(decrease[:, best_j]))  # first max = lowest threshold
    threshold = (xs[row, best_j] + xs[row + 1, best_j]) / 2.0
    return int(candidates[best_j]), float(threshold), best


def _grow_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
               mtry: int) -> DecisionTree:
    n_features = x.shape[1]
    y_onehot = np.eye(N_CLASSES)[y]
    varies = x.min(axis=0) != x.max(axis=0)  # over this tree's bootstrap sample
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    # stack of (sample index array, parent node, is_left_child)
    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(len(y)), -1, False)]
    while stack:
        samples, parent, is_left = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node
        node_onehot = y_onehot[samples]
        node_counts = node_onehot.sum(axis=0)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)

        if np.count_nonzero(node_counts) <= 1:
            continue
        candidates = np.sort(rng.choice(n_features, size=mtry, replace=False))
        candidates = candidates[varies[candidates]]  # the rest cannot split
        if candidates.size == 0:
            continue
        best = _best_split(x[samples[:, None], candidates], node_onehot, candidates)
        if best is None:
            continue
        f, thr, _ = best
        feature[node] = f
        threshold[node] = thr
        goes_left = x[samples, f] <= thr
        # push right first so the left child is materialized first
        stack.append((samples[~goes_left], node, False))
        stack.append((samples[goes_left], node, True))

    return DecisionTree(np.array(feature), np.array(threshold),
                        np.array(left), np.array(right), np.stack(counts))


def train_forest(corpus: LabeledCorpus, config: ForestConfig | None = None) -> RandomForest:
    """Train a seeded, deterministic random forest on the labeled corpus."""
    config = config or ForestConfig()
    x = corpus.matrix.values
    y = corpus.label_indices()
    n, d = x.shape
    if np.unique(y).size < 2:
        raise DegenerateCorpus("training needs at least two distinct classes")
    mtry = max(1, math.floor(math.sqrt(d)))

    def grow(seed: np.random.SeedSequence) -> tuple[DecisionTree, np.ndarray]:
        rng = np.random.default_rng(seed)
        bootstrap = rng.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), bootstrap)
        return _grow_tree(x[bootstrap], y[bootstrap], rng, mtry), oob

    # each tree draws only from its own seed, so the workers grow the same trees
    grown = fork_map(grow, np.random.SeedSequence(config.seed).spawn(config.n_trees))
    return RandomForest([tree for tree, _ in grown], config, d,
                        corpus.matrix.catalog_version, [oob for _, oob in grown])


def predict_class_index(forest: RandomForest, x: np.ndarray) -> int:
    votes = np.zeros(N_CLASSES, dtype=int)
    for tree in forest.trees:
        votes[tree.predict_class(x)] += 1
    return int(np.argmax(votes))  # tie -> lowest class index, Q1 < Q2 < Q3 < Q4


def oob_predictions(forest: RandomForest, x: np.ndarray) -> np.ndarray:
    """Out-of-bag class index per training row (-1 when no tree left it out)."""
    if forest.oob_indices is None:
        raise EmoMusicError("forest was not trained in this session; no OOB info")
    votes = np.zeros((x.shape[0], N_CLASSES), dtype=int)
    for tree, oob in zip(forest.trees, forest.oob_indices):
        for i in oob:
            votes[i, tree.predict_class(x[i])] += 1
    preds = votes.argmax(axis=1)
    preds[votes.sum(axis=1) == 0] = -1
    return preds


def oob_accuracy(forest: RandomForest, corpus: LabeledCorpus) -> float:
    preds = oob_predictions(forest, corpus.matrix.values)
    y = corpus.label_indices()
    scored = preds >= 0
    if not scored.any():
        return 0.0
    return float((preds[scored] == y[scored]).mean())


def feature_importance(forest: RandomForest) -> ImportanceRanking:
    """Mean decrease in Gini impurity, node-count weighted, normalized to sum 1."""
    total = np.zeros(forest.n_features)
    for tree in forest.trees:
        sizes = tree.counts.sum(axis=1)
        gini = _gini_rows(tree.counts)
        internal = np.flatnonzero(tree.feature != -1)
        lc, rc = tree.left[internal], tree.right[internal]
        n_node = sizes[internal]
        decrease = gini[internal] - (sizes[lc] * gini[lc] + sizes[rc] * gini[rc]) / n_node
        acc = np.zeros(forest.n_features)
        # unbuffered and in node order, so each feature sums as the node loop did
        np.add.at(acc, tree.feature[internal], (n_node / sizes[0]) * decrease)
        total += acc
    total /= len(forest.trees)
    s = total.sum()
    importance = total / s if s > 0 else total
    order = np.lexsort((np.arange(forest.n_features), -importance))
    return ImportanceRanking(importance, order)


def select_attributes(ranking: ImportanceRanking, catalog: FeatureCatalog,
                      config: SelectionConfig) -> list[int]:
    """Resolve a selection config into flattened catalog dimension indices."""
    d = catalog.total_dim
    if ranking.importance.shape[0] != d:
        raise CatalogMismatch("ranking and catalog dimensions differ")
    if config.method == "topk":
        if config.k > d:
            raise KTooLarge(f"k={config.k} exceeds catalog dimension {d}")
        return [int(i) for i in ranking.order[:config.k]]
    if config.method == "manual17":
        idx = manual_indices(catalog)
        if len(idx) != 17:
            raise EmoMusicError("manual selection did not resolve to 17 dims")
        return idx
    if config.method == "random_grouped":
        if config.k > d:
            raise KTooLarge(f"n={config.k} exceeds catalog dimension {d}")
        rng = np.random.default_rng(config.seed)
        quota = math.ceil(config.k / len(GROUPS))
        pools: dict[str, list[int]] = {g: [] for g in GROUPS}
        for entry in catalog.entries:
            pools[entry.group].extend(catalog.indices(entry.id))
        shuffled = {g: list(rng.permutation(idx)) for g, idx in pools.items() if idx}
        chosen: list[int] = []
        for g in GROUPS:
            if g in shuffled:
                take = min(quota, len(shuffled[g]))
                chosen.extend(int(i) for i in shuffled[g][:take])
                shuffled[g] = shuffled[g][take:]
        # short groups leave a deficit: round-robin the remaining pools
        while len(chosen) < config.k:
            progressed = False
            for g in GROUPS:
                if len(chosen) >= config.k:
                    break
                if shuffled.get(g):
                    chosen.append(int(shuffled[g].pop(0)))
                    progressed = True
            if not progressed:
                break
        return chosen[:config.k]
    raise EmoMusicError(f"unknown selection method {config.method!r}")


def forest_to_json(forest: RandomForest, path: str | Path) -> None:
    doc = {
        "config": {"n_trees": forest.config.n_trees, "seed": forest.config.seed},
        "n_features": forest.n_features,
        "catalog_version": forest.catalog_version,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "counts": tree.counts.tolist(),
            }
            for tree in forest.trees
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def forest_from_json(path: str | Path) -> RandomForest:
    doc = read_json(path, "forest file")
    trees = [
        DecisionTree(np.array(t["feature"]), np.array(t["threshold"]),
                     np.array(t["left"]), np.array(t["right"]), np.array(t["counts"]))
        for t in doc["trees"]
    ]
    # the config only says how the stored trees were grown, so a key that
    # older versions wrote and ForestConfig no longer has is dropped
    config = {f.name: doc["config"][f.name] for f in fields(ForestConfig)
              if f.name in doc["config"]}
    return RandomForest(trees, ForestConfig(**config),
                        doc["n_features"], doc["catalog_version"])


def save_selection(path: str | Path, catalog_version: str, config: SelectionConfig,
                   indices: list[int]) -> None:
    doc = {"catalog_version": catalog_version,
           "method": config.method, "k": config.k, "seed": config.seed,
           "indices": indices}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_selection(path: str | Path) -> dict:
    return read_json(path, "selection file")

"""
Evaluation toolkit
==================

Objective accuracy against intended emotions, intra/inter L1 distance
analysis, and the center/boundary probe that exposes label noise
concentrated far from the class centroids.
"""

import numpy as np

from emomusic.evaluation import (
    l1_distance_analysis,
    pca_project,
    predict_quadrants,
)
from emomusic.features import default_catalog, extract_corpus
from emomusic.forest import ForestConfig, oob_predictions, train_forest
from emomusic.mapping import (
    EmotionQuadrant,
    LabeledCorpus,
    Standardizer,
    center_boundary_split,
)
from emomusic.synth import SynthSpec, synth_score

# a corpus whose label noise sits far from the class centroids
spec = SynthSpec(noise=0.2, boundary_label_noise=0.3)
scores, labels = [], []
for quadrant in EmotionQuadrant:
    for i in range(40):
        rng = np.random.default_rng([9, quadrant.value, i])
        scores.append(synth_score(spec, quadrant, rng))
        labels.append(quadrant)

catalog = default_catalog()
corpus = LabeledCorpus(extract_corpus(scores, catalog), labels)
forest = train_forest(corpus, ForestConfig(n_trees=150, seed=1))
indices = list(range(catalog.total_dim))

# center/boundary accuracy with honest out-of-bag votes
split = center_boundary_split(corpus, indices, n=10)
preds = oob_predictions(forest, corpus.matrix.values)
truth = corpus.label_indices()
for kind, pick in (("center", 0), ("boundary", 1)):
    ids = [i for q in EmotionQuadrant for i in split[q][pick]]
    acc = (preds[ids] == truth[ids]).mean()
    print(f"{kind:8s} accuracy (OOB): {acc:.3f}")

# distance analysis on z-scored vectors
z = Standardizer.fit(corpus.matrix.values).transform(corpus.matrix.values)
report = l1_distance_analysis(z, labels)
print(f"\nintra-class mean L1 {report.intra_mean:.1f}  "
      f"inter-class mean L1 {report.inter_mean:.1f}  gap {report.gap:.1f}")

coords = pca_project(corpus.matrix.values)
print("\n2-D PCA centroids per quadrant:")
for quadrant in EmotionQuadrant:
    rows = corpus.rows_of(quadrant)
    cx, cy = coords[rows].mean(axis=0)
    print(f"  {quadrant.name}: ({cx:6.2f}, {cy:6.2f})")

print("\nclassifier on a fresh archetypal piece per quadrant:")
probes = [synth_score(SynthSpec(noise=0.0), quadrant, np.random.default_rng(99))
          for quadrant in EmotionQuadrant]
predicted = predict_quadrants(forest, extract_corpus(probes, catalog))
for quadrant, guess in zip(EmotionQuadrant, predicted):
    print(f"  intended {quadrant.name} -> predicted {guess.name}")

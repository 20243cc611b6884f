"""
Attribute-to-music generation
=============================

Train the attribute-conditioned transformer on a small synthetic corpus
(self-supervised: each piece is conditioned on its own binarized attribute
vector), then generate music for each emotion from the mapped attributes.

Takes a couple of minutes; shrink train_steps for a quicker look.
"""

import numpy as np

from emomusic.features import default_catalog, extract_corpus
from emomusic.forest import ForestConfig, SelectionConfig, feature_importance, \
    select_attributes, train_forest
from emomusic.mapping import EmotionQuadrant, LabeledCorpus, binarize, compute_mapping
from emomusic.model import ModelConfig, init_state
from emomusic.sampling import generate_pieces
from emomusic.synth import SynthSpec, synth_score
from emomusic.tokens import score_to_tokens, tokens_to_score
from emomusic.training import TrainConfig, train

spec = SynthSpec(noise=0.3)
scores, labels = [], []
for quadrant in EmotionQuadrant:
    for i in range(40):
        rng = np.random.default_rng([3, quadrant.value, i])
        scores.append(synth_score(spec, quadrant, rng))
        labels.append(quadrant)

catalog = default_catalog()
corpus = LabeledCorpus(extract_corpus(scores, catalog), labels)
forest = train_forest(corpus, ForestConfig(n_trees=100, seed=1))
indices = select_attributes(feature_importance(forest), catalog,
                            SelectionConfig("topk", k=20))
table = compute_mapping(corpus, indices, method="closest")

model_cfg = ModelConfig.small(attr_dim=len(indices))
dataset = [(score_to_tokens(s)[:model_cfg.max_len],
            binarize(corpus.matrix.values[i][indices], table.medians))
           for i, s in enumerate(scores)]

state = init_state(model_cfg, seed=2, dtype=np.float32)
state, log = train(state, dataset,
                   TrainConfig(batch_size=8, base_lr=1e-3, warmup_steps=100,
                               max_steps=800, seed=2),
                   log_every=100)
for step, lr, loss in log:
    print(f"step {step:4d}  lr {lr:.2e}  loss {loss:.3f}")

print("\ngenerated pieces (conditioned on each quadrant's mapped attributes):")
density_slot = catalog.span("note_density_per_quarter_note")[0]
for quadrant in EmotionQuadrant:
    bits = binarize(table.vector_for(quadrant), table.medians)
    [tokens] = generate_pieces(state, bits[None], [quadrant.value], p=0.9, max_tokens=256)
    score, _ = tokens_to_score(tokens)
    from emomusic.features import extract_features
    density = extract_features(score, catalog).values[density_slot]
    tempo = score.tempo_map[0][1] if score.tempo_map else float("nan")
    print(f"  {quadrant.name}: {len(score.notes):3d} notes, "
          f"density {density:4.2f}/quarter, tempo {tempo:5.1f} BPM")

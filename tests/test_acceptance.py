"""Acceptance suite: ten criteria, each printed as its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 8-10 share one
end-to-end pipeline run (synthetic corpus, small model) and criterion 9
trains a second model on a label-noisy corpus; everything else is seconds.
"""

import json
import math
import time
from math import fsum

import numpy as np
import pytest

from emomusic.evaluation import l1_distance_analysis
from emomusic.features import CorpusMatrix, default_catalog, extract_corpus, \
    extract_features
from emomusic.forest import ForestConfig, feature_importance, predict_class_index, \
    train_forest
from emomusic.mapping import (
    EmotionQuadrant,
    LabeledCorpus,
    Standardizer,
    binarize,
    compute_mapping,
    compute_medians,
    kmeans,
)
from emomusic.midi import parse_midi, write_midi
from emomusic.model import ModelConfig, forward_batch, init_state, next_token_loss
from emomusic.pipeline import Pipeline, PipelineConfig, load_corpus_scores
from emomusic.sampling import sample_top_p
from emomusic.score import Note, Score
from emomusic.synth import SynthSpec, synth_corpus
from emomusic.tokens import BOS, EOS
from emomusic.training import TrainConfig, lr_schedule, train

from conftest import random_midi_file

CATALOG = default_catalog()


def ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def pipeline8(tmp_path_factory):
    """Criterion 8 run: clean noise-0.3 corpus, top-20 attributes, small model."""
    root = tmp_path_factory.mktemp("accept8")
    start = time.time()
    manifest = synth_corpus(SynthSpec(noise=0.3), 100, seed=11,
                            out_dir=root / "corpus")
    config = PipelineConfig(
        artifact_dir=str(root / "artifacts"), corpus_manifest=str(manifest),
        seed=11, forest_trees=200, selection_k=20, mapping_method="closest",
        model_size="small", train_steps=2500, batch_size=8, base_lr=1e-3,
        warmup_steps=100, n_generate_per_quadrant=25, max_generate_tokens=256)
    result = Pipeline(config).run()
    return config, result, time.time() - start


@pytest.fixture(scope="module")
def bias9(tmp_path_factory):
    """Criterion 9 run: boundary-concentrated label noise, smaller model."""
    root = tmp_path_factory.mktemp("accept9")
    manifest = synth_corpus(SynthSpec(noise=0.3, boundary_label_noise=0.3), 60,
                            seed=21, out_dir=root / "corpus")
    config = PipelineConfig(
        artifact_dir=str(root / "artifacts"), corpus_manifest=str(manifest),
        seed=21, forest_trees=200, selection_k=20, model_size="small",
        train_steps=1500, batch_size=8, base_lr=1e-3, warmup_steps=100,
        n_generate_per_quadrant=2, max_generate_tokens=256, bias_n=15)
    Pipeline(config).run()
    return Pipeline(config).analyze_bias()


def test_criterion_1_midi_round_trip():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(200):
        f = random_midi_file(rng)
        assert parse_midi(write_midi(f)) == f
    elapsed = time.time() - start
    assert elapsed < 5.0
    ok(1, f"200 random MIDI files round-trip event-for-event in {elapsed:.2f}s")


def test_criterion_2_feature_oracles(four_note_score):
    def feat(score, fid):
        vec = extract_features(score, CATALOG).values
        start, dim = CATALOG.span(fid)
        return vec[start] if dim == 1 else vec[start:start + dim]

    tol = 1e-9
    assert abs(feat(four_note_score, "total_number_of_notes") - 4) <= tol
    assert abs(feat(four_note_score, "note_density_per_quarter_note") - 1.0) <= tol
    assert abs(feat(four_note_score, "average_note_to_note_change_in_dynamics")
               - 10.0) <= tol
    assert abs(feat(four_note_score, "pitch_class_histogram")[0] - 0.5) <= tol

    tpq = 480
    fixtures = [
        # (score, feature id, hand-computed expected value)
        (Score([Note(0, tpq, 48, 64, 0), Note(tpq, tpq, 50, 64, 0),
                Note(0, tpq, 72, 64, 1)], tpq),
         "relative_note_density_of_highest_line", 1 / 1.5),
        (Score([Note(0, 2 * tpq, 60, 64), Note(2 * tpq, 4 * tpq, 62, 64),
                Note(6 * tpq, tpq, 64, 64)], tpq),
         "prevalence_of_long_rhythmic_values", 2 / 3),
        (Score([Note(0, tpq, 60, 64), Note(0, tpq, 64, 64)], tpq),
         "mean_vertical_interval", 4.0),
        (Score([Note(0, tpq // 2, 60, 64), Note(tpq // 2, tpq // 2, 62, 64),
                Note(2 * tpq, tpq, 64, 64), Note(3 * tpq, tpq, 65, 64)], tpq),
         "note_density_per_quarter_note_variability", math.sqrt(0.5)),
        (Score([Note(0, tpq, 60, 64), Note(3 * tpq, tpq, 62, 64)], tpq),
         "rest_fraction", 0.5),
        (Score([Note(0, tpq, 60, 40), Note(tpq, tpq, 62, 100)], tpq),
         "velocity_std", 30.0),
        (Score([Note(0, tpq, 60, 64), Note(tpq, tpq, 62, 64)], tpq,
               tempo_map=[(0, 120.0), (tpq, 60.0)]),
         "mean_tempo_bpm", 90.0),
        (Score([Note(0, tpq // 2, 60, 64), Note(tpq // 2, tpq, 62, 64),
                Note(2 * tpq, tpq, 64, 64)], tpq),
         "ioi_std_quarters", 0.5),
        (Score([Note(0, tpq, 60, 64), Note(tpq, tpq, 60, 64),
                Note(2 * tpq, tpq, 65, 64)], tpq),
         "repeated_pitch_fraction", 0.5),
        (four_note_score, "pitch_class_entropy", 1.5),
    ]
    for score, fid, expected in fixtures:
        value = feat(score, fid)
        assert abs(value - expected) <= tol, (fid, value, expected)
    ok(2, "4-note fixture exact at 1e-9 plus 10 hand-computed fixtures")


def test_criterion_3_forest_sanity():
    # 32-sample planted-feature dataset: feature 3 separates the classes into
    # clean bands, the other dims are uninformative binary decoys; the holdout
    # set is 40 fresh draws from the same generator
    rng = np.random.default_rng(1)

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
    quads = [EmotionQuadrant(c + 1) for c in labels]
    forest = train_forest(LabeledCorpus(CorpusMatrix(values), quads),
                          ForestConfig(n_trees=500, seed=5))
    probe, truth = draw(10)
    preds = np.array([predict_class_index(forest, row) for row in probe])
    holdout = (preds == truth).mean()
    assert holdout >= 0.95
    ranking = feature_importance(forest)
    assert ranking.order[0] == 3
    assert abs(ranking.importance.sum() - 1.0) <= 1e-9
    ok(3, f"holdout accuracy {holdout:.2f} on 40 fresh samples, planted "
          f"feature ranks #1, importance sums to 1")


def test_criterion_4_mapping_oracle():
    rng = np.random.default_rng(104)
    values = rng.normal(size=(48, 6)) * rng.uniform(0.1, 40, size=6)
    labels = [EmotionQuadrant(1 + i % 4) for i in range(48)]
    corpus = LabeledCorpus(CorpusMatrix(values), labels)
    indices = list(range(6))

    closest = compute_mapping(corpus, indices, "closest")
    z = Standardizer.fit(values).transform(values)
    for q in EmotionQuadrant:
        chosen = closest.vector_for(q)
        assert any((chosen == row).all() for row in values)  # bitwise a real row
        rows = corpus.rows_of(q)
        dist = np.linalg.norm(z[rows] - z[rows].mean(axis=0), axis=1)
        picked = int(np.flatnonzero((values[rows] == chosen).all(axis=1))[0])
        assert dist[picked] <= dist.min() + 1e-12  # brute-force minimal

    center = compute_mapping(corpus, indices, "center")
    for q in EmotionQuadrant:
        rows = corpus.rows_of(q)
        assert center.vector_for(q) == pytest.approx(values[rows].mean(axis=0))

    points = np.vstack([rng.normal(0, 1, size=(25, 3)),
                        rng.normal(6, 1, size=(25, 3))])
    result = kmeans(points, k=4, seed=7, restarts=5)
    trace = result.inertia_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    for _ in range(100):
        n = int(rng.integers(2, 40))
        col = rng.normal(size=n) * 10
        med = compute_medians(col[:, None])[0]
        bits = binarize(col, np.full(n, med))
        hand_sorted = sorted(col)
        hand_med = (hand_sorted[(n - 1) // 2] + hand_sorted[n // 2]) / 2
        assert med == hand_med
        assert (bits == (col > hand_med).astype(int)).all()
    ok(4, "closest is a real row and brute-force minimal; center is the mean; "
          "k-means inertia non-increasing; binarization matches brute force "
          "on 100 random columns")


def test_criterion_5_gradient_check():
    start = time.time()
    cfg = ModelConfig(n_layers=2, n_heads=1, d_model=16, d_ffn=32, max_len=8,
                      dropout=0.0, attr_dim=4)
    state = init_state(cfg, seed=15, dtype=np.float64)
    ids = np.array([[BOS, 9, 55, 200, 7, 120, 33, EOS]])
    bits = np.array([[1.0, 0.0, 1.0, 1.0]])

    def loss_value() -> float:
        loss, _ = next_token_loss(forward_batch(state, ids, bits), ids)
        return float(loss.data)

    for p in state.params.values():
        p.grad = None
    loss, _ = next_token_loss(forward_batch(state, ids, bits), ids)
    loss.backward()

    rng = np.random.default_rng(105)
    h = 1e-5
    worst = 0.0
    for name, p in state.params.items():
        flat = p.data.reshape(-1)
        grads = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            up = loss_value()
            flat[i] = old - h
            down = loss_value()
            flat[i] = old
            numeric = (up - down) / (2 * h)
            rel = abs(numeric - grads[i]) / max(abs(numeric), abs(grads[i]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-3, (name, rel)
    elapsed = time.time() - start
    assert elapsed < 60.0
    ok(5, f"all parameter groups match central differences "
          f"(worst rel err {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_6_overfit_and_schedule():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=32, d_ffn=64, max_len=16,
                      dropout=0.0, attr_dim=4)
    dataset = [([BOS, 30, 40, 50, 60, 70, 80, EOS], np.array([1, 0, 0, 1])),
               ([BOS, 130, 140, 150, 160, 170, 180, EOS], np.array([0, 1, 1, 0]))]
    _, log = train(init_state(cfg, seed=16), dataset,
                   TrainConfig(batch_size=2, base_lr=3e-3, warmup_steps=50,
                               max_steps=500, seed=17), log_every=50)
    final_loss = log[-1][2]
    assert final_loss < 0.05

    sched = TrainConfig(base_lr=1e-4, warmup_steps=16000)
    assert lr_schedule(16000, sched) == 1e-4
    assert lr_schedule(4000, sched) == 2.5e-5
    assert lr_schedule(64000, sched) == 1e-4 * math.sqrt(16000 / 64000)
    ok(6, f"2-sequence overfit reached loss {final_loss:.4f} < 0.05 in 500 "
          f"steps; schedule exact at the three cited points")


def test_criterion_7_nucleus_sampling():
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    logits = np.log(probs)
    rng = np.random.default_rng(107)
    draws = np.array([sample_top_p(logits, 0.9, rng) for _ in range(10_000)])
    assert (draws != 3).all()  # token outside the nucleus never appears
    freq = np.bincount(draws, minlength=4) / draws.size
    expected = np.array([0.5, 0.3, 0.15]) / 0.95
    sigma = np.sqrt(expected * (1 - expected) / draws.size)
    assert (np.abs(freq[:3] - expected) <= 3 * sigma).all()
    ok(7, f"token 3 never drawn in 10k samples; frequencies {np.round(freq[:3], 4)}"
          f" within 3 sigma of {np.round(expected, 4)}")


def test_criterion_8_end_to_end_accuracy(pipeline8):
    config, result, elapsed = pipeline8
    accuracy = result["report"]["objective_accuracy"]
    assert result["report"]["n_generated"] == 100
    assert accuracy >= 0.60
    assert elapsed <= 30 * 60
    ok(8, f"objective accuracy {accuracy:.2f} >= 0.60 over 100 generated "
          f"pieces (chance 0.25); full pipeline took {elapsed / 60:.1f} min")


def test_criterion_9_bias_direction(bias9):
    report = bias9
    assert report["real"]["center"] > report["real"]["boundary"]
    assert report["generated"]["center"] > report["generated"]["boundary"]
    ok(9, f"center beats boundary: real {report['real']['center']:.2f} > "
          f"{report['real']['boundary']:.2f}, generated "
          f"{report['generated']['center']:.2f} > "
          f"{report['generated']['boundary']:.2f}")


def test_criterion_10_distance_analysis(pipeline8):
    config, result, _ = pipeline8
    pipe = Pipeline(config)
    scores, intended, _ = load_corpus_scores(pipe.generated_dir / "manifest.json")
    indices = json.loads(pipe.selection_path.read_text())["indices"]
    matrix = extract_corpus(scores, CATALOG)
    selected = matrix.values[:, indices]
    z = Standardizer.fit(selected).transform(selected)
    report = l1_distance_analysis(z, intended)
    assert report.inter_mean > report.intra_mean

    intra, inter = [], []
    for i in range(len(intended)):
        for j in range(i + 1, len(intended)):
            d = float(np.abs(z[i] - z[j]).sum())
            (intra if intended[i] == intended[j] else inter).append(d)
    assert report.intra_mean == fsum(intra) / len(intra)
    assert report.inter_mean == fsum(inter) / len(inter)

    saved = result["report"]["distance"]
    assert saved["intra_mean"] == report.intra_mean
    assert saved["inter_mean"] == report.inter_mean

    # the well-trained model separates emotions more cleanly than the noisy
    # corpus it learned from
    real_matrix = np.load(pipe.features_path)["values"]
    real_labels = [EmotionQuadrant[n] for n in
                   json.loads(pipe.labels_path.read_text())["labels"]]
    real_selected = real_matrix[:, indices]
    real_z = Standardizer.fit(real_selected).transform(real_selected)
    real_report = l1_distance_analysis(real_z, real_labels)
    assert report.gap > real_report.gap
    ok(10, f"generated samples: inter {report.inter_mean:.1f} > intra "
           f"{report.intra_mean:.1f}; brute-force pair sums match exactly; "
           f"generated gap {report.gap:.1f} > real-corpus gap {real_report.gap:.1f}")

"""Synthetic corpus generator: determinism, archetype separability, noise knobs."""

import hashlib
import json

import numpy as np

from emomusic.features import default_catalog, extract_features
from emomusic.mapping import EmotionQuadrant
from emomusic.midi import parse_midi
from emomusic.score import midi_to_score
from emomusic.synth import (
    ARCHETYPES,
    DURATION_CHOICES,
    DURATION_WEIGHTS,
    SynthSpec,
    _draw_duration,
    _widened,
    synth_corpus,
    synth_score,
)

Q1, Q2, Q3, Q4 = EmotionQuadrant
CATALOG = default_catalog()


def density_of(path):
    score = midi_to_score(parse_midi(path.read_bytes()))
    vec = extract_features(score, CATALOG).values
    start, _ = CATALOG.span("note_density_per_quarter_note")
    return vec[start]


class TestSynthCorpus:
    def test_writes_four_files_at_n1(self, tmp_path):
        manifest = synth_corpus(SynthSpec(noise=0.0), 1, seed=1, out_dir=tmp_path)
        doc = json.loads(manifest.read_text())
        assert len(doc["items"]) == 4
        assert sorted(i["label"] for i in doc["items"]) == ["Q1", "Q2", "Q3", "Q4"]

    def test_q1_denser_than_q3_at_zero_noise(self, tmp_path):
        synth_corpus(SynthSpec(noise=0.0), 1, seed=2, out_dir=tmp_path)
        assert density_of(tmp_path / "Q1_0000.mid") > density_of(tmp_path / "Q3_0000.mid")

    def test_same_seed_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_corpus(SynthSpec(noise=0.4), 3, seed=3, out_dir=a)
        synth_corpus(SynthSpec(noise=0.4), 3, seed=3, out_dir=b)
        for f in sorted(a.glob("*.mid")):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_corpus(SynthSpec(), 2, seed=4, out_dir=a)
        synth_corpus(SynthSpec(), 2, seed=5, out_dir=b)
        assert any(f.read_bytes() != (b / f.name).read_bytes()
                   for f in sorted(a.glob("*.mid")))

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # sha256 over (name, bytes) of every file, manifest included; a change
        # to any draw, or to the order of the draws, moves it
        synth_corpus(SynthSpec(noise=0.3), 3, seed=11, out_dir=tmp_path)
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == \
            "1d542f6bd45e620adc9625d672dc7f5fe6940b579493fc0850e73435fa9c0432"


def test_duration_draw_repeats_generator_choice():
    for seed in range(300):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            assert _draw_duration(ours) == int(numpys.choice(DURATION_CHOICES,
                                                             p=DURATION_WEIGHTS))
            # one draw each, so the pitch and velocity draws after it stay aligned
            assert ours.random() == numpys.random()


class TestNoiseModel:
    def test_noise_one_widens_to_union(self):
        union = (min(a.tempo[0] for a in ARCHETYPES.values()),
                 max(a.tempo[1] for a in ARCHETYPES.values()))
        for quadrant in EmotionQuadrant:
            own = ARCHETYPES[quadrant].tempo
            assert _widened(own, union, 1.0) == union

    def test_noise_zero_keeps_archetype_ranges(self):
        spec = SynthSpec(noise=0.0)
        rng = np.random.default_rng(6)
        arch = ARCHETYPES[Q3]
        for _ in range(20):
            score = synth_score(spec, Q3, rng)
            assert arch.tempo[0] - 0.5 <= score.tempo_map[0][1] <= arch.tempo[1] + 0.5

    def test_archetypes_separable_in_tempo_density_at_zero_noise(self, tmp_path):
        synth_corpus(SynthSpec(noise=0.0), 10, seed=7, out_dir=tmp_path)
        boxes = {}
        for q in EmotionQuadrant:
            tempos, densities = [], []
            for i in range(10):
                score = midi_to_score(parse_midi(
                    (tmp_path / f"{q.name}_{i:04d}.mid").read_bytes()))
                tempos.append(score.tempo_map[0][1])
                densities.append(density_of(tmp_path / f"{q.name}_{i:04d}.mid"))
            boxes[q] = (min(tempos), max(tempos), min(densities), max(densities))
        quads = list(EmotionQuadrant)
        for i, qa in enumerate(quads):
            for qb in quads[i + 1:]:
                a, b = boxes[qa], boxes[qb]
                tempo_apart = a[1] < b[0] or b[1] < a[0]
                density_apart = a[3] < b[2] or b[3] < a[2]
                assert tempo_apart or density_apart

    def test_boundary_label_noise_creates_outliers(self):
        spec_clean = SynthSpec(noise=0.0, boundary_label_noise=0.0)
        spec_noisy = SynthSpec(noise=0.0, boundary_label_noise=1.0)
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        clean = [synth_score(spec_clean, Q1, rng_a).tempo_map[0][1] for _ in range(30)]
        noisy = [synth_score(spec_noisy, Q1, rng_b).tempo_map[0][1] for _ in range(30)]
        # drifted samples leave Q1's 150-170 band
        assert min(noisy) < 145
        assert min(clean) >= 149


class TestSynthScore:
    def test_always_has_notes(self):
        spec = SynthSpec(noise=0.0)
        rng = np.random.default_rng(9)
        for q in EmotionQuadrant:
            for _ in range(5):
                assert not synth_score(spec, q, rng).is_empty

    def test_four_four_sixteenth_grid(self):
        spec = SynthSpec(noise=0.0)
        score = synth_score(spec, Q1, np.random.default_rng(10))
        assert score.time_signatures == [(0, 4, 4)]
        assert all(n.onset % 120 == 0 for n in score.notes)

"""Feature extraction oracles: every expected value here was computed by hand
from the definitions in the catalog reference."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from emomusic.features import (
    GROUPS,
    _mean,
    _pop_std,
    csv_row,
    default_catalog,
    extract_corpus,
    extract_features,
    manual_indices,
    save_corpus_csv,
)
from emomusic.errors import EmoMusicError
from emomusic.score import Note, Score

CATALOG = default_catalog()
TPQ = 480


def feat(score, fid):
    vec = extract_features(score, CATALOG).values
    start, dim = CATALOG.span(fid)
    return vec[start] if dim == 1 else vec[start:start + dim]


class TestCatalogShape:
    def test_total_dim_at_least_512(self):
        assert CATALOG.total_dim >= 512
        assert CATALOG.total_dim == 535

    def test_groups_are_the_seven_canonical_ones(self):
        assert set(e.group for e in CATALOG.entries) == set(GROUPS)
        assert len(GROUPS) == 7

    def test_manual_selection_is_17_dims(self):
        assert len(manual_indices(CATALOG)) == 17

    def test_reference_doc_matches_the_catalog(self):
        lines = [
            "# Feature catalog reference",
            "",
            f"Catalog version `{CATALOG.version}`, {CATALOG.total_dim} dimensions, "
            f"{len(CATALOG.entries)} features across {len(GROUPS)} groups.",
            "",
            "Flattened dimension order follows this table top to bottom; histogram",
            "features occupy `dim` consecutive slots. Selection indices always refer",
            "to this flattened order and are only meaningful for this version string.",
            "",
            "| id | group | dim | definition |",
            "|----|-------|-----|------------|",
        ]
        lines += [f"| `{e.id}` | {e.group} | {e.dim} | {e.description} |"
                  for e in CATALOG.entries]
        doc = Path(__file__).resolve().parents[1] / "docs" / "feature_catalog.md"
        assert doc.read_text() == "\n".join(lines + [""])


class TestFourNoteFixture:
    def test_total_notes(self, four_note_score):
        assert feat(four_note_score, "total_number_of_notes") == 4

    def test_density_one_per_quarter(self, four_note_score):
        assert feat(four_note_score, "note_density_per_quarter_note") == pytest.approx(1.0, abs=1e-9)

    def test_density_variability_zero(self, four_note_score):
        assert feat(four_note_score, "note_density_per_quarter_note_variability") == 0.0

    def test_dynamics_change_is_ten(self, four_note_score):
        assert feat(four_note_score, "average_note_to_note_change_in_dynamics") \
            == pytest.approx(10.0, abs=1e-9)

    def test_pitch_class_c_is_half(self, four_note_score):
        assert feat(four_note_score, "pitch_class_histogram")[0] \
            == pytest.approx(0.5, abs=1e-9)

    def test_mean_pitch(self, four_note_score):
        assert feat(four_note_score, "mean_pitch") == pytest.approx(65.75)

    def test_pitch_std(self, four_note_score):
        assert feat(four_note_score, "pitch_std") == pytest.approx(math.sqrt(19.1875))

    def test_pitch_class_entropy(self, four_note_score):
        # probabilities (.5, .25, .25) -> 1.5 bits
        assert feat(four_note_score, "pitch_class_entropy") == pytest.approx(1.5)

    def test_melodic_intervals(self, four_note_score):
        # steps +4, +3, +5
        assert feat(four_note_score, "mean_melodic_interval") == pytest.approx(4.0)
        assert feat(four_note_score, "melodic_interval_std") == pytest.approx(math.sqrt(2 / 3))
        assert feat(four_note_score, "leap_fraction") == pytest.approx(1 / 3)
        assert feat(four_note_score, "ascending_interval_fraction") == 1.0
        mih = feat(four_note_score, "melodic_interval_histogram")
        assert mih[3] == mih[4] == mih[5] == pytest.approx(1 / 3)

    def test_rhythm_scalars(self, four_note_score):
        assert feat(four_note_score, "mean_ioi_quarters") == pytest.approx(1.0)
        assert feat(four_note_score, "ioi_std_quarters") == 0.0
        assert feat(four_note_score, "rest_fraction") == 0.0
        assert feat(four_note_score, "prevalence_of_long_rhythmic_values") == 0.0
        assert feat(four_note_score, "notes_per_second") == pytest.approx(2.0)
        rvh = feat(four_note_score, "rhythmic_value_histogram")
        assert rvh[6] == 1.0  # all quarters

    def test_velocity_scalars(self, four_note_score):
        assert feat(four_note_score, "mean_velocity") == pytest.approx(75.0)
        assert feat(four_note_score, "velocity_std") == pytest.approx(math.sqrt(125))
        assert feat(four_note_score, "velocity_range") == 30.0
        vh = feat(four_note_score, "velocity_histogram")
        assert vh[15] == vh[17] == vh[20] == vh[22] == pytest.approx(0.25)

    def test_texture_and_instrumentation(self, four_note_score):
        assert feat(four_note_score, "relative_note_density_of_highest_line") == 1.0
        assert feat(four_note_score, "mean_simultaneous_pitches") == pytest.approx(1.0)
        assert feat(four_note_score, "polyphony_rate") == 0.0
        assert feat(four_note_score, "active_track_count") == 1.0
        assert feat(four_note_score, "mean_notes_per_track") == 4.0

    def test_onset_position_histogram(self, four_note_score):
        pos = feat(four_note_score, "onset_position_histogram")
        assert pos[0] == pos[4] == pos[8] == pos[12] == pytest.approx(0.25)


class TestHandComputedFixtures:
    def test_highest_line_density_two_tracks(self):
        score = Score([Note(0, TPQ, 48, 64, 0), Note(TPQ, TPQ, 50, 64, 0),
                       Note(0, TPQ, 72, 64, 1)], TPQ)
        # highest-mean-pitch track holds 1 note; mean notes per track = 1.5
        assert feat(score, "relative_note_density_of_highest_line") \
            == pytest.approx(1 / 1.5)

    def test_long_and_very_long_values(self):
        score = Score([Note(0, 2 * TPQ, 60, 64), Note(2 * TPQ, 4 * TPQ, 62, 64),
                       Note(6 * TPQ, TPQ, 64, 64)], TPQ)
        assert feat(score, "prevalence_of_long_rhythmic_values") == pytest.approx(2 / 3)
        assert feat(score, "prevalence_of_very_long_rhythmic_values") == pytest.approx(1 / 3)

    def test_vertical_interval_single_third(self):
        score = Score([Note(0, TPQ, 60, 64), Note(0, TPQ, 64, 64)], TPQ)
        vih = feat(score, "vertical_interval_histogram")
        assert vih[4] == pytest.approx(1.0)
        assert feat(score, "mean_vertical_interval") == pytest.approx(4.0)
        assert feat(score, "simultaneous_onset_fraction") == 1.0
        assert feat(score, "polyphony_rate") == 1.0
        assert feat(score, "mean_simultaneous_pitches") == pytest.approx(2.0)

    def test_density_variability_uneven_windows(self):
        # per-quarter counts 2, 0, 1, 1 -> population std sqrt(0.5)
        score = Score([Note(0, TPQ // 2, 60, 64), Note(TPQ // 2, TPQ // 2, 62, 64),
                       Note(2 * TPQ, TPQ, 64, 64), Note(3 * TPQ, TPQ, 65, 64)], TPQ)
        assert feat(score, "note_density_per_quarter_note_variability") \
            == pytest.approx(math.sqrt(0.5))

    def test_rest_fraction_with_gap(self):
        score = Score([Note(0, TPQ, 60, 64), Note(3 * TPQ, TPQ, 62, 64)], TPQ)
        # slots 0..15, sounding 0-3 and 12-15 -> half silent
        assert feat(score, "rest_fraction") == pytest.approx(0.5)

    def test_rhythmic_value_bins_eighth_and_dotted_half(self):
        score = Score([Note(0, TPQ // 2, 60, 64), Note(TPQ, 3 * TPQ, 62, 64)], TPQ)
        rvh = feat(score, "rhythmic_value_histogram")
        assert rvh[4] == pytest.approx(0.5)   # eighth = 0.5 quarters
        assert rvh[9] == pytest.approx(0.5)   # dotted half = 3 quarters

    def test_tempo_features_with_change(self):
        score = Score([Note(0, TPQ, 60, 64), Note(TPQ, TPQ, 62, 64)], TPQ,
                      tempo_map=[(0, 120.0), (TPQ, 60.0)])
        assert feat(score, "initial_tempo_bpm") == 120.0
        assert feat(score, "mean_tempo_bpm") == pytest.approx(90.0)
        assert feat(score, "tempo_change_count") == 1.0
        # 1 quarter at 120 (0.5 s) + 1 quarter at 60 (1.0 s) = 1.5 s
        assert feat(score, "notes_per_second") == pytest.approx(2 / 1.5)

    def test_velocity_extremes(self):
        score = Score([Note(0, TPQ, 60, 40), Note(TPQ, TPQ, 62, 100)], TPQ)
        assert feat(score, "mean_velocity") == pytest.approx(70.0)
        assert feat(score, "velocity_range") == 60.0
        assert feat(score, "velocity_std") == pytest.approx(30.0)
        assert feat(score, "accented_note_fraction") == pytest.approx(0.5)

    def test_ioi_statistics(self):
        score = Score([Note(0, TPQ // 2, 60, 64), Note(TPQ // 2, TPQ, 62, 64),
                       Note(2 * TPQ, TPQ, 64, 64)], TPQ)
        assert feat(score, "mean_ioi_quarters") == pytest.approx(1.0)
        assert feat(score, "ioi_std_quarters") == pytest.approx(0.5)

    def test_repeated_and_leaping_melody(self):
        score = Score([Note(0, TPQ, 60, 64), Note(TPQ, TPQ, 60, 64),
                       Note(2 * TPQ, TPQ, 65, 64)], TPQ)
        assert feat(score, "repeated_pitch_fraction") == pytest.approx(0.5)
        assert feat(score, "leap_fraction") == pytest.approx(0.5)
        assert feat(score, "stepwise_motion_fraction") == 0.0
        mih = feat(score, "melodic_interval_histogram")
        assert mih[0] == mih[5] == pytest.approx(0.5)


class TestInvariants:
    def test_empty_score_zero_vector_with_flag(self):
        vec = extract_features(Score([], TPQ), CATALOG)
        assert vec.empty
        assert not vec.values.any()

    def test_determinism_bitwise(self, four_note_score):
        a = extract_features(four_note_score, CATALOG).values
        b = extract_features(four_note_score, CATALOG).values
        assert (a == b).all()

    def test_velocity_doubling_doubles_dynamics_change(self):
        rng = np.random.default_rng(5)
        notes = [Note(i * TPQ // 2, TPQ // 2, int(rng.integers(40, 80)),
                      int(rng.integers(20, 63))) for i in range(10)]
        score = Score(notes, TPQ)
        doubled = Score([Note(n.onset, n.duration, n.pitch, n.velocity * 2)
                         for n in notes], TPQ)
        assert feat(doubled, "average_note_to_note_change_in_dynamics") \
            == pytest.approx(2 * feat(score, "average_note_to_note_change_in_dynamics"))

    def test_transposition_by_octave_keeps_pitch_class_histogram(self):
        rng = np.random.default_rng(6)
        notes = [Note(i * TPQ // 2, TPQ // 2, int(rng.integers(30, 100)), 64)
                 for i in range(20)]
        score = Score(notes, TPQ)
        up = Score([Note(n.onset, n.duration, n.pitch + 12, n.velocity)
                    for n in notes], TPQ)
        assert feat(score, "pitch_class_histogram") \
            == pytest.approx(feat(up, "pitch_class_histogram"), abs=1e-12)

    def test_histogram_blocks_sum_to_one_or_zero(self):
        rng = np.random.default_rng(7)
        hist_ids = [e.id for e in CATALOG.entries if e.dim > 1]
        for _ in range(20):
            n = int(rng.integers(2, 30))
            notes = [Note(int(rng.integers(0, 8 * TPQ)), int(rng.integers(1, 2 * TPQ)),
                          int(rng.integers(0, 128)), int(rng.integers(1, 128)))
                     for _ in range(n)]
            score = Score(notes, TPQ)
            for fid in hist_ids:
                total = feat(score, fid).sum()
                assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0


class TestNoteRanges:
    """A hand-built score with a note outside the ranges ``Note`` states
    raises EmoMusicError naming the field, not a numpy ValueError."""

    @pytest.mark.parametrize("field, value, message", [
        ("pitch", 200, "note pitch 200 is outside 0..127"),
        ("pitch", -1, "note pitch -1 is outside 0..127"),
        ("velocity", 200, "note velocity 200 is outside 1..127"),
        ("velocity", 0, "note velocity 0 is outside 1..127"),
        ("track", -1, "note track -1 is negative"),
    ])
    def test_one_note_out_of_range(self, field, value, message):
        note = dict(onset=0, duration=TPQ, pitch=60, velocity=80, track=0)
        note[field] = value
        with pytest.raises(EmoMusicError, match=f"^{message}$"):
            extract_features(Score([Note(**note)], TPQ, [(0, 120.0)]), CATALOG)

    def test_range_ends_are_accepted(self):
        score = Score([Note(0, TPQ, 0, 1, 0), Note(TPQ, TPQ, 127, 127, 3)], TPQ, [(0, 120.0)])
        assert feat(score, "pitch_range") == 127.0


class TestNumpyParity:
    """The per-score kernels call numpy's reductions directly, skipping the
    wrappers of ``ndarray.mean`` and ``np.std``; the bits must not move."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 9000])
    def test_mean_and_std_are_numpys_bit_for_bit(self, dtype, size):
        rng = np.random.default_rng(size)
        x = (rng.standard_normal(size) * 1000 + 60).astype(dtype)
        assert _mean(x).hex() == float(x.mean()).hex()
        assert _pop_std(x).hex() == float(np.std(x)).hex()
        assert _pop_std(x[:0]) == 0.0


class TestCorpus:
    def test_single_score_matches_single_extraction(self, four_note_score):
        matrix = extract_corpus([four_note_score], CATALOG)
        single = extract_features(four_note_score, CATALOG)
        assert (matrix.values[0] == single.values).all()

    def test_permutation_permutes_rows(self, four_note_score):
        other = Score([Note(0, TPQ, 40, 30)], TPQ)
        ab = extract_corpus([four_note_score, other], CATALOG)
        ba = extract_corpus([other, four_note_score], CATALOG)
        assert (ab.values[0] == ba.values[1]).all()
        assert (ab.values[1] == ba.values[0]).all()

    def test_hundred_synthetic_scores_all_finite(self):
        rng = np.random.default_rng(8)
        scores = []
        for _ in range(100):
            n = int(rng.integers(1, 50))
            scores.append(Score(
                [Note(int(rng.integers(0, 16 * TPQ)), int(rng.integers(1, 4 * TPQ)),
                      int(rng.integers(0, 128)), int(rng.integers(1, 128)))
                 for _ in range(n)], TPQ))
        matrix = extract_corpus(scores, CATALOG)
        assert np.isfinite(matrix.values).all()

    def test_csv_has_the_bytes_csv_writer_writes(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((3, CATALOG.total_dim))
        values[0, :6] = [-0.0, 1e16, 0.1 + 0.2, 5e-324, 3.0, -12.0]
        values[1, :4] = [0.0, 1e-7, 123456789.0, -1e300]
        values[2] = np.round(values[2] * 100)  # whole numbers only
        save_corpus_csv(tmp_path / "got.csv", map(csv_row, values), CATALOG)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CATALOG.dim_names())
            writer.writerows(values.tolist())
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"-0.0,1e+16,0.30000000000000004,5e-324,3.0,-12.0," in got

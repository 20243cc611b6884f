"""Score construction, note pairing, quantization, and the token grammar."""

import numpy as np
import pytest

from emomusic.midi import EndOfTrack, MidiFile, MidiTrack, NoteOff, NoteOn, parse_midi
from emomusic.score import Note, Score, midi_to_score, quantize_score
from emomusic.tokens import (
    BAR,
    BOS,
    DURATION_BASE,
    EOS,
    PAD,
    PITCH_BASE,
    POSITION_BASE,
    TEMPO_BASE,
    VELOCITY_BASE,
    VOCAB_SIZE,
    EmptySequence,
    score_to_tokens,
    token_name,
    tokens_to_score,
    vocabulary_manifest,
)

from conftest import random_quantized_score


class TestMidiToScore:
    def test_minimal_fixture(self, minimal_midi):
        score = midi_to_score(parse_midi(minimal_midi))
        assert score.notes == [Note(0, 480, 60, 64, 0)]
        assert score.ticks_per_quarter == 480

    def test_unclosed_note_ends_at_track_end(self):
        track = MidiTrack([(0, NoteOn(0, 60, 64)), (960, EndOfTrack())])
        score = midi_to_score(MidiFile(0, 480, [track]))
        assert score.notes == [Note(0, 960, 60, 64, 0)]

    def test_fifo_pairing_of_overlapping_same_pitch(self):
        # two NoteOns on the same pitch, offs at 300 and 500: FIFO means the
        # first-on gets the first-off
        track = MidiTrack([
            (0, NoteOn(0, 60, 64)),
            (100, NoteOn(0, 60, 70)),
            (200, NoteOff(0, 60, 0)),   # tick 300 closes the tick-0 note
            (200, NoteOff(0, 60, 0)),   # tick 500 closes the tick-100 note
            (0, EndOfTrack()),
        ])
        score = midi_to_score(MidiFile(0, 480, [track]))
        assert score.notes == [Note(0, 300, 60, 64, 0), Note(100, 400, 60, 70, 0)]

    def test_empty_score_flagged_not_fatal(self):
        track = MidiTrack([(0, EndOfTrack())])
        score = midi_to_score(MidiFile(0, 480, [track]))
        assert score.is_empty

    def test_defaults_inserted(self):
        score = Score([Note(0, 480, 60, 64)], 480)
        assert score.tempo_map[0] == (0, 120.0)
        assert score.time_signatures[0] == (0, 4, 4)


class TestVocabulary:
    def test_vocab_size(self):
        assert VOCAB_SIZE == 244
        assert len(vocabulary_manifest()) == 244

    def test_bijection(self):
        manifest = vocabulary_manifest()
        assert sorted(manifest.values()) == list(range(244))
        assert all(token_name(i) in manifest for i in range(244))


class TestScoreToTokens:
    def test_single_quarter_note(self):
        score = Score([Note(0, 480, 60, 64)], 480, [(0, 120.0)], [(0, 4, 4)])
        tokens = score_to_tokens(score)
        assert tokens == [BOS, BAR, TEMPO_BASE + 21, POSITION_BASE + 0,
                          PITCH_BASE + 60, DURATION_BASE + 4 - 1,
                          VELOCITY_BASE + 16, EOS]

    def test_note_in_second_bar_gets_two_bar_tokens(self):
        score = Score([Note(4 * 480, 480, 60, 64)], 480)
        tokens = score_to_tokens(score)
        assert tokens[:3] == [BOS, BAR, TEMPO_BASE + 21]
        assert tokens[3] == BAR
        assert tokens[4] == POSITION_BASE + 0

    def test_duration_clamps_to_32_sixteenths(self):
        score = Score([Note(0, 10 * 480, 60, 64)], 480)
        tokens = score_to_tokens(score)
        assert DURATION_BASE + 32 - 1 in tokens

    def test_tempo_token_only_on_bin_change(self):
        notes = [Note(0, 480, 60, 64), Note(4 * 480 * 4, 480, 62, 64)]
        same = Score(notes, 480, [(0, 120.0)], [(0, 4, 4)])
        tokens = same, score_to_tokens(same)
        n_tempo = sum(1 for t in tokens[1] if TEMPO_BASE <= t < TEMPO_BASE + 32)
        assert n_tempo == 1  # no change, only the first bar announces tempo

        changed = Score(notes, 480, [(0, 120.0), (4 * 480 * 4, 60.0)], [(0, 4, 4)])
        tokens = score_to_tokens(changed)
        n_tempo = sum(1 for t in tokens if TEMPO_BASE <= t < TEMPO_BASE + 32)
        assert n_tempo == 2

    def test_three_four_meter_bar_length(self):
        # in 3/4 a bar is 12 slots: a note at slot 12 sits in bar 2 position 0
        score = Score([Note(3 * 480, 480, 60, 64)], 480,
                      time_signatures=[(0, 3, 4)])
        tokens = score_to_tokens(score)
        bars_before_position = 0
        for t in tokens:
            if t == BAR:
                bars_before_position += 1
            if POSITION_BASE <= t < POSITION_BASE + 16:
                position = t - POSITION_BASE
                break
        assert bars_before_position == 2
        assert position == 0


class TestTokensToScore:
    def test_inverse_of_single_note_example(self):
        score = Score([Note(0, 480, 60, 64)], 480, [(0, 120.0)], [(0, 4, 4)])
        tokens = score_to_tokens(score)
        back, dropped = tokens_to_score(tokens)
        assert dropped == 0
        assert len(back.notes) == 1
        note = back.notes[0]
        assert (note.onset, note.duration, note.pitch) == (0, 480, 60)
        assert note.velocity == 66  # bin 16 maps back to its center value

    def test_pitch_without_position_dropped_and_counted(self):
        tokens = [BOS, BAR, TEMPO_BASE + 21, PITCH_BASE + 60, EOS]
        score, dropped = tokens_to_score(tokens)
        assert dropped == 1
        assert score.is_empty

    def test_empty_sequence_raises(self):
        with pytest.raises(EmptySequence):
            tokens_to_score([])

    def test_interior_pad_dropped(self):
        tokens = [BOS, BAR, TEMPO_BASE + 21, PAD, EOS]
        _, dropped = tokens_to_score(tokens)
        assert dropped == 1


class TestRoundTrips:
    def test_tokenize_detokenize_identity_on_quantized_scores(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            score = random_quantized_score(rng)
            quantized = quantize_score(score)
            back, dropped = tokens_to_score(score_to_tokens(quantized))
            assert dropped == 0
            assert back.notes == quantized.notes
            assert back.tempo_map == pytest.approx(quantized.tempo_map)

    def test_detokenize_tokenize_identity_on_token_streams(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            tokens = score_to_tokens(quantize_score(random_quantized_score(rng)))
            score, _ = tokens_to_score(tokens)
            assert score_to_tokens(score) == tokens

    def test_quantization_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            score = random_quantized_score(rng)
            once = quantize_score(score)
            twice = quantize_score(once)
            assert once.notes == twice.notes
            assert once.tempo_map == twice.tempo_map


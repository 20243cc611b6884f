"""REMI-style event tokenizer: Score <-> integer token sequences.

Vocabulary (244 ids, fixed):

    0 PAD, 1 BOS, 2 EOS, 3 Bar,
    4..19    Position_0..15        (sixteenth slot within the bar)
    20..147  Pitch_0..127
    148..179 Duration_1..32        (sixteenth-note multiples, clamped)
    180..211 Velocity_0..31        (uniform bins of width 4)
    212..243 Tempo_0..31           (log-spaced bins over 30..240 BPM)

The position, duration, velocity and tempo block sizes are the grid
constants of ``score.py``, so the grid is decided there and only there.

Grammar emitted by the tokenizer (and required for lossless round-trips):
BOS, then per bar a Bar token, a Tempo token when the binned tempo differs
from the previously emitted one (always at the first bar), then per note
Position, Pitch, Duration, Velocity in that order, notes ordered by
(onset slot, pitch); finally EOS. The token stream carries no meter, so
detokenization assumes the grid's default 4/4 bar of 16 slots.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import EmoMusicError
from .score import (
    DEFAULT_TIME_SIGNATURE,
    GRID_TICKS_PER_QUARTER,
    MAX_DURATION_SLOTS,
    SLOTS_PER_QUARTER,
    TEMPO_BINS,
    VELOCITY_BINS,
    Note,
    Score,
    duration_slots,
    onset_slot,
    slots_per_bar,
    tempo_bin,
    tempo_from_bin,
    velocity_bin,
    velocity_from_bin,
)

PAD = 0
BOS = 1
EOS = 2
BAR = 3
POSITION_BASE = 4
N_POSITIONS = slots_per_bar(*DEFAULT_TIME_SIGNATURE)
PITCH_BASE = POSITION_BASE + N_POSITIONS
N_PITCHES = 128
DURATION_BASE = PITCH_BASE + N_PITCHES
N_DURATIONS = MAX_DURATION_SLOTS
VELOCITY_BASE = DURATION_BASE + N_DURATIONS
N_VELOCITIES = VELOCITY_BINS
TEMPO_BASE = VELOCITY_BASE + N_VELOCITIES
N_TEMPI = TEMPO_BINS
VOCAB_SIZE = TEMPO_BASE + N_TEMPI


class EmptySequence(EmoMusicError):
    pass


def position_token(slot: int) -> int:
    return POSITION_BASE + min(N_POSITIONS - 1, max(0, slot))


def pitch_token(pitch: int) -> int:
    return PITCH_BASE + min(N_PITCHES - 1, max(0, pitch))


def duration_token(slots: int) -> int:
    return DURATION_BASE + min(N_DURATIONS, max(1, slots)) - 1


def velocity_token(velocity_bin: int) -> int:
    return VELOCITY_BASE + min(N_VELOCITIES - 1, max(0, velocity_bin))


def tempo_token(tempo_bin: int) -> int:
    return TEMPO_BASE + min(N_TEMPI - 1, max(0, tempo_bin))


def token_name(token_id: int) -> str:
    if not 0 <= token_id < VOCAB_SIZE:
        raise EmoMusicError(f"token id {token_id} outside vocabulary")
    if token_id == PAD:
        return "PAD"
    if token_id == BOS:
        return "BOS"
    if token_id == EOS:
        return "EOS"
    if token_id == BAR:
        return "Bar"
    if token_id < PITCH_BASE:
        return f"Position_{token_id - POSITION_BASE}"
    if token_id < DURATION_BASE:
        return f"Pitch_{token_id - PITCH_BASE}"
    if token_id < VELOCITY_BASE:
        return f"Duration_{token_id - DURATION_BASE + 1}"
    if token_id < TEMPO_BASE:
        return f"Velocity_{token_id - VELOCITY_BASE}"
    return f"Tempo_{token_id - TEMPO_BASE}"


def vocabulary_manifest() -> dict[str, int]:
    """Token name -> id for every vocabulary element (a bijection)."""
    return {token_name(i): i for i in range(VOCAB_SIZE)}


def save_vocabulary(path: str | Path) -> None:
    Path(path).write_text(json.dumps(vocabulary_manifest(), indent=1) + "\n")


def score_to_tokens(score: Score) -> list[int]:
    """Tokenize a score. Quantization is total: values clamp to their nearest bin."""
    tokens = [BOS]
    if score.is_empty:
        tokens.append(EOS)
        return tokens

    ticks_per_slot = score.ticks_per_quarter / SLOTS_PER_QUARTER
    quantized = sorted(
        ((onset_slot(n.onset, score.ticks_per_quarter),
          n.pitch,
          duration_slots(n.duration, score.ticks_per_quarter),
          velocity_bin(n.velocity))
         for n in score.notes),
        key=lambda q: (q[0], q[1]))

    last_slot = quantized[-1][0]
    bar_start = 0
    note_idx = 0
    last_tempo_bin = None
    while bar_start <= last_slot:
        bar_tick = round(bar_start * ticks_per_slot)
        num, den = score.time_signature_at(bar_tick)
        bar_slots = slots_per_bar(num, den)
        tokens.append(BAR)
        bin_now = tempo_bin(score.tempo_at(bar_tick))
        if bin_now != last_tempo_bin:
            tokens.append(tempo_token(bin_now))
            last_tempo_bin = bin_now
        while note_idx < len(quantized) and quantized[note_idx][0] < bar_start + bar_slots:
            slot, pitch, dur, vel = quantized[note_idx]
            tokens.append(position_token(slot - bar_start))
            tokens.append(pitch_token(pitch))
            tokens.append(duration_token(dur))
            tokens.append(velocity_token(vel))
            note_idx += 1
        bar_start += bar_slots

    tokens.append(EOS)
    return tokens


def tokens_to_score(tokens: list[int]) -> tuple[Score, int]:
    """Decode a token sequence into a quantized 4/4 score.

    Malformed fragments (tokens out of grammar order) are skipped; the second
    return value counts the dropped tokens. Raises EmptySequence on an empty
    token list.
    """
    if not tokens:
        raise EmptySequence("cannot decode an empty token sequence")

    tps = GRID_TICKS_PER_QUARTER // SLOTS_PER_QUARTER
    bar_slots = N_POSITIONS  # one 4/4 bar
    notes: list[Note] = []
    tempo_map: dict[int, float] = {}
    dropped = 0
    bar_start = -bar_slots  # first Bar token moves this to slot 0
    pending: list[int] = []  # [position] -> [position, pitch] -> [position, pitch, dur]
    seen_bar = False

    def flush_pending() -> None:
        nonlocal dropped
        dropped += len(pending)
        pending.clear()

    for i, tok in enumerate(tokens):
        if tok == BOS:
            if i != 0:
                dropped += 1
            continue
        if tok == EOS:
            break
        if tok == BAR:
            flush_pending()
            bar_start += bar_slots
            seen_bar = True
        elif TEMPO_BASE <= tok < TEMPO_BASE + N_TEMPI:
            flush_pending()
            tick = max(0, bar_start) * tps if seen_bar else 0
            tempo_map[tick] = tempo_from_bin(tok - TEMPO_BASE)
        elif POSITION_BASE <= tok < POSITION_BASE + N_POSITIONS:
            flush_pending()
            if seen_bar:
                pending.append(tok - POSITION_BASE)
            else:
                dropped += 1
        elif PITCH_BASE <= tok < PITCH_BASE + N_PITCHES:
            if len(pending) == 1:
                pending.append(tok - PITCH_BASE)
            else:
                flush_pending()
                dropped += 1
        elif DURATION_BASE <= tok < DURATION_BASE + N_DURATIONS:
            if len(pending) == 2:
                pending.append(tok - DURATION_BASE + 1)
            else:
                flush_pending()
                dropped += 1
        elif VELOCITY_BASE <= tok < VELOCITY_BASE + N_VELOCITIES:
            if len(pending) == 3:
                slot, pitch, dur = pending
                pending.clear()
                onset = (bar_start + slot) * tps
                notes.append(Note(onset, dur * tps, pitch,
                                  velocity_from_bin(tok - VELOCITY_BASE), 0))
            else:
                flush_pending()
                dropped += 1
        else:  # PAD or anything else out of place
            flush_pending()
            dropped += 1
    flush_pending()

    score = Score(notes, GRID_TICKS_PER_QUARTER,
                  sorted(tempo_map.items()), [(0, *DEFAULT_TIME_SIGNATURE)])
    return score, dropped


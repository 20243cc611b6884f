"""Note-level score model: MIDI-to-note conversion and grid quantization.

A :class:`Score` is the pivot representation between raw MIDI, the token
stream, and feature extraction. Notes are kept sorted by (onset, pitch,
track); the tempo map and time-signature list always start at tick 0
(defaults 120 BPM and 4/4 are inserted when the source has none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import EmoMusicError
from .midi import (
    EndOfTrack,
    MidiFile,
    MidiTrack,
    NoteOff,
    NoteOn,
    SetTempo,
    TimeSignature,
)

DEFAULT_BPM = 120.0
DEFAULT_TIME_SIGNATURE = (4, 4)


@dataclass(frozen=True, slots=True)
class Note:
    onset: int      # ticks, >= 0
    duration: int   # ticks, >= 1
    pitch: int      # 0..127
    velocity: int   # 1..127
    track: int = 0  # >= 0

    @property
    def end(self) -> int:
        return self.onset + self.duration


_NOTE_ORDER = attrgetter("onset", "pitch", "track")


@dataclass(slots=True)
class Score:
    notes: list[Note]
    ticks_per_quarter: int
    tempo_map: list[tuple[int, float]] = field(default_factory=list)        # (tick, BPM)
    time_signatures: list[tuple[int, int, int]] = field(default_factory=list)  # (tick, num, den)

    def __post_init__(self) -> None:
        if self.ticks_per_quarter <= 0:
            raise EmoMusicError("ticks_per_quarter must be positive")
        self.notes = sorted(self.notes, key=_NOTE_ORDER)
        self.tempo_map = sorted(self.tempo_map, key=lambda e: e[0])
        self.time_signatures = sorted(self.time_signatures, key=lambda e: e[0])
        if not self.tempo_map or self.tempo_map[0][0] != 0:
            self.tempo_map.insert(0, (0, DEFAULT_BPM))
        if not self.time_signatures or self.time_signatures[0][0] != 0:
            self.time_signatures.insert(0, (0, *DEFAULT_TIME_SIGNATURE))

    @property
    def is_empty(self) -> bool:
        return not self.notes

    @property
    def end_tick(self) -> int:
        return max((n.end for n in self.notes), default=0)

    def tempo_at(self, tick: int) -> float:
        bpm = self.tempo_map[0][1]
        for t, value in self.tempo_map:
            if t > tick:
                break
            bpm = value
        return bpm

    def time_signature_at(self, tick: int) -> tuple[int, int]:
        num, den = self.time_signatures[0][1:]
        for t, n, d in self.time_signatures:
            if t > tick:
                break
            num, den = n, d
        return num, den


def midi_to_score(midi: MidiFile) -> Score:
    """Pair NoteOn/NoteOff events into notes and collect tempo/meter changes.

    Pairing is FIFO per (track, channel, pitch); a NoteOn still open when its
    track ends is closed at the track's final tick. The result may be empty
    (``Score.is_empty``) — callers decide whether that is fatal.
    """
    notes: list[Note] = []
    tempo_map: list[tuple[int, float]] = []
    time_signatures: list[tuple[int, int, int]] = []

    for track_index, track in enumerate(midi.tracks):
        tick = 0
        open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (ch, pitch) -> [(onset, vel)]
        for delta, event in track.events:
            tick += delta
            if isinstance(event, NoteOn):
                open_notes.setdefault((event.channel, event.pitch), []).append(
                    (tick, event.velocity))
            elif isinstance(event, NoteOff):
                stack = open_notes.get((event.channel, event.pitch))
                if stack:
                    onset, velocity = stack.pop(0)
                    notes.append(Note(onset, max(1, tick - onset), event.pitch,
                                      max(1, velocity), track_index))
            elif isinstance(event, SetTempo):
                bpm = 60_000_000.0 / event.microseconds_per_quarter
                tempo_map.append((tick, bpm))
            elif isinstance(event, TimeSignature):
                time_signatures.append((tick, event.numerator, 2 ** event.denominator_pow2))
            elif isinstance(event, EndOfTrack):
                break
        for (channel, pitch), stack in open_notes.items():
            for onset, velocity in stack:
                notes.append(Note(onset, max(1, tick - onset), pitch,
                                  max(1, velocity), track_index))

    return Score(notes, midi.division, tempo_map, time_signatures)


# The sixteenth-note grid shared by the quantizer and the tokenizer: 16
# position slots per 4/4 bar, other meters scaling the bar's slot count by
# numerator/denominator (slots_per_bar = 16 * num / den). Durations are binned
# to 1..32 sixteenths, velocities to 32 uniform bins of width 4, tempi to 32
# log-spaced bins over 30..240 BPM. tokens.py sizes its vocabulary from these.
GRID_TICKS_PER_QUARTER = 480
SLOTS_PER_QUARTER = 4
MAX_DURATION_SLOTS = 32
VELOCITY_BINS = 32
TEMPO_BINS = 32
TEMPO_MIN = 30.0
TEMPO_MAX = 240.0


def slots_per_bar(numerator: int, denominator: int) -> int:
    return max(1, round(SLOTS_PER_QUARTER * 4 * numerator / denominator))


def velocity_bin(velocity: int) -> int:
    return min(VELOCITY_BINS - 1, max(0, velocity // 4))


def velocity_from_bin(b: int) -> int:
    return min(127, b * 4 + 2)


def tempo_bin(bpm: float) -> int:
    span = math.log(TEMPO_MAX / TEMPO_MIN)
    x = math.log(max(bpm, 1e-9) / TEMPO_MIN) / span
    return min(TEMPO_BINS - 1, max(0, round(x * (TEMPO_BINS - 1))))


def tempo_from_bin(b: int) -> float:
    return TEMPO_MIN * (TEMPO_MAX / TEMPO_MIN) ** (b / (TEMPO_BINS - 1))


def duration_slots(duration_ticks: int, ticks_per_quarter: int) -> int:
    ticks_per_slot = ticks_per_quarter / SLOTS_PER_QUARTER
    return min(MAX_DURATION_SLOTS, max(1, round(duration_ticks / ticks_per_slot)))


def onset_slot(onset_ticks: int, ticks_per_quarter: int) -> int:
    ticks_per_slot = ticks_per_quarter / SLOTS_PER_QUARTER
    return max(0, round(onset_ticks / ticks_per_slot))


def quantize_score(score: Score) -> Score:
    """Snap a score onto the grid. Idempotent; output uses the grid's tpq."""
    tps = GRID_TICKS_PER_QUARTER // SLOTS_PER_QUARTER
    notes = []
    for n in score.notes:
        slot = onset_slot(n.onset, score.ticks_per_quarter)
        dur = duration_slots(n.duration, score.ticks_per_quarter)
        vel = velocity_from_bin(velocity_bin(n.velocity))
        notes.append(Note(slot * tps, dur * tps, n.pitch, vel, n.track))

    scale = GRID_TICKS_PER_QUARTER / score.ticks_per_quarter
    snapped: dict[int, float] = {}  # same tick: last change wins
    for tick, bpm in score.tempo_map:
        snapped[round(tick * scale / tps) * tps] = tempo_from_bin(tempo_bin(bpm))
    tempo_map: list[tuple[int, float]] = []
    for tick in sorted(snapped):
        if not tempo_map or tempo_map[-1][1] != snapped[tick]:  # drop no-op changes
            tempo_map.append((tick, snapped[tick]))
    time_signatures = [(round(t * scale / tps) * tps, num, den)
                       for t, num, den in score.time_signatures]
    return Score(notes, GRID_TICKS_PER_QUARTER, tempo_map, time_signatures)


def merge_tracks(score: Score) -> Score:
    """Flatten all tracks into track 0 (the pipeline treats scores as one stream).

    Notes are immutable, so those already on track 0 are shared, not copied."""
    return Score([n if not n.track else Note(n.onset, n.duration, n.pitch, n.velocity)
                  for n in score.notes],
                 score.ticks_per_quarter, list(score.tempo_map),
                 list(score.time_signatures))


def score_to_midi(score: Score) -> MidiFile:
    """Render a score as a single-track format-0 MIDI file.

    Track indices are collapsed onto channel 0. At equal ticks, meta events
    come first and note-offs precede note-ons so FIFO re-pairing on parse
    recovers the same notes.
    """
    events: list[tuple[int, int, object]] = []
    for tick, bpm in score.tempo_map:
        events.append((tick, 0, SetTempo(max(1, round(60_000_000 / bpm)))))
    for tick, num, den in score.time_signatures:
        pow2 = max(0, round(math.log2(den))) if den > 0 else 2
        events.append((tick, 0, TimeSignature(num, pow2)))
    for n in score.notes:
        events.append((n.end, 1, NoteOff(0, n.pitch, 0)))
        events.append((n.onset, 2, NoteOn(0, n.pitch, n.velocity)))
    events.sort(key=lambda e: (e[0], e[1]))

    track = MidiTrack()
    last_tick = 0
    for tick, _, event in events:
        track.events.append((tick - last_tick, event))
        last_tick = tick
    track.events.append((0, EndOfTrack()))
    return MidiFile(format=0, division=score.ticks_per_quarter, tracks=[track])

"""Shared fixtures: hand-built MIDI bytes, reference scores, random generators,
and the worker count of ``emomusic.parallel``."""

import os

import numpy as np
import pytest

from emomusic import parallel
from emomusic.midi import (
    EndOfTrack,
    MidiFile,
    MidiTrack,
    NoteOff,
    NoteOn,
    OtherChannel,
    OtherMeta,
    ProgramChange,
    SetTempo,
    TimeSignature,
)
from emomusic.score import Note, Score


def minimal_midi_bytes() -> bytes:
    """MThd(format 0, 1 track, division 480) + MTrk with NoteOn(ch0, 60, 64)
    at delta 0, NoteOff at delta 480, EndOfTrack. Laid out by hand."""
    header = b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00" + b"\x00\x01" + (480).to_bytes(2, "big")
    body = (
        b"\x00" + bytes([0x90, 60, 64])          # delta 0, NoteOn
        + b"\x83\x60" + bytes([0x80, 60, 64])    # delta 480 (VLQ 0x83 0x60), NoteOff
        + b"\x00\xff\x2f\x00"                    # delta 0, EndOfTrack
    )
    return header + b"MTrk" + len(body).to_bytes(4, "big") + body


@pytest.fixture
def minimal_midi() -> bytes:
    return minimal_midi_bytes()


@pytest.fixture
def four_note_score() -> Score:
    """C4 E4 G4 C5 as sequential quarters, velocities 60/70/80/90, 120 BPM."""
    tpq = 480
    notes = [
        Note(0, tpq, 60, 60),
        Note(tpq, tpq, 64, 70),
        Note(2 * tpq, tpq, 67, 80),
        Note(3 * tpq, tpq, 72, 90),
    ]
    return Score(notes, tpq)


def random_midi_file(rng: np.random.Generator) -> MidiFile:
    """A structurally valid random MidiFile for round-trip property tests."""
    fmt = int(rng.integers(0, 2))
    n_tracks = 1 if fmt == 0 else int(rng.integers(1, 4))
    division = int(rng.choice([96, 120, 240, 480]))
    tracks = []
    for _ in range(n_tracks):
        events = []
        for _ in range(int(rng.integers(0, 40))):
            delta = int(rng.integers(0, 2000))
            kind = int(rng.integers(0, 7))
            channel = int(rng.integers(0, 16))
            pitch = int(rng.integers(0, 128))
            if kind == 0:
                events.append((delta, NoteOn(channel, pitch, int(rng.integers(1, 128)))))
            elif kind == 1:
                events.append((delta, NoteOff(channel, pitch, int(rng.integers(0, 128)))))
            elif kind == 2:
                events.append((delta, SetTempo(int(rng.integers(100_000, 2_000_000)))))
            elif kind == 3:
                events.append((delta, TimeSignature(int(rng.integers(1, 13)),
                                                    int(rng.integers(0, 5)))))
            elif kind == 4:
                events.append((delta, ProgramChange(channel, int(rng.integers(0, 128)))))
            elif kind == 5:
                payload = bytes(rng.integers(0, 256, size=int(rng.integers(0, 8))).tolist())
                events.append((delta, OtherMeta(int(rng.integers(1, 0x2F)), payload)))
            else:
                status = int(rng.choice([0xA0, 0xB0, 0xD0, 0xE0])) | channel
                size = 1 if status & 0xF0 == 0xD0 else 2
                payload = bytes(rng.integers(0, 128, size=size).tolist())
                events.append((delta, OtherChannel(status, payload)))
        events.append((int(rng.integers(0, 100)), EndOfTrack()))
        tracks.append(MidiTrack(events))
    return MidiFile(fmt, division, tracks)


def random_quantized_score(rng: np.random.Generator, tpq: int = 480) -> Score:
    """A random single-track 4/4 score already on the sixteenth grid."""
    tps = tpq // 4
    n_notes = int(rng.integers(1, 40))
    notes = []
    for _ in range(n_notes):
        slot = int(rng.integers(0, 8 * 16))
        dur = int(rng.integers(1, 33))
        pitch = int(rng.integers(0, 128))
        vel_bin = int(rng.integers(0, 32))
        notes.append(Note(slot * tps, dur * tps, pitch, vel_bin * 4 + 2, 0))
    # tempo changes only at bar starts up to the last note's bar, distinct
    # bins (the token grammar cannot express more than that)
    last_bar = max(n.onset for n in notes) // (16 * tps)
    bins = rng.permutation(32)
    tempo_map = [(0, 30.0 * 8 ** (int(bins[0]) / 31))]
    if rng.random() < 0.5 and last_bar >= 1:
        bar = int(rng.integers(1, last_bar + 1))
        tempo_map.append((bar * 16 * tps, 30.0 * 8 ** (int(bins[1]) / 31)))
    return Score(notes, tpq, tempo_map, [(0, 4, 4)])


def use_cpus(monkeypatch, n: int) -> None:
    """Make ``parallel.fork_map`` see ``n`` usable CPUs."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: n)


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of the processes this process forks during the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids: list[int]) -> None:
    """None of ``pids`` is a child of this process any more, zombies included."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

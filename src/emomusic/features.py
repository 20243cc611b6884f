"""Symbolic feature catalog and attribute-vector extraction.

A fixed, versioned catalog of 535 dimensions across the seven classic
symbolic-feature groups (pitch, melody, chord/vertical, rhythm, dynamics,
texture, instrumentation). Extraction is deterministic: equal scores yield
bitwise-equal vectors. Histogram blocks are normalized to sum 1 whenever
they have at least one observation and are all-zero otherwise.

Definitions that need pinning down are frozen here and in
docs/feature_catalog.md, which a test checks against ``default_catalog()``:

* piece length = last note end, in quarter notes;
* note density per quarter = note count / piece length in quarters;
* density variability = population std of per-quarter-window note counts;
* "long" rhythmic values are >= 2 quarters (half note), "very long" >= 4;
* vertical intervals pair a note with every note already sounding at its
  onset, weighted by the co-sounding duration in quarters;
* rhythmic-value bins (quarters): 1/8, 3/16, 1/4, 3/8, 1/2, 3/4, 1, 3/2,
  2, 3, 4, and >= 6 ("dotted whole or longer"), nearest-bin assignment;
* sounding-time quantities (rests, polyphony) are sampled on the
  sixteenth-note grid.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import add, attrgetter
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, read_json
from .score import Score

CATALOG_VERSION = "v1"

GROUPS = ("pitch", "melody", "chord/vertical", "rhythm", "dynamics",
          "texture", "instrumentation")

SIXTEENTHS_PER_QUARTER = 4
LONG_VALUE_QUARTERS = 2.0
VERY_LONG_VALUE_QUARTERS = 4.0
ACCENT_VELOCITY = 96

# nominal rhythmic values in quarter notes; the last bin is open-ended
RHYTHMIC_VALUE_BINS = (0.125, 0.1875, 0.25, 0.375, 0.5, 0.75,
                       1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


class CatalogMismatch(EmoMusicError):
    pass


@dataclass(frozen=True, slots=True)
class FeatureDef:
    id: str
    group: str
    dim: int
    description: str


@dataclass(slots=True)
class FeatureCatalog:
    entries: list[FeatureDef]
    version: str = CATALOG_VERSION
    _offsets: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False)
    # the one-dim features' ids and offsets, and (id, start, stop) of the others
    _scalar_ids: list[str] = field(default_factory=list, repr=False, compare=False)
    _scalar_at: np.ndarray = field(default=None, repr=False, compare=False)
    _blocks: list[tuple[str, int, int]] = field(default_factory=list, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise EmoMusicError("catalog feature ids must be unique")
        for e in self.entries:
            if e.group not in GROUPS:
                raise EmoMusicError(f"unknown feature group {e.group!r}")
        start = 0
        scalar_at = []
        for e in self.entries:
            self._offsets[e.id] = (start, e.dim)
            if e.dim == 1:
                self._scalar_ids.append(e.id)
                scalar_at.append(start)
            else:
                self._blocks.append((e.id, start, start + e.dim))
            start += e.dim
        self._scalar_at = np.array(scalar_at, dtype=np.intp)

    @property
    def total_dim(self) -> int:
        return sum(e.dim for e in self.entries)

    def span(self, feature_id: str) -> tuple[int, int]:
        """(start offset, dim) of a feature in the flattened vector."""
        return self._offsets[feature_id]

    def indices(self, feature_id: str) -> list[int]:
        start, dim = self.span(feature_id)
        return list(range(start, start + dim))

    def flatten(self, values: dict[str, float | np.ndarray]) -> np.ndarray:
        """The flattened vector holding ``values[id]`` at each feature's span."""
        out = np.zeros(self.total_dim)
        out[self._scalar_at] = [values[fid] for fid in self._scalar_ids]
        for fid, start, stop in self._blocks:
            out[start:stop] = values[fid]
        return out

    def dim_names(self) -> list[str]:
        """One name per flattened dimension (histograms get _<bin> suffixes)."""
        names = []
        for e in self.entries:
            if e.dim == 1:
                names.append(e.id)
            else:
                names.extend(f"{e.id}_{i}" for i in range(e.dim))
        return names


@dataclass(slots=True)
class AttributeVector:
    values: np.ndarray
    catalog_version: str = CATALOG_VERSION
    empty: bool = False  # set when the source score had no notes


@dataclass(slots=True)
class CorpusMatrix:
    values: np.ndarray  # (n_scores, D)
    catalog_version: str = CATALOG_VERSION
    empty_flags: list[bool] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def _scalar(fid: str, group: str, desc: str) -> FeatureDef:
    return FeatureDef(fid, group, 1, desc)


def default_catalog() -> FeatureCatalog:
    e: list[FeatureDef] = [
        # pitch
        _scalar("mean_pitch", "pitch", "Arithmetic mean of MIDI pitches."),
        _scalar("pitch_std", "pitch", "Population std of MIDI pitches."),
        _scalar("pitch_range", "pitch", "Highest minus lowest pitch."),
        _scalar("min_pitch", "pitch", "Lowest MIDI pitch."),
        _scalar("max_pitch", "pitch", "Highest MIDI pitch."),
        _scalar("distinct_pitch_count", "pitch", "Number of distinct pitches."),
        _scalar("distinct_pitch_class_count", "pitch", "Number of distinct pitch classes."),
        _scalar("pitch_class_entropy", "pitch",
                "Shannon entropy (bits) of the pitch-class histogram."),
        _scalar("most_common_pitch_prevalence", "pitch",
                "Fraction of notes on the most common pitch."),
        _scalar("most_common_pitch_class_prevalence", "pitch",
                "Fraction of notes on the most common pitch class."),
        FeatureDef("pitch_class_histogram", "pitch", 12,
                   "Note-count histogram over pitch classes, C = bin 0, normalized."),
        FeatureDef("pitch_histogram", "pitch", 128,
                   "Note-count histogram over MIDI pitches, normalized."),
        # melody
        _scalar("mean_melodic_interval", "melody",
                "Mean |pitch step| between successive notes in score order."),
        _scalar("melodic_interval_std", "melody", "Population std of |pitch steps|."),
        _scalar("stepwise_motion_fraction", "melody",
                "Fraction of intervals of 1 or 2 semitones."),
        _scalar("leap_fraction", "melody", "Fraction of intervals of 5+ semitones."),
        _scalar("repeated_pitch_fraction", "melody", "Fraction of zero intervals."),
        _scalar("ascending_interval_fraction", "melody",
                "Among nonzero steps, fraction that ascend."),
        FeatureDef("melodic_interval_histogram", "melody", 128,
                   "Histogram of |pitch steps| between successive notes, normalized."),
        # chord / vertical
        _scalar("simultaneous_onset_fraction", "chord/vertical",
                "Fraction of notes sharing an onset tick with another note."),
        _scalar("mean_vertical_interval", "chord/vertical",
                "Duration-weighted mean vertical interval in semitones."),
        FeatureDef("vertical_interval_histogram", "chord/vertical", 128,
                   "Histogram of pairwise semitone gaps among co-sounding notes, "
                   "sampled at onsets and weighted by co-sounding quarters, normalized."),
        # rhythm
        _scalar("total_number_of_notes", "rhythm", "Note count."),
        _scalar("note_density_per_quarter_note", "rhythm",
                "Note count / piece length in quarter notes."),
        _scalar("note_density_per_quarter_note_variability", "rhythm",
                "Population std of per-quarter-note window note counts."),
        _scalar("prevalence_of_long_rhythmic_values", "rhythm",
                "Fraction of notes with duration >= 2 quarters."),
        _scalar("prevalence_of_very_long_rhythmic_values", "rhythm",
                "Fraction of notes with duration >= 4 quarters."),
        _scalar("mean_duration_quarters", "rhythm", "Mean note duration in quarters."),
        _scalar("duration_std_quarters", "rhythm", "Population std of durations in quarters."),
        _scalar("mean_ioi_quarters", "rhythm",
                "Mean inter-onset interval between successive notes, in quarters."),
        _scalar("ioi_std_quarters", "rhythm", "Population std of inter-onset intervals."),
        _scalar("rest_fraction", "rhythm",
                "Fraction of sixteenth slots up to the last note end with nothing sounding."),
        _scalar("prevalence_of_most_common_rhythmic_value", "rhythm",
                "Mass of the fullest rhythmic-value bin."),
        _scalar("notes_per_second", "rhythm",
                "Note count / piece duration in seconds under the tempo map."),
        _scalar("initial_tempo_bpm", "rhythm", "Tempo at tick 0."),
        _scalar("mean_tempo_bpm", "rhythm", "Time-weighted mean tempo over the piece."),
        _scalar("tempo_change_count", "rhythm", "Number of tempo changes after tick 0."),
        FeatureDef("rhythmic_value_histogram", "rhythm", 12,
                   "Nearest-bin histogram over nominal rhythmic values "
                   "(thirty-second .. dotted-whole-or-longer), normalized."),
        FeatureDef("duration_sixteenths_histogram", "rhythm", 32,
                   "Histogram of durations rounded to 1..32 sixteenths, normalized."),
        FeatureDef("onset_position_histogram", "rhythm", 16,
                   "Histogram of onset slots within a 16-slot bar, normalized."),
        # dynamics
        _scalar("average_note_to_note_change_in_dynamics", "dynamics",
                "Mean |velocity difference| between successive notes in score order."),
        _scalar("mean_velocity", "dynamics", "Mean velocity."),
        _scalar("velocity_std", "dynamics", "Population std of velocities."),
        _scalar("velocity_range", "dynamics", "Max minus min velocity."),
        _scalar("accented_note_fraction", "dynamics",
                f"Fraction of notes with velocity >= {ACCENT_VELOCITY}."),
        FeatureDef("velocity_histogram", "dynamics", 32,
                   "Histogram of velocity // 4 bins, normalized."),
        # texture
        _scalar("relative_note_density_of_highest_line", "texture",
                "Notes in the track with highest mean pitch / mean notes per track "
                "(1.0 for single-track scores)."),
        _scalar("polyphony_rate", "texture",
                "Among sounding sixteenth slots, fraction with 2+ notes sounding."),
        _scalar("mean_simultaneous_pitches", "texture",
                "Mean sounding-note count over sounding sixteenth slots."),
        _scalar("max_simultaneous_pitches", "texture",
                "Max sounding-note count over sixteenth slots."),
        _scalar("simultaneity_std", "texture",
                "Population std of sounding-note counts over sounding slots."),
        # instrumentation (track-level: scores carry no program data)
        _scalar("active_track_count", "instrumentation", "Tracks containing notes."),
        _scalar("total_track_count", "instrumentation", "Highest track index + 1."),
        _scalar("densest_track_note_share", "instrumentation",
                "Largest per-track note count / total notes."),
        _scalar("mean_notes_per_track", "instrumentation",
                "Note count / active track count."),
    ]
    return FeatureCatalog(e)


# the 17 manually designed emotion attributes: pitch class histogram,
# note density, rhythm density, and mean pitch/duration/velocity
MANUAL_FEATURE_IDS = (
    "pitch_class_histogram",
    "note_density_per_quarter_note",
    "notes_per_second",
    "mean_pitch",
    "mean_duration_quarters",
    "mean_velocity",
)


def manual_indices(catalog: FeatureCatalog) -> list[int]:
    idx: list[int] = []
    for fid in MANUAL_FEATURE_IDS:
        idx.extend(catalog.indices(fid))
    return idx


_NOTE_FIELDS = attrgetter("onset", "duration", "pitch", "velocity", "track")
_SEMITONES = np.arange(128)
_NOMINALS = np.asarray(RHYTHMIC_VALUE_BINS)


def _mean(x: np.ndarray) -> float:
    """``x.mean()``, bit for bit, without its wrapper layers."""
    return float(np.add.reduce(x, dtype=float) / x.size)


def _pop_std(x: np.ndarray) -> float:
    """``np.std(x)``, bit for bit: ``np.var``'s own steps without its wrapper
    layers. 0.0 for no values."""
    if not x.size:
        return 0.0
    centred = x - np.add.reduce(x, dtype=float) / x.size
    return float(np.sqrt(np.add.reduce(centred * centred) / x.size))


def _normalized(counts: np.ndarray) -> np.ndarray:
    total = counts.sum()
    return counts / total if total > 0 else counts.astype(float)


def _piece_seconds(score: Score, end_tick: int) -> float:
    """Integrate the tempo map over [0, end_tick]."""
    if end_tick <= 0:
        return 0.0
    seconds = 0.0
    tempo = list(score.tempo_map) + [(end_tick, score.tempo_map[-1][1])]
    for (t0, bpm), (t1, _) in zip(tempo, tempo[1:]):
        t1 = min(t1, end_tick)
        if t1 > t0:
            seconds += (t1 - t0) / score.ticks_per_quarter * 60.0 / bpm
        if t1 >= end_tick:
            break
    return seconds


def _vertical_intervals(onsets: tuple[int, ...], ends: list[int], pitches: tuple[int, ...],
                        tpq: int) -> tuple[np.ndarray, int]:
    """128-bin weighted interval counts plus the simultaneous-onset note count,
    from the notes' onsets, ends and pitches in score order."""
    counts = [0.0] * 128
    active: list[int] = []  # indices of notes that may still sound
    simultaneous = [False] * len(onsets)
    for j, onset in enumerate(onsets):
        end, pitch = ends[j], pitches[j]
        active = [i for i in active if ends[i] > onset]
        for i in active:
            counts[abs(pitches[i] - pitch)] += (min(ends[i], end) - onset) / tpq
            if onsets[i] == onset:
                simultaneous[i] = simultaneous[j] = True
        active.append(j)
    return np.array(counts), sum(simultaneous)


def extract_features(score: Score, catalog: FeatureCatalog | None = None) -> AttributeVector:
    """Compute the full attribute vector for one score.

    An empty score yields an all-zero vector with the ``empty`` flag set.
    Means, standard deviations and normalised histograms are numpy's own
    arithmetic, reached without its wrapper layers, and distinct counts are
    read off the histograms' bin counts.
    """
    catalog = catalog or default_catalog()
    if score.is_empty:
        return AttributeVector(np.zeros(catalog.total_dim), catalog.version, empty=True)

    notes = score.notes
    n = len(notes)
    tpq = score.ticks_per_quarter
    onset_list, duration_list, pitch_list, velocity_list, track_list = \
        zip(*map(_NOTE_FIELDS, notes))
    low, high = min(pitch_list), max(pitch_list)
    softest, loudest = min(velocity_list), max(velocity_list)
    lowest_track = min(track_list)
    # the parser cannot produce these; a hand-built Score can
    if low < 0 or high > 127:
        raise EmoMusicError(f"note pitch {low if low < 0 else high} is outside 0..127")
    if softest < 1 or loudest > 127:
        raise EmoMusicError(f"note velocity {softest if softest < 1 else loudest} "
                            f"is outside 1..127")
    if lowest_track < 0:
        raise EmoMusicError(f"note track {lowest_track} is negative")
    end_list = list(map(add, onset_list, duration_list))
    onsets = np.array(onset_list, dtype=float)
    durations = np.array(duration_list, dtype=float)
    pitches = np.array(pitch_list)
    velocities = np.array(velocity_list, dtype=float)
    tracks = np.array(track_list)
    end_tick = max(end_list)
    quarters = end_tick / tpq
    dur_quarters = durations / tpq

    values: dict[str, float | np.ndarray] = {}

    # pitch; every note counts once in each note histogram, so its total is n
    pitch_counts = np.bincount(pitches, minlength=128)
    pc_counts = np.bincount(pitches % 12, minlength=12)
    pch = pc_counts / n
    nonzero = pch[pch > 0]
    values["mean_pitch"] = _mean(pitches)
    values["pitch_std"] = _pop_std(pitches)
    values["pitch_range"] = float(high - low)
    values["min_pitch"] = float(low)
    values["max_pitch"] = float(high)
    values["distinct_pitch_count"] = float(np.count_nonzero(pitch_counts))
    values["distinct_pitch_class_count"] = float(np.count_nonzero(pc_counts))
    values["pitch_class_entropy"] = float(-np.add.reduce(nonzero * np.log2(nonzero)))
    values["most_common_pitch_prevalence"] = float(pitch_counts.max() / n)
    values["most_common_pitch_class_prevalence"] = float(pch.max())
    values["pitch_class_histogram"] = pch
    values["pitch_histogram"] = pitch_counts / n

    # melody
    steps = pitches[1:] - pitches[:-1]
    jumps = np.abs(steps)
    n_steps = steps.size
    n_moving = np.count_nonzero(steps)
    values["mean_melodic_interval"] = _mean(jumps) if n_steps else 0.0
    values["melodic_interval_std"] = _pop_std(jumps)
    values["stepwise_motion_fraction"] = \
        np.count_nonzero((jumps >= 1) & (jumps <= 2)) / n_steps if n_steps else 0.0
    values["leap_fraction"] = np.count_nonzero(jumps >= 5) / n_steps if n_steps else 0.0
    values["repeated_pitch_fraction"] = (n_steps - n_moving) / n_steps if n_steps else 0.0
    values["ascending_interval_fraction"] = \
        np.count_nonzero(steps > 0) / n_moving if n_moving else 0.0
    values["melodic_interval_histogram"] = \
        np.bincount(jumps, minlength=128) / n_steps if n_steps else np.zeros(128)

    # chord / vertical
    vih_counts, n_simultaneous = _vertical_intervals(onset_list, end_list, pitch_list, tpq)
    vih = _normalized(vih_counts)
    values["simultaneous_onset_fraction"] = n_simultaneous / n
    values["mean_vertical_interval"] = float(np.add.reduce(vih * _SEMITONES))
    values["vertical_interval_histogram"] = vih

    # rhythm
    windows = np.bincount((onsets / tpq).astype(int), minlength=max(1, math.ceil(quarters)))
    iois = (onsets[1:] - onsets[:-1]) / tpq
    # nearest nominal rhythmic value, ties to the lower bin; the last is open-ended
    rv_bins = np.abs(dur_quarters[:, None] - _NOMINALS).argmin(axis=1)
    rvh = np.bincount(rv_bins, minlength=12) / n
    slot_durs = np.minimum(np.maximum(np.rint(dur_quarters * SIXTEENTHS_PER_QUARTER), 1),
                           32).astype(int)
    ticks_per_slot = tpq / SIXTEENTHS_PER_QUARTER
    onset_slots = np.rint(onsets / ticks_per_slot).astype(int)
    seconds = _piece_seconds(score, end_tick)
    tempo_ticks = np.minimum([t for t, _ in score.tempo_map] + [end_tick], end_tick)
    tempo_weights = np.maximum(0, tempo_ticks[1:] - tempo_ticks[:-1])
    tempo_values = np.array([bpm for _, bpm in score.tempo_map])
    tempo_time = np.add.reduce(tempo_weights)
    values["total_number_of_notes"] = float(n)
    values["note_density_per_quarter_note"] = n / quarters if quarters > 0 else 0.0
    values["note_density_per_quarter_note_variability"] = _pop_std(windows)
    values["prevalence_of_long_rhythmic_values"] = \
        np.count_nonzero(dur_quarters >= LONG_VALUE_QUARTERS) / n
    values["prevalence_of_very_long_rhythmic_values"] = \
        np.count_nonzero(dur_quarters >= VERY_LONG_VALUE_QUARTERS) / n
    values["mean_duration_quarters"] = _mean(dur_quarters)
    values["duration_std_quarters"] = _pop_std(dur_quarters)
    values["mean_ioi_quarters"] = _mean(iois) if iois.size else 0.0
    values["ioi_std_quarters"] = _pop_std(iois)
    values["prevalence_of_most_common_rhythmic_value"] = float(rvh.max())
    values["notes_per_second"] = n / seconds if seconds > 0 else 0.0
    values["initial_tempo_bpm"] = float(score.tempo_map[0][1])
    values["mean_tempo_bpm"] = float(np.add.reduce(tempo_values * tempo_weights) / tempo_time) \
        if tempo_time > 0 else tempo_values[0]
    values["tempo_change_count"] = float(len(score.tempo_map) - 1)
    values["rhythmic_value_histogram"] = rvh
    values["duration_sixteenths_histogram"] = np.bincount(slot_durs - 1, minlength=32) / n
    values["onset_position_histogram"] = np.bincount(onset_slots % 16, minlength=16) / n

    # sounding-count profile on the sixteenth grid
    total_slots = max(1, math.ceil(end_tick / ticks_per_slot))
    start_slots = np.floor(onsets / ticks_per_slot).astype(int)
    end_slots = np.minimum(np.ceil((onsets + durations) / ticks_per_slot).astype(int),
                           total_slots)
    delta = (np.bincount(start_slots, minlength=total_slots + 1)
             - np.bincount(end_slots, minlength=total_slots + 1))
    sounding = delta[:-1].cumsum()
    occupied = sounding[sounding > 0]
    values["rest_fraction"] = np.count_nonzero(sounding == 0) / sounding.size

    # dynamics
    vel_steps = np.abs(velocities[1:] - velocities[:-1])
    values["average_note_to_note_change_in_dynamics"] = \
        _mean(vel_steps) if vel_steps.size else 0.0
    values["mean_velocity"] = _mean(velocities)
    values["velocity_std"] = _pop_std(velocities)
    values["velocity_range"] = float(loudest - softest)
    values["accented_note_fraction"] = np.count_nonzero(velocities >= ACCENT_VELOCITY) / n
    values["velocity_histogram"] = \
        np.bincount((velocities // 4).astype(int), minlength=32) / n

    # texture
    per_track = np.bincount(tracks)
    track_ids = per_track.nonzero()[0]
    track_counts = per_track[track_ids]
    if track_ids.size == 1:
        values["relative_note_density_of_highest_line"] = 1.0
    else:
        mean_track_pitch = [pitches[tracks == t].mean() for t in track_ids]
        highest = track_ids[int(np.argmax(mean_track_pitch))]
        values["relative_note_density_of_highest_line"] = \
            float((tracks == highest).sum() / track_counts.mean())
    values["polyphony_rate"] = \
        np.count_nonzero(occupied >= 2) / occupied.size if occupied.size else 0.0
    values["mean_simultaneous_pitches"] = _mean(occupied) if occupied.size else 0.0
    values["max_simultaneous_pitches"] = float(sounding.max())
    values["simultaneity_std"] = _pop_std(occupied)

    # instrumentation
    values["active_track_count"] = float(track_ids.size)
    values["total_track_count"] = float(per_track.size)
    values["densest_track_note_share"] = float(track_counts.max() / n)
    values["mean_notes_per_track"] = float(n / track_ids.size)

    out = catalog.flatten(values)
    if not np.isfinite(out).all():
        raise EmoMusicError("non-finite feature value produced")
    return AttributeVector(out, catalog.version)


def extract_corpus(scores: list[Score],
                   catalog: FeatureCatalog | None = None) -> CorpusMatrix:
    """Row i of the result is ``extract_features(scores[i])``."""
    if not scores:
        raise EmoMusicError("extract_corpus needs at least one score")
    catalog = catalog or default_catalog()
    vectors = [extract_features(s, catalog) for s in scores]
    return CorpusMatrix(np.stack([v.values for v in vectors]),
                        catalog.version, [v.empty for v in vectors])


def csv_row(values: np.ndarray) -> str:
    """One feature row as csv.writer writes it, built without it: each float
    as its repr, comma-separated, ending in CRLF. The +0.0 entries, most of
    a row, take the text "0.0" without a repr call each."""
    texts = ["0.0"] * values.size
    others = np.flatnonzero(values.view(np.int64))  # every bit pattern but +0.0's
    for i, text in zip(others.tolist(), map(repr, values[others].tolist())):
        texts[i] = text
    return ",".join(texts) + "\r\n"


def save_corpus_csv(path: str | Path, rows: Iterable[str],
                    catalog: FeatureCatalog | None = None) -> None:
    """The catalog's dim names, then ``rows``, each one line from ``csv_row``,
    written as they come."""
    catalog = catalog or default_catalog()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(catalog.dim_names())
        fh.writelines(rows)


def save_corpus_npz(path: str | Path, matrix: CorpusMatrix) -> None:
    """Compact binary + JSON sidecar manifest (same stem, .json suffix)."""
    path = Path(path)
    np.savez_compressed(path, values=matrix.values)
    manifest = {"catalog_version": matrix.catalog_version,
                "n_rows": matrix.n_rows,
                "empty_flags": matrix.empty_flags}
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=1) + "\n")


def load_corpus_npz(path: str | Path) -> CorpusMatrix:
    path = Path(path)
    values = np.load(path if path.suffix == ".npz" else path.with_suffix(".npz"))["values"]
    manifest = read_json(path.with_suffix(".json"), "feature manifest")
    return CorpusMatrix(values, manifest["catalog_version"], manifest["empty_flags"])

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
from dataclasses import dataclass, field
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

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise EmoMusicError("catalog feature ids must be unique")
        for e in self.entries:
            if e.group not in GROUPS:
                raise EmoMusicError(f"unknown feature group {e.group!r}")
        start = 0
        for e in self.entries:
            self._offsets[e.id] = (start, e.dim)
            start += e.dim

    @property
    def total_dim(self) -> int:
        return sum(e.dim for e in self.entries)

    def span(self, feature_id: str) -> tuple[int, int]:
        """(start offset, dim) of a feature in the flattened vector."""
        return self._offsets[feature_id]

    def indices(self, feature_id: str) -> list[int]:
        start, dim = self.span(feature_id)
        return list(range(start, start + dim))

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


def _pop_std(x: np.ndarray) -> float:
    return float(np.std(x)) if x.size else 0.0


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


def _vertical_intervals(score: Score) -> tuple[np.ndarray, int]:
    """128-bin weighted interval counts plus the simultaneous-onset note count."""
    counts = np.zeros(128)
    notes = score.notes  # sorted by (onset, pitch, track)
    tpq = score.ticks_per_quarter
    active: list[int] = []  # indices into notes, pruned lazily
    simultaneous = np.zeros(len(notes), dtype=bool)
    for j, note in enumerate(notes):
        active = [i for i in active if notes[i].end > note.onset]
        for i in active:
            other = notes[i]
            overlap = (min(other.end, note.end) - note.onset) / tpq
            counts[abs(other.pitch - note.pitch)] += overlap
            if other.onset == note.onset:
                simultaneous[i] = simultaneous[j] = True
        active.append(j)
    return counts, int(simultaneous.sum())


def _rhythmic_value_bins(durations_quarters: np.ndarray) -> np.ndarray:
    nominals = np.asarray(RHYTHMIC_VALUE_BINS)
    # nearest nominal, ties to the lower bin; the last bin is open-ended
    gaps = np.abs(durations_quarters[:, None] - nominals[None, :])
    return np.argmin(gaps, axis=1)


def extract_features(score: Score, catalog: FeatureCatalog | None = None) -> AttributeVector:
    """Compute the full attribute vector for one score.

    An empty score yields an all-zero vector with the ``empty`` flag set.
    """
    catalog = catalog or default_catalog()
    out = np.zeros(catalog.total_dim)
    if score.is_empty:
        return AttributeVector(out, catalog.version, empty=True)

    notes = score.notes
    n = len(notes)
    tpq = score.ticks_per_quarter
    onsets = np.array([nt.onset for nt in notes], dtype=float)
    durations = np.array([nt.duration for nt in notes], dtype=float)
    pitches = np.array([nt.pitch for nt in notes], dtype=int)
    velocities = np.array([nt.velocity for nt in notes], dtype=float)
    tracks = np.array([nt.track for nt in notes], dtype=int)
    end_tick = score.end_tick
    quarters = end_tick / tpq
    dur_quarters = durations / tpq

    values: dict[str, float | np.ndarray] = {}

    # pitch
    pcs = pitches % 12
    pch = _normalized(np.bincount(pcs, minlength=12).astype(float))
    ph = _normalized(np.bincount(pitches, minlength=128).astype(float))
    nonzero = pch[pch > 0]
    values["mean_pitch"] = float(pitches.mean())
    values["pitch_std"] = _pop_std(pitches)
    values["pitch_range"] = float(pitches.max() - pitches.min())
    values["min_pitch"] = float(pitches.min())
    values["max_pitch"] = float(pitches.max())
    values["distinct_pitch_count"] = float(np.unique(pitches).size)
    values["distinct_pitch_class_count"] = float(np.unique(pcs).size)
    values["pitch_class_entropy"] = float(-(nonzero * np.log2(nonzero)).sum())
    values["most_common_pitch_prevalence"] = float(np.bincount(pitches).max() / n)
    values["most_common_pitch_class_prevalence"] = float(pch.max())
    values["pitch_class_histogram"] = pch
    values["pitch_histogram"] = ph

    # melody
    steps = np.diff(pitches) if n > 1 else np.zeros(0, dtype=int)
    jumps = np.abs(steps)
    mih = _normalized(np.bincount(jumps, minlength=128).astype(float)) if steps.size \
        else np.zeros(128)
    values["mean_melodic_interval"] = float(jumps.mean()) if steps.size else 0.0
    values["melodic_interval_std"] = _pop_std(jumps)
    values["stepwise_motion_fraction"] = \
        float(((jumps >= 1) & (jumps <= 2)).mean()) if steps.size else 0.0
    values["leap_fraction"] = float((jumps >= 5).mean()) if steps.size else 0.0
    values["repeated_pitch_fraction"] = float((jumps == 0).mean()) if steps.size else 0.0
    moving = steps[steps != 0]
    values["ascending_interval_fraction"] = float((moving > 0).mean()) if moving.size else 0.0
    values["melodic_interval_histogram"] = mih

    # chord / vertical
    vih_counts, n_simultaneous = _vertical_intervals(score)
    vih = _normalized(vih_counts)
    values["simultaneous_onset_fraction"] = n_simultaneous / n
    values["mean_vertical_interval"] = float((vih * np.arange(128)).sum())
    values["vertical_interval_histogram"] = vih

    # rhythm
    windows = np.bincount((onsets / tpq).astype(int), minlength=max(1, math.ceil(quarters)))
    iois = np.diff(onsets) / tpq if n > 1 else np.zeros(0)
    rv_bins = _rhythmic_value_bins(dur_quarters)
    rvh = _normalized(np.bincount(rv_bins, minlength=12).astype(float))
    slot_durs = np.clip(np.round(dur_quarters * SIXTEENTHS_PER_QUARTER), 1, 32).astype(int)
    dur_hist = _normalized(np.bincount(slot_durs - 1, minlength=32).astype(float))
    ticks_per_slot = tpq / SIXTEENTHS_PER_QUARTER
    onset_slots = np.round(onsets / ticks_per_slot).astype(int)
    pos_hist = _normalized(np.bincount(onset_slots % 16, minlength=16).astype(float))
    seconds = _piece_seconds(score, end_tick)
    tempo_ticks = [t for t, _ in score.tempo_map] + [end_tick]
    tempo_weights = np.maximum(0, np.diff(np.minimum(tempo_ticks, end_tick)))
    tempo_values = np.array([bpm for _, bpm in score.tempo_map])
    mean_tempo = (float((tempo_values * tempo_weights).sum() / tempo_weights.sum())
                  if tempo_weights.sum() > 0 else tempo_values[0])
    values["total_number_of_notes"] = float(n)
    values["note_density_per_quarter_note"] = n / quarters if quarters > 0 else 0.0
    values["note_density_per_quarter_note_variability"] = _pop_std(windows)
    values["prevalence_of_long_rhythmic_values"] = \
        float((dur_quarters >= LONG_VALUE_QUARTERS).mean())
    values["prevalence_of_very_long_rhythmic_values"] = \
        float((dur_quarters >= VERY_LONG_VALUE_QUARTERS).mean())
    values["mean_duration_quarters"] = float(dur_quarters.mean())
    values["duration_std_quarters"] = _pop_std(dur_quarters)
    values["mean_ioi_quarters"] = float(iois.mean()) if iois.size else 0.0
    values["ioi_std_quarters"] = _pop_std(iois)
    values["prevalence_of_most_common_rhythmic_value"] = float(rvh.max())
    values["notes_per_second"] = n / seconds if seconds > 0 else 0.0
    values["initial_tempo_bpm"] = float(score.tempo_map[0][1])
    values["mean_tempo_bpm"] = mean_tempo
    values["tempo_change_count"] = float(len(score.tempo_map) - 1)
    values["rhythmic_value_histogram"] = rvh
    values["duration_sixteenths_histogram"] = dur_hist
    values["onset_position_histogram"] = pos_hist

    # sounding-count profile on the sixteenth grid
    total_slots = max(1, math.ceil(end_tick / ticks_per_slot))
    delta = np.zeros(total_slots + 1)
    start_slots = np.floor(onsets / ticks_per_slot).astype(int)
    end_slots = np.clip(np.ceil((onsets + durations) / ticks_per_slot).astype(int),
                        None, total_slots)
    np.add.at(delta, start_slots, 1)
    np.add.at(delta, end_slots, -1)
    sounding = np.cumsum(delta[:-1])
    occupied = sounding[sounding > 0]
    values["rest_fraction"] = float((sounding == 0).mean())

    # dynamics
    vel_steps = np.abs(np.diff(velocities)) if n > 1 else np.zeros(0)
    values["average_note_to_note_change_in_dynamics"] = \
        float(vel_steps.mean()) if vel_steps.size else 0.0
    values["mean_velocity"] = float(velocities.mean())
    values["velocity_std"] = _pop_std(velocities)
    values["velocity_range"] = float(velocities.max() - velocities.min())
    values["accented_note_fraction"] = float((velocities >= ACCENT_VELOCITY).mean())
    values["velocity_histogram"] = _normalized(
        np.bincount((velocities // 4).astype(int), minlength=32).astype(float))

    # texture
    track_ids, track_counts = np.unique(tracks, return_counts=True)
    if track_ids.size == 1:
        values["relative_note_density_of_highest_line"] = 1.0
    else:
        mean_track_pitch = [pitches[tracks == t].mean() for t in track_ids]
        highest = track_ids[int(np.argmax(mean_track_pitch))]
        values["relative_note_density_of_highest_line"] = \
            float((tracks == highest).sum() / track_counts.mean())
    values["polyphony_rate"] = float((occupied >= 2).mean()) if occupied.size else 0.0
    values["mean_simultaneous_pitches"] = float(occupied.mean()) if occupied.size else 0.0
    values["max_simultaneous_pitches"] = float(sounding.max())
    values["simultaneity_std"] = _pop_std(occupied)

    # instrumentation
    values["active_track_count"] = float(track_ids.size)
    values["total_track_count"] = float(tracks.max() + 1)
    values["densest_track_note_share"] = float(track_counts.max() / n)
    values["mean_notes_per_track"] = float(n / track_ids.size)

    for entry in catalog.entries:
        start, dim = catalog.span(entry.id)
        v = values[entry.id]
        out[start:start + dim] = v
    if not np.all(np.isfinite(out)):
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


def save_corpus_csv(path: str | Path, matrix: CorpusMatrix,
                    catalog: FeatureCatalog | None = None) -> None:
    """The catalog's dim names, then one line per row: the bytes csv.writer
    writes, built here without it (a float is written as its repr)."""
    catalog = catalog or default_catalog()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(catalog.dim_names())
        fh.write("".join(",".join(map(repr, row)) + "\r\n"
                         for row in matrix.values.tolist()))


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

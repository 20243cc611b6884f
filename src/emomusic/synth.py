"""Deterministic synthetic labeled corpus for end-to-end verification.

Each emotion quadrant gets a musical archetype over tempo, note density,
mode, register, and dynamics, chosen so the quadrants are monotically
ordered and linearly separable in (tempo, density) alone at noise 0:

    Q1 happy: fastest + densest + major + loud
    Q2 tense: fast + dense + minor
    Q3 sad:   slowest + sparsest + minor + soft
    Q4 calm:  slow + sparse + major

``noise`` in [0, 1] widens every quadrant's parameter ranges toward the
union of all ranges (at 1.0 the labels carry no information).
``boundary_label_noise`` is the fraction of samples whose parameters drift
most of the way toward another quadrant while keeping their original label:
mislabeled-looking samples concentrated far from their class centroid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmoMusicError, make_dir
from .mapping import EmotionQuadrant, QUADRANTS
from .midi import write_midi
from .parallel import fork_map
from .score import Note, Score, score_to_midi

MAJOR = (0, 2, 4, 5, 7, 9, 11)
MINOR = (0, 2, 3, 5, 7, 8, 10)
TONIC = 0  # pitch class of the scale root
TICKS_PER_QUARTER = 480
DURATION_CHOICES = (1, 2, 3, 4, 6, 8)  # sixteenths
DURATION_WEIGHTS = (0.25, 0.3, 0.1, 0.2, 0.1, 0.05)
# built the way Generator.choice builds it from p, so a lookup of one
# random() draw picks what choice(DURATION_CHOICES, p=DURATION_WEIGHTS) picks
_DURATION_CDF = np.cumsum(DURATION_WEIGHTS)
_DURATION_CDF /= _DURATION_CDF[-1]


@dataclass(frozen=True, slots=True)
class Archetype:
    tempo: tuple[float, float]       # BPM
    density: tuple[float, float]     # notes per quarter
    velocity: tuple[int, int]
    register: tuple[int, int]        # MIDI pitch bounds
    major: bool
    bars: tuple[int, int]


ARCHETYPES: dict[EmotionQuadrant, Archetype] = {
    EmotionQuadrant.Q1: Archetype((150, 170), (2.4, 3.0), (92, 116), (60, 84), True, (4, 8)),
    EmotionQuadrant.Q2: Archetype((120, 140), (1.7, 2.2), (72, 96), (48, 76), False, (4, 8)),
    EmotionQuadrant.Q3: Archetype((50, 70), (0.4, 0.7), (40, 62), (40, 66), False, (4, 8)),
    EmotionQuadrant.Q4: Archetype((80, 100), (0.9, 1.3), (52, 76), (52, 76), True, (4, 8)),
}


@dataclass(slots=True)
class SynthSpec:
    noise: float = 0.0
    boundary_label_noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise EmoMusicError("noise must lie in [0, 1]")
        if not 0.0 <= self.boundary_label_noise <= 1.0:
            raise EmoMusicError("boundary_label_noise must lie in [0, 1]")


def _union_range(attr: str) -> tuple[float, float]:
    los = [getattr(a, attr)[0] for a in ARCHETYPES.values()]
    his = [getattr(a, attr)[1] for a in ARCHETYPES.values()]
    return min(los), max(his)


def _widened(own: tuple[float, float], union: tuple[float, float],
             noise: float) -> tuple[float, float]:
    return (own[0] + (union[0] - own[0]) * noise,
            own[1] + (union[1] - own[1]) * noise)


@dataclass(slots=True)
class _Draw:
    tempo: float
    density: float
    velocity: tuple[int, int]
    register: tuple[int, int]
    major: bool
    bars: int


def _draw_params(spec: SynthSpec, quadrant: EmotionQuadrant,
                 rng: np.random.Generator) -> _Draw:
    arch = ARCHETYPES[quadrant]

    def sample(attr: str) -> float:
        lo, hi = _widened(getattr(arch, attr), _union_range(attr), spec.noise)
        return float(rng.uniform(lo, hi))

    tempo = sample("tempo")
    density = sample("density")
    vel_center = sample("velocity")
    reg_center = sample("register")
    major = arch.major if rng.random() >= 0.5 * spec.noise else not arch.major
    bars = int(rng.integers(arch.bars[0], arch.bars[1] + 1))

    if rng.random() < spec.boundary_label_noise:
        # drift most of the way toward another quadrant, keep the label
        others = [q for q in ARCHETYPES if q != quadrant]
        other = others[int(rng.integers(len(others)))]
        o = ARCHETYPES[other]
        t = float(rng.uniform(0.6, 0.95))

        def drift(value: float, rng_pair: tuple[float, float]) -> float:
            target = (rng_pair[0] + rng_pair[1]) / 2
            return value + (target - value) * t

        tempo = drift(tempo, o.tempo)
        density = drift(density, o.density)
        vel_center = drift(vel_center, o.velocity)
        reg_center = drift(reg_center, o.register)
        if rng.random() < t:
            major = o.major

    return _Draw(tempo, density,
                 (max(1, int(vel_center) - 10), min(127, int(vel_center) + 10)),
                 (max(0, int(reg_center) - 12), min(127, int(reg_center) + 12)),
                 major, bars)


def _draw_duration(rng: np.random.Generator) -> int:
    """A duration from DURATION_CHOICES by DURATION_WEIGHTS; the same value
    and the same one draw as ``rng.choice(DURATION_CHOICES, p=DURATION_WEIGHTS)``,
    without the checks and conversions choice makes of its arguments on every
    call."""
    return DURATION_CHOICES[int(_DURATION_CDF.searchsorted(rng.random(), side="right"))]


def synth_score(spec: SynthSpec, quadrant: EmotionQuadrant,
                rng: np.random.Generator) -> Score:
    """One synthetic piece for the quadrant's archetype (4/4, 480 tpq)."""
    draw = _draw_params(spec, quadrant, rng)
    scale = MAJOR if draw.major else MINOR
    pitch_pool = [p for p in range(draw.register[0], draw.register[1] + 1)
                  if (p - TONIC) % 12 in scale]
    if not pitch_pool:
        pitch_pool = [60]
    tps = TICKS_PER_QUARTER // 4
    p_note = min(1.0, draw.density / 4.0)
    notes = []
    for slot in range(draw.bars * 16):
        if rng.random() < p_note:
            pitch = pitch_pool[int(rng.integers(len(pitch_pool)))]
            dur = _draw_duration(rng)
            velocity = int(rng.integers(draw.velocity[0], draw.velocity[1] + 1))
            notes.append(Note(slot * tps, dur * tps, pitch, velocity, 0))
    if not notes:
        notes.append(Note(0, 4 * tps, pitch_pool[len(pitch_pool) // 2],
                          (draw.velocity[0] + draw.velocity[1]) // 2, 0))
    return Score(notes, TICKS_PER_QUARTER,
                 tempo_map=[(0, float(round(draw.tempo)))],
                 time_signatures=[(0, 4, 4)])


def synth_corpus(spec: SynthSpec, n_per_quadrant: int, seed: int,
                 out_dir: str | Path) -> Path:
    """Write n labeled MIDI files per quadrant plus a manifest; returns the
    manifest path. Bitwise deterministic given (spec, n, seed): each piece
    draws from its own seed, so the pieces may be written in forked workers."""
    if n_per_quadrant < 1:
        raise EmoMusicError("n_per_quadrant must be >= 1")
    out_dir = make_dir(out_dir, "corpus directory")

    def write_piece(job: tuple[EmotionQuadrant, int]) -> dict:
        quadrant, index = job
        rng = np.random.default_rng(np.random.SeedSequence([seed, quadrant.value, index]))
        score = synth_score(spec, quadrant, rng)
        name = f"{quadrant.name}_{index:04d}.mid"
        try:
            (out_dir / name).write_bytes(write_midi(score_to_midi(score)))
        except OSError as exc:
            raise EmoMusicError(f"cannot write {name}: {exc}") from exc
        return {"file": name, "label": quadrant.name}

    items = fork_map(write_piece, [(quadrant, index) for quadrant in QUADRANTS
                                   for index in range(n_per_quadrant)])
    manifest = {
        "seed": seed,
        "noise": spec.noise,
        "boundary_label_noise": spec.boundary_label_noise,
        "n_per_quadrant": n_per_quadrant,
        "items": items,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest_path

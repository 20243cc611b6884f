"""
Score tokenization
==================

Turn a score into REMI-style tokens and back: bars, positions on a
sixteenth grid, pitch, binned duration/velocity, and tempo bins. The grid is
fixed: its sizes are the constants at the top of ``emomusic.score``.
"""

from emomusic.score import Note, Score, quantize_score
from emomusic.tokens import score_to_tokens, token_name, tokens_to_score

tpq = 480

score = Score(
    notes=[
        Note(onset=0, duration=tpq, pitch=60, velocity=80),
        Note(onset=tpq, duration=tpq // 2, pitch=64, velocity=80),
        Note(onset=tpq + tpq // 2, duration=tpq // 2, pitch=67, velocity=90),
        Note(onset=5 * tpq, duration=2 * tpq, pitch=72, velocity=100),  # bar 2
    ],
    ticks_per_quarter=tpq,
    tempo_map=[(0, 150.0)],
)

tokens = score_to_tokens(score)
print("token stream:")
print("  " + " ".join(token_name(t) for t in tokens))

back, dropped = tokens_to_score(tokens)
print(f"\ndecoded {len(back.notes)} notes, {dropped} dropped tokens")
for note in back.notes:
    print(f"  onset {note.onset:5d}  dur {note.duration:4d}  "
          f"pitch {note.pitch}  vel {note.velocity}")

# detokenize(tokenize(s)) reproduces the quantized score exactly
assert back.notes == quantize_score(score).notes
print("\nround trip matches the quantized score")

"""Smoke test: each demo script runs to completion.

06_train_and_generate.py is left out: it trains a transformer and takes
about a minute, longer than the rest of this file together.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_midi_roundtrip.py",
    "02_tokenizer.py",
    "03_feature_catalog.py",
    "04_attribute_selection.py",
    "05_emotion_mapping.py",
    "07_evaluation.py",
])
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")

"""The bench scripts in ``tools/`` still run against this tree.

Each runs in a subprocess at its smallest setting and must exit 0 and write
a JSON document with the keys its docstring describes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMON = ["tool", "tree", "python", "numpy", "blas", "blas_threads", "machine", "cpus",
          "corpus_seed", "repeats", "steps"]


@pytest.mark.parametrize("script,args,keys", [
    ("bench_train_step.py", [],
     ["batch_size", "rows", "train_s", "per_step_ms", "per_shard_ms"]),
    ("bench_decode_step.py", ["--steps", "2"],
     ["backbone_us", "draw_us_per_row", "generate"]),
], ids=["train-step", "decode-step"])
def test_bench_tool_runs(tmp_path, script, args, keys):
    out = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / script), "--repeats", "1",
                           "--out", str(out)] + args,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(json.loads(out.read_text())) == COMMON + keys

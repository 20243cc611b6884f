"""``tools/ab.py``, the in-process A/B of two ``emomusic`` trees: it runs every
probe against this tree, names a revision or a name it cannot use, and loads
the base tree so that it shares no module with this checkout's.

One run of the tool over all four probes (``--base HEAD --rounds 1``, in a tmp
cwd) serves every test of its files: ``test_bench_tool_runs`` checks that the
figures the training-step and decode-step benches gave are still measured.
"""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emomusic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "emomusic"
FIGURES = {
    "train": ["train_s"]
    + [f"per_step_ms.{k}" for k in ("worker_call", "parent_combine", "clip", "adam")]
    + [f"per_shard_ms.{k}" for k in ("step", "forward", "backward", "embedding_backward",
                                      "attention_forward", "attention_backward",
                                      "cross_entropy_forward", "cross_entropy_backward")],
    "decode": [f"{k}.{b}" for k in ("backbone_us", "draw_us_per_row") for b in (1, 4, 16, 32)],
    "generate": ["requests_ms", "decode_ms", "tokens_per_s", "load_checkpoint_ms"],
    "forest": ["extract_ms_per_score", "fit_s"],
}
PARTS = {
    "train": ["per_step", "per_shard"],
    "decode": [f"{k}.{b}" for b in (1, 4, 16, 32) for k in ("backbone", "sample_rows")],
    "generate": ["requests", "load_checkpoint"],
    "forest": ["extract_features", "train_forest"],
}


@pytest.fixture(scope="module")
def ab():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path


@pytest.fixture(scope="module")
def ab_run(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("ab")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
                           "--rounds", "1", *FIGURES], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done, cwd


def test_ab_writes_each_probe(ab_run):
    done, cwd = ab_run
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in cwd.iterdir()) == sorted(
        f"BENCH_ab_{probe}.json" for probe in FIGURES)
    for probe in FIGURES:
        doc = json.loads((cwd / f"BENCH_ab_{probe}.json").read_text())
        assert list(doc) == ["probe", "base", "change", "rounds", "cpus", "figures", "identical"]
        assert (doc["probe"], doc["rounds"]) == (probe, 1)
        for figure in doc["figures"].values():
            assert list(figure) == ["base", "change", "ratio", "wins"]
            assert list(figure["base"]) == list(figure["change"]) == ["min", "median"]
            assert len(figure["ratio"]) == 3 and figure["wins"] in (0, 1)
        assert sorted(doc["identical"]) == sorted(PARTS[probe])
        assert all(isinstance(same, bool) for same in doc["identical"].values())


@pytest.mark.parametrize("probes", [["train"], ["decode", "generate"]],
                         ids=["train-step", "decode-step"])
def test_bench_tool_runs(ab_run, probes):
    done, cwd = ab_run
    assert done.returncode == 0, done.stderr
    for probe in probes:
        doc = json.loads((cwd / f"BENCH_ab_{probe}.json").read_text())
        assert set(FIGURES[probe]) <= set(doc["figures"])


def test_ab_names_a_revision_it_cannot_archive(ab, capsys):
    assert ab.main(["--base", "no-such-rev", "train"]) == 2
    assert "no-such-rev" in capsys.readouterr().err


def test_ab_names_what_a_tree_lacks(ab, tmp_path, monkeypatch, capsys):
    stub = tmp_path / "stub"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("def main(argv):\n    return 0\n")
    (stub / "sampling.py").write_text("def sample_rows(logits, p, rngs):\n    pass\n")
    monkeypatch.chdir(tmp_path)
    assert ab.run(stub, "stub", ["decode"], rounds=1) == 2
    err = capsys.readouterr().err
    assert f"{ab.BASE} at stub has no" in err
    assert "sampling.decoder_weights" in err and "model.backbone" in err
    assert "cli.main" not in err and "sampling.sample_rows" not in err
    assert ab.BASE not in sys.modules
    assert not list(tmp_path.glob("BENCH_ab_*"))


def test_base_tree_shares_no_module(ab):
    """An A/A load of this checkout: a stray absolute import inside
    ``src/emomusic`` would put one tree's functions in the other's modules."""
    with ab.base_tree(SRC) as base:
        modules = [importlib.import_module(f"{tree}.{m.name}")
                   for m in pkgutil.iter_modules([str(SRC)]) for tree in (base, "emomusic")]
        for module in (sys.modules[base], emomusic, *modules):
            other = "emomusic" if module.__name__.startswith(base) else base
            for name, value in vars(module).items():
                if callable(value) and hasattr(value, "__module__"):
                    owner = value.__module__ or ""
                    assert owner != other and not owner.startswith(other + "."), \
                        f"{module.__name__}.{name} is {owner}'s"
        samplers = [sys.modules[f"{tree}.sampling"].sample_rows for tree in (base, "emomusic")]
        assert samplers[0] is not samplers[1]
        logits = np.random.default_rng(0).normal(size=(6, 40)) * 3
        draws = [sample_rows(logits, 0.9, [np.random.default_rng(i) for i in range(6)])
                 for sample_rows in samplers]
        assert np.array_equal(*draws)
    assert base not in sys.modules

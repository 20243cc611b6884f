"""The forked worker map and the stages that use it: the same results and
the same artifacts at any worker count, errors raised in the parent, and no
worker left behind."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_reaped, use_cpus
from emomusic.cli import main
from emomusic.errors import EmoMusicError
from emomusic.forest import ForestConfig, train_forest
from emomusic.parallel import fork_map
from test_forest_parity import assert_same_trees, awkward_corpus
from test_pipeline_cli import tiny_config, write_config

CPUS = [1, 2, 3]


class OddError(EmoMusicError):
    pass


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its constructor takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class TestForkMap:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_results_in_item_order(self, monkeypatch, forked, cpus, n_items):
        use_cpus(monkeypatch, cpus)
        offset = np.arange(3.0)  # reaches the workers through fork
        got = fork_map(lambda i: (i, offset + i, os.getpid()), range(n_items))
        assert [i for i, _, _ in got] == list(range(n_items))
        assert all((values == offset + i).all() for i, values, _ in got)
        workers = min(cpus, n_items)
        assert len(forked) == (workers if workers > 1 else 0)
        if n_items:
            assert {pid for _, _, pid in got} == (set(forked) or {os.getpid()})
        assert_reaped(forked)

    @pytest.mark.parametrize("cpus", CPUS)
    def test_first_failing_item_raises_in_the_parent(self, monkeypatch, forked, cpus):
        use_cpus(monkeypatch, cpus)

        def fn(i):
            if i in (4, 5, 7):
                raise OddError(f"item {i} is bad")
            return i

        with pytest.raises(OddError, match="^item 4 is bad$"):
            fork_map(fn, range(9))
        assert_reaped(forked)

    def test_exception_that_does_not_unpickle(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)

        def fn(i):
            if i == 1:
                raise TwoArgError("a", "b")
            return i

        with pytest.raises(RuntimeError, match="^TwoArgError: a/b$"):
            fork_map(fn, range(4))
        assert_reaped(forked)

    def test_worker_that_dies_raises_and_is_reaped(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)

        def fn(i):
            if i == 1:
                os._exit(5)
            return i

        with pytest.raises(RuntimeError, match="ended with wait status"):
            fork_map(fn, range(4))
        assert len(forked) == 2
        assert_reaped(forked)


def test_forest_is_the_same_at_any_worker_count(monkeypatch):
    forests = []
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        forests.append(train_forest(awkward_corpus(2), ForestConfig(n_trees=11, seed=31)))
    for forest in forests[1:]:
        assert_same_trees(forests[0], forest)
        for a, b in zip(forests[0].oob_indices, forest.oob_indices):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def artifact_bytes(art: Path) -> dict[str, bytes]:
    """Every artifact outside stage_meta/, by its path under ``art``."""
    return {str(p.relative_to(art)): p.read_bytes() for p in sorted(art.rglob("*"))
            if p.is_file() and "stage_meta" not in p.relative_to(art).parts}


def test_stages_write_the_same_bytes_at_any_worker_count(tmp_path, monkeypatch, forked,
                                                         capsys):
    outputs = []
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus{cpus}"
        write_config(tiny_config(root), root / "config.json")
        for command in ("map-emotion", "train", "analyze-bias"):
            assert main([command, "--config", str(root / "config.json")]) == 0
        outputs.append(artifact_bytes(root / "artifacts"))
    capsys.readouterr()
    assert "bias_report.json" in outputs[0] and "features.csv" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert forked  # the two- and three-worker runs did fork
    assert_reaped(forked)


@pytest.mark.parametrize("cpus", [1, 2])
def test_bad_corpus_file_is_named(tmp_path, monkeypatch, forked, capsys, cpus):
    use_cpus(monkeypatch, cpus)
    config = tiny_config(tmp_path)
    manifest = Path(config.corpus_manifest)
    name = json.loads(manifest.read_text())["items"][3]["file"]
    bad = manifest.parent / name
    bad.write_bytes(bad.read_bytes()[:-20])
    code = main(["extract", "--artifact-dir", config.artifact_dir,
                 "--corpus-manifest", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"stage extract: {bad}: chunk b'MTrk' length" in err
    assert "exceeds remaining bytes" in err
    assert len(forked) == (2 if cpus == 2 else 0)
    assert_reaped(forked)

"""The forked workers and the code that uses them: the same results and the
same artifacts at any CPU count, errors raised in the parent, and no worker
left behind."""

import ctypes
import json
import mmap
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import emomusic.training

from conftest import assert_reaped, use_cpus
from emomusic.cli import main
from emomusic.errors import EmoMusicError
from emomusic.forest import ForestConfig, train_forest
from emomusic.model import ModelConfig, init_state
from emomusic.parallel import Workers, _loaded_openblas, fork_map
from emomusic.tokens import BOS, EOS, VOCAB_SIZE
from emomusic.training import TrainConfig, train
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


class TestWorkers:
    @pytest.mark.parametrize("cpus", CPUS)
    def test_the_same_workers_answer_every_call(self, monkeypatch, forked, cpus):
        use_cpus(monkeypatch, cpus)
        offset = np.arange(3.0)  # reaches the workers through fork
        with Workers(lambda w, request: (w, offset * request, os.getpid()), 3) as workers:
            calls = [workers.call([10 * c, 10 * c + 1, 10 * c + 2]) for c in range(4)]
        for c, answers in enumerate(calls):
            assert [w for w, _, _ in answers] == [0, 1, 2]
            assert all((values == offset * (10 * c + w)).all() for w, values, _ in answers)
            assert [pid for _, _, pid in answers] == [pid for _, _, pid in calls[0]]
        # forked once per pool, at most one worker per usable CPU or none
        assert forked == ([pid for _, _, pid in calls[0]] if cpus > 1 else [])
        assert_reaped(forked)

    def test_workers_see_every_write_to_shared_memory(self, monkeypatch, forked):
        use_cpus(monkeypatch, 5)  # more workers than the test machine has cores
        # slot 0 is the parent's, slot 1 + w worker w's
        shared = np.frombuffer(mmap.mmap(-1, 8 * 6), dtype=np.int64)

        def fn(w, _):
            seen = int(shared[0])
            shared[1 + w] = seen + w
            return seen

        start = time.monotonic()
        with Workers(fn, 5) as workers:
            for call in range(200):
                shared[0] = call
                assert workers.call([None] * 5) == [call] * 5
                assert shared[1:].tolist() == [call + w for w in range(5)]
        assert time.monotonic() - start < 60
        assert len(forked) == 5
        assert_reaped(forked)

    def test_lowest_failing_worker_raises_in_the_parent(self, monkeypatch, forked):
        use_cpus(monkeypatch, 3)

        def fn(w, request):
            if request and w > 0:
                raise OddError(f"worker {w} is bad")
            return w

        with pytest.raises(OddError, match="^worker 1 is bad$"):
            with Workers(fn, 3) as workers:
                assert workers.call([False] * 3) == [0, 1, 2]
                workers.call([True] * 3)
        assert len(forked) == 3
        assert_reaped(forked)

    def test_exception_that_does_not_unpickle(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)

        def fn(w, request):
            raise TwoArgError("a", "b")

        with pytest.raises(RuntimeError, match="^TwoArgError: a/b$"):
            with Workers(fn, 2) as workers:
                workers.call([None, None])
        assert_reaped(forked)

    def test_worker_that_dies_raises_and_is_reaped(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)

        def fn(w, request):
            if w == 1 and request == 2:
                os._exit(5)
            return request

        with pytest.raises(RuntimeError, match="ended with wait status"):
            with Workers(fn, 2) as workers:
                for request in range(4):
                    assert workers.call([request, request]) == [request, request]
        assert len(forked) == 2
        assert_reaped(forked)


def test_workers_compute_on_one_blas_thread(monkeypatch, forked):
    calls = [(getattr(lib, setter), getattr(lib, setter.replace("_set_", "_get_")))
             for lib, setter in _loaded_openblas()]
    if not calls:
        pytest.skip("no OpenBLAS is loaded")
    use_cpus(monkeypatch, 2)
    before = [get() for _, get in calls]
    try:
        for set_threads, _ in calls:  # as OpenBLAS starts on a 2-CPU machine
            set_threads(2)
        with Workers(lambda w, _: [get() for _, get in calls], 2) as workers:
            assert workers.call([None, None]) == [[1] * len(calls)] * 2
        assert [get() for _, get in calls] == [2] * len(calls)  # this process keeps its own
    finally:
        for (set_threads, _), count in zip(calls, before):
            set_threads(count)
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


def shard_dataset(rng: np.random.Generator, rows: int, attr_dim: int):
    return [([BOS, *rng.integers(BOS + 1, VOCAB_SIZE, size=int(n)), EOS],
             rng.integers(0, 2, size=attr_dim))
            for n in rng.integers(4, 40, size=rows)]


def test_training_is_the_same_at_any_cpu_count(monkeypatch, forked):
    # 13 rows in batches of 5: shards of 3 and 2 rows, and 2 and 1 in the last
    dataset = shard_dataset(np.random.default_rng(41), 13, 6)
    runs = []
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        state = init_state(ModelConfig.small(attr_dim=6, dropout=0.1), seed=42,
                           dtype=np.float32)
        _, log = train(state, dataset, TrainConfig(batch_size=5, base_lr=1e-3,
                                                   warmup_steps=4, max_steps=9, seed=43))
        runs.append((log, {name: p.data.tobytes() for name, p in state.params.items()}))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert len(forked) == 4  # two shard workers at 2 CPUs, and two at 3
    assert_reaped(forked)


def test_run_writes_the_same_bytes_at_any_cpu_count(tmp_path, monkeypatch, forked, capsys):
    outputs = []
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus{cpus}"
        write_config(tiny_config(root), root / "config.json")  # dropout 0.1
        assert main(["run", "--config", str(root / "config.json")]) == 0
        outputs.append({name: data for name, data in artifact_bytes(root / "artifacts").items()
                        if name in ("checkpoint.npz", "loss_log.csv", "report.json")
                        or name.startswith("generated/")})
    capsys.readouterr()
    assert len(outputs[0]) > 4 and "generated/manifest.json" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert_reaped(forked)


class TestTrainingWorkers:
    """Failures inside the two shard workers of ``train``."""

    def train(self, dataset):
        state = init_state(ModelConfig.small(attr_dim=6), seed=44)
        return train(state, dataset, TrainConfig(batch_size=3, base_lr=1e-3,
                                                 warmup_steps=4, max_steps=6, seed=45))

    def test_shard_exception_raises_in_the_parent(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)
        real_loss = emomusic.training.next_token_loss

        def loss(logits, ids):
            if len(ids) == 1:
                raise OddError(f"shard of {len(ids)} row")
            return real_loss(logits, ids)

        monkeypatch.setattr(emomusic.training, "next_token_loss", loss)
        # 3 rows: shards of 2 and 1
        with pytest.raises(OddError, match="^shard of 1 row$"):
            self.train(shard_dataset(np.random.default_rng(46), 3, 6))
        assert len(forked) == 2
        assert_reaped(forked)

    def test_killed_worker_raises_runtime_error(self, monkeypatch, forked):
        use_cpus(monkeypatch, 2)
        real_loss = emomusic.training.next_token_loss
        calls = []

        def loss(logits, ids):
            calls.append(len(ids))  # this worker's calls only
            if len(ids) == 1 and len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_loss(logits, ids)

        monkeypatch.setattr(emomusic.training, "next_token_loss", loss)
        with pytest.raises(RuntimeError, match="ended with wait status"):
            self.train(shard_dataset(np.random.default_rng(47), 3, 6))
        assert calls == []  # the shards ran in the workers, not here
        assert len(forked) == 2
        assert_reaped(forked)

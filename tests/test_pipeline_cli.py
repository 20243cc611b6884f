"""Pipeline orchestration (stage skipping, artifacts, split rules) and the CLI."""

import dataclasses
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from emomusic.cli import main
from emomusic.mapping import EmotionQuadrant
from emomusic.model import ModelConfig, init_state
from emomusic.pipeline import (
    STAGES,
    EmptyManifest,
    Pipeline,
    PipelineConfig,
    run_pipeline,
    split_dataset,
)
from emomusic.synth import SynthSpec, synth_corpus
from emomusic.training import save_checkpoint


def tiny_config(tmp_path, n_per_quadrant=6, **overrides):
    manifest = synth_corpus(SynthSpec(noise=0.2), n_per_quadrant, seed=3,
                            out_dir=tmp_path / "corpus")
    defaults = dict(
        artifact_dir=str(tmp_path / "artifacts"),
        corpus_manifest=str(manifest),
        seed=1, forest_trees=10, selection_k=5, train_steps=8, batch_size=4,
        base_lr=1e-3, warmup_steps=4, n_generate_per_quadrant=2,
        max_generate_tokens=48, bias_n=2,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestSplitDataset:
    def items(self, n_per_quadrant):
        return [{"file": f"{q}_{i}.mid", "label": q}
                for q in ("Q1", "Q2", "Q3", "Q4") for i in range(n_per_quadrant)]

    def test_eight_one_one_per_quadrant(self):
        splits = split_dataset(self.items(10), (0.8, 0.1, 0.1), seed=0)
        assert len(splits["train"]) == 32
        assert len(splits["valid"]) == 4
        assert len(splits["test"]) == 4
        # stratified: each quadrant contributes exactly 8/1/1
        items = self.items(10)
        for name, want in (("train", 8), ("valid", 1), ("test", 1)):
            per = {}
            for i in splits[name]:
                per[items[i]["label"]] = per.get(items[i]["label"], 0) + 1
            assert all(v == want for v in per.values())

    def test_all_train_ratio(self):
        splits = split_dataset(self.items(5), (1.0, 0.0, 0.0), seed=0)
        assert len(splits["train"]) == 20
        assert splits["valid"] == splits["test"] == []

    def test_same_seed_same_split(self):
        a = split_dataset(self.items(7), (0.8, 0.1, 0.1), seed=9)
        b = split_dataset(self.items(7), (0.8, 0.1, 0.1), seed=9)
        assert a == b

    def test_empty_manifest_rejected(self):
        with pytest.raises(EmptyManifest):
            split_dataset([], (0.8, 0.1, 0.1), seed=0)

    def test_disjoint_and_complete(self):
        splits = split_dataset(self.items(9), (0.6, 0.2, 0.2), seed=2)
        all_idx = sorted(splits["train"] + splits["valid"] + splits["test"])
        assert all_idx == list(range(36))


class TestPipeline:
    def test_fresh_run_produces_all_artifacts(self, tmp_path):
        config = tiny_config(tmp_path)
        result = run_pipeline(config)
        assert all(state == "ran" for state in result["stages"].values())
        art = tmp_path / "artifacts"
        for name in ("splits.json", "features.npz", "features.csv", "forest.json",
                     "selection.json", "mapping.json", "checkpoint.npz",
                     "checkpoint.json", "loss_log.csv", "report.json",
                     "distances.csv", "pca.csv", "vocabulary.json"):
            assert (art / name).exists(), name
        gen = json.loads((art / "generated" / "manifest.json").read_text())
        assert len(gen["items"]) == 8

    def test_rerun_skips_every_stage(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        result = run_pipeline(config)
        assert all(state == "skipped" for state in result["stages"].values())

    def test_retrain_reruns_evaluate(self, tmp_path):
        run_pipeline(tiny_config(tmp_path))
        result = run_pipeline(tiny_config(tmp_path, train_steps=12))
        assert result["stages"]["generate"] == "ran"
        assert result["stages"]["evaluate"] == "ran"
        fresh = run_pipeline(tiny_config(tmp_path / "fresh", train_steps=12))
        assert result["report"] == fresh["report"]

    @pytest.mark.parametrize("field, value", [("dtype", "float64"),
                                              ("grad_clip_norm", 0.5)])
    def test_training_setting_change_reruns_train(self, tmp_path, field, value):
        run_pipeline(tiny_config(tmp_path))
        result = run_pipeline(tiny_config(tmp_path, **{field: value}))
        assert result["stages"]["map-emotion"] == "skipped"
        assert result["stages"]["train"] == "ran"

    def test_artifacts_embed_catalog_version(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        art = tmp_path / "artifacts"
        assert json.loads((art / "selection.json").read_text())["catalog_version"] == "v1"
        assert json.loads((art / "mapping.json").read_text())["catalog_version"] == "v1"
        assert json.loads((art / "checkpoint.json").read_text())["catalog_version"] == "v1"

    def test_analyze_bias_writes_report(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        report = Pipeline(config).analyze_bias(n=2)
        assert set(report["real"]) == {"center", "boundary"}
        assert set(report["generated"]) == {"center", "boundary"}
        assert (tmp_path / "artifacts" / "bias_report.json").exists()

    def test_config_json_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        config.to_json(tmp_path / "config.json")
        loaded = PipelineConfig.from_json(tmp_path / "config.json")
        assert loaded == config

    def test_flag_overrides_win(self, tmp_path):
        config = tiny_config(tmp_path)
        config.to_json(tmp_path / "config.json")
        loaded = PipelineConfig.from_json(tmp_path / "config.json", seed=77)
        assert loaded.seed == 77


class TestCli:
    def test_synth_and_run(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        code = main(["synth-corpus", "--artifact-dir", str(art),
                     "--n-per-quadrant", "4", "--noise", "0.2", "--seed", "2"])
        assert code == 0
        code = main(["run", "--artifact-dir", str(art),
                     "--corpus-manifest", str(art / "corpus" / "manifest.json"),
                     "--seed", "2", "--forest-trees", "8", "--selection-k", "4",
                     "--train-steps", "6", "--batch-size", "4",
                     "--n-generate-per-quadrant", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective_accuracy" in out
        assert (art / "report.json").exists()

    def test_single_stage_command(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        main(["synth-corpus", "--artifact-dir", str(art), "--n-per-quadrant", "3",
              "--seed", "4"])
        code = main(["extract", "--artifact-dir", str(art),
                     "--corpus-manifest", str(art / "corpus" / "manifest.json")])
        assert code == 0
        assert (art / "features.csv").exists()

    def test_generate_command(self, tmp_path):
        art = tmp_path / "artifacts"
        main(["synth-corpus", "--artifact-dir", str(art), "--n-per-quadrant", "4",
              "--seed", "5"])
        main(["run", "--artifact-dir", str(art),
              "--corpus-manifest", str(art / "corpus" / "manifest.json"),
              "--seed", "5", "--forest-trees", "8", "--selection-k", "4",
              "--train-steps", "6", "--batch-size", "4",
              "--n-generate-per-quadrant", "1"])
        code = main(["generate", "--artifact-dir", str(art),
                     "--corpus-manifest", str(art / "corpus" / "manifest.json"),
                     "--emotion", "Q1", "--n", "2"])
        assert code == 0
        assert len(list((art / "generated").glob("cli_Q1_*.mid"))) == 2

    def test_attr_file_generation(self, tmp_path):
        art = tmp_path / "artifacts"
        main(["synth-corpus", "--artifact-dir", str(art), "--n-per-quadrant", "4",
              "--seed", "6"])
        main(["run", "--artifact-dir", str(art),
              "--corpus-manifest", str(art / "corpus" / "manifest.json"),
              "--seed", "6", "--forest-trees", "8", "--selection-k", "4",
              "--train-steps", "6", "--batch-size", "4",
              "--n-generate-per-quadrant", "1"])
        mapping = json.loads((art / "mapping.json").read_text())
        values = mapping["vectors"]["Q1"]
        attr_file = tmp_path / "attrs.json"
        attr_file.write_text(json.dumps(values))
        code = main(["generate", "--artifact-dir", str(art),
                     "--corpus-manifest", str(art / "corpus" / "manifest.json"),
                     "--attr-file", str(attr_file), "--n", "1"])
        assert code == 0
        assert len(list((art / "generated").glob("cli_custom_*.mid"))) == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1

    def test_data_error_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"items": []}))
        code = main(["extract", "--artifact-dir", str(tmp_path / "a"),
                     "--corpus-manifest", str(empty)])
        assert code == 2

    def test_internal_error_exits_3(self, tmp_path, capsys):
        code = main(["extract", "--artifact-dir", str(tmp_path / "a"),
                     "--corpus-manifest", str(tmp_path / "missing.json")])
        assert code == 3

    def test_env_var_artifact_root(self, tmp_path, monkeypatch):
        from emomusic.pipeline import default_artifact_dir
        monkeypatch.setenv("EMOMUSIC_ARTIFACT_DIR", str(tmp_path / "roots"))
        assert default_artifact_dir() == str(tmp_path / "roots")


# For each stage row that reads a config field no earlier row reads: that
# field and a new value for it. Under the "closest" mapping, kmeans_clusters
# leaves mapping.json byte-identical, so only the chain of dependency
# signatures makes the stages after map-emotion re-run.
FIELD_CHANGES = {
    "split": ("split_ratios", (0.5, 0.25, 0.25)),
    "train-forest": ("forest_trees", 6),
    "select-attrs": ("selection_k", 4),
    "map-emotion": ("kmeans_clusters", 3),
    "train": ("train_steps", 12),
    "generate": ("n_generate_per_quadrant", 1),
}


class TestStageTable:
    def test_rows_name_config_fields_and_earlier_deps(self):
        config_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        for i, stage in enumerate(STAGES):
            assert set(stage.fields) <= config_fields, stage.name
            assert set(stage.deps) <= {s.name for s in STAGES[:i]}, stage.name
            assert callable(getattr(Pipeline, stage.method, None)), stage.name

    def test_every_row_with_a_field_of_its_own_is_covered(self):
        own = set()
        for i, stage in enumerate(STAGES):
            earlier = {f for s in STAGES[:i] for f in s.fields}
            if set(stage.fields) - earlier:
                own.add(stage.name)
            if stage.name in FIELD_CHANGES:
                field, _ = FIELD_CHANGES[stage.name]
                assert field in stage.fields and field not in earlier, stage.name
        assert own == set(FIELD_CHANGES)

    @pytest.fixture(scope="class")
    def base_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("base")
        run_pipeline(tiny_config(root))
        return root

    @pytest.mark.parametrize("changed", list(FIELD_CHANGES))
    def test_field_change_reruns_stage_and_everything_after(self, base_run,
                                                            tmp_path, changed):
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        field, value = FIELD_CHANGES[changed]
        config = dataclasses.replace(tiny_config(tmp_path), **{field: value})
        status = run_pipeline(config)["stages"]
        position = [s.name for s in STAGES].index(changed)
        for i, stage in enumerate(STAGES):
            want = "ran" if i >= position else "skipped"
            if stage.name == "extract":
                want = "skipped"  # it reads no config field, only the corpus
            assert status[stage.name] == want, stage.name

    def test_benchmark_stage_hooks_exist(self, monkeypatch):
        # perfbench/spans.py patches these methods to time each stage; a
        # renamed method would silently zero its pipeline.stage.* metric.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
        spec.loader.exec_module(spans)
        methods = {s.name: s.method for s in STAGES}
        for method, name in spans.STAGES.items():
            assert callable(getattr(Pipeline, method, None)), method
            assert methods.get(name) == method, name


class TestCacheAndConfigErrors:
    def test_split_command_goes_through_the_cache(self, tmp_path, capsys):
        config = tiny_config(tmp_path, n_per_quadrant=10)
        config.to_json(tmp_path / "config.json")
        splits_path = tmp_path / "artifacts" / "splits.json"

        def cli(*args):
            assert main([*args, "--config", str(tmp_path / "config.json")]) == 0
            return capsys.readouterr().out.splitlines()[-1]

        def train_rows():
            return len(json.loads(splits_path.read_text())["train"])

        cli("extract")
        assert cli("split", "--ratios", "0.6,0.2,0.2") == "split: ran"
        assert train_rows() == 24
        # the default-ratio config must not train on the hand-made split
        assert cli("train-forest") == "train-forest: ran"
        assert train_rows() == 32
        assert cli("split", "--ratios", "0.6,0.2,0.2") == "split: ran"
        custom = dataclasses.replace(config, split_ratios=(0.6, 0.2, 0.2))
        assert Pipeline(custom).stage_split() == "skipped"
        assert cli("split") == "split: ran"
        assert train_rows() == 32

    @pytest.mark.parametrize("text", ["{not json", "{}", "[1]"])
    def test_corrupt_stage_record_exits_2(self, tmp_path, capsys, text):
        config = tiny_config(tmp_path)
        config.to_json(tmp_path / "config.json")
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 0
        record = tmp_path / "artifacts" / "stage_meta" / "extract.json"
        record.write_text(text)
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 2
        assert str(record) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_config_file_not_a_json_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["extract", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        config.to_json(tmp_path / "config.json")
        doc = json.loads((tmp_path / "config.json").read_text())
        doc["workers"] = 2  # a field of older versions
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("from_env", [False, True], ids=["in-file", "from-env"])
    def test_config_file_without_paths_uses_the_defaults(self, tmp_path, monkeypatch,
                                                         from_env):
        art = tmp_path / "artifacts"
        synth_corpus(SynthSpec(noise=0.2), 3, seed=4, out_dir=art / "corpus")
        doc = {"seed": 1}
        if from_env:
            monkeypatch.setenv("EMOMUSIC_ARTIFACT_DIR", str(art))
        else:
            doc["artifact_dir"] = str(art)
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 0
        assert (art / "features.csv").exists()


def write_generate_artifacts(art: Path, attention=None, q1_vectors=1, edit=None):
    """A checkpoint and a mapping table, enough for `emomusic generate`.

    ``attention`` adds the config key older checkpoints carry; ``q1_vectors``
    writes quadrant Q1 in the older list-of-vectors form, every other quadrant
    as a one-vector list; ``edit`` may change the model before it is saved.
    """
    state = init_state(ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ffn=16,
                                   max_len=24, dropout=0.0, attr_dim=3), seed=0)
    if edit:
        edit(state)
    art.mkdir(parents=True)
    save_checkpoint(art / "checkpoint.npz", state, indices=[0, 1, 2],
                    medians=np.zeros(3))
    if attention:
        manifest = json.loads((art / "checkpoint.json").read_text())
        manifest["config"]["attention"] = attention
        (art / "checkpoint.json").write_text(json.dumps(manifest, indent=1) + "\n")
    vectors = {q.name: [[0.5, -0.5, 1.0]] for q in EmotionQuadrant}
    vectors["Q1"] = vectors["Q1"] * q1_vectors
    (art / "mapping.json").write_text(json.dumps({
        "method": "closest", "catalog_version": "v1", "indices": [0, 1, 2],
        "vectors": vectors, "medians": [0.0, 0.0, 0.0]}, indent=1) + "\n")


class TestOlderArtifactFormats:
    """Artifact dirs written before the attention switch and the per-quadrant
    vector lists were removed keep loading."""

    def generate(self, art: Path) -> int:
        return main(["generate", "--artifact-dir", str(art), "--n", "1"])

    def test_generate_reads_older_checkpoint_and_mapping(self, tmp_path):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art, attention="linear")
        assert self.generate(art) == 0
        assert len(list((art / "generated").glob("cli_Q*_0000.mid"))) == 4

    def test_softmax_checkpoint_exits_2(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art, attention="softmax")
        assert self.generate(art) == 2
        assert str(art / "checkpoint.json") in capsys.readouterr().err

    def test_two_vector_quadrant_exits_2(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art, q1_vectors=2)
        assert self.generate(art) == 2
        assert str(art / "mapping.json") in capsys.readouterr().err

    def test_select_attrs_reruns_on_older_forest_file(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        config.to_json(tmp_path / "config.json")
        Pipeline(config).run(until="select-attrs")
        art = tmp_path / "artifacts"
        selection = (art / "selection.json").read_text()
        doc = json.loads((art / "forest.json").read_text())
        doc["config"]["canonical_order"] = False
        (art / "forest.json").write_text(json.dumps(doc) + "\n")
        assert main(["select-attrs", "--config", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "select-attrs: ran"
        assert (art / "selection.json").read_text() == selection


def test_generate_on_nan_checkpoint_exits_2(tmp_path, capsys):
    art = tmp_path / "artifacts"
    write_generate_artifacts(art, edit=lambda state: state.params["ln_f_g"].data.fill(np.nan))
    assert main(["generate", "--artifact-dir", str(art), "--emotion", "Q1"]) == 2
    assert "logits" in capsys.readouterr().err
    assert not list((art / "generated").glob("*.mid"))

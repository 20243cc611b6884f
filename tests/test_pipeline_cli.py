"""Pipeline orchestration (stage skipping, artifacts, split rules) and the CLI."""

import builtins
import dataclasses
import importlib.util
import io
import json
import os
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import use_cpus
from emomusic import features
from emomusic.cli import main
from emomusic.mapping import EmotionQuadrant
from emomusic.model import ModelConfig, init_state
from emomusic.pipeline import (
    STAGES,
    EmptyManifest,
    Pipeline,
    PipelineConfig,
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


def write_config(config: PipelineConfig, path: Path) -> None:
    """Write ``config`` as a --config file."""
    path.write_text(json.dumps(dataclasses.asdict(config), indent=1) + "\n")


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
        result = Pipeline(config).run()
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
        Pipeline(config).run()
        result = Pipeline(config).run()
        assert all(state == "skipped" for state in result["stages"].values())

    def test_retrain_reruns_evaluate(self, tmp_path):
        Pipeline(tiny_config(tmp_path)).run()
        result = Pipeline(tiny_config(tmp_path, train_steps=12)).run()
        assert result["stages"]["generate"] == "ran"
        assert result["stages"]["evaluate"] == "ran"
        fresh = Pipeline(tiny_config(tmp_path / "fresh", train_steps=12)).run()
        assert result["report"] == fresh["report"]

    @pytest.mark.parametrize("field, value", [("dtype", "float64"),
                                              ("grad_clip_norm", 0.5)])
    def test_training_setting_change_reruns_train(self, tmp_path, field, value):
        Pipeline(tiny_config(tmp_path)).run()
        result = Pipeline(tiny_config(tmp_path, **{field: value})).run()
        assert result["stages"]["map-emotion"] == "skipped"
        assert result["stages"]["train"] == "ran"

    def test_artifacts_embed_catalog_version(self, tmp_path):
        config = tiny_config(tmp_path)
        Pipeline(config).run()
        art = tmp_path / "artifacts"
        assert json.loads((art / "selection.json").read_text())["catalog_version"] == "v1"
        assert json.loads((art / "mapping.json").read_text())["catalog_version"] == "v1"
        assert json.loads((art / "checkpoint.json").read_text())["catalog_version"] == "v1"

    def test_evaluate_extracts_each_generated_piece_once(self, tmp_path, monkeypatch):
        pipe = Pipeline(tiny_config(tmp_path))
        pipe.run(until="generate")
        real = features.extract_features
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        # in every module that holds the function, as the benchmark tracer patches it
        for name, module in list(sys.modules.items()):
            if name.startswith("emomusic") and \
                    getattr(module, "extract_features", None) is real:
                monkeypatch.setattr(module, "extract_features", counting)
        assert pipe.stage_evaluate() == "ran"
        report = json.loads((tmp_path / "artifacts" / "report.json").read_text())
        assert len(calls) == report["n_generated"] == 8

    def test_analyze_bias_writes_report(self, tmp_path):
        config = tiny_config(tmp_path)
        Pipeline(config).run()
        report = Pipeline(config).analyze_bias(n=2)
        assert set(report["real"]) == {"center", "boundary"}
        assert set(report["generated"]) == {"center", "boundary"}
        assert (tmp_path / "artifacts" / "bias_report.json").exists()

    def test_analyze_bias_follows_a_resynthesised_corpus(self, tmp_path):
        config = tiny_config(tmp_path)
        Pipeline(config).run(until="train")
        report = tmp_path / "artifacts" / "bias_report.json"
        Pipeline(config).analyze_bias(n=2)
        before = report.read_bytes()
        synth_corpus(SynthSpec(noise=0.9), 6, seed=4, out_dir=tmp_path / "corpus")
        Pipeline(config).analyze_bias(n=2)
        assert report.read_bytes() != before

    def test_config_json_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        write_config(config, tmp_path / "config.json")
        loaded = PipelineConfig.from_json(tmp_path / "config.json")
        assert loaded == config

    def test_flag_overrides_win(self, tmp_path):
        config = tiny_config(tmp_path)
        write_config(config, tmp_path / "config.json")
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

    def test_analyze_bias_keeps_a_run_configured_by_flags(self, tmp_path):
        config = tiny_config(tmp_path)  # the file says train_steps 8
        write_config(config, tmp_path / "config.json")
        common = ["--config", str(tmp_path / "config.json"), "--train-steps", "4"]
        assert main(["run"] + common) == 0
        art = Path(config.artifact_dir)
        checkpoint = (art / "checkpoint.npz").read_bytes()
        assert main(["analyze-bias"] + common) == 0
        assert len((art / "loss_log.csv").read_text().splitlines()) == 1 + 4
        assert (art / "checkpoint.npz").read_bytes() == checkpoint

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_generate_n_below_one_exits_2(self, tmp_path, capsys, n):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art)
        assert main(["generate", "--artifact-dir", str(art), "--n", n]) == 2
        assert "--n" in capsys.readouterr().err
        assert not (art / "generated").exists()

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

    @pytest.mark.parametrize("item", [
        {"file": "Q1_0000.mid"}, "Q1_0000.mid", {"file": 3, "label": "Q1"},
        {"file": "Q1_0000.mid", "label": ["Q1"]},
    ], ids=["no-label", "not-an-object", "file-not-a-string", "label-not-a-string"])
    def test_bad_manifest_item_exits_2(self, tmp_path, capsys, item):
        manifest = synth_corpus(SynthSpec(), 1, seed=4, out_dir=tmp_path / "corpus")
        doc = json.loads(manifest.read_text())
        doc["items"][1] = item
        manifest.write_text(json.dumps(doc))
        code = main(["extract", "--artifact-dir", str(tmp_path / "a"),
                     "--corpus-manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(manifest) in err and "item 1" in err

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


class RecordingConfig:
    """A PipelineConfig stand-in that records the fields read through it,
    also those its own methods read."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.read = set()

    def __getattr__(self, name):
        method = getattr(PipelineConfig, name, None)
        if callable(method):
            return types.MethodType(method, self)
        self.read.add(name)
        return getattr(self.config, name)


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
        Pipeline(tiny_config(root)).run()
        return root

    @pytest.mark.parametrize("changed", list(FIELD_CHANGES))
    def test_field_change_reruns_stage_and_everything_after(self, base_run,
                                                            tmp_path, changed):
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        field, value = FIELD_CHANGES[changed]
        config = dataclasses.replace(tiny_config(tmp_path), **{field: value})
        status = Pipeline(config).run()["stages"]
        position = [s.name for s in STAGES].index(changed)
        for i, stage in enumerate(STAGES):
            want = "ran" if i >= position else "skipped"
            if stage.name == "extract":
                want = "skipped"  # it reads no config field, only the corpus
            assert status[stage.name] == want, stage.name

    @pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
    def test_row_matches_stage_body(self, base_run, tmp_path, monkeypatch, stage):
        # The body alone, without the cache: every file it reads is a source
        # or an output of one of its deps, it writes exactly its outputs, and
        # it reads no config field outside its row.
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        pipe = Pipeline(tiny_config(tmp_path))
        pipe.config = config = RecordingConfig(pipe.config)
        opened = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append((Path(file).resolve(), mode))
            return real_open(file, mode, *args, **kwargs)

        use_cpus(monkeypatch, 1)  # reads made in worker processes would not be seen
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        getattr(Pipeline, stage.method).__wrapped__(pipe)
        monkeypatch.undo()

        def files(names):
            return {path.resolve() for path in pipe._paths(names)}

        upstream = tuple(name for dep in STAGES if dep.name in stage.deps
                         for name in dep.outputs)
        written = {path for path, mode in opened if set(mode) & set("wax+")}
        read = {path for path, mode in opened if not set(mode) & set("wax+")}
        assert read <= files(stage.sources + upstream)
        assert written == files(stage.outputs)
        assert config.read <= set(stage.fields)

    def test_features_sidecar_change_reruns_train_forest(self, base_run, tmp_path):
        # Through the table, extract would rebuild the changed sidecar first
        # (its recorded hash no longer matches); on its own, train-forest
        # must see the change in its own signature.
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        sidecar = tmp_path / "artifacts" / "features.json"
        doc = json.loads(sidecar.read_text())
        doc["catalog_version"] = "v0"
        sidecar.write_text(json.dumps(doc))
        assert Pipeline(tiny_config(tmp_path)).stage_train_forest() == "ran"

    @pytest.mark.parametrize("name,method,edit", [
        ("checkpoint.json", "stage_generate",
         lambda doc: doc.update(medians=[m + 1.0 for m in doc["medians"]])),
        ("labels.json", "stage_train",
         lambda doc: doc.update(labels=doc["labels"][::-1])),
    ], ids=["checkpoint-medians", "labels"])
    def test_upstream_file_change_reruns_stage(self, base_run, tmp_path, name, method,
                                               edit):
        # on its own, like the sidecar test above: the stage must see the
        # edited upstream output in its own signature
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        path = tmp_path / "artifacts" / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert getattr(Pipeline(tiny_config(tmp_path)), method)() == "ran"

    def test_readme_lists_every_stage_output(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Artifacts", 1)[1].split("```")[1]
        listed = {line.split()[0].rstrip("/") for line in block.splitlines() if line.strip()}
        assert {name for stage in STAGES for name in stage.outputs} <= listed

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
        # every traced function too: a deleted one would read zero
        for module, path, name, _ in spans.LAYERS:
            owner = importlib.import_module(module)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"{module}.{path} ({name})"


class TestCacheAndConfigErrors:
    def test_split_command_goes_through_the_cache(self, tmp_path, capsys):
        config = tiny_config(tmp_path, n_per_quadrant=10)
        write_config(config, tmp_path / "config.json")
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
        write_config(config, tmp_path / "config.json")
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 0
        record = tmp_path / "artifacts" / "stage_meta" / "extract.json"
        record.write_text(text)
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 2
        assert str(record) in capsys.readouterr().err

    def test_missing_vocabulary_reruns_extract(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        write_config(config, tmp_path / "config.json")
        command = ["extract", "--config", str(tmp_path / "config.json")]
        assert main(command) == 0
        vocabulary = tmp_path / "artifacts" / "vocabulary.json"
        vocabulary.unlink()
        assert main(command) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "extract: ran"
        assert vocabulary.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_config_file_not_a_json_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["extract", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        write_config(config, tmp_path / "config.json")
        doc = json.loads((tmp_path / "config.json").read_text())
        doc["workers"] = 2  # a field of older versions
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["extract", "--config", str(tmp_path / "config.json")]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("dtype", "foo"), ("dtype", "float16"), ("seed", "x"), ("split_ratios", 5),
        ("base_lr", "a"), ("batch_size", 0), ("forest_trees", 0), ("dropout", 2.0),
        ("base_lr", -0.01), ("max_generate_tokens", 0), ("selection_method", "best"),
        ("mapping_method", "nearest"), ("kmeans_clusters", 0), ("selection_k", 0),
        ("n_generate_per_quadrant", 0), ("train_steps", 0), ("bias_n", 0), ("bias_n", -1),
    ])
    def test_unworkable_config_value_exits_2(self, tmp_path, capsys, field, value):
        assert self.run_with(tmp_path, field, value) == 2
        assert f"config field {field}" in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("warmup_steps", 0, "warmup_steps must be"), ("sampler_p", 0, "p must be"),
        ("sampler_temperature", 0, "temperature must be"),
    ], ids=["warmup_steps", "sampler_p", "sampler_temperature"])
    def test_stage_config_value_exits_2_before_any_stage(self, tmp_path, capsys,
                                                         field, value, message):
        assert self.run_with(tmp_path, field, value) == 2
        err = capsys.readouterr().err
        assert message in err and f"config field {field}" in err
        assert not (tmp_path / "artifacts" / "stage_meta").exists()

    @staticmethod
    def run_with(tmp_path, field, value) -> int:
        """Exit code of ``run`` on the tiny config with ``field`` set to ``value``."""
        write_config(tiny_config(tmp_path), tmp_path / "config.json")
        doc = json.loads((tmp_path / "config.json").read_text())
        doc[field] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        return main(["run", "--config", str(tmp_path / "config.json")])

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

    def test_select_attrs_reruns_on_older_forest_file(self, tmp_path):
        config = tiny_config(tmp_path)
        Pipeline(config).run(until="select-attrs")
        art = tmp_path / "artifacts"
        selection = (art / "selection.json").read_text()
        doc = json.loads((art / "forest.json").read_text())
        doc["config"].update(canonical_order=False, max_depth=None, min_samples_leaf=1,
                             features_per_split=None)
        (art / "forest.json").write_text(json.dumps(doc) + "\n")
        # on its own: through the table, train-forest would first rebuild the
        # file, whose bytes no longer match its recorded hash
        assert Pipeline(config).stage_select() == "ran"
        assert (art / "selection.json").read_text() == selection


def edit_json(change):
    """A text edit that applies ``change`` to the parsed JSON document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


class TestTruncatedArtifacts:
    """A cut JSON artifact, or one with a wrong key, is bad input: exit 2
    naming the file, not exit 3."""

    @pytest.mark.parametrize("name,edit", [
        pytest.param("mapping.json", lambda text: text[:45], id="mapping.json"),
        pytest.param("checkpoint.json", lambda text: text[:45], id="checkpoint.json"),
        pytest.param("checkpoint.json",
                     edit_json(lambda doc: doc["config"].update(n_experts=2)),
                     id="checkpoint-unknown-config-key"),
        pytest.param("checkpoint.json", edit_json(lambda doc: doc.pop("config")),
                     id="checkpoint-no-config"),
        pytest.param("checkpoint.json", edit_json(lambda doc: doc.pop("medians")),
                     id="checkpoint-no-medians"),
        pytest.param("mapping.json", lambda text: text.replace('"Q4"', '"Q5"'),
                     id="mapping-quadrant-Q5"),
        pytest.param("mapping.json", edit_json(lambda doc: doc.pop("vectors")),
                     id="mapping-no-vectors"),
    ])
    def test_generate_exits_2(self, tmp_path, capsys, name, edit):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art)
        path = art / name
        path.write_text(edit(path.read_text()))
        assert main(["generate", "--artifact-dir", str(art), "--n", "1"]) == 2
        assert str(path) in capsys.readouterr().err


class TestBadJsonInputs:
    """A JSON input cut short, or an attribute file that is missing or not a
    list of numbers, is bad input: exit 2 naming the file, not exit 3. A stage
    output cut short fails its recorded hash and is rebuilt."""

    @pytest.fixture(scope="class")
    def base_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("base")
        Pipeline(tiny_config(root)).run(until="generate")
        return root

    # a stage output cut short is rebuilt instead (test_cut_output_is_rebuilt)
    @pytest.mark.parametrize("name,command", [
        ("corpus/manifest.json", "extract"),
    ], ids=["corpus-manifest"])
    def test_cut_file_exits_2(self, base_run, tmp_path, capsys, name, command):
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        write_config(tiny_config(tmp_path), tmp_path / "config.json")
        path = tmp_path / name
        path.write_text(path.read_text()[:30])
        assert main([command, "--config", str(tmp_path / "config.json")]) == 2
        assert str(path) in capsys.readouterr().err

    # analyze-bias brings extract up to date before it reads these
    @pytest.mark.parametrize("name", ["labels.json", "features.json"],
                             ids=["labels", "features"])
    def test_analyze_bias_rebuilds_cut_extract_output(self, base_run, tmp_path, name):
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        write_config(tiny_config(tmp_path), tmp_path / "config.json")
        path = tmp_path / "artifacts" / name
        whole = path.read_bytes()
        path.write_bytes(whole[:30])
        assert main(["analyze-bias", "--config", str(tmp_path / "config.json")]) == 0
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("name,stage,command", [
        ("splits.json", "split", "train-forest"),
        ("forest.json", "train-forest", "select-attrs"),
        ("selection.json", "select-attrs", "map-emotion"),
        ("generated/manifest.json", "generate", "evaluate"),
        ("generated/gen_Q1_0000.mid", "generate", "evaluate"),
    ], ids=["splits", "forest", "selection", "generated-manifest", "generated-piece"])
    def test_cut_output_is_rebuilt(self, base_run, tmp_path, name, stage, command):
        shutil.copytree(base_run / "artifacts", tmp_path / "artifacts")
        path = tmp_path / "artifacts" / name
        whole = path.read_bytes()
        path.write_bytes(whole[:30])
        status = Pipeline(tiny_config(tmp_path)).run(until=command)["stages"]
        assert status[stage] == "ran"
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("text", ["{not json", None, '{"values": [1, 2, 3]}',
                                      '["a", "b", "c"]'],
                             ids=["not-json", "missing", "object", "not-numbers"])
    def test_bad_attr_file_exits_2(self, tmp_path, capsys, text):
        art = tmp_path / "artifacts"
        write_generate_artifacts(art)
        attr_file = tmp_path / "attrs.json"
        if text is not None:
            attr_file.write_text(text)
        assert main(["generate", "--artifact-dir", str(art),
                     "--attr-file", str(attr_file)]) == 2
        assert str(attr_file) in capsys.readouterr().err
        assert not list((art / "generated").glob("*.mid"))


def test_checkpoint_without_attribute_encoder_exits_2(tmp_path, capsys):
    art = tmp_path / "artifacts"
    write_generate_artifacts(art)
    manifest = json.loads((art / "checkpoint.json").read_text())
    manifest["config"]["attr_dim"] = 0
    (art / "checkpoint.json").write_text(json.dumps(manifest))
    assert main(["generate", "--artifact-dir", str(art), "--n", "1"]) == 2
    assert "attr_dim" in capsys.readouterr().err


def test_generate_on_nan_checkpoint_exits_2(tmp_path, capsys):
    art = tmp_path / "artifacts"
    write_generate_artifacts(art, edit=lambda state: state.params["ln_f_g"].data.fill(np.nan))
    assert main(["generate", "--artifact-dir", str(art), "--emotion", "Q1"]) == 2
    assert "logits" in capsys.readouterr().err
    assert not list((art / "generated").glob("*.mid"))

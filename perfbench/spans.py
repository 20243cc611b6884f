"""Outside-in span tracer for emomusic.

The tracer replaces a chosen set of emomusic's public functions and methods
with timing wrappers, in every emomusic module that binds them, so calls made
through ``from .x import f`` are seen too. Spans (name, start, end, parent,
run id and an optional note of counts) stay in memory until ``write_spans``.
Nothing inside ``src/`` knows about it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from emomusic.tokens import EOS, PAD


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str
    note: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers with ``install``, remove them with ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.bad_notes: set[str] = set()
        self.not_found: set[str] = set()  # span names of targets not found

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own; used for the benchmark's calls."""
        return self._wrapper(fn, name, None)(*args, **kwargs)

    def _wrapper(self, original, name: str, note):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].start, self.spans[index].end = start, end
            if note is not None:
                self.spans[index].note = self._note(note, name, result, args)
            return result

        traced.__wrapped__ = original
        return traced

    def _note(self, note, name: str, result, args) -> dict | None:
        """The span's counts, or None with one warning per span name when
        the traced function no longer returns what the note expects."""
        try:
            return note(result, args)
        except (TypeError, ValueError, IndexError, KeyError, AttributeError) as exc:
            if name not in self.bad_notes:
                self.bad_notes.add(name)
                print(f"trace: cannot count {name} ({type(exc).__name__}: {exc}); "
                      "its counts are missing", file=sys.stderr)
            return None

    def install(self, targets: list[tuple[str, str, str, object]]) -> None:
        """targets: (module, attribute path such as "Tensor.backward",
        span name, note function or None). Missing targets are reported on
        stderr and skipped, so a renamed function costs its metric only."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "emomusic" or name.startswith("emomusic."))]
        for module_name, path, span_name, note in targets:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                if span_name not in self.not_found:
                    print(f"trace: {module_name}.{path} not found, not traced",
                          file=sys.stderr)
                self.not_found.add(span_name)
                continue
            wrapper = self._wrapper(original, span_name, note)
            if owner_path:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def merge(span_lists) -> list[Span]:
    """Concatenate per-iteration span lists, shifting parent indices."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            out.append(Span(s.name, s.start, s.end,
                            None if s.parent is None else s.parent + base,
                            s.run_id, s.note))
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in start order within each iteration."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


# -- what is traced ---------------------------------------------------------

# Pipeline method name -> stage name as the CLI and stage_meta spell it.
STAGES = {
    "stage_split": "split",
    "stage_extract": "extract",
    "stage_train_forest": "train-forest",
    "stage_select": "select-attrs",
    "stage_map": "map-emotion",
    "stage_train": "train",
    "stage_generate": "generate",
    "stage_evaluate": "evaluate",
}


def _status(result, args):
    if result not in ("ran", "skipped"):
        raise ValueError(f"stage status {result!r}")
    return {"status": result}


def _pad_note(ids, args):
    return {"pad": int((ids == PAD).sum()), "positions": int(ids.size)}


def _loss_note(result, args):
    return {"scored": int(result[1])}


def _piece_note(tokens, args):
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.dtype.kind not in "iu":
        raise TypeError(f"expected one piece's token ids, got shape {tokens.shape}")
    return {"tokens": tokens.size - 1, "eos": int(tokens[-1] == EOS)}


def _decode_note(result, args):
    return {"dropped": int(result[1]), "decoded": len(args[0])}


def _forest_note(forest, args):
    x = args[0].matrix.values
    constant = int((x.max(axis=0) == x.min(axis=0)).sum())
    return {"nodes": int(sum(len(t.feature) for t in forest.trees)),
            "constant_dims": constant, "dims": int(x.shape[1])}


def _stage_targets() -> list[tuple[str, str, str, object]]:
    return [("emomusic.pipeline", f"Pipeline.{method}", f"pipeline.stage.{name}", _status)
            for method, name in STAGES.items()]


# Always on, also in untraced runs: about one call per stage, training step or
# generated piece, so the end-to-end throughputs can be counted.
COUNTERS = _stage_targets() + [
    ("emomusic.model", "next_token_loss", "model.next_token_loss", _loss_note),
    ("emomusic.sampling", "generate_from_bits", "sampling.generate_from_bits", _piece_note),
]

LAYERS = COUNTERS + [
    ("emomusic.model", "forward_batch", "model.forward_batch", None),
    ("emomusic.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("emomusic.training", "train", "training.train", None),
    ("emomusic.training", "clip_gradients", "training.clip_gradients", None),
    ("emomusic.training", "Adam.step", "training.adam_step", None),
    ("emomusic.training", "pad_batch", "training.pad_batch", _pad_note),
    ("emomusic.training", "load_checkpoint", "training.load_checkpoint", None),
    ("emomusic.training", "save_checkpoint", "training.save_checkpoint", None),
    ("emomusic.sampling", "sample_top_p", "sampling.sample_top_p", None),
    ("emomusic.tokens", "score_to_tokens", "tokens.score_to_tokens", None),
    ("emomusic.tokens", "tokens_to_score", "tokens.tokens_to_score", _decode_note),
    ("emomusic.midi", "parse_midi", "midi.parse_midi", None),
    ("emomusic.midi", "write_midi", "midi.write_midi", None),
    ("emomusic.score", "midi_to_score", "score.midi_to_score", None),
    ("emomusic.score", "score_to_midi", "score.score_to_midi", None),
    ("emomusic.features", "extract_features", "features.extract_features", None),
    ("emomusic.features", "extract_corpus", "features.extract_corpus", None),
    ("emomusic.features", "save_corpus_csv", "features.save_corpus_csv", None),
    ("emomusic.forest", "train_forest", "forest.train_forest", _forest_note),
    ("emomusic.forest", "feature_importance", "forest.feature_importance", None),
    ("emomusic.forest", "forest_from_json", "forest.forest_from_json", None),
    ("emomusic.forest", "forest_to_json", "forest.forest_to_json", None),
    ("emomusic.forest", "predict_class_index", "forest.predict_class_index", None),
    ("emomusic.mapping", "compute_mapping", "mapping.compute_mapping", None),
    ("emomusic.evaluation", "objective_accuracy", "evaluation.objective_accuracy", None),
    ("emomusic.evaluation", "l1_distance_analysis", "evaluation.l1_distance_analysis", None),
    ("emomusic.evaluation", "pca_project", "evaluation.pca_project", None),
]

# Layers whose self time is reported; a span's layer is its name up to the
# first dot. "cli" is the benchmark's own span around each command.
SELF_LAYERS = ("cli", "pipeline", "features", "forest", "mapping", "training",
               "model", "autodiff", "sampling", "tokens", "midi", "score",
               "evaluation")


# -- per-layer metrics --------------------------------------------------------


def _sum_note(spans: list[Span], key: str) -> int:
    return sum(s.note[key] for s in spans if s.note and key in s.note)


def status(span: Span) -> str | None:
    """'ran' or 'skipped' for a stage span, None if it was not counted."""
    return span.note["status"] if span.note else None


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], iterations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``iterations`` traced iterations.

    Times per call are means over all calls; stage and self times are per
    iteration. A layer the workload never calls reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def per_call(name, scale):
        found = calls(name)
        return scale * sum(s.seconds for s in found) / len(found) if found else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    skipped = 0.0
    for name in STAGES.values():
        ran = [s for s in calls(f"pipeline.stage.{name}") if status(s) == "ran"]
        skipped += sum(s.seconds for s in calls(f"pipeline.stage.{name}")
                       if status(s) == "skipped")
        out[f"pipeline.stage.{name}_s"] = (sum(s.seconds for s in ran) / iterations, "s")
    out["pipeline.skip_check_ms"] = (1e3 * skipped / iterations, "ms")

    trains = calls("training.train")
    steps = sum(1 for s in calls("model.forward_batch")
                if s.parent is not None and spans[s.parent].name == "training.train")
    scored = _sum_note(calls("model.next_token_loss"), "scored")
    train_seconds = sum(s.seconds for s in trains)
    out["model.forward_ms"] = (per_call("model.forward_batch", 1e3), "ms")
    out["model.loss_ms"] = (per_call("model.next_token_loss", 1e3), "ms")
    out["autodiff.backward_ms"] = (per_call("autodiff.backward", 1e3), "ms")
    out["training.clip_ms"] = (per_call("training.clip_gradients", 1e3), "ms")
    out["training.adam_ms"] = (per_call("training.adam_step", 1e3), "ms")
    out["training.step_ms"] = (1e3 * ratio(train_seconds, steps), "ms")
    out["training.tokens_per_s"] = (ratio(scored, train_seconds), "1/s")
    pads = calls("training.pad_batch")
    out["training.pad_share"] = (ratio(_sum_note(pads, "pad"), _sum_note(pads, "positions")),
                                 "share")
    out["training.load_checkpoint_ms"] = (per_call("training.load_checkpoint", 1e3), "ms")

    pieces = calls("sampling.generate_from_bits")
    own = self_seconds(spans)
    piece_own = sum(seconds for s, seconds in zip(spans, own)
                    if s.name == "sampling.generate_from_bits")
    generated = _sum_note(pieces, "tokens")
    piece_seconds = sum(s.seconds for s in pieces)
    out["sampling.piece_ms"] = (per_call("sampling.generate_from_bits", 1e3), "ms")
    out["sampling.token_us"] = (1e6 * ratio(piece_seconds, generated), "us")
    out["sampling.top_p_us"] = (per_call("sampling.sample_top_p", 1e6), "us")
    out["sampling.model_step_us"] = (1e6 * ratio(piece_own, generated), "us")
    out["sampling.eos_share"] = (ratio(_sum_note(pieces, "eos"), len(pieces)), "share")
    out["sampling.tokens_per_piece"] = (ratio(generated, len(pieces)), "count")
    out["sampling.tokens_per_s"] = (ratio(generated, piece_seconds), "1/s")

    decodes = calls("tokens.tokens_to_score")
    out["tokens.encode_ms"] = (per_call("tokens.score_to_tokens", 1e3), "ms")
    out["tokens.decode_ms"] = (per_call("tokens.tokens_to_score", 1e3), "ms")
    out["tokens.dropped_share"] = (ratio(_sum_note(decodes, "dropped"),
                                         _sum_note(decodes, "decoded")), "share")
    out["midi.parse_ms"] = (per_call("midi.parse_midi", 1e3), "ms")
    out["midi.write_ms"] = (per_call("midi.write_midi", 1e3), "ms")
    out["score.midi_to_score_ms"] = (per_call("score.midi_to_score", 1e3), "ms")
    out["score.score_to_midi_ms"] = (per_call("score.score_to_midi", 1e3), "ms")

    fits = calls("forest.train_forest")
    out["features.extract_ms_per_score"] = (per_call("features.extract_features", 1e3), "ms")
    out["features.constant_dim_share"] = (ratio(_sum_note(fits, "constant_dims"),
                                                _sum_note(fits, "dims")), "share")
    out["forest.fit_s"] = (per_call("forest.train_forest", 1.0), "s")
    out["forest.nodes"] = (ratio(_sum_note(fits, "nodes"), len(fits)), "count")
    out["forest.importance_ms"] = (per_call("forest.feature_importance", 1e3), "ms")
    out["forest.load_ms"] = (per_call("forest.forest_from_json", 1e3), "ms")
    out["forest.predict_us_per_row"] = (per_call("forest.predict_class_index", 1e6), "us")
    out["mapping.compute_ms"] = (per_call("mapping.compute_mapping", 1e3), "ms")
    out["evaluation.accuracy_ms"] = (per_call("evaluation.objective_accuracy", 1e3), "ms")
    out["evaluation.l1_ms"] = (per_call("evaluation.l1_distance_analysis", 1e3), "ms")
    out["evaluation.pca_ms"] = (per_call("evaluation.pca_project", 1e3), "ms")

    layer_own = dict.fromkeys(SELF_LAYERS, 0.0)
    for s, seconds in zip(spans, own):
        layer = s.name.split(".", 1)[0]
        if layer in layer_own:
            layer_own[layer] += seconds
    for layer, seconds in layer_own.items():
        out[f"self.{layer}_s"] = (seconds / iterations, "s")
    return out


def stage_seconds(spans: list[Span]) -> float:
    """Total time in pipeline stage spans that no other stage span encloses."""
    total = 0.0
    for s in spans:
        if not s.name.startswith("pipeline.stage."):
            continue
        parent = s.parent
        while parent is not None and not spans[parent].name.startswith("pipeline.stage."):
            parent = spans[parent].parent
        if parent is None:
            total += s.seconds
    return total

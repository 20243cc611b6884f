"""emomusic: emotion-conditioned symbolic music generation.

Two-stage design: (1) map each emotion quadrant to concrete musical
attribute values by clustering a labeled corpus in attribute space, and
(2) generate music from those attributes with a self-supervised,
attribute-conditioned autoregressive transformer (causal linear attention).
The bridge between the stages is a selected subset of a large symbolic
feature catalog, ranked by random-forest feature importance.
"""

from .errors import EmoMusicError
from .features import (
    AttributeVector,
    CorpusMatrix,
    FeatureCatalog,
    default_catalog,
    extract_corpus,
    extract_features,
)
from .forest import (
    ForestConfig,
    ImportanceRanking,
    RandomForest,
    SelectionConfig,
    feature_importance,
    select_attributes,
    train_forest,
)
from .mapping import (
    EmotionQuadrant,
    LabeledCorpus,
    MappingTable,
    Standardizer,
    binarize,
    center_boundary_split,
    compute_mapping,
    compute_medians,
)
from .midi import MidiFile, MidiTrack, parse_midi, write_midi
from .model import ModelConfig, ModelState, init_state, next_token_loss
from .pipeline import Pipeline, PipelineConfig, split_dataset
from .sampling import sample_top_p
from .score import (
    Note,
    Score,
    midi_to_score,
    quantize_score,
    score_to_midi,
)
from .synth import SynthSpec, synth_corpus, synth_score
from .tokens import score_to_tokens, tokens_to_score, vocabulary_manifest
from .training import TrainConfig, lr_schedule, train

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Single-video action segmentation via temporal-semantic representation learning."""

from .data_io import (
    DATASET_PRESETS,
    DataFormatError,
    FeatureMatrix,
    LabelSequence,
    RunConfig,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from .similarity import (
    AffinityMatrix,
    TemporalKernel,
    ZeroNormRowError,
    combine,
    semantic_distribution,
    temporal_distribution,
    temporal_weight,
)
from .triplet import DownsampleSet, Triplet, negative_set, positive_set, sample_triplets, stochastic_pool
from .model import (
    DivergenceError,
    TrainState,
    TsaModel,
    backward,
    forward,
    init_model,
    kl_divergence,
    train,
    training_loss,
    triplet_loss,
)
from .cluster import Segmentation, equal_split, finch, kmeans, spectral
from .evaluate import MatchResult, Scores, contingency, f1, hungarian, iou, mof, remove_background, score
from .synth import SynthSpec, generate
from .pipeline import run_dataset, run_video, segment_features

__version__ = "0.1.0"

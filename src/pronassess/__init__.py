"""Pronunciation assessment from non-verbal cues.

The pipeline: WAV -> frame descriptors -> utterance functionals and,
via DTW alignment of an external posterior matrix, per-phoneme pooled
features and duration scores -> a trainable multi-task network predicting
fluency and prosody on the 0-10 scale.
"""

from .aligner import Alignment, Span, dtw_align, spans_to_durations, validate_posteriors
from .assembly import FusionInput, build_fusion_input, pool_to_phonemes
from .audio_io import (
    AudioBuffer,
    ManifestEntry,
    load_wav,
    read_alignment,
    read_duration_model,
    read_manifest,
    read_matrix,
    write_alignment,
    write_duration_model,
    write_matrix,
    write_wav,
)
from .durations import DurationModel, PhoneStats, fit_durations, gopd, gopd_vector
from .functionals import UtteranceFunctionals, compute_functionals, pitch_slopes, segment_voicing
from .inventory import INVENTORY_SIZE, PHONE_TO_INDEX, PHONEMES, phone_index
from .lld import (
    FrameFeatures,
    FrameGrid,
    compute_alpha_ratio,
    compute_jitter,
    compute_loudness,
    estimate_f0,
    extract_frame_features,
    hz_to_semitones,
    power_spectrum,
)
from .metrics import pcc, predict_score
from .model import ModelConfig, ScoringModel, UtteranceFeatures, cross_attention, loss_fn
from .pipeline import prepare_dataset, prepare_utterance
from .synth import SyntheticSpec, generate_corpus, pseudo_ct
from .train import TrainConfig, TrainResult, parse_train_config, train

__version__ = "0.1.0"

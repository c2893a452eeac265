"""End-to-end feature preparation: wav + posteriors + duration model ->
scoring-network inputs."""

import numpy as np

from . import audio_io
from .aligner import Alignment, dtw_align, validate_posteriors
from .assembly import FusionInput, build_fusion_input, pool_to_phonemes
from .durations import DurationModel, gopd_vector
from .errors import ValidationError
from .functionals import compute_functionals
from .lld import FrameFeatures, extract_frame_features
from .model import UtteranceFeatures


def compose_fusion(ff: FrameFeatures, alignment: Alignment, duration_model: DurationModel) -> FusionInput:
    """Per-phoneme fusion input: GoPD of each aligned span, its pooled frame
    features and the phone index, in alignment order."""
    gopd_values = gopd_vector(alignment, duration_model)
    pooled = pool_to_phonemes(ff, alignment)
    return build_fusion_input(pooled, gopd_values, alignment.phones)


def prepare_utterance(entry: audio_io.ManifestEntry, duration_model: DurationModel) -> UtteranceFeatures:
    """Run the full feature pipeline for one manifest entry."""
    buf = audio_io.load_wav(entry.wav_path)
    ff = extract_frame_features(buf)
    functionals = compute_functionals(ff)

    # Cast once: validate_posteriors and dtw_align compute in float64, so
    # their np.asarray calls then copy nothing.
    posteriors = audio_io.read_matrix(entry.posterior_path).astype(np.float64)
    if posteriors.shape[0] != ff.num_frames:
        raise ValidationError(
            f"{entry.id}: posterior frames ({posteriors.shape[0]}) != "
            f"feature frames ({ff.num_frames})"
        )
    validate_posteriors(posteriors, check_normalized=True)
    alignment, _ = dtw_align(posteriors, entry.phones)
    fusion = compose_fusion(ff, alignment, duration_model)

    ct = audio_io.read_matrix(entry.ct_path)
    if ct.shape[0] != ff.num_frames:
        raise ValidationError(
            f"{entry.id}: contextual rows ({ct.shape[0]}) != feature frames ({ff.num_frames})"
        )
    return UtteranceFeatures(
        fusion=fusion,
        ct=ct,
        u_nv=functionals.to_vector(),
        fluency=entry.fluency,
        prosody=entry.prosody,
    )


def prepare_dataset(entries, duration_model: DurationModel) -> list[UtteranceFeatures]:
    return [prepare_utterance(e, duration_model) for e in entries]

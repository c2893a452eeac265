"""End-to-end feature preparation: wav + posteriors + duration model ->
scoring-network inputs.

Entries are prepared in groups. Their WAVs are read in order, and a
group's signals pass the frame front end in one `extract_frame_features`
call over a grid that lays them end to end (`frame_features`), which gives
the same features bit for bit at a fraction of numpy's per-call cost (the
36 utterances of 2-4 phones of the benchmark's `short` corpus: 22 ms in one
call, 38 ms in one call each). Functionals, posterior checks, DTW
alignment, GoPD and assembly stay per entry (`prepare_utterance`), in
order. A WAV that cannot be read, or holds less than one window, is
reported only after the entries before it are prepared. So the error
raised is always the first bad entry's, as when entries are prepared one
at a time. A group of one entry runs the same code.
"""

import numpy as np

from . import audio_io
from .aligner import Alignment, dtw_align, validate_posteriors
from .assembly import FusionInput, build_fusion_input, pool_to_phonemes
from .durations import DurationModel, gopd_vector
from .errors import PronAssessError, ValidationError
from .functionals import compute_functionals
from .lld import FrameFeatures, FrameGrid, extract_frame_features, frame_count
from .model import UtteranceFeatures

# Frames per front-end group in prepare_dataset. One front-end call over
# the 3135 frames of the benchmark's `mixed` corpus peaks at 26 MiB of
# numpy arrays (8.4 KiB per frame), so a group stays near 35 MiB; both
# benchmark corpora are one group each.
GROUP_FRAMES = 4096


def compose_fusion(ff: FrameFeatures, alignment: Alignment, duration_model: DurationModel) -> FusionInput:
    """Per-phoneme fusion input: GoPD of each aligned span, its pooled frame
    features and the phone index, in alignment order."""
    gopd_values = gopd_vector(alignment, duration_model)
    pooled = pool_to_phonemes(ff, alignment)
    return build_fusion_input(pooled, gopd_values, alignment.phones)


def load_signal(entry: audio_io.ManifestEntry) -> tuple[audio_io.AudioBuffer, int]:
    """The entry's WAV and its frame count; TooShortError below one window."""
    buf = audio_io.load_wav(entry.wav_path)
    return buf, frame_count(len(buf.samples))


def frame_features(bufs) -> list[FrameFeatures]:
    """Each signal's frame features, from one `extract_frame_features` call
    over the signals laid end to end."""
    if not bufs:
        return []
    grid = FrameGrid.for_signals([len(b.samples) for b in bufs])
    joined = bufs[0] if len(bufs) == 1 else audio_io.AudioBuffer(
        np.concatenate([b.samples for b in bufs]))
    return extract_frame_features(joined, grid).split(grid)


def prepare_utterance(entry: audio_io.ManifestEntry, duration_model: DurationModel,
                      ff: FrameFeatures | None = None) -> UtteranceFeatures:
    """Run the full feature pipeline for one manifest entry. `ff`, when
    given, is the entry's frame features (from `frame_features`), and its
    WAV is not read again."""
    if ff is None:
        [ff] = frame_features([audio_io.load_wav(entry.wav_path)])
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


def _prepare_group(group, duration_model: DurationModel) -> list[UtteranceFeatures]:
    """prepare_utterance of each (entry, buffer) pair, in order, with one
    front-end pass over their signals."""
    ffs = frame_features([buf for _, buf in group])
    return [prepare_utterance(entry, duration_model, ff) for (entry, _), ff in zip(group, ffs)]


def prepare_dataset(entries, duration_model: DurationModel) -> list[UtteranceFeatures]:
    """prepare_utterance of each entry, in groups of up to GROUP_FRAMES frames."""
    dataset, group, frames = [], [], 0
    for entry in entries:
        try:
            buf, n = load_signal(entry)
        except (OSError, PronAssessError):
            _prepare_group(group, duration_model)  # an earlier entry's error comes first
            raise
        if frames + n > GROUP_FRAMES:
            dataset += _prepare_group(group, duration_model)
            group, frames = [], 0
        group.append((entry, buf))
        frames += n
    return dataset + _prepare_group(group, duration_model)

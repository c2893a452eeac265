"""End-to-end feature preparation: wav + posteriors + duration model ->
scoring-network inputs.

Entries are prepared in order, in chunks (`prepared_chunks`): `score`
runs one forward pass per chunk, and `prepare_dataset` joins them. A
chunk's signals pass the frame front end in one `extract_frame_features`
call over a grid that lays them end to end (`frame_features`), which gives
the same features bit for bit at a fraction of numpy's per-call cost (the
36 utterances of 2-4 phones of the benchmark's `short` corpus: 22.2 ms in
one call, 43.1 ms in one call each). Functionals, posterior checks, DTW
alignment, GoPD and assembly stay per entry (`prepare_utterance`).

A chunk is sized by the memory of a full-size float32 forward pass over
it. An utterance's fusion sequence has frames + phones + 1 valid rows,
known from its WAV's frame count before it is featurized, and
`forward_batch` pads a chunk to utterances times the longest. A pass peaks
at about VALID_ROW_KIB per valid row (the fusion LSTM's packed input,
gates, cell states and outputs, and the gather of its backward direction's
input: ~32 KiB) plus PADDED_ROW_KIB per padded row (the padded fusion
input, 4 KiB, and the padded phone-cue queries and attention). A
tracemalloc fit over 24 chunks gave 33.2 and 5.0 KiB plus 10.3 MiB fixed;
the constants round it up so that the estimate bounds every chunk traced
near the budget. A chunk's estimate (`_pass_kib`) stays within that of
SCORE_ROWS all-valid rows, 172 MiB, and an entry over it is a chunk of its
own. Valid rows cost the most per KiB of estimate, so the worst pass is an
all-valid one, traced at 155-166 MiB: below the 222 MiB traced peak of a
full-size float32 training step on 16 mixed-length utterances. Chunks are
prepared one at a time, so memory stays bounded by one chunk whatever the
manifest size.

Each chunk is featurized together with the entry that closes it, the next
chunk's first. So a front-end pass covers fewer than SCORE_ROWS frames
plus the closing entry's (at 8.4 KiB of numpy arrays per frame), and an
entry's preparation errors come before the forward pass of the chunk
ahead of it. A WAV that cannot be read, or holds less than one window, is
reported only after the entries before it are prepared. So
`prepare_dataset` raises the first bad entry's error, as when entries are
prepared one at a time.
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


# A score pass's memory per valid and per padded fusion row, and the budget
# in all-valid rows (see the module docstring).
VALID_ROW_KIB = 37
PADDED_ROW_KIB = 6
SCORE_ROWS = 4096


def _pass_kib(rows) -> int:
    """Estimated peak KiB of a full-size float32 forward pass over fusion
    sequences of these lengths."""
    return VALID_ROW_KIB * sum(rows) + PADDED_ROW_KIB * len(rows) * max(rows)


def prepared_chunks(entries, duration_model: DurationModel):
    """prepare_utterance of each entry, in order, yielded in chunks whose
    estimated pass memory stays within that of SCORE_ROWS all-valid rows."""

    def prepare(group):  # one front-end pass over the group's signals
        ffs = frame_features([buf for _, buf in group])
        return [prepare_utterance(e, duration_model, ff) for (e, _), ff in zip(group, ffs)]

    chunk, group, lengths = [], [], []  # lengths: fusion rows of chunk + group
    for entry in entries:
        try:
            buf, frames = load_signal(entry)
        except (OSError, PronAssessError):
            prepare(group)  # an earlier entry's error comes first
            raise
        rows = frames + len(entry.phones) + 1  # len(ct) + len(fusion) + 1 once prepared
        group.append((entry, buf))
        if lengths and _pass_kib(lengths + [rows]) > _pass_kib([SCORE_ROWS]):
            *done, first = prepare(group)
            yield chunk + done
            chunk, group, lengths = [first], [], [rows]
        else:
            lengths.append(rows)
    chunk += prepare(group)
    if chunk:
        yield chunk


def prepare_dataset(entries, duration_model: DurationModel) -> list[UtteranceFeatures]:
    """prepare_utterance of each entry, in order."""
    return [utt for chunk in prepared_chunks(entries, duration_model) for utt in chunk]

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
it. An utterance's fusion sequence has `model.fusion_steps` valid rows
(the pair means of its contextual rows, one per two frames, then one row
per phone and one more), known from its WAV's frame count before it is
featurized, and `forward_batch` pads a chunk to utterances times the
longest. A pass peaks at about VALID_ROW_KIB per valid row (the fusion
LSTM's packed input, gates, cell states and outputs, and the gather of
its backward direction's input: ~32 KiB) plus PADDED_ROW_KIB per padded
row (the padded fusion input, 4 KiB, and the padded phone-cue queries and
attention). A tracemalloc fit over 24 chunks of 2-40 phones gave 36.8 and
5.6 KiB plus 7.0 MiB fixed; the constants round it up so that the
estimate bounds every chunk traced near the budget. A chunk's estimate
(`_pass_kib`) stays within that of SCORE_ROWS all-valid rows, 180 MiB,
and an entry over it is a chunk of its own. Chunks filled to the budget,
all-valid or one long entry among short ones, traced at 168-177 MiB,
0.96-0.99 of their estimates; a full-size float32 training step on 16
mixed-length utterances traced at 124-140 MiB. The contextual rows the
chunk holds come on top: 8 KiB per pooled row, two float32 rows of 1024.
Chunks are prepared one at a time, so memory stays bounded by one chunk
whatever the manifest size.

A front-end pass covers one chunk: fewer than 2 * SCORE_ROWS frames, or
one longer entry (at 8.4 KiB of numpy arrays per frame). An entry is prepared
with its chunk, so its preparation errors come after the forward pass of
the chunk ahead of it. WAVs are read as the chunks are sized: one that
cannot be read, or holds less than one window, is reported once the
entries before it are prepared, and so before the forward pass of a chunk
it would close. So `prepare_dataset` raises the first bad entry's error,
as when entries are prepared one at a time.
"""

import numpy as np

from . import audio_io
from .aligner import Alignment, dtw_align, validate_posteriors
from .assembly import FusionInput, build_fusion_input, pool_to_phonemes
from .durations import DurationModel, gopd_vector
from .errors import PronAssessError, ValidationError, named
from .functionals import compute_functionals
from .lld import FrameFeatures, FrameGrid, extract_frame_features, frame_count
from .model import UtteranceFeatures, fusion_steps

def compose_fusion(ff: FrameFeatures, alignment: Alignment, duration_model: DurationModel) -> FusionInput:
    """Per-phoneme fusion input: GoPD of each aligned span, its pooled frame
    features and the phone index, in alignment order."""
    gopd_values = gopd_vector(alignment, duration_model)
    pooled = pool_to_phonemes(ff, alignment)
    return build_fusion_input(pooled, gopd_values, alignment.phones)


def frame_features(bufs) -> list[FrameFeatures]:
    """Each signal's frame features, from one `extract_frame_features` call
    over the signals laid end to end."""
    if not bufs:
        return []
    grid = FrameGrid.for_signals([len(b.samples) for b in bufs])
    joined = audio_io.AudioBuffer(np.concatenate([b.samples for b in bufs]))
    return extract_frame_features(joined, grid).split(grid)


def prepare_utterance(entry: audio_io.ManifestEntry, duration_model: DurationModel,
                      ff: FrameFeatures) -> UtteranceFeatures:
    """The scoring-network input of one manifest entry, from its frame
    features `ff` (from `frame_features`) and its other files."""
    functionals = compute_functionals(ff)

    # Cast once: validate_posteriors and dtw_align compute in float64, so
    # their np.asarray calls then copy nothing.
    posteriors = audio_io.read_matrix(entry.posterior_path).astype(np.float64)
    if posteriors.shape[0] != ff.num_frames:
        raise ValidationError(
            f"posterior frames ({posteriors.shape[0]}) != feature frames ({ff.num_frames})"
        )
    validate_posteriors(posteriors, check_normalized=True)
    alignment, _ = dtw_align(posteriors, entry.phones)
    fusion = compose_fusion(ff, alignment, duration_model)

    ct = audio_io.read_matrix(entry.ct_path)
    if ct.shape[0] != ff.num_frames:
        raise ValidationError(
            f"contextual rows ({ct.shape[0]}) != feature frames ({ff.num_frames})")
    return UtteranceFeatures(
        fusion=fusion,
        ct=ct,
        u_nv=functionals.to_vector(),
        fluency=entry.fluency,
        prosody=entry.prosody,
        id=entry.id,
    )


# A score pass's memory per valid and per padded fusion row, and the budget
# in all-valid rows (see the module docstring).
VALID_ROW_KIB = 39
PADDED_ROW_KIB = 6
SCORE_ROWS = 4096


def _pass_kib(rows) -> int:
    """Estimated peak KiB of a full-size float32 forward pass over fusion
    sequences of these lengths."""
    return VALID_ROW_KIB * sum(rows) + PADDED_ROW_KIB * len(rows) * max(rows)


def prepared_chunks(entries, duration_model: DurationModel):
    """prepare_utterance of each entry, in order, yielded in chunks whose
    estimated pass memory stays within that of SCORE_ROWS all-valid rows.
    An entry's package errors name its id (`named`)."""

    def prepare(chunk):  # one front-end pass over the chunk's signals
        ffs = frame_features([buf for _, buf in chunk])
        return [named(e.id, prepare_utterance, e, duration_model, ff)
                for (e, _), ff in zip(chunk, ffs)]

    chunk, lengths = [], []  # lengths: fusion rows of chunk
    for entry in entries:
        try:
            buf = named(entry.id, audio_io.load_wav, entry.wav_path)
            frames = named(entry.id, frame_count, len(buf.samples))
        except (OSError, PronAssessError):
            prepare(chunk)  # an earlier entry's error comes first
            raise
        rows = fusion_steps(frames, len(entry.phones))  # frames = len(ct) once prepared
        if lengths and _pass_kib(lengths + [rows]) > _pass_kib([SCORE_ROWS]):
            yield prepare(chunk)
            chunk, lengths = [], []
        chunk.append((entry, buf))
        lengths.append(rows)
    if chunk:
        yield prepare(chunk)


def prepare_dataset(entries, duration_model: DurationModel) -> list[UtteranceFeatures]:
    """prepare_utterance of each entry, in order."""
    return [utt for chunk in prepared_chunks(entries, duration_model) for utt in chunk]

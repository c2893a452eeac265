"""Synthetic desk-scale corpus generator.

Each utterance is a frequency-modulated tone with per-phone amplitude
levels, plus the artifacts the pipeline expects: near-one-hot log
posteriors consistent with a known segmentation, pseudo contextual rows
(frame descriptors through a fixed random projection), the ground-truth
alignment, and labels computed from generator-known quantities:

* fluency   <- mean squared deviation of realized phone durations from the
  generator's per-phone Gaussians (the GoPD deficit from its peak);
* prosody   <- the realized pitch-modulation depth in semitones.

Both labels are deterministic functions of quantities the network can
observe, so a training run measures the model rather than label noise.
"""

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import audio_io
from .aligner import HOP_MS, Alignment, Span
from .durations import DurationModel, PhoneStats
from .errors import ValidationError
from .inventory import PHONE_TO_INDEX, PHONEMES
from .lld import HOP_SAMPLES, SEMITONE_REF_HZ, WINDOW_SAMPLES, extract_frame_features
from .lstm import one_blas_thread
from .metrics import N_CLASSES
from .model import ModelConfig

SPEECH_PHONES = PHONEMES[:39]  # everything but SIL / UNK

DEVIATION_MAX = 3.0    # worst-case duration deviation, in generator stds
DEPTH_MAX_ST = 5.0     # max pitch modulation depth
POSTERIOR_LOGIT = 4.0  # log-odds boost of the aligned phone in each frame's posterior
POSTERIOR_NOISE = 0.3  # std of the Gaussian logit noise under that boost

# Fixed standardization applied to the 5 descriptor columns before projecting.
_CT_OFFSET = np.array([1.0, 0.0, 30.0, 0.0, 0.5])
_CT_SCALE = np.array([2.0, 8.0, 20.0, 0.05, 0.5])
_CT_PROJECTION = np.random.default_rng(424243).normal(
    0.0, 1.0 / np.sqrt(5.0), size=(5, ModelConfig().feature_dim))


def pseudo_ct(frame_matrix: np.ndarray) -> np.ndarray:
    """Stand-in contextual rows: standardized descriptors through a fixed
    seeded random projection, the same for every corpus, as wide as the
    full-size model's encoders (`ModelConfig().feature_dim`)."""
    z = (np.asarray(frame_matrix, dtype=np.float64) - _CT_OFFSET) / _CT_SCALE
    return z @ _CT_PROJECTION


def phone_duration_params(phone: str) -> tuple[float, float]:
    """Generator Gaussian for a phone. Means are multiples of 10 ms so a
    zero-deviation utterance quantizes to exactly zero deficit; the shared
    std keeps the GoPD peak value identical across phones, so the fluency
    label is a clean function of the duration scores the network ingests."""
    idx = PHONE_TO_INDEX[phone]
    return 60.0 + 10.0 * (idx % 6), 12.0


def generator_duration_model() -> DurationModel:
    phones = {}
    means = []
    for p in SPEECH_PHONES:
        mean, std = phone_duration_params(p)
        phones[p] = PhoneStats(mean, std, 1000)
        means.append(mean)
    pooled = PhoneStats(float(np.mean(means)), 25.0, 1000 * len(SPEECH_PHONES))
    return DurationModel(phones, pooled)


def fluency_label(mean_deficit: float) -> int:
    """clamp(round(10 + 2 * mean GoPD deficit), 0, 10); the deficit is
    GoPD minus its per-phone peak value, hence <= 0, and a zero-deviation
    utterance maps to exactly 10, the top score."""
    return int(np.clip(np.rint(N_CLASSES - 1 + 2.0 * mean_deficit), 0, N_CLASSES - 1))


def prosody_label(depth_st: float) -> int:
    """Pitch-variance bins: flat speech scores 2, maximal modulation 8."""
    return int(np.clip(np.rint(2.0 + 1.2 * depth_st), 0, N_CLASSES - 1))


@dataclass
class SyntheticSpec:
    n_utterances: int
    seed: int = 0
    min_phones: int = 2
    max_phones: int = 4

    def __post_init__(self):
        if self.n_utterances < 1:
            raise ValidationError("n_utterances must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed!r}")
        if not 1 <= self.min_phones <= self.max_phones:
            raise ValidationError("bad phones-per-utterance range")


def _synth_wav(span_frames, base_st, depth_st, mod_hz, phase0, amps,
               hf_ratio, hf_phase, gap_frac):
    """FM tone with per-span amplitude plus two fluency correlates: a
    high-band (3 kHz) component at a fixed amplitude ratio (spectral
    balance) and a muted mid-utterance pause covering gap_frac of the
    signal (a disfluency, visible in the voicing-segment functionals).

    Returns (samples, contour_st_at_frames).
    """
    total_frames = int(sum(span_frames))
    n = WINDOW_SAMPLES + HOP_SAMPLES * (total_frames - 1)
    t = np.arange(n) / audio_io.SAMPLE_RATE
    contour_st = base_st + depth_st * np.sin(2.0 * math.pi * mod_hz * t + phase0)
    freq = SEMITONE_REF_HZ * 2.0 ** (contour_st / 12.0)
    phase = 2.0 * math.pi * np.cumsum(freq) / audio_io.SAMPLE_RATE

    # amplitude interpolated between span centers
    centers, levels = [], []
    start = 0
    for k, nf in enumerate(span_frames):
        centers.append((start + nf / 2.0) * HOP_SAMPLES)
        levels.append(amps[k])
        start += nf
    amp = np.interp(np.arange(n), centers, levels)

    gap_len = int(gap_frac * n)
    if gap_len > 0:
        mid = int(0.55 * n)
        a = max(0, mid - gap_len // 2)
        b = min(n, a + gap_len)
        gate = np.ones(n)
        gate[a:b] = 0.0
        ramp = 80  # 5 ms cosine edges against clicks
        down = 0.5 * (1.0 + np.cos(np.linspace(0.0, math.pi, ramp)))
        lo = max(0, a - ramp)
        gate[lo:a] = down[ramp - (a - lo) :]
        hi = min(n, b + ramp)
        gate[b:hi] = down[::-1][: hi - b]
        amp = amp * gate

    tone = np.sin(phase) + hf_ratio * np.sin(2.0 * math.pi * 3000.0 * t + hf_phase)
    x = amp * tone / (1.0 + hf_ratio)

    frame_centers = np.arange(total_frames) * HOP_SAMPLES + WINDOW_SAMPLES // 2
    return x, contour_st[frame_centers]


# One BLAS thread per utterance, so `jobs` worker processes run `jobs`
# BLAS threads and not `jobs` full OpenBLAS thread pools.
@one_blas_thread()
def _gen_one(args):
    spec, index, out_dir = args
    rng = np.random.default_rng([spec.seed, index])
    out_dir = Path(out_dir)
    uid = f"utt{index:04d}"

    n_phones = int(rng.integers(spec.min_phones, spec.max_phones + 1))
    phones = []
    while len(phones) < n_phones:
        p = SPEECH_PHONES[int(rng.integers(len(SPEECH_PHONES)))]
        if phones and phones[-1] == p:  # adjacent repeats make spans ambiguous
            continue
        phones.append(p)

    deviation = DEVIATION_MAX * rng.uniform()
    deficits = []
    span_frames = []
    for p in phones:
        mean, std = phone_duration_params(p)
        d = mean + std * deviation * rng.normal()
        d = float(np.clip(d, 20.0, 200.0))
        nf = max(2, int(np.rint(d / HOP_MS)))
        span_frames.append(nf)
        d_real = nf * HOP_MS
        deficits.append(-((d_real - mean) ** 2) / (2.0 * std**2))
    fluency = fluency_label(float(np.mean(deficits)))


    base_st = rng.uniform(34.0, 38.0)
    depth = DEPTH_MAX_ST * rng.uniform()
    mod_hz = 6.0
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    amps = rng.uniform(0.45, 0.75, size=len(phones))
    # two acoustic correlates of the duration deficit: spectral balance
    # (alpha ratio 36 dB down to 6 dB) and a mid-utterance pause covering
    # up to 45% of the signal, the classic disfluency cue
    mean_deficit = max(float(np.mean(deficits)), -5.0)
    alpha_target_db = 36.0 + 6.0 * mean_deficit
    hf_ratio = 10.0 ** (-alpha_target_db / 20.0)
    hf_phase = rng.uniform(0.0, 2.0 * math.pi)
    gap_frac = 0.09 * -mean_deficit
    x, contour = _synth_wav(span_frames, base_st, depth, mod_hz, phase0, amps,
                            hf_ratio, hf_phase, gap_frac)

    # contextual rows from the quantized signal, exactly what consumers reload
    written = audio_io.write_wav(out_dir / f"{uid}.wav", audio_io.AudioBuffer(x))
    ff = extract_frame_features(written)
    audio_io.write_matrix(out_dir / f"{uid}.ct.mtx", pseudo_ct(ff.to_matrix()))

    # realized pitch variance: the pause mutes a phase-dependent stretch of
    # the modulation cycle, so bin the variance actually left in the signal
    if ff.voiced.any():
        realized_depth = float(ff.f0_semitones[ff.voiced].std()) * math.sqrt(2.0)
    else:
        realized_depth = float(contour.std()) * math.sqrt(2.0)
    prosody = prosody_label(realized_depth)

    # ground-truth alignment, kept in a subdirectory for easy globbing
    spans = []
    start = 0
    for p, nf in zip(phones, span_frames):
        spans.append(Span(p, start, start + nf - 1))
        start += nf
    alignment = Alignment(spans)
    audio_io.write_alignment(out_dir / "alignments" / f"{uid}.tsv", alignment)

    # near-one-hot log posteriors consistent with the segmentation
    total_frames = sum(span_frames)
    logits = rng.normal(0.0, POSTERIOR_NOISE, size=(total_frames, len(PHONEMES)))
    for sp in spans:
        col = PHONE_TO_INDEX[sp.phone]
        logits[sp.start_frame : sp.end_frame + 1, col] += POSTERIOR_LOGIT
    log_post = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    audio_io.write_matrix(out_dir / f"{uid}.post.mtx", log_post)

    row = {
        "id": uid,
        "wav_path": f"{uid}.wav",
        "ct_path": f"{uid}.ct.mtx",
        "posterior_path": f"{uid}.post.mtx",
        "phones": phones,
        "fluency": fluency,
        "prosody": prosody,
    }
    return row


def generate_corpus(spec: SyntheticSpec, out_dir, jobs: int = 1) -> Path:
    """Write a full synthetic corpus; returns the manifest path.

    Output is byte-identical for a fixed spec regardless of `jobs`: every
    utterance derives its own rng stream from (seed, index). At most
    min(jobs, n_utterances, CPU count) worker processes are started.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "alignments").mkdir(exist_ok=True)
    tasks = [(spec, i, str(out_dir)) for i in range(spec.n_utterances)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_gen_one, tasks)
    else:
        rows = [_gen_one(t) for t in tasks]
    rows.sort(key=lambda r: r["id"])

    manifest_path = out_dir / "manifest.jsonl"
    audio_io.write_manifest(manifest_path, rows)
    audio_io.write_duration_model(out_dir / "durations.tsv", generator_duration_model())
    gold = audio_io.score_text((r["id"], r["fluency"], r["prosody"]) for r in rows)
    audio_io.write_text(out_dir / "gold.csv", gold)
    return manifest_path

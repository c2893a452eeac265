"""Frame-level low-level descriptors: loudness, alpha ratio, pitch, jitter.

All descriptors share one frame grid (25 ms Hann window, 10 ms hop at
16 kHz) so that frames line up 1:1 with 10 ms aligner posteriors.

Conventions fixed here:

* loudness   -- 26 triangular mel-spaced bands (20-8000 Hz) of the windowed
  power spectrum, summed after 0.3 power-law compression. Scaling the
  waveform by c scales loudness by exactly c**0.6.
* alpha ratio -- 10*log10 of low-band (50-1000 Hz) over high-band
  (1-5 kHz) power, each floored by eps=1e-10; silence gives exactly 0 dB.
  Bins are summed in order (numpy's `sum` adds a lone row's pairwise), so a
  frame's value does not depend on its signal's frame count.
* pitch      -- normalized autocorrelation over lags for 55-500 Hz,
  voiced when the best value exceeds 0.45 and a true local peak lies
  within 5 % of it, lag refined by parabolic interpolation. A best value
  at the edge of the lag range, with no such peak, means a pitch outside
  55-500 Hz, and the frame is unvoiced. Among near-tied peaks the shortest
  lag wins, which keeps pure tones off their octave-down alias. Above
  500 Hz a true peak exists at twice the period, so the tracker still
  reports the octave below.
* jitter     -- cycle-to-cycle period variability from waveform peaks
  tracked at the detected period inside a 3-window neighborhood;
  unvoiced frames and frames with fewer than 3 periods report 0. The peaks
  of voiced frames are tracked in lockstep, one peak per chain per
  step, each window's maximum an argmax over a row of gathered samples;
  the result equals tracking one frame at a time bit for bit.

A `FrameGrid` may hold several signals laid end to end in one buffer, so
that one call per descriptor covers many short utterances, whose cost is
otherwise numpy's per-call overhead. Every frame keeps its own signal's
sample range: jitter segments, local maxima and anchors are clipped to
it, and the features of each signal equal those of that signal alone bit
for bit. No descriptor depends on which frames share its call: loudness
takes each frame's mel product on its own, as a 1-row product, since a GEMM
over many rows rounds differently. The spectrum and pitch run in blocks of
`_BLOCK` frames and jitter in blocks of `_JITTER_BLOCK` voiced frames, so
that their per-frame arrays stay in cache.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aligner import HOP_MS
from .audio_io import SAMPLE_RATE, AudioBuffer
from .errors import TooShortError, ValidationError

WINDOW_MS = 25
HOP_S = HOP_MS / 1000.0
WINDOW_SAMPLES = SAMPLE_RATE * WINDOW_MS // 1000  # 400
HOP_SAMPLES = int(SAMPLE_RATE * HOP_MS) // 1000  # 160

N_FFT = 512
N_MEL_BANDS = 26
MEL_FMIN = 20.0
MEL_FMAX = 8000.0
ALPHA_EPS = 1e-10

F0_MIN_HZ = 55.0
F0_MAX_HZ = 500.0
VOICING_THRESHOLD = 0.45
# Near-tied autocorrelation peaks within this fraction of the best count as
# equivalent; the shortest such lag is taken.
PEAK_TIE_RATIO = 0.95
# F0 is reported in semitones above this frequency (A0); synth inverts it.
SEMITONE_REF_HZ = 27.5

_LAG_MIN = int(np.floor(SAMPLE_RATE / F0_MAX_HZ))  # 32
_LAG_MAX = int(np.ceil(SAMPLE_RATE / F0_MIN_HZ))  # 291

# Frames per block of power_spectrum and estimate_f0, and voiced frames per
# block of compute_jitter, so that each block's arrays stay in a 2 MiB L2
# cache. Sized by timing both benchmark corpora as one grid each: pitch ran
# 8.4 ms on `short` and 30.4 ms on `mixed` in blocks of 64, 13.0 and 36.2 ms
# unblocked, and 13.7 and 51.7 ms in blocks of 256; the spectrum with
# loudness and alpha ratio took 7.3 ms on `mixed` in blocks of 64, 10.3 ms
# unblocked; jitter ran 22.9 ms on `mixed` in blocks of 512, 28.4 ms
# unblocked. Outputs do not depend on them.
_BLOCK = 64
_JITTER_BLOCK = 512


def frame_count(n_samples: int) -> int:
    """Frames of a signal: floor((len_ms - 25) / 10) + 1."""
    if n_samples < WINDOW_SAMPLES:
        raise TooShortError(
            f"signal of {n_samples} samples is shorter than one "
            f"{WINDOW_SAMPLES}-sample window"
        )
    return (n_samples - WINDOW_SAMPLES) // HOP_SAMPLES + 1


@dataclass(eq=False)
class FrameGrid:
    """Frame layout of one or more signals laid end to end in one buffer.

    Signal u holds samples bounds[u]:bounds[u + 1] of the buffer and frames
    offsets[u]:offsets[u + 1] of the grid; its k-th frame starts at sample
    bounds[u] + k * HOP_SAMPLES.
    """

    bounds: np.ndarray
    offsets: np.ndarray

    @classmethod
    def for_signal(cls, n_samples: int) -> "FrameGrid":
        return cls.for_signals([n_samples])

    @classmethod
    def for_signals(cls, lengths) -> "FrameGrid":
        if not len(lengths):
            raise ValidationError("a frame grid needs at least one signal")
        counts = [frame_count(n) for n in lengths]
        return cls(np.cumsum([0, *lengths]), np.cumsum([0, *counts]))

    @property
    def num_frames(self) -> int:
        return int(self.offsets[-1])

    def frame_ranges(self) -> list[tuple[int, int]]:
        """(first, end) frame of each signal."""
        return list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

    @cached_property
    def signal(self) -> np.ndarray:
        """Each frame's signal."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    @cached_property
    def start(self) -> np.ndarray:
        """Each frame's first sample in the buffer."""
        u = self.signal
        return self.bounds[u] + (np.arange(self.num_frames) - self.offsets[u]) * HOP_SAMPLES


@dataclass
class FrameFeatures:
    """Per-frame descriptor matrix plus voicing flags.

    Unvoiced frames carry exact zeros for f0_semitones and jitter_local so
    downstream pooling needs no missing-value handling.
    """

    loudness: np.ndarray
    alpha_ratio_db: np.ndarray
    f0_semitones: np.ndarray
    jitter_local: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        n = len(self.loudness)
        for name in ("alpha_ratio_db", "f0_semitones", "jitter_local", "voiced"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"{name} length differs from loudness length {n}")
        if n == 0:
            raise ValidationError("at least one frame required")
        unvoiced = ~self.voiced
        if np.any(self.f0_semitones[unvoiced] != 0.0) or np.any(self.jitter_local[unvoiced] != 0.0):
            raise ValidationError("f0 and jitter must be exactly 0 on unvoiced frames")
        for name in ("loudness", "alpha_ratio_db", "f0_semitones", "jitter_local"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"{name} contains non-finite values")

    @property
    def num_frames(self) -> int:
        return len(self.loudness)

    def to_matrix(self) -> np.ndarray:
        """5-column layout: loudness, alpha_db, f0_st, jitter, voiced as 0/1."""
        return np.column_stack(
            [self.loudness, self.alpha_ratio_db, self.f0_semitones,
             self.jitter_local, self.voiced.astype(np.float64)]
        )

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "FrameFeatures":
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != 5:
            raise ValidationError(f"frame-feature matrix must be T x 5, got {mat.shape}")
        return cls(mat[:, 0].copy(), mat[:, 1].copy(), mat[:, 2].copy(),
                   mat[:, 3].copy(), mat[:, 4] != 0.0)

    def split(self, grid: FrameGrid) -> list["FrameFeatures"]:
        """The features of each signal of `grid`, the grid these were
        extracted on."""
        cols = (self.loudness, self.alpha_ratio_db, self.f0_semitones, self.jitter_local,
                self.voiced)
        return [FrameFeatures(*(c[a:b] for c in cols)) for a, b in grid.frame_ranges()]


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of every `width`-sample window of 1-D `a`, one a row
    (np.lib.stride_tricks.sliding_window_view without its per-call cost)."""
    return np.lib.stride_tricks.as_strided(a, (len(a) - width + 1, width), a.strides * 2,
                                           writeable=False)


def _frames(x: np.ndarray, grid: FrameGrid, rows=slice(None)) -> np.ndarray:
    """A copy of the samples of the grid's frames `rows`, one frame a row."""
    return _windows(x, WINDOW_SAMPLES)[grid.start[rows]]


_hann = np.hanning(WINDOW_SAMPLES)
_fft_freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)


def power_spectrum(buf: AudioBuffer, grid: FrameGrid) -> np.ndarray:
    """Hann-windowed power spectrum per frame, (num_frames, N_FFT // 2 + 1);
    the input of both compute_loudness and compute_alpha_ratio."""
    power = np.empty((grid.num_frames, N_FFT // 2 + 1))
    for k in range(0, grid.num_frames, _BLOCK):
        rows = slice(k, k + _BLOCK)
        frames = _frames(buf.samples, grid, rows)
        frames *= _hann
        spec = np.fft.rfft(frames, N_FFT, axis=1)
        np.add(spec.real**2, spec.imag**2, out=power[rows])
    return power


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _build_mel_filterbank() -> np.ndarray:
    edges_mel = np.linspace(_mel(MEL_FMIN), _mel(MEL_FMAX), N_MEL_BANDS + 2)
    edges_hz = 700.0 * (10.0 ** (edges_mel / 2595.0) - 1.0)
    fb = np.zeros((N_MEL_BANDS, _fft_freqs.size))
    for b in range(N_MEL_BANDS):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        up = (_fft_freqs - lo) / (mid - lo)
        down = (hi - _fft_freqs) / (hi - mid)
        fb[b] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return fb


_mel_fb = _build_mel_filterbank()
_low_band = (_fft_freqs >= 50.0) & (_fft_freqs <= 1000.0)
_high_band = (_fft_freqs > 1000.0) & (_fft_freqs <= 5000.0)


def compute_loudness(power: np.ndarray) -> np.ndarray:
    # a 1-row product per frame, so that no frame depends on the others
    band_power = np.matmul(power[:, None, :], _mel_fb.T)[:, 0]
    return (band_power**0.3).sum(axis=1)


def compute_alpha_ratio(power: np.ndarray) -> np.ndarray:
    low = np.cumsum(power[:, _low_band], axis=1)[:, -1]
    high = np.cumsum(power[:, _high_band], axis=1)[:, -1]
    return 10.0 * np.log10((low + ALPHA_EPS) / (high + ALPHA_EPS))


def hz_to_semitones(f0_hz):
    """Semitones above SEMITONE_REF_HZ: 12 * log2(f / SEMITONE_REF_HZ).
    Requires f > 0."""
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    if np.any(f0_hz <= 0.0):
        raise ValueError("hz_to_semitones requires strictly positive frequencies")
    out = 12.0 * np.log2(f0_hz / SEMITONE_REF_HZ)
    return float(out) if out.ndim == 0 else out


def estimate_f0(buf: AudioBuffer, grid: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f0_hz, voiced), in blocks of _BLOCK frames. Unvoiced
    frames report f0_hz = 0."""
    f0_hz = np.empty(grid.num_frames)
    voiced = np.empty(grid.num_frames, dtype=bool)
    for k in range(0, grid.num_frames, _BLOCK):
        rows = slice(k, k + _BLOCK)
        f0_hz[rows], voiced[rows] = _pitch(_frames(buf.samples, grid, rows))
    return f0_hz, voiced


def _pitch(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f0_hz, voiced) of each frame, a row of `centered`; the rows are
    centred in place."""
    centered -= centered.mean(axis=1, keepdims=True)

    n_corr = 1024  # >= 2 * window, keeps the circular autocorrelation linear
    spec = np.fft.rfft(centered, n_corr, axis=1)
    autocorr = np.fft.irfft(spec.real**2 + spec.imag**2, n_corr, axis=1)

    cum = np.zeros((len(centered), WINDOW_SAMPLES + 1))
    np.cumsum(centered**2, axis=1, out=cum[:, 1:])
    total = cum[:, -1]

    lags = np.arange(_LAG_MIN - 1, _LAG_MAX + 2)
    head = cum[:, WINDOW_SAMPLES - lags]  # energy of x[0 : W-lag]
    tail = total[:, None] - cum[:, lags]  # energy of x[lag : W]
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        ncc = np.where(denom > 1e-12, autocorr[:, lags] / np.maximum(denom, 1e-300), 0.0)

    search = ncc[:, 1:-1]  # lags pad the search range by one, so neighbours never wrap
    best = search.max(axis=1)
    is_peak = (search >= ncc[:, 2:]) & (search > ncc[:, :-2])
    tied = is_peak & (search >= PEAK_TIE_RATIO * best[:, None])
    voiced = (best > VOICING_THRESHOLD) & tied.any(axis=1)
    col = 1 + tied.argmax(axis=1)
    rows = np.arange(len(centered))
    delta = _parabolic_offset(ncc[rows, col - 1], ncc[rows, col], ncc[rows, col + 1])
    return np.where(voiced, SAMPLE_RATE / (lags[col] + delta), 0.0), voiced


def _parabolic_offset(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Vertex of the parabola through (-1, y0), (0, y1), (1, y2), clipped to
    [-0.5, 0.5]; 0 where the three points are (nearly) collinear."""
    den = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(den) > 1e-12, 0.5 * (y0 - y2) / den, 0.0)
    return np.clip(delta, -0.5, 0.5)


def compute_jitter(
    buf: AudioBuffer, grid: FrameGrid, f0_hz: np.ndarray, voiced: np.ndarray
) -> np.ndarray:
    """Mean absolute consecutive-period difference over mean period, per voiced
    frame, measured on sub-sample-refined waveform peaks.

    Each voiced frame starting at sample s searches the segment
    x[s - W : s + 2W] (W = WINDOW_SAMPLES, clipped to its signal). Its
    anchor is the segment's argmax, or where that is an end sample, the
    highest interior local maximum; the anchor must be above zero. From the
    anchor, peaks are followed in both directions: the next peak is the
    leftmost maximum of the window 0.75-1.25 periods away. Tracking stops
    at the segment edge, at a maximum below 0.3 of the anchor's height, or
    at one that is not an interior local maximum of the segment (a cycle
    cut off by the window).

    The voiced frames are tracked in blocks of _JITTER_BLOCK: every chain of
    every frame of a block advances by one peak per step of one loop.
    Anchors and window maxima are argmaxes over rows of a -inf-padded array,
    and np.argmax takes the first maximum, so ties go to the leftmost
    sample. Window bounds, refinement and means use the same float
    expressions, in segment-local coordinates, as tracking one frame at a
    time, so the result is that loop's bit for bit (tests/test_lld.py keeps
    it as the reference).
    """
    x = buf.samples
    jitter = np.zeros(grid.num_frames)
    frames = np.flatnonzero(voiced)
    if frames.size == 0:
        return jitter
    is_max = np.zeros(len(x), dtype=bool)
    # at a signal's end samples this compares with the next or previous
    # signal's, but those are segment ends, never anchors or peaks
    is_max[1:-1] = (x[1:-1] >= x[:-2]) & (x[1:-1] >= x[2:])
    # only local maxima can be peaks: the signal there, -inf elsewhere, with
    # W samples of -inf before and 2W after
    padded = np.full(len(x) + 3 * WINDOW_SAMPLES, -np.inf)
    height = padded[WINDOW_SAMPLES : WINDOW_SAMPLES + len(x)]
    np.copyto(height, x, where=is_max)
    # A segment's argmax is a local maximum unless it is an end sample, so
    # the anchor is the first highest local maximum strictly inside it. The
    # interior of the segment of a frame starting at s lies in the 3W - 2
    # samples from s + 1 of the padded array, cut to it where the segment
    # meets its signal's ends.
    windows = _windows(padded, 3 * WINDOW_SAMPLES - 2)
    period = SAMPLE_RATE / f0_hz[frames]
    xp = np.zeros(len(x) + int(0.5 * period.max()) + 2)  # every window's columns stay in range
    xp[: len(x)] = x
    for k in range(0, len(frames), _JITTER_BLOCK):
        block = frames[k : k + _JITTER_BLOCK]
        jitter[block] = _block_jitter(x, xp, height, windows, grid, block,
                                      period[k : k + _JITTER_BLOCK])
    return jitter


def _block_jitter(x, xp, height, windows, grid, frames, period) -> np.ndarray:
    """compute_jitter of the voiced `frames` with periods `period`."""
    jitter = np.zeros(len(frames))
    starts = grid.start[frames]
    signal = grid.signal[frames]
    seg_lo = np.maximum(starts - WINDOW_SAMPLES, grid.bounds[signal])
    seg_hi = np.minimum(starts + 2 * WINDOW_SAMPLES, grid.bounds[signal + 1]) - 1  # last sample

    window = windows[starts + 1]
    # the segment interior's first and last columns; a segment cut off by
    # the buffer's ends needs no mask, the -inf padding stands in beyond them
    first_col = seg_lo + WINDOW_SAMPLES - starts
    last_col = seg_hi + WINDOW_SAMPLES - 2 - starts
    cut = np.flatnonzero(((first_col > 0) & (seg_lo > 0))
                         | ((last_col < window.shape[1] - 1) & (seg_hi < len(x) - 1)))
    if cut.size:
        cols = np.arange(window.shape[1])
        inside = (cols >= first_col[cut, None]) & (cols <= last_col[cut, None])
        window[cut] = np.where(inside, window[cut], -np.inf)
    col = window.argmax(axis=1)
    keep = window[np.arange(len(col)), col] > 0.0  # -inf: no interior local maximum
    seg_lo, seg_hi, period = seg_lo[keep], seg_hi[keep], period[keep]
    anchor = (starts + 1 + col - WINDOW_SAMPLES)[keep] - seg_lo
    n = len(anchor)
    if n == 0:
        return jitter

    # chains 0..n-1 run forward from the anchors, n..2n-1 backward
    lo = np.concatenate([seg_lo, seg_lo])
    last = np.concatenate([seg_hi - seg_lo, seg_hi - seg_lo])
    # the one segment end each chain can reach; it is never a peak
    edge = np.concatenate([seg_hi, seg_lo])
    prev = np.concatenate([anchor, anchor])
    min_height = 0.3 * x[lo + prev]
    near = np.concatenate([0.75 * period, -(1.25 * period)])
    far = np.concatenate([1.25 * period, -(0.75 * period)])
    widest = int(0.5 * period.max()) + 2  # a window spans at most half a period + 1
    cols = np.arange(widest)
    chain = np.arange(2 * n)
    steps = []
    while chain.size:
        base, top = lo[chain], last[chain]
        # a window cut off by the segment end is clipped to the edge sample,
        # which ends the chain as an empty window would; a > b is left only
        # for periods under 2 samples
        a = np.minimum(np.maximum(np.ceil(prev + near[chain]), 0), top).astype(np.intp)
        b = np.minimum(np.maximum(np.floor(prev + far[chain]), 0), top).astype(np.intp)
        # columns past b - a are not in the window; argmax takes the first maximum
        window = np.where(cols <= (b - a)[:, None], xp[(base + a)[:, None] + cols], -np.inf)
        g = base + a + window.argmax(axis=1)
        live = (a <= b) & (g != edge[chain]) & (height[g] >= min_height[chain])
        chain, prev = chain[live], (g - base)[live]
        steps.append((chain, prev))

    # per frame, its peaks in order: backward chain reversed, anchor, forward
    s = len(steps)
    peaks = np.repeat(anchor[:, None], 2 * s + 1, axis=1)
    chain = np.concatenate([c for c, _ in steps])
    step = np.repeat(np.arange(s), [len(c) for c, _ in steps])
    forward = chain < n
    peaks[chain % n, np.where(forward, s + 1 + step, s - 1 - step)] = np.concatenate(
        [p for _, p in steps])
    n_back = np.bincount(chain[~forward] - n, minlength=n)
    count = np.bincount(chain[forward], minlength=n) + n_back + 1
    g = peaks + seg_lo[:, None]  # peaks and anchors are interior: g +- 1 is in range
    refined = peaks + _parabolic_offset(x[g - 1], x[g], x[g + 1])

    # frames grouped by peak count: a row sum over one frame's periods adds
    # them in the same order as the 1-D mean of the per-frame loop
    kept = np.flatnonzero(keep)
    for c in np.unique(count[count > 3]):
        rows = np.flatnonzero(count == c)
        periods = np.diff(refined[rows[:, None], (s - n_back[rows])[:, None] + np.arange(c)], axis=1)
        spread = np.abs(np.diff(periods, axis=1)).sum(axis=1) / (c - 2)
        jitter[kept[rows]] = np.minimum(1.0, spread / (periods.sum(axis=1) / (c - 1)))
    return jitter


def extract_frame_features(buf: AudioBuffer, grid: FrameGrid | None = None) -> FrameFeatures:
    """All four descriptors plus voicing on the shared frame grid: of `buf`
    as one signal, or of the signals `grid` lays end to end in it, for all
    frames of the grid (`FrameFeatures.split` gives each signal's)."""
    if grid is None:
        grid = FrameGrid.for_signal(len(buf.samples))
    elif grid.bounds[-1] != len(buf.samples):
        raise ValidationError(f"frame grid covers {grid.bounds[-1]} samples, "
                              f"buffer holds {len(buf.samples)}")
    power = power_spectrum(buf, grid)
    loudness = compute_loudness(power)
    alpha = compute_alpha_ratio(power)
    f0_hz, voiced = estimate_f0(buf, grid)
    jitter = compute_jitter(buf, grid, f0_hz, voiced)
    semis = np.zeros(grid.num_frames)
    semis[voiced] = hz_to_semitones(f0_hz[voiced])
    return FrameFeatures(loudness, alpha, semis, jitter, voiced)

"""Frame-level low-level descriptors: loudness, alpha ratio, pitch, jitter.

All descriptors share one frame grid (25 ms Hann window, 10 ms hop at
16 kHz) so that frames line up 1:1 with 10 ms aligner posteriors.

Conventions fixed here:

* loudness   -- 26 triangular mel-spaced bands (20-8000 Hz) of the windowed
  power spectrum, summed after 0.3 power-law compression. Scaling the
  waveform by c scales loudness by exactly c**0.6.
* alpha ratio -- 10*log10 of low-band (50-1000 Hz) over high-band
  (1-5 kHz) power, each floored by eps=1e-10; silence gives exactly 0 dB.
* pitch      -- normalized autocorrelation over lags for 55-500 Hz,
  voiced when the peak exceeds 0.45, lag refined by parabolic
  interpolation. Among near-tied peaks the shortest lag wins, which keeps
  pure tones off their octave-down alias.
* jitter     -- cycle-to-cycle period variability from waveform peaks
  tracked at the detected period inside a 3-window neighborhood;
  unvoiced frames and frames with fewer than 3 periods report 0. The peaks
  of all voiced frames are tracked in lockstep, one peak per chain per
  step, with window maxima read from a sparse table; the result equals
  tracking one frame at a time bit for bit.
"""

from dataclasses import dataclass

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

_LAG_MIN = int(np.floor(SAMPLE_RATE / F0_MAX_HZ))  # 32
_LAG_MAX = int(np.ceil(SAMPLE_RATE / F0_MIN_HZ))  # 291


@dataclass
class FrameGrid:
    """Frame layout of a signal: floor((len_ms - 25) / 10) + 1 frames."""

    num_frames: int

    @classmethod
    def for_signal(cls, n_samples: int) -> "FrameGrid":
        if n_samples < WINDOW_SAMPLES:
            raise TooShortError(
                f"signal of {n_samples} samples is shorter than one "
                f"{WINDOW_SAMPLES}-sample window"
            )
        return cls((n_samples - WINDOW_SAMPLES) // HOP_SAMPLES + 1)


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


def _frames(x: np.ndarray, grid: FrameGrid) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(x, WINDOW_SAMPLES)
    return view[:: HOP_SAMPLES][: grid.num_frames]


_hann = np.hanning(WINDOW_SAMPLES)
_fft_freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)


def power_spectrum(buf: AudioBuffer, grid: FrameGrid) -> np.ndarray:
    """Hann-windowed power spectrum per frame, (num_frames, N_FFT // 2 + 1);
    the input of both compute_loudness and compute_alpha_ratio."""
    frames = _frames(buf.samples, grid) * _hann
    spec = np.fft.rfft(frames, N_FFT, axis=1)
    return spec.real**2 + spec.imag**2


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
    band_power = power @ _mel_fb.T
    return (band_power**0.3).sum(axis=1)


def compute_alpha_ratio(power: np.ndarray) -> np.ndarray:
    low = power[:, _low_band].sum(axis=1)
    high = power[:, _high_band].sum(axis=1)
    return 10.0 * np.log10((low + ALPHA_EPS) / (high + ALPHA_EPS))


def hz_to_semitones(f0_hz):
    """Semitones above 27.5 Hz: 12 * log2(f / 27.5). Requires f > 0."""
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    if np.any(f0_hz <= 0.0):
        raise ValueError("hz_to_semitones requires strictly positive frequencies")
    out = 12.0 * np.log2(f0_hz / 27.5)
    return float(out) if out.ndim == 0 else out


def estimate_f0(buf: AudioBuffer, grid: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f0_hz, voiced). Unvoiced frames report f0_hz = 0."""
    frames = _frames(buf.samples, grid)
    centered = frames - frames.mean(axis=1, keepdims=True)

    n_corr = 1024  # >= 2 * window, keeps the circular autocorrelation linear
    spec = np.fft.rfft(centered, n_corr, axis=1)
    autocorr = np.fft.irfft(spec.real**2 + spec.imag**2, n_corr, axis=1)

    sq = centered**2
    cum = np.concatenate([np.zeros((len(frames), 1)), np.cumsum(sq, axis=1)], axis=1)
    total = cum[:, -1]

    lags = np.arange(_LAG_MIN - 1, _LAG_MAX + 2)
    head = cum[:, WINDOW_SAMPLES - lags]  # energy of x[0 : W-lag]
    tail = total[:, None] - cum[:, lags]  # energy of x[lag : W]
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        ncc = np.where(denom > 1e-12, autocorr[:, lags] / np.maximum(denom, 1e-300), 0.0)

    search = ncc[:, 1:-1]  # lags pad the search range by one, so neighbours never wrap
    best = search.max(axis=1)
    voiced = (best > VOICING_THRESHOLD) & (total > 1e-18)
    is_peak = (search >= ncc[:, 2:]) & (search > ncc[:, :-2])
    tied = is_peak & (search >= PEAK_TIE_RATIO * best[:, None])
    col = 1 + np.where(tied.any(axis=1), tied.argmax(axis=1), search.argmax(axis=1))
    rows = np.arange(grid.num_frames)
    delta = _parabolic_offset(ncc[rows, col - 1], ncc[rows, col], ncc[rows, col + 1])
    return np.where(voiced, SAMPLE_RATE / (lags[col] + delta), 0.0), voiced


def _parabolic_offset(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Vertex of the parabola through (-1, y0), (0, y1), (1, y2), clipped to
    [-0.5, 0.5]; 0 where the three points are (nearly) collinear."""
    den = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(den) > 1e-12, 0.5 * (y0 - y2) / den, 0.0)
    return np.clip(delta, -0.5, 0.5)


def _argmax_table(values: np.ndarray, max_width: int) -> np.ndarray:
    """Sparse table of leftmost argmaxes for windows up to max_width wide
    (below 2**16): row j, column i holds the offset from i of the first
    maximum of values[i : i + 2**j]. Columns whose span runs past the end
    hold 0 and are never read."""
    n = len(values)
    table = np.zeros((max_width.bit_length(), n), dtype=np.uint16)
    best = values
    for j in range(1, len(table)):
        h = 1 << (j - 1)
        m = n - 2 * h + 1
        right = best[h:] > best[:-h]  # ties keep the left half's maximum
        left = table[j - 1, :m]
        # select without branching; uint16 wrap-around cancels exactly
        table[j, :m] = left + right * (table[j - 1, h : h + m] + h - left)
        best = np.maximum(best[:-h], best[h:])
    return table


def _window_argmax(values: np.ndarray, table: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """First index of the maximum of values[lo : hi + 1], per window, from
    the two power-of-two spans that cover it; the left one wins ties."""
    j = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(width)), exact
    right = hi - (1 << j) + 1
    left = lo + table[j, lo]
    right = right + table[j, right]
    return np.where(values[left] >= values[right], left, right)


def compute_jitter(
    buf: AudioBuffer, grid: FrameGrid, f0_hz: np.ndarray, voiced: np.ndarray
) -> np.ndarray:
    """Mean absolute consecutive-period difference over mean period, per voiced
    frame, measured on sub-sample-refined waveform peaks.

    Each voiced frame k searches the segment x[k*HOP - W : k*HOP + 2W]
    (W = WINDOW_SAMPLES, clipped to the signal). Its anchor is the
    segment's argmax, or where that is an end sample, the highest interior
    local maximum; the anchor must be above zero. From the anchor, peaks
    are followed in both directions: the next peak is the leftmost maximum
    of the window 0.75-1.25 periods away. Tracking stops at the segment
    edge, at a maximum below 0.3 of the anchor's height, or at one that is
    not an interior local maximum of the segment (a cycle cut off by the
    window).

    All voiced frames are tracked at once: every chain of every frame
    advances by one peak per step of one loop, and each window maximum is
    read from a sparse table built once over the whole signal. Window
    bounds, refinement and means use the same float expressions, in
    segment-local coordinates, as tracking one frame at a time, so the
    result is that loop's bit for bit (tests/test_lld.py keeps it as the
    reference).
    """
    x = buf.samples
    jitter = np.zeros(grid.num_frames)
    frames = np.flatnonzero(voiced)
    starts = frames * HOP_SAMPLES
    seg_lo = np.maximum(starts - WINDOW_SAMPLES, 0)
    seg_hi = np.minimum(starts + 2 * WINDOW_SAMPLES, len(x)) - 1  # last sample
    is_max = np.zeros(len(x), dtype=bool)
    is_max[1:-1] = (x[1:-1] >= x[:-2]) & (x[1:-1] >= x[2:])
    height = np.where(is_max, x, -np.inf)  # only local maxima can be peaks

    # A segment's argmax is a local maximum unless it is an end sample, so
    # the anchor is the first highest local maximum strictly inside it.
    table = _argmax_table(height, min(len(x), 3 * WINDOW_SAMPLES) - 2)
    anchor = _window_argmax(height, table, seg_lo + 1, seg_hi - 1)
    keep = height[anchor] > 0.0  # -inf: no interior local maximum
    frames, seg_lo, seg_hi = frames[keep], seg_lo[keep], seg_hi[keep]
    anchor = anchor[keep] - seg_lo
    n = len(frames)
    if n == 0:
        return jitter
    period = SAMPLE_RATE / f0_hz[frames]

    # chains 0..n-1 run forward from the anchors, n..2n-1 backward
    lo = np.concatenate([seg_lo, seg_lo])
    last = np.concatenate([seg_hi - seg_lo, seg_hi - seg_lo])
    # the one segment end each chain can reach; it is never a peak
    edge = np.concatenate([seg_hi, seg_lo])
    min_height = np.tile(0.3 * x[seg_lo + anchor], 2)
    near = np.concatenate([0.75 * period, -(1.25 * period)])
    far = np.concatenate([1.25 * period, -(0.75 * period)])
    widest = int(0.5 * period.max()) + 2  # a window spans at most half a period + 1
    table = _argmax_table(x, min(len(x), 3 * WINDOW_SAMPLES, widest))
    chain = np.arange(2 * n)
    prev = np.concatenate([anchor, anchor])
    steps = []
    while chain.size:
        base, top = lo[chain], last[chain]
        # a window cut off by the segment end is clipped to the edge sample,
        # which ends the chain as an empty window would; a > b is left only
        # for periods under 2 samples
        a = np.minimum(np.maximum(np.ceil(prev + near[chain]), 0), top).astype(np.intp)
        b = np.minimum(np.maximum(np.floor(prev + far[chain]), 0), top).astype(np.intp)
        g = _window_argmax(x, table, base + np.minimum(a, b), base + b)
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
    for c in np.unique(count[count > 3]):
        rows = np.flatnonzero(count == c)
        periods = np.diff(refined[rows[:, None], (s - n_back[rows])[:, None] + np.arange(c)], axis=1)
        spread = np.abs(np.diff(periods, axis=1)).sum(axis=1) / (c - 2)
        jitter[frames[rows]] = np.minimum(1.0, spread / (periods.sum(axis=1) / (c - 1)))
    return jitter


def extract_frame_features(buf: AudioBuffer) -> FrameFeatures:
    """All four descriptors plus voicing on the shared frame grid."""
    grid = FrameGrid.for_signal(len(buf.samples))
    power = power_spectrum(buf, grid)
    loudness = compute_loudness(power)
    alpha = compute_alpha_ratio(power)
    f0_hz, voiced = estimate_f0(buf, grid)
    jitter = compute_jitter(buf, grid, f0_hz, voiced)
    semis = np.zeros(grid.num_frames)
    if voiced.any():
        semis[voiced] = hz_to_semitones(f0_hz[voiced])
    return FrameFeatures(loudness, alpha, semis, jitter, voiced)

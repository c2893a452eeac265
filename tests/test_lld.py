"""Frame-level descriptor behaviour on analytically known signals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import (
    AudioBuffer,
    FrameFeatures,
    FrameGrid,
    SyntheticSpec,
    compute_alpha_ratio,
    compute_jitter,
    compute_loudness,
    estimate_f0,
    extract_frame_features,
    generate_corpus,
    hz_to_semitones,
    load_wav,
    power_spectrum,
    read_manifest,
)
from pronassess.errors import TooShortError, ValidationError
from pronassess.lld import (
    _LAG_MAX,
    _LAG_MIN,
    HOP_SAMPLES,
    PEAK_TIE_RATIO,
    VOICING_THRESHOLD,
    WINDOW_SAMPLES,
    _frames,
)
from signals import SR, pulse_train, tone


class TestFrameGrid:
    def test_one_second_gives_98_frames(self):
        assert FrameGrid.for_signal(16000).num_frames == 98

    def test_count_formula_across_lengths(self):
        for n in range(400, 20000, 997):
            grid = FrameGrid.for_signal(n)
            len_ms = n / 16
            assert grid.num_frames == int((len_ms - 25) // 10) + 1

    def test_too_short(self):
        with pytest.raises(TooShortError):
            FrameGrid.for_signal(399)

    def test_signals_laid_end_to_end(self):
        grid = FrameGrid.for_signals([400, 1000, 16000])
        assert grid.bounds.tolist() == [0, 400, 1400, 17400]
        assert grid.frame_ranges() == [(0, 1), (1, 5), (5, 103)]
        assert grid.start[:6].tolist() == [0, 400, 560, 720, 880, 1400]
        assert grid.signal[[0, 1, 4, 5, 102]].tolist() == [0, 1, 1, 2, 2]

    def test_no_signal_or_a_short_one(self):
        with pytest.raises(ValidationError):
            FrameGrid.for_signals([])
        with pytest.raises(TooShortError):
            FrameGrid.for_signals([16000, 399])

    def test_grid_must_cover_the_buffer(self):
        with pytest.raises(ValidationError, match="covers 800 samples"):
            extract_frame_features(AudioBuffer(np.zeros(801)), FrameGrid.for_signals([400, 400]))


class TestLoudness:
    def test_zero_signal(self):
        buf = AudioBuffer(np.zeros(16000))
        assert np.all(compute_loudness(power_spectrum(buf, FrameGrid.for_signal(16000))) == 0.0)

    def test_power_law_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, 8000)
        grid = FrameGrid.for_signal(8000)
        base = compute_loudness(power_spectrum(AudioBuffer(x), grid))
        half = compute_loudness(power_spectrum(AudioBuffer(0.5 * x), grid))
        np.testing.assert_allclose(half, base * 0.25**0.3, rtol=1e-9)

    def test_stationary_tone(self):
        loud = compute_loudness(power_spectrum(tone(220), FrameGrid.for_signal(16000)))
        interior = loud[2:-2]
        assert interior.std() / interior.mean() < 0.01


class TestAlphaRatio:
    def test_low_tone_positive(self):
        a = compute_alpha_ratio(power_spectrum(tone(200), FrameGrid.for_signal(16000)))
        assert np.all(a[2:-2] >= 20.0)

    def test_high_tone_negative(self):
        a = compute_alpha_ratio(power_spectrum(tone(3000), FrameGrid.for_signal(16000)))
        assert np.all(a[2:-2] <= -20.0)

    def test_zero_signal_is_exactly_zero(self):
        a = compute_alpha_ratio(power_spectrum(AudioBuffer(np.zeros(16000)),
                                               FrameGrid.for_signal(16000)))
        assert np.all(a == 0.0)


class TestF0:
    def test_220_tone(self):
        f0, voiced = estimate_f0(tone(220), FrameGrid.for_signal(16000))
        assert voiced[2:-2].all()
        assert abs(np.median(f0[voiced]) - 220.0) <= 2.0

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 16000))
        _, voiced = estimate_f0(buf, FrameGrid.for_signal(16000))
        assert (~voiced).mean() >= 0.9

    @pytest.mark.parametrize("hz", [30, 40, 50, 54])
    def test_tone_below_the_lag_range_is_unvoiced(self, hz):
        """The best lag sits on the range's edge and is no true peak: no
        frame is voiced, rather than voiced near 500 Hz or at the edge."""
        _, voiced = estimate_f0(tone(hz, seconds=0.5), FrameGrid.for_signal(SR // 2))
        assert not voiced.any()

    def test_silence_unvoiced(self):
        _, voiced = estimate_f0(AudioBuffer(np.zeros(16000)), FrameGrid.for_signal(16000))
        assert not voiced.any()


class TestSemitones:
    def test_reference_points(self):
        assert hz_to_semitones(27.5) == 0.0
        assert hz_to_semitones(55.0) == pytest.approx(12.0, abs=1e-12)
        assert hz_to_semitones(220.0) == pytest.approx(36.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hz_to_semitones(0.0)
        with pytest.raises(ValueError):
            hz_to_semitones(-10.0)


class TestJitter:
    def test_pure_tone_negligible(self):
        buf = tone(220)
        grid = FrameGrid.for_signal(16000)
        f0, voiced = estimate_f0(buf, grid)
        jitter = compute_jitter(buf, grid, f0, voiced)
        assert np.all(jitter[voiced] <= 0.005)

    def test_injected_perturbation_recovered(self):
        # alternating +-2.5% period perturbation -> 5% consecutive-period jitter
        buf = pulse_train(1 / 150.0, 0.025, 16000)
        grid = FrameGrid.for_signal(16000)
        f0, voiced = estimate_f0(buf, grid)
        jitter = compute_jitter(buf, grid, f0, voiced)
        measured = np.median(jitter[voiced])
        assert abs(measured - 0.05) <= 0.2 * 0.05

    def test_unvoiced_frames_zero(self):
        buf = tone(220, seconds=0.5)
        grid = FrameGrid.for_signal(len(buf.samples))
        f0, voiced = estimate_f0(buf, grid)
        voiced = voiced.copy()
        voiced[::2] = False  # force some frames unvoiced
        jitter = compute_jitter(buf, grid, f0, voiced)
        assert np.all(jitter[~voiced] == 0.0)


class TestExtract:
    def test_tone_frame_count(self):
        ff = extract_frame_features(tone(220))
        assert ff.num_frames == 98

    def test_all_zero_signal(self):
        ff = extract_frame_features(AudioBuffer(np.zeros(16000)))
        assert np.all(ff.loudness == 0) and np.all(ff.alpha_ratio_db == 0)
        assert np.all(ff.f0_semitones == 0) and np.all(ff.jitter_local == 0)
        assert not ff.voiced.any()

    def test_silence_then_tone_single_transition(self):
        t = np.arange(8000) / SR
        x = np.concatenate([np.zeros(8000), 0.8 * np.sin(2 * np.pi * 220 * t)])
        ff = extract_frame_features(AudioBuffer(x))
        # ignore 2 frames on each side of the junction (~frame 50)
        junction = 8000 // 160
        flags = ff.voiced.astype(int)
        keep = np.ones(ff.num_frames, dtype=bool)
        keep[junction - 2 : junction + 3] = False
        transitions = np.abs(np.diff(flags[keep])).sum()
        assert transitions == 1
        assert not flags[: junction - 2].any()
        assert flags[junction + 3 :].all()

    def test_scale_invariance_of_shape_features(self):
        # energy in both alpha bands keeps the eps floor negligible
        t = np.arange(16000) / SR
        base = AudioBuffer(0.25 * np.sin(2 * np.pi * 200 * t) + 0.2 * np.sin(2 * np.pi * 3000 * t))
        ff1 = extract_frame_features(base)
        for c in (0.25, 2.0):
            ff2 = extract_frame_features(AudioBuffer(base.samples * c))
            assert np.array_equal(ff1.voiced, ff2.voiced)
            np.testing.assert_allclose(ff2.alpha_ratio_db, ff1.alpha_ratio_db, atol=1e-6)
            np.testing.assert_allclose(ff2.f0_semitones, ff1.f0_semitones, atol=1e-6)
            np.testing.assert_allclose(ff2.jitter_local, ff1.jitter_local, atol=1e-6)
            np.testing.assert_allclose(ff2.loudness, ff1.loudness * c**0.6, rtol=1e-9)

    def test_determinism(self):
        a = extract_frame_features(tone(173, seconds=0.4)).to_matrix()
        b = extract_frame_features(tone(173, seconds=0.4)).to_matrix()
        assert a.tobytes() == b.tobytes()

    def test_matrix_round_trip(self):
        ff = extract_frame_features(tone(220, seconds=0.3))
        back = FrameFeatures.from_matrix(ff.to_matrix())
        assert np.array_equal(back.to_matrix(), ff.to_matrix())

    def test_invariant_enforcement(self):
        with pytest.raises(ValidationError):
            FrameFeatures(
                loudness=np.zeros(2), alpha_ratio_db=np.zeros(2),
                f0_semitones=np.array([30.0, 0.0]), jitter_local=np.zeros(2),
                voiced=np.array([False, False]),
            )


# Reference pitch selection and jitter peak refinement: one frame and one
# peak at a time, as the front end computed them before its selection was
# vectorised. The vectorised code must reproduce them bit for bit.

def reference_estimate_f0(buf, grid):
    frames = _frames(buf.samples, grid)
    centered = frames - frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centered, 1024, axis=1)
    autocorr = np.fft.irfft(spec.real**2 + spec.imag**2, 1024, axis=1)
    cum = np.concatenate([np.zeros((len(frames), 1)), np.cumsum(centered**2, axis=1)], axis=1)
    total = cum[:, -1]
    lags = np.arange(_LAG_MIN - 1, _LAG_MAX + 2)
    denom = np.sqrt(cum[:, WINDOW_SAMPLES - lags] * (total[:, None] - cum[:, lags]))
    with np.errstate(invalid="ignore", divide="ignore"):
        ncc = np.where(denom > 1e-12, autocorr[:, lags] / np.maximum(denom, 1e-300), 0.0)

    f0 = np.zeros(grid.num_frames)
    voiced = np.zeros(grid.num_frames, dtype=bool)
    lo, hi = 1, ncc.shape[1] - 1
    for k in range(grid.num_frames):
        row = ncc[k]
        search = row[lo:hi]
        best = float(search.max())
        if best <= VOICING_THRESHOLD or total[k] <= 1e-18:
            continue
        is_peak = (search >= np.roll(row, -1)[lo:hi]) & (search > np.roll(row, 1)[lo:hi])
        tied = np.flatnonzero(is_peak & (search >= PEAK_TIE_RATIO * best))
        if not tied.size:
            continue
        j = int(tied[0])
        y0, y1, y2 = row[lo + j - 1], row[lo + j], row[lo + j + 1]
        den = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / den if abs(den) > 1e-12 else 0.0
        f0[k] = SR / (lags[lo + j] + float(np.clip(delta, -0.5, 0.5)))
        voiced[k] = True
    return f0, voiced


def _reference_parabolic_peak(y, p):
    if p <= 0 or p >= len(y) - 1:
        return float(p)
    den = y[p - 1] - 2.0 * y[p] + y[p + 1]
    if abs(den) < 1e-300:
        return float(p)
    return p + float(np.clip(0.5 * (y[p - 1] - y[p + 1]) / den, -0.5, 0.5))


def _reference_is_local_max(seg, p):
    return 0 < p < len(seg) - 1 and seg[p] >= seg[p - 1] and seg[p] >= seg[p + 1]


def _reference_track_peaks(seg, period, anchor, min_height):
    positions = [anchor]
    for direction in (1, -1):
        prev = anchor
        while True:
            if direction == 1:
                a, b = int(np.ceil(prev + 0.75 * period)), int(np.floor(prev + 1.25 * period))
            else:
                a, b = int(np.ceil(prev - 1.25 * period)), int(np.floor(prev - 0.75 * period))
            a, b = max(a, 0), min(b, len(seg) - 1)
            if a > b:
                break
            p = a + int(seg[a : b + 1].argmax())
            if seg[p] < min_height or not _reference_is_local_max(seg, p):
                break
            positions.append(p)
            prev = p
    return sorted(positions)


def reference_compute_jitter(buf, grid, f0_hz, voiced):
    x = buf.samples
    jitter = np.zeros(grid.num_frames)
    for k in np.flatnonzero(voiced):
        start = k * HOP_SAMPLES
        seg = x[max(0, start - WINDOW_SAMPLES) : min(len(x), start + 2 * WINDOW_SAMPLES)]
        anchor = int(seg.argmax())
        if not _reference_is_local_max(seg, anchor):
            interior = np.flatnonzero((seg[1:-1] >= seg[:-2]) & (seg[1:-1] >= seg[2:]))
            if interior.size == 0:
                continue
            anchor = 1 + int(interior[seg[1 + interior].argmax()])
        if seg[anchor] <= 0.0:
            continue
        ints = _reference_track_peaks(seg, SR / f0_hz[k], anchor, 0.3 * seg[anchor])
        periods = np.diff([_reference_parabolic_peak(seg, p) for p in ints])
        if len(periods) < 3:
            continue
        jitter[k] = min(1.0, float(np.abs(np.diff(periods)).mean() / periods.mean()))
    return jitter


@st.composite
def harmonic_mixes(draw):
    """f0 in 60-450 Hz with 1-4 partials of random amplitude and phase plus
    white noise: strong upper partials put near-tied peaks into the
    autocorrelation, which is what the tie-break rule decides."""
    n = draw(st.integers(WINDOW_SAMPLES, 4800))
    f0 = draw(st.floats(60.0, 450.0))
    n_partials = draw(st.integers(1, 4))
    amps = draw(st.lists(st.floats(0.05, 1.0), min_size=n_partials, max_size=n_partials))
    noise = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / SR
    x = sum(a * np.sin(2 * np.pi * f0 * (h + 1) * t + rng.uniform(0, 2 * np.pi))
            for h, a in enumerate(amps))
    x = x + noise * rng.standard_normal(n)
    x = 0.9 * x / np.abs(x).max()
    if draw(st.booleans()):  # 16-bit steps, as loaded from a WAV: flat-topped peaks
        x = np.rint(x * 32768.0) / 32768.0
    return AudioBuffer(x)


def _first_sample_peak():
    """A 200 Hz tone whose first sample is its maximum: frame 0's segment
    has its argmax on an end sample, so its anchor is the best interior
    local maximum."""
    x = 0.5 * tone(200, seconds=0.3).samples
    x[0] = 0.95
    return AudioBuffer(x)


def _integer_pulses(periods, amps, start, width=4, n=4800):
    """Hann pulses centred on whole samples: pulse k is amps[k % len(amps)]
    high and starts periods[k % len(periods)] samples after pulse k - 1."""
    x = np.zeros(n)
    t = np.arange(-width, width + 1)
    centre, k = start, 0
    while centre + width < n - 1:
        x[centre + t] += amps[k % len(amps)] * 0.5 * (1 + np.cos(np.pi * t / width))
        centre += periods[k % len(periods)]
        k += 1
    return AudioBuffer(x)


@settings(max_examples=200, deadline=None)
@given(harmonic_mixes())
@example(tone(50, seconds=0.3))  # below F0_MIN_HZ: no peak qualifies, so unvoiced
@example(_first_sample_peak())
@example(tone(480, seconds=0.3))  # shortest periods: the longest peak chains
@example(tone(200, seconds=WINDOW_SAMPLES / SR))  # one window
@example(AudioBuffer(np.zeros(4800)))  # silence: nothing voiced
# every third pulse exactly 0.3 of the anchor's height (0.3 * 0.9 == 0.27):
# a peak on the height floor still counts
@example(_integer_pulses([31, 33], [0.9, 0.9, 0.27], start=20))
# window bounds that round differently in whole-signal coordinates
@example(_integer_pulses([273, 275], [0.9, 0.9, 0.27], start=27))
def test_pitch_and_jitter_match_reference(buf):
    grid = FrameGrid.for_signal(len(buf.samples))
    f0, voiced = estimate_f0(buf, grid)
    ref_f0, ref_voiced = reference_estimate_f0(buf, grid)
    assert np.array_equal(voiced, ref_voiced)
    assert f0.tobytes() == ref_f0.tobytes()
    jitter = compute_jitter(buf, grid, f0, voiced)
    assert jitter.tobytes() == reference_compute_jitter(buf, grid, f0, voiced).tobytes()


def test_jitter_matches_reference_on_long_utterances(tmp_path):
    # 30-40 phones: hundreds of voiced frames per call, far more than the
    # hypothesis signals above
    manifest = generate_corpus(SyntheticSpec(n_utterances=4, seed=9, min_phones=30,
                                             max_phones=40), tmp_path)
    for entry in read_manifest(manifest):
        buf = load_wav(entry.wav_path)
        grid = FrameGrid.for_signal(len(buf.samples))
        f0, voiced = estimate_f0(buf, grid)
        assert voiced.sum() >= 200
        jitter = compute_jitter(buf, grid, f0, voiced)
        assert jitter.tobytes() == reference_compute_jitter(buf, grid, f0, voiced).tobytes()


@st.composite
def front_end_signals(draw):
    """One window up to ~1 s of silence, noise, a tone above F0_MAX_HZ or
    below F0_MIN_HZ, or a harmonic mix, on 16-bit steps half the time."""
    n = draw(st.integers(WINDOW_SAMPLES, 16400))
    kind = draw(st.sampled_from(["silence", "noise", "high", "low", "harmonic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / SR
    if kind == "silence":
        x = np.zeros(n)
    elif kind == "noise":
        x = rng.uniform(-0.5, 0.5, n)
    elif kind == "harmonic":
        x = draw(harmonic_mixes()).samples
        x = np.resize(x, n)
    else:
        f = draw(st.floats(520.0, 4000.0) if kind == "high" else st.floats(30.0, 54.0))
        x = 0.8 * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    if draw(st.booleans()):
        x = np.rint(x * 32768.0) / 32768.0
    return AudioBuffer(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(front_end_signals(), min_size=1, max_size=6))
@example([tone(200, seconds=WINDOW_SAMPLES / SR), tone(480, seconds=0.3),
          AudioBuffer(np.zeros(WINDOW_SAMPLES))])
@example([_integer_pulses([31, 33], [0.9, 0.9, 0.27], start=20), _first_sample_peak(),
          _integer_pulses([273, 275], [0.9, 0.9, 0.27], start=27)])
def test_signals_laid_end_to_end_match_each_alone(bufs):
    grid = FrameGrid.for_signals([len(b.samples) for b in bufs])
    joined = AudioBuffer(np.concatenate([b.samples for b in bufs]))
    together = extract_frame_features(joined, grid)
    assert together.num_frames == grid.num_frames
    for buf, ff in zip(bufs, together.split(grid), strict=True):
        alone = extract_frame_features(buf)
        for name in ("loudness", "alpha_ratio_db", "f0_semitones", "jitter_local", "voiced"):
            assert getattr(ff, name).tobytes() == getattr(alone, name).tobytes(), name

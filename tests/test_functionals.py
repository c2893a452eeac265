"""Utterance functionals: hand examples, the two symmetry laws and a
bit-for-bit comparison of the run functionals with per-frame loops."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import FrameFeatures, compute_functionals, pitch_slopes, segment_voicing
from pronassess.lld import HOP_S
from signals import random_frame_features


def _ff(voiced, semitones=None, n=None):
    voiced = np.asarray(voiced, dtype=bool)
    n = len(voiced)
    st = np.zeros(n) if semitones is None else np.asarray(semitones, dtype=np.float64)
    st = np.where(voiced, st, 0.0)
    return FrameFeatures(
        loudness=np.ones(n), alpha_ratio_db=np.zeros(n),
        f0_semitones=st, jitter_local=np.zeros(n), voiced=voiced,
    )


class TestSegments:
    def test_run_length_example(self):
        segs = segment_voicing(_ff([1, 1, 0, 0, 0, 1]))
        assert segs == [(True, 0, 1), (False, 2, 4), (True, 5, 5)]

    def test_all_voiced(self):
        assert segment_voicing(_ff([1] * 7)) == [(True, 0, 6)]

    def test_alternating(self):
        segs = segment_voicing(_ff([1, 0, 1, 0]))
        assert segs == [(True, 0, 0), (False, 1, 1), (True, 2, 2), (False, 3, 3)]


class TestSlopes:
    def test_hand_example(self):
        ff = _ff([1] * 5, [30, 31, 32, 31, 30])
        rising, falling = pitch_slopes(ff)
        np.testing.assert_allclose(rising, [100.0])
        np.testing.assert_allclose(falling, [-100.0])

    def test_constant_contour(self):
        rising, falling = pitch_slopes(_ff([1] * 5, [30] * 5))
        assert rising.size == 0 and falling.size == 0

    def test_all_unvoiced(self):
        rising, falling = pitch_slopes(_ff([0] * 5))
        assert rising.size == 0 and falling.size == 0


class TestFunctionals:
    def test_all_unvoiced_convention(self):
        uf = compute_functionals(_ff([0] * 30))
        vec = uf.to_vector()
        assert np.all(vec[:9] == 0.0)
        assert uf.unvoiced_seg_mean_s == pytest.approx(30 * 0.01)
        assert uf.voiced_seg_mean_s == 0.0

    def test_two_point_pitch_stats(self):
        uf = compute_functionals(_ff([1, 1], [30, 40]))
        assert uf.pitch_mean_st == pytest.approx(35.0)
        assert uf.pitch_std_st == pytest.approx(5.0)  # population std
        assert uf.pitch_p50_st == pytest.approx(35.0)

    def test_segment_statistics(self):
        ff = _ff([1] * 10 + [0] * 20 + [1] * 10, [30] * 40)
        uf = compute_functionals(ff)
        assert uf.voiced_seg_mean_s == pytest.approx(0.10)
        assert uf.voiced_seg_std_s == pytest.approx(0.0)
        assert uf.unvoiced_seg_mean_s == pytest.approx(0.20)

    def test_pitch_shift_equivariance(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            ff = random_frame_features(rng)
            k = rng.uniform(-6, 6)
            shifted = FrameFeatures(
                ff.loudness, ff.alpha_ratio_db,
                np.where(ff.voiced, ff.f0_semitones + k, 0.0),
                ff.jitter_local, ff.voiced,
            )
            a, b = compute_functionals(ff).to_vector(), compute_functionals(shifted).to_vector()
            np.testing.assert_allclose(b[[0, 2, 3, 4]], a[[0, 2, 3, 4]] + k, atol=1e-9)
            np.testing.assert_allclose(b[1], a[1], atol=1e-9)       # std unchanged
            np.testing.assert_allclose(b[5:], a[5:], atol=1e-9)     # slopes, segments

    def test_time_reversal_swaps_slopes(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            ff = random_frame_features(rng)
            rev = FrameFeatures(
                ff.loudness[::-1].copy(), ff.alpha_ratio_db[::-1].copy(),
                ff.f0_semitones[::-1].copy(), ff.jitter_local[::-1].copy(),
                ff.voiced[::-1].copy(),
            )
            r1, f1 = pitch_slopes(ff)
            r2, f2 = pitch_slopes(rev)
            np.testing.assert_allclose(np.sort(r2), np.sort(-f1), atol=1e-9)
            np.testing.assert_allclose(np.sort(f2), np.sort(-r1), atol=1e-9)
            a, b = compute_functionals(ff).to_vector(), compute_functionals(rev).to_vector()
            np.testing.assert_allclose(b[9:], a[9:], atol=1e-12)  # segment stats preserved

    def test_outputs_always_finite(self):
        rng = np.random.default_rng(14)
        cases = [random_frame_features(rng) for _ in range(10)]
        cases.append(_ff([0] * 5))
        cases.append(_ff([1], [30]))
        for ff in cases:
            assert np.all(np.isfinite(compute_functionals(ff).to_vector()))


def _segment_voicing_loop(ff):
    """Reference: runs of constant voicing found by stepping frame by frame."""
    flags = ff.voiced
    segments = []
    start = 0
    for k in range(1, len(flags)):
        if flags[k] != flags[start]:
            segments.append((bool(flags[start]), start, k - 1))
            start = k
    segments.append((bool(flags[start]), start, len(flags) - 1))
    return segments


def _pitch_slopes_loop(ff):
    """Reference: each voiced segment's monotone pieces walked step by step."""
    rising, falling = [], []
    for is_voiced, start, end in _segment_voicing_loop(ff):
        if not is_voiced or end == start:
            continue
        contour = ff.f0_semitones[start : end + 1]
        diffs = np.sign(np.diff(contour))
        k = 0
        while k < len(diffs):
            sign = diffs[k]
            j = k
            while j + 1 < len(diffs) and diffs[j + 1] == sign:
                j += 1
            if sign != 0:
                slope = (contour[j + 1] - contour[k]) / ((j + 1 - k) * HOP_S)
                (rising if sign > 0 else falling).append(slope)
            k = j + 1
    return np.array(rising), np.array(falling)


@st.composite
def voiced_contours(draw):
    """Voicing masks of 1-60 frames and contours rounded to 0-2 decimals, so
    that equal neighbours (flat pieces, ties at extrema) are common."""
    n = draw(st.integers(1, 60))
    voiced = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    decimals = draw(st.integers(0, 2))
    values = draw(st.lists(st.floats(25.0, 45.0), min_size=n, max_size=n))
    return _ff(voiced, np.round(values, decimals))


@settings(max_examples=500, deadline=None)
@given(voiced_contours())
@example(_ff([1]))
@example(_ff([0]))
@example(_ff([1, 1, 1, 1], [30, 30, 30, 30]))
@example(_ff([1, 1, 0, 1, 1], [30, 31, 0, 32, 33]))  # rise on both sides of one unvoiced frame
def test_run_functionals_match_loops(ff):
    segs = segment_voicing(ff)
    assert segs == _segment_voicing_loop(ff)
    assert all(type(v) is bool and type(s) is int and type(e) is int for v, s, e in segs)
    for new, ref in zip(pitch_slopes(ff), _pitch_slopes_loop(ff)):
        assert new.dtype == ref.dtype == np.float64
        assert new.tobytes() == ref.tobytes()

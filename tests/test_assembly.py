"""Frame-to-phoneme pooling and fusion-input construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pronassess import FrameFeatures, build_fusion_input, pool_to_phonemes
from pronassess.aligner import Alignment, Span
from pronassess.errors import ValidationError


def _ff(loudness, alpha, f0, jitter, voiced):
    return FrameFeatures(
        loudness=np.asarray(loudness, dtype=np.float64),
        alpha_ratio_db=np.asarray(alpha, dtype=np.float64),
        f0_semitones=np.asarray(f0, dtype=np.float64),
        jitter_local=np.asarray(jitter, dtype=np.float64),
        voiced=np.asarray(voiced, dtype=bool),
    )


class TestPooling:
    def test_mean_over_span(self):
        ff = _ff([2.0, 4.0], [1.0, 3.0], [30.0, 32.0], [0.01, 0.03], [1, 1])
        pooled = pool_to_phonemes(ff, Alignment([Span("AA", 0, 1)]))
        np.testing.assert_allclose(pooled[0], [3.0, 2.0, 31.0, 0.02])

    def test_unvoiced_span_convention(self):
        ff = _ff([2.0, 4.0], [1.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0, 0])
        pooled = pool_to_phonemes(ff, Alignment([Span("AA", 0, 1)]))
        np.testing.assert_allclose(pooled[0], [3.0, 2.0, 0.0, 0.0])

    def test_voiced_only_averaging(self):
        ff = _ff([1.0, 1.0], [0.0, 0.0], [40.0, 0.0], [0.04, 0.0], [1, 0])
        pooled = pool_to_phonemes(ff, Alignment([Span("AA", 0, 1)]))
        np.testing.assert_allclose(pooled[0], [1.0, 0.0, 40.0, 0.04])

    def test_single_frame_identity(self):
        ff = _ff([1.5], [-2.0], [33.0], [0.02], [1])
        pooled = pool_to_phonemes(ff, Alignment([Span("IY", 0, 0)]))
        np.testing.assert_allclose(pooled[0], [1.5, -2.0, 33.0, 0.02])

    def test_frame_count_mismatch(self):
        ff = _ff([1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3, [0.0] * 3, [0] * 3)
        with pytest.raises(ValidationError, match="mismatch"):
            pool_to_phonemes(ff, Alignment([Span("AA", 0, 1)]))

    def test_mean_bounded_by_extremes(self):
        rng = np.random.default_rng(21)
        n = 12
        ff = _ff(rng.uniform(0, 3, n), rng.normal(0, 5, n),
                 rng.uniform(25, 45, n), rng.uniform(0, 0.1, n), [1] * n)
        alignment = Alignment([Span("AA", 0, 5), Span("B", 6, 11)])
        pooled = pool_to_phonemes(ff, alignment)
        for k, sp in enumerate(alignment.spans):
            sel = slice(sp.start_frame, sp.end_frame + 1)
            assert ff.loudness[sel].min() <= pooled[k, 0] <= ff.loudness[sel].max()
            assert ff.alpha_ratio_db[sel].min() <= pooled[k, 1] <= ff.alpha_ratio_db[sel].max()


def loop_pool(ff, alignment):
    """Span means one span at a time, f0 and jitter over the voiced frames
    only: the reference for `pool_to_phonemes`."""
    out = np.zeros((len(alignment.spans), 4))
    for k, sp in enumerate(alignment.spans):
        sel = slice(sp.start_frame, sp.end_frame + 1)
        out[k, 0] = ff.loudness[sel].mean()
        out[k, 1] = ff.alpha_ratio_db[sel].mean()
        v = ff.voiced[sel]
        if v.any():
            out[k, 2] = ff.f0_semitones[sel][v].mean()
            out[k, 3] = ff.jitter_local[sel][v].mean()
    return out


@settings(max_examples=200, deadline=None)
@given(span_frames=st.lists(st.integers(1, 40), min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1), p_voiced=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
def test_pooling_matches_per_span_loop(span_frames, seed, p_voiced):
    rng = np.random.default_rng(seed)
    n = sum(span_frames)
    voiced = rng.random(n) < p_voiced
    ff = _ff(rng.uniform(0, 3, n), rng.normal(0, 5, n), np.where(voiced, rng.uniform(25, 45, n), 0.0),
             np.where(voiced, rng.uniform(0, 0.1, n), 0.0), voiced)
    ends = np.cumsum(span_frames) - 1
    alignment = Alignment([Span("AA", int(e) - k + 1, int(e)) for k, e in zip(span_frames, ends)])
    np.testing.assert_allclose(pool_to_phonemes(ff, alignment), loop_pool(ff, alignment),
                               rtol=1e-12, atol=1e-12)


class TestFusionInput:
    def test_matching_lengths(self):
        fusion = build_fusion_input(np.zeros((3, 4)), np.zeros(3), ["AA", "B", "T"])
        assert len(fusion) == 3
        assert fusion.numeric_block().shape == (3, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            build_fusion_input(np.zeros((2, 4)), np.zeros(3), ["AA", "B", "T"])

    def test_positionwise_construction(self):
        rng = np.random.default_rng(22)
        pooled = rng.normal(size=(4, 4))
        g = rng.normal(size=4)
        phones = ["AA", "B", "T", "IY"]
        fusion = build_fusion_input(pooled, g, phones)
        perm = [2, 0, 3, 1]
        fusion_p = build_fusion_input(pooled[perm], g[perm], [phones[i] for i in perm])
        np.testing.assert_array_equal(fusion_p.numeric_block(), fusion.numeric_block()[perm])
        np.testing.assert_array_equal(fusion_p.phone_indices, fusion.phone_indices[perm])

    def test_shape_law_matches_phone_count(self):
        # fusion length tracks the canonical phone count, not the audio length
        for n_phones in (1, 3, 7):
            fusion = build_fusion_input(
                np.zeros((n_phones, 4)), np.zeros(n_phones), ["AA"] * n_phones
            )
            assert len(fusion) == n_phones

"""Utterance-level statistics over frame features.

Thirteen functionals describe the pitch contour and the voiced/unvoiced
rhythm of an utterance. Every statistic over an empty set is defined as 0,
so the output vector always has the same 13 slots. Standard deviations are
population (biased) throughout, making singleton sets well defined.
"""

from dataclasses import dataclass, fields

import numpy as np

from .lld import HOP_S, FrameFeatures

@dataclass
class UtteranceFunctionals:
    pitch_mean_st: float
    pitch_std_st: float
    pitch_p20_st: float
    pitch_p50_st: float
    pitch_p80_st: float
    rise_slope_mean: float
    rise_slope_std: float
    fall_slope_mean: float
    fall_slope_std: float
    voiced_seg_mean_s: float
    voiced_seg_std_s: float
    unvoiced_seg_mean_s: float
    unvoiced_seg_std_s: float

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])


FUNCTIONAL_NAMES = tuple(f.name for f in fields(UtteranceFunctionals))


def segment_voicing(ff: FrameFeatures) -> list[tuple[bool, int, int]]:
    """Maximal runs of constant voicing flag as (voiced, start, end) inclusive."""
    flags = ff.voiced
    cuts = (np.flatnonzero(np.diff(flags)) + 1).tolist()  # first frame of each later run
    return [(bool(flags[s]), s, e - 1) for s, e in zip([0] + cuts, cuts + [len(flags)])]


def pitch_slopes(ff: FrameFeatures) -> tuple[np.ndarray, np.ndarray]:
    """Rising and falling slopes (semitones/second) of the voiced contour.

    Each voiced segment's contour is cut at strict local extrema; every
    monotone piece spanning >= 2 frames contributes one slope. Flat pieces
    are discarded.
    """
    c = ff.f0_semitones
    # sign of each frame-to-frame step, 0 where either frame is unvoiced, so
    # a monotone piece never reaches across an unvoiced frame
    sign = np.where(ff.voiced[1:] & ff.voiced[:-1], np.sign(np.diff(c)), 0.0)
    k = np.flatnonzero(np.diff(sign, prepend=np.inf))  # first step of each run
    j = np.append(k, len(sign))[1:]  # the frame that ends the run
    slopes = (c[j] - c[k]) / ((j - k) * HOP_S)
    return slopes[sign[k] > 0], slopes[sign[k] < 0]


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    return float(values.mean()), float(values.std())


def compute_functionals(ff: FrameFeatures) -> UtteranceFunctionals:
    voiced_pitch = ff.f0_semitones[ff.voiced]
    if voiced_pitch.size:
        p20, p50, p80 = np.percentile(voiced_pitch, [20, 50, 80])
        pitch_mean, pitch_std = _mean_std(voiced_pitch)
    else:
        p20 = p50 = p80 = 0.0
        pitch_mean = pitch_std = 0.0

    rising, falling = pitch_slopes(ff)
    rise_mean, rise_std = _mean_std(rising)
    fall_mean, fall_std = _mean_std(falling)

    segments = segment_voicing(ff)
    voiced_durs = np.array([(e - s + 1) * HOP_S for v, s, e in segments if v])
    unvoiced_durs = np.array([(e - s + 1) * HOP_S for v, s, e in segments if not v])
    v_mean, v_std = _mean_std(voiced_durs)
    u_mean, u_std = _mean_std(unvoiced_durs)

    return UtteranceFunctionals(
        pitch_mean_st=pitch_mean, pitch_std_st=pitch_std,
        pitch_p20_st=float(p20), pitch_p50_st=float(p50), pitch_p80_st=float(p80),
        rise_slope_mean=rise_mean, rise_slope_std=rise_std,
        fall_slope_mean=fall_mean, fall_slope_std=fall_std,
        voiced_seg_mean_s=v_mean, voiced_seg_std_s=v_std,
        unvoiced_seg_mean_s=u_mean, unvoiced_seg_std_s=u_std,
    )

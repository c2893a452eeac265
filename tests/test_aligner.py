"""DTW alignment against exhaustive enumeration and its structural laws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pronassess import dtw_align, spans_to_durations, validate_posteriors
from pronassess.aligner import Alignment, Span
from pronassess.errors import InfeasibleAlignmentError, InventoryError, ValidationError
from pronassess.inventory import PHONE_TO_INDEX, PHONEMES


def segmentation_score(obs, bounds):
    """Score of the segmentation where phone i spans frames bounds[i] to
    bounds[i + 1] - 1, summed in frame order so float accumulation matches
    the dp recurrence exactly."""
    score = 0.0
    for i in range(obs.shape[1]):
        for t in range(bounds[i], bounds[i + 1]):
            score = score + obs[t, i]
    return score


def brute_force_best(obs):
    """Max score over all monotone segmentations."""
    t_frames, n_phones = obs.shape
    return max(segmentation_score(obs, (0,) + cuts + (t_frames,))
               for cuts in itertools.combinations(range(1, t_frames), n_phones - 1))


@st.composite
def small_alignment_problems(draw):
    """T x 41 log posteriors (T <= 8) and 1..min(T, 4) phones from a
    four-phone set, so phones repeat; integer-valued entries make exact
    ties between segmentations common."""
    t_frames = draw(st.integers(1, 8))
    phones = draw(st.lists(st.sampled_from(PHONEMES[:4]), min_size=1,
                           max_size=min(t_frames, 4)))
    entry = st.one_of(st.integers(-4, 0).map(float),
                      st.floats(-30.0, 0.0, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                         min_size=t_frames, max_size=t_frames))
    mat = np.full((t_frames, 41), -50.0)
    mat[:, :4] = rows
    return mat, phones


def _mat(rng, t_frames):
    return rng.normal(-2.0, 1.0, size=(t_frames, 41))


class TestDtw:
    def test_single_frame_single_phone(self):
        mat = np.full((1, 41), -1.0)
        mat[0, PHONE_TO_INDEX["AA"]] = -0.25
        alignment, score = dtw_align(mat, ["AA"])
        assert alignment.spans == [Span("AA", 0, 0)]
        assert score == -0.25

    def test_three_frame_example(self):
        mat = np.full((3, 41), -30.0)
        a, b = PHONE_TO_INDEX["AA"], PHONE_TO_INDEX["B"]
        mat[0, a], mat[0, b] = -0.1, -3.0
        mat[1, a], mat[1, b] = -0.2, -2.0
        mat[2, a], mat[2, b] = -3.0, -0.1
        alignment, score = dtw_align(mat, ["AA", "B"])
        assert alignment.spans == [Span("AA", 0, 1), Span("B", 2, 2)]
        assert score == pytest.approx(-0.4)
        # the rejected alternative scores -2.2
        alt = mat[0, a] + mat[1, b] + mat[2, b]
        assert alt == pytest.approx(-2.2)

    def test_brute_force_parity_100_trials(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            t_frames = int(rng.integers(1, 9))
            n_phones = int(rng.integers(1, min(t_frames, 3) + 1))
            phones = [PHONEMES[i] for i in rng.integers(0, 41, size=n_phones)]
            mat = _mat(rng, t_frames)
            alignment, score = dtw_align(mat, phones)
            obs = mat[:, [PHONE_TO_INDEX[p] for p in phones]]
            assert score == brute_force_best(obs)
            assert alignment.spans[0].start_frame == 0
            assert alignment.spans[-1].end_frame == t_frames - 1
            assert alignment.phones == phones

    @settings(max_examples=300, deadline=None)
    @given(small_alignment_problems())
    def test_brute_force_property(self, problem):
        mat, phones = problem
        alignment, score = dtw_align(mat, phones)
        obs = mat[:, [PHONE_TO_INDEX[p] for p in phones]]
        assert score == brute_force_best(obs)
        bounds = [sp.start_frame for sp in alignment.spans] + [len(mat)]
        assert segmentation_score(obs, bounds) == score
        assert alignment.phones == phones
        assert alignment.num_frames == len(mat)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(8)
        mat = _mat(rng, 7)
        phones = ["AA", "IY", "T"]
        a1, s1 = dtw_align(mat, phones)
        c = 1.75
        a2, s2 = dtw_align(mat + c, phones)
        assert a1.spans == a2.spans
        assert s2 == pytest.approx(s1 + 7 * c, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        mat = _mat(rng, 6)
        r1 = dtw_align(mat, ["AA", "B"])
        r2 = dtw_align(mat, ["AA", "B"])
        assert r1[0].spans == r2[0].spans and r1[1] == r2[1]

    def test_infeasible(self):
        rng = np.random.default_rng(10)
        with pytest.raises(InfeasibleAlignmentError):
            dtw_align(_mat(rng, 2), ["AA", "B", "T"])

    def test_unknown_phone(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InventoryError):
            dtw_align(_mat(rng, 3), ["QQ"])

    def test_posterior_validation(self):
        with pytest.raises(ValidationError):
            validate_posteriors(np.zeros((3, 40)))
        with pytest.raises(ValidationError):
            validate_posteriors(np.full((2, 41), np.nan))
        normalized = np.log(np.full((2, 41), 1.0 / 41))
        validate_posteriors(normalized, check_normalized=True)
        with pytest.raises(ValidationError):
            validate_posteriors(np.zeros((2, 41)), check_normalized=True)


class TestDurationsFromSpans:
    def test_single_frame_span(self):
        a = Alignment([Span("AA", 0, 0)])
        assert spans_to_durations(a) == [("AA", 10.0)]

    def test_ten_frame_span(self):
        a = Alignment([Span("AA", 0, 4), Span("IY", 5, 14)])
        assert spans_to_durations(a)[1] == ("IY", 100.0)

    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            t_frames = int(rng.integers(3, 12))
            phones = [PHONEMES[i] for i in rng.integers(0, 41, size=min(3, t_frames))]
            alignment, _ = dtw_align(_mat(rng, t_frames), phones)
            total = sum(d for _, d in spans_to_durations(alignment))
            assert total == pytest.approx(t_frames * 10.0)

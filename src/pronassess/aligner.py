"""Forced alignment of a canonical phoneme sequence to a frame-posterior matrix.

The aligner maximises the summed log-posterior of a monotone segmentation:
every frame is assigned to exactly one phone, phones appear in canonical
order, and each phone occupies at least one frame.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleAlignmentError, ValidationError
from .inventory import INVENTORY_SIZE, phone_index

HOP_MS = 10.0


class Span(NamedTuple):
    phone: str
    start_frame: int
    end_frame: int  # inclusive


@dataclass
class Alignment:
    """Ordered phoneme spans tiling frames 0..T-1 contiguously."""

    spans: list[Span]

    def __post_init__(self):
        if not self.spans:
            raise ValidationError("alignment must contain at least one span")
        expected_start = 0
        for k, sp in enumerate(self.spans):
            if sp.start_frame != expected_start:
                raise ValidationError(
                    f"span {k} starts at frame {sp.start_frame}, expected {expected_start}"
                )
            if sp.end_frame < sp.start_frame:
                raise ValidationError(f"span {k} is empty ({sp.start_frame}..{sp.end_frame})")
            expected_start = sp.end_frame + 1

    @property
    def num_frames(self) -> int:
        return self.spans[-1].end_frame + 1

    @property
    def phones(self) -> list[str]:
        return [sp.phone for sp in self.spans]


def validate_posteriors(mat: np.ndarray, check_normalized: bool = False) -> None:
    """Check a log-posterior matrix: shape T x INVENTORY_SIZE, finite rows,
    optionally row logsumexp within 1e-3 of 0 (computed in float64)."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != INVENTORY_SIZE:
        raise ValidationError(
            f"posterior matrix must be T x {INVENTORY_SIZE}, got shape {mat.shape}"
        )
    if not np.all(np.isfinite(mat)):
        raise ValidationError("posterior matrix contains non-finite entries")
    if check_normalized:
        m = mat.max(axis=1)
        lse = m + np.log(np.exp(mat - m[:, None]).sum(axis=1))
        worst = float(np.abs(lse).max())
        if worst > 1e-3:
            raise ValidationError(f"rows are not normalized (max |logsumexp| = {worst:.3g})")


def dtw_align(log_posteriors: np.ndarray, phones: list[str]) -> tuple[Alignment, float]:
    """Optimal monotone segmentation of T frames into the given phone order.

    Recurrence: dp[t, i] = logpost[t, y_i] + max(dp[t-1, i], dp[t-1, i-1]).
    On backtrace ties the transition (i-1) branch wins, which fixes one
    deterministic segmentation out of the tied optima. `log_posteriors`
    must have passed `validate_posteriors`; it is not checked here.

    Returns the alignment and the achieved total log score.
    """
    log_posteriors = np.asarray(log_posteriors, dtype=np.float64)
    if not phones:
        raise ValidationError("canonical phone sequence is empty")
    t_frames = log_posteriors.shape[0]
    n_phones = len(phones)
    if t_frames < n_phones:
        raise InfeasibleAlignmentError(
            f"cannot align {n_phones} phones to {t_frames} frames (need T >= L)"
        )
    idx = np.array([phone_index(p) for p in phones], dtype=np.intp)
    obs = log_posteriors[:, idx]  # (T, L)

    dp = np.full((t_frames, n_phones), -np.inf)
    dp[0, 0] = obs[0, 0]
    for t in range(1, t_frames):  # phone 0 can only stay: max(x, -inf) = x
        dp[t, 0] = dp[t - 1, 0] + obs[t, 0]
        dp[t, 1:] = obs[t, 1:] + np.maximum(dp[t - 1, 1:], dp[t - 1, :-1])

    score = float(dp[t_frames - 1, n_phones - 1])

    # Backtrace: at (t, i) decide whether frame t-1 belonged to phone i or i-1.
    boundaries = np.empty(n_phones, dtype=np.intp)  # start frame of each phone
    i = n_phones - 1
    for t in range(t_frames - 1, 0, -1):
        if i == 0:
            break
        if dp[t - 1, i - 1] >= dp[t - 1, i]:
            boundaries[i] = t
            i -= 1
    boundaries[0] = 0

    spans = []
    for k in range(n_phones):
        start = int(boundaries[k])
        end = int(boundaries[k + 1] - 1) if k + 1 < n_phones else t_frames - 1
        spans.append(Span(phones[k], start, end))
    return Alignment(spans), score


def spans_to_durations(alignment: Alignment) -> list[tuple[str, float]]:
    """Per-span (phone, duration_ms) with inclusive frames: (end - start + 1) * HOP_MS."""
    return [
        (sp.phone, (sp.end_frame - sp.start_frame + 1) * HOP_MS)
        for sp in alignment.spans
    ]

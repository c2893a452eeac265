"""Pooling frame features to phoneme level and building the fusion input.

Each aligned span gets the mean of its frames' descriptors; pitch and
jitter average over the span's voiced frames only (0 when there are none),
so unvoiced sentinels never dilute the statistics.
"""

from dataclasses import dataclass

import numpy as np

from .aligner import Alignment
from .errors import ValidationError
from .inventory import phone_index
from .lld import FrameFeatures


@dataclass
class FusionInput:
    """Per-phoneme scoring-network input: GoPD, 4 pooled descriptors, phone index."""

    gopd: np.ndarray       # (L,)
    pooled: np.ndarray     # (L, 4)
    phone_indices: np.ndarray  # (L,) int

    def __len__(self) -> int:
        return len(self.gopd)

    def numeric_block(self) -> np.ndarray:
        """The L x 5 matrix [gopd | pooled] used for serialization."""
        return np.column_stack([self.gopd, self.pooled])


def pool_to_phonemes(ff: FrameFeatures, alignment: Alignment) -> np.ndarray:
    """L x 4 span means: loudness, alpha ratio, f0 (voiced only), jitter (voiced only)."""
    if ff.num_frames != alignment.num_frames:
        raise ValidationError(
            f"frame count mismatch: features have {ff.num_frames} frames, "
            f"alignment covers {alignment.num_frames}"
        )
    # FrameFeatures holds f0 and jitter at exactly 0 on unvoiced frames, so
    # their span sums are voiced sums, and the voiced column counts them.
    starts = [sp.start_frame for sp in alignment.spans]
    sums = np.add.reduceat(ff.to_matrix(), starts, axis=0)
    frames = np.diff(starts, append=ff.num_frames)[:, None]
    return np.hstack([sums[:, :2] / frames, sums[:, 2:4] / np.maximum(sums[:, 4:], 1.0)])


def build_fusion_input(pooled: np.ndarray, gopd_values: np.ndarray, phones: list[str]) -> FusionInput:
    pooled = np.asarray(pooled, dtype=np.float64)
    gopd_values = np.asarray(gopd_values, dtype=np.float64).reshape(-1)
    if pooled.ndim != 2 or pooled.shape[1] != 4:
        raise ValidationError(f"pooled features must be L x 4, got {pooled.shape}")
    if not (len(pooled) == len(gopd_values) == len(phones)):
        raise ValidationError(
            f"length mismatch: pooled {len(pooled)}, gopd {len(gopd_values)}, "
            f"phones {len(phones)}"
        )
    idx = np.array([phone_index(p) for p in phones], dtype=np.intp)
    return FusionInput(gopd_values.copy(), pooled.copy(), idx)

"""Score decoding and evaluation metrics."""

import warnings

import numpy as np

from .errors import ValidationError

# Scores are the integers 0..10: the label range and the classes of each head.
N_CLASSES = 11


def predict_score(distribution: np.ndarray) -> float:
    """Expected score of an N_CLASSES distribution: sum_k k * p_k, in
    [0, N_CLASSES - 1]. A distribution with a non-finite entry is rejected."""
    dist = np.asarray(distribution, dtype=np.float64).reshape(-1)
    if dist.size != N_CLASSES or not np.isfinite(dist).all() or abs(dist.sum() - 1.0) > 1e-6 \
            or np.any(dist < 0):
        raise ValidationError(f"input is not a valid {N_CLASSES}-class distribution")
    return float(np.arange(N_CLASSES) @ dist)


def pcc(predictions, references) -> float:
    """Pearson correlation coefficient. A constant vector on either side is
    defined as correlation 0, with a warning."""
    x = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(references, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} predictions vs {y.size} references")
    if x.size < 2:
        raise ValidationError("need at least 2 points for a correlation")
    if x.min() == x.max() or y.min() == y.max():
        warnings.warn("constant vector in pcc, returning 0", stacklevel=2)
        return 0.0
    # PCC is scale-invariant: a power of two that brings each side's largest
    # magnitude into [0.5, 1) is exact, and no square below over- or underflows.
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    xc = x - x.mean()
    yc = y - y.mean()
    nx = np.sqrt((xc**2).sum())
    ny = np.sqrt((yc**2).sum())
    return float(np.clip((xc @ yc) / (nx * ny), -1.0, 1.0))

"""Per-phoneme Gaussian duration models and the goodness-of-phonemic-duration score.

A model stores (mean_ms, std_ms, count) per phone plus the pooled global
entry that every model has. Phones seen fewer than MIN_COUNT times, or not
at all, delegate to it at evaluation time; standard deviations are floored
at STD_FLOOR_MS so no phone degenerates into a spike.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .aligner import spans_to_durations
from .errors import ValidationError

MIN_COUNT = 10
STD_FLOOR_MS = 5.0

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PhoneStats:
    mean_ms: float
    std_ms: float
    count: int


@dataclass
class DurationModel:
    phones: dict[str, PhoneStats]
    global_stats: PhoneStats

    def lookup(self, phone: str) -> PhoneStats:
        """Stats used to score `phone`: its own entry when well supported,
        else the pooled fallback."""
        st = self.phones.get(phone)
        if st is not None and st.count >= MIN_COUNT:
            return st
        return self.global_stats


def _fit_stats(values: np.ndarray) -> PhoneStats:
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return PhoneStats(mean, max(std, STD_FLOOR_MS), int(values.size))


def fit_durations(samples: Iterable[tuple[str, float]]) -> DurationModel:
    """Fit per-phone Gaussians (sample mean, unbiased std) plus the pooled
    global entry from a stream of (phone, duration_ms) observations."""
    per_phone: dict[str, list[float]] = {}
    pooled: list[float] = []
    for phone, dur in samples:
        if dur <= 0:
            raise ValidationError(f"non-positive duration {dur} ms for phone {phone!r}")
        per_phone.setdefault(phone, []).append(float(dur))
        pooled.append(float(dur))
    if not pooled:
        raise ValidationError("cannot fit a duration model from zero samples")
    phones = {p: _fit_stats(np.array(v)) for p, v in per_phone.items()}
    return DurationModel(phones, _fit_stats(np.array(pooled)))


def gopd(duration_ms: float, phone: str, model: DurationModel) -> float:
    """Log Gaussian density of an observed duration under the phone's model:
    -ln(sigma * sqrt(2*pi)) - (d - mu)^2 / (2 * sigma^2). A density whose
    log is not finite (a std so small that z overflows) is refused."""
    if duration_ms <= 0:
        raise ValidationError(f"duration must be positive, got {duration_ms}")
    st = model.lookup(phone)
    z = (duration_ms - st.mean_ms) / st.std_ms
    value = -math.log(st.std_ms) - _LOG_SQRT_2PI - 0.5 * z * z
    if not math.isfinite(value):
        raise ValidationError(f"GoPD of phone {phone!r} lasting {duration_ms} ms is not finite "
                              f"under std {st.std_ms} ms")
    return value


def gopd_vector(alignment, model: DurationModel) -> np.ndarray:
    """GoPD per aligned span, in span order."""
    durations = spans_to_durations(alignment)
    return np.array([gopd(d, p, model) for p, d in durations])

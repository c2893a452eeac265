#!/usr/bin/env python3
"""Frame-level descriptors on signals with known ground truth.

Walks the four descriptors (loudness, alpha ratio, pitch, jitter) over a
pure tone, a perturbed pulse train, and silence, and checks the scaling
law that makes loudness testable: gain c multiplies loudness by c**0.6.
"""

import numpy as np

from pronassess import (
    AudioBuffer,
    FrameGrid,
    compute_alpha_ratio,
    compute_jitter,
    compute_loudness,
    estimate_f0,
    extract_frame_features,
    hz_to_semitones,
    power_spectrum,
)
from pronassess.lld import SEMITONE_REF_HZ

SR = 16000


def describe(name, buf):
    ff = extract_frame_features(buf)
    voiced = ff.voiced
    print(f"{name}:")
    print(f"  frames            {ff.num_frames}")
    print(f"  voiced fraction   {voiced.mean():.2f}")
    if voiced.any():
        f0_hz = SEMITONE_REF_HZ * 2 ** (ff.f0_semitones[voiced] / 12)
        print(f"  median f0         {np.median(f0_hz):8.2f} Hz")
        print(f"  median jitter     {np.median(ff.jitter_local[voiced]):8.5f}")
    print(f"  mean loudness     {ff.loudness.mean():8.3f}")
    print(f"  mean alpha ratio  {ff.alpha_ratio_db.mean():8.2f} dB")
    return ff


t = np.arange(SR) / SR

print("=== 220 Hz tone (1 s) ===")
tone = AudioBuffer(0.8 * np.sin(2 * np.pi * 220 * t))
ff = describe("tone", tone)
print(f"  expected semitones for 220 Hz: {hz_to_semitones(220.0):.1f} "
      f"(three octaves above {SEMITONE_REF_HZ} Hz)")

print("\n=== loudness scaling law ===")
grid = FrameGrid.for_signal(SR)
full = compute_loudness(power_spectrum(tone, grid))
half = compute_loudness(power_spectrum(AudioBuffer(tone.samples * 0.5), grid))
print(f"  loudness(0.5 x) / loudness(x) = {half[5] / full[5]:.6f}, "
      f"0.25**0.3 = {0.25**0.3:.6f}")

print("\n=== band energy balance ===")
for freq in (200, 3000):
    buf = AudioBuffer(0.8 * np.sin(2 * np.pi * freq * t))
    alpha = compute_alpha_ratio(power_spectrum(buf, grid))
    print(f"  {freq:4d} Hz tone -> alpha ratio {alpha[10]:8.1f} dB")

print("\n=== jitter on a perturbed pulse train ===")
# consecutive periods alternate +-2.5% around 150 Hz: local jitter = 5%
centers, pos, k = [], 0.02 * SR, 0
while pos < SR - 400:
    centers.append(pos)
    pos += SR / 150.0 * (1 + 0.025 * (1 if k % 2 == 0 else -1))
    k += 1
x = np.zeros(SR)
w = 0.002 * SR
n = np.arange(SR)
for c in centers:
    a, b = int(c - w), int(c + w) + 1
    u = np.clip((n[a:b] - c) / w, -1, 1)
    x[a:b] += 0.8 * 0.5 * (1 + np.cos(np.pi * u))
pulses = AudioBuffer(np.clip(x, -1, 1))
f0, voiced = estimate_f0(pulses, grid)
jitter = compute_jitter(pulses, grid, f0, voiced)
print(f"  injected 5.0% -> measured {100 * np.median(jitter[voiced]):.2f}%")

print("\n=== silence ===")
describe("silence", AudioBuffer(np.zeros(SR)))

"""Synthetic signals used by the test suite and the demo scripts.

Tones use additive synthesis so there is no aliasing to confuse the
pitch-tracker oracles; the vowel is a glottal pulse train shaped by
two-pole resonators.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from svcforge import defaults
from svcforge.audio import AudioClip


def sine(freq_hz: float, duration_sec: float,
         sample_rate: int = defaults.SAMPLE_RATE,
         amplitude: float = 0.5, phase: float = 0.0) -> AudioClip:
    t = np.arange(int(round(duration_sec * sample_rate))) / sample_rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), sample_rate)


def sawtooth(freq_hz: float, duration_sec: float,
             sample_rate: int = defaults.SAMPLE_RATE,
             amplitude: float = 0.5, max_harmonic_hz: float = 10000.0) -> AudioClip:
    """Band-limited sawtooth: sum of 1/k harmonics up to max_harmonic_hz."""
    t = np.arange(int(round(duration_sec * sample_rate))) / sample_rate
    x = np.zeros_like(t)
    k = 1
    while k * freq_hz <= max_harmonic_hz:
        x += np.sin(2 * np.pi * k * freq_hz * t) / k
        k += 1
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= amplitude / peak
    return AudioClip(x, sample_rate)


def _resonator(fc_hz: float, bw_hz: float, sample_rate: int):
    """Two-pole resonator coefficients (b, a)."""
    r = np.exp(-np.pi * bw_hz / sample_rate)
    theta = 2 * np.pi * fc_hz / sample_rate
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    return [1.0 - r], a


def vowel(f0_hz: float = 120.0, duration_sec: float = 1.0,
          sample_rate: int = defaults.SAMPLE_RATE,
          formants: tuple = ((700.0, 80.0), (1200.0, 100.0)),
          amplitude: float = 0.5) -> AudioClip:
    """Pulse train at f0 through cascaded resonators at the given formants."""
    n = int(round(duration_sec * sample_rate))
    x = np.zeros(n)
    positions = np.rint(np.arange(0, n, sample_rate / f0_hz)).astype(int)
    x[positions[positions < n]] = 1.0
    for fc, bw in formants:
        b, a = _resonator(fc, bw, sample_rate)
        x = lfilter(b, a, x)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= amplitude / peak
    return AudioClip(x, sample_rate)

"""F0 estimation and log-F0 utilities on the shared frame grid.

The tracker is a normalized-autocorrelation pitch detector: per frame it
correlates the windowed signal against itself over the lag range implied
by [f_floor, f_ceil], normalizes by the energies of both segments, picks
the earliest peak within a small margin of the global maximum (guards
against octave-down picks on strongly harmonic material), refines the lag
by parabolic interpolation, gates voicing on peak height and frame energy,
and median-smooths each voiced run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .errors import InvalidParameterError, RateMismatchError, ShapeMismatchError
from .audio import AudioClip
from .features import FrameConfig, frame_signal

# Peaks within this much of the frame's best normalized correlation compete
# on lag; the shortest wins.
_PEAK_MARGIN = 0.02


@dataclass(frozen=True)
class F0Track:
    """Per-frame F0 in Hz, 0 on unvoiced frames. The voiced/unvoiced flag
    (F0 > 0) and the natural-log F0 (NaN when unvoiced) derive from it."""

    f0_hz: np.ndarray
    vuv: np.ndarray = field(init=False)
    log_f0: np.ndarray = field(init=False)

    def __post_init__(self):
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        if f0.ndim != 1:
            raise ShapeMismatchError("f0_hz must be a 1-D array")
        if not np.all(np.isfinite(f0)) or np.any(f0 < 0):
            raise InvalidParameterError("f0_hz must be finite and >= 0")
        vuv = f0 > 0
        log_f0 = np.full(f0.shape, np.nan)
        log_f0[vuv] = np.log(f0[vuv])
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "vuv", vuv)
        object.__setattr__(self, "log_f0", log_f0)

    def to_array(self) -> np.ndarray:
        """[T, 2] matrix (f0_hz, vuv as 0/1) for SVCF serialization."""
        return np.stack([self.f0_hz, self.vuv.astype(np.float64)], axis=1)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "F0Track":
        """Inverse of `to_array`. Every entry must be finite and every frame
        flagged voiced must have F0 > 0; unvoiced frames read as F0 0."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ShapeMismatchError("expected a [T, 2] (f0, vuv) matrix")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("F0 track has non-finite entries")
        voiced = arr[:, 1] > 0.5
        if np.any(arr[voiced, 0] <= 0):
            raise InvalidParameterError("F0 track has a voiced frame with F0 <= 0")
        return cls(np.where(voiced, arr[:, 0], 0.0))


def _normalized_autocorr(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Energy-normalized autocorrelation of mean-removed frames.

    r[t, lag] = sum_i x_i x_{i+lag} / sqrt(E(x[:W-lag]) E(x[lag:])),
    bounded in [-1, 1] by Cauchy-Schwarz.
    """
    x = frames - frames.mean(axis=1, keepdims=True)
    w = x.shape[1]
    nfft = 1 << int(np.ceil(np.log2(w + max_lag + 1)))
    spec = np.fft.rfft(x, n=nfft, axis=1)
    corr = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=1)[:, :max_lag + 1]
    sq = np.concatenate([np.zeros((x.shape[0], 1)), np.cumsum(x * x, axis=1)], axis=1)
    total = sq[:, -1:]
    lags = np.arange(max_lag + 1)
    head = sq[:, w - lags]      # energy of x[:W-lag]
    tail = total - sq[:, lags]  # energy of x[lag:]
    denom = np.sqrt(np.maximum(head * tail, 0.0))
    return np.where(denom > 0, corr / np.maximum(denom, 1e-300), 0.0)


def _median_smooth_runs(f0: np.ndarray, vuv: np.ndarray,
                        width: int = defaults.F0_MEDIAN_WIDTH) -> np.ndarray:
    out = f0.copy()
    half = width // 2
    i = 0
    while i < len(f0):
        if not vuv[i]:
            i += 1
            continue
        j = i
        while j < len(f0) and vuv[j]:
            j += 1
        seg = f0[i:j]
        smoothed = np.array([
            np.median(seg[max(0, k - half):k + half + 1])
            for k in range(len(seg))
        ])
        out[i:j] = smoothed
        i = j
    return out


def estimate_f0(clip: AudioClip, cfg: FrameConfig,
                f_floor: float = defaults.F0_FLOOR_HZ,
                f_ceil: float = defaults.F0_CEIL_HZ) -> F0Track:
    """Track F0 with voiced/unvoiced decisions on the cfg frame grid.

    A frame is voiced when its best normalized correlation peak reaches
    0.3 and its RMS is at least -60 dBFS.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise RateMismatchError(
            f"clip at {clip.sample_rate} Hz, config wants {cfg.sample_rate} Hz"
        )
    if not 0 < f_floor < f_ceil:
        raise InvalidParameterError("need 0 < f_floor < f_ceil")
    sr = cfg.sample_rate
    lag_min = max(2, int(np.ceil(sr / f_ceil)))
    lag_max = int(np.floor(sr / f_floor))
    if lag_max + 1 >= cfg.win_length:
        raise InvalidParameterError(
            f"f_floor {f_floor} Hz needs lags beyond the {cfg.win_length}-sample window"
        )

    frames = frame_signal(clip.samples, cfg)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    energy_ok = rms >= 10.0 ** (defaults.VUV_ENERGY_FLOOR_DBFS / 20.0)
    r = _normalized_autocorr(frames, lag_max + 1)

    n_frames = frames.shape[0]
    f0 = np.zeros(n_frames)
    for t in range(n_frames):
        if not energy_ok[t]:
            continue
        row = r[t]
        seg = row[lag_min:lag_max + 1]
        peaks = np.flatnonzero(
            (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:])
        ) + lag_min + 1
        peaks = peaks[row[peaks] >= defaults.VUV_PEAK_THRESHOLD]
        if peaks.size == 0:
            continue
        best = row[peaks].max()
        lag = int(peaks[row[peaks] >= best - _PEAK_MARGIN][0])
        # parabolic refinement around the integer lag
        y0, y1, y2 = row[lag - 1], row[lag], row[lag + 1]
        denom = y0 - 2 * y1 + y2
        delta = 0.5 * (y0 - y2) / denom if abs(denom) > 1e-12 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
        f0[t] = float(np.clip(sr / (lag + delta), f_floor, f_ceil))

    vuv = f0 > 0
    f0 = _median_smooth_runs(f0, vuv)
    return F0Track(f0)


def semitones_to_ratio(semitones: float) -> float:
    """Frequency ratio of a shift in semitones: 2^(s/12)."""
    return float(2.0 ** (semitones / 12.0))


def cents_between(f_a, f_b):
    """Signed interval from f_a to f_b in cents: 1200 log2(f_b / f_a)."""
    fa = np.asarray(f_a, dtype=np.float64)
    fb = np.asarray(f_b, dtype=np.float64)
    if np.any(fa <= 0) or np.any(fb <= 0):
        raise InvalidParameterError("frequencies must be positive")
    out = 1200.0 * np.log2(fb / fa)
    return float(out) if out.ndim == 0 else out

"""F0 estimation and log-F0 utilities on the shared frame grid.

The tracker is a normalized-autocorrelation pitch detector: per frame it
correlates the windowed signal against itself over the lag range implied
by [f_floor, f_ceil], normalizes by the energies of both segments, picks
the earliest peak within a small margin of the global maximum (guards
against octave-down picks on strongly harmonic material), refines the lag
by parabolic interpolation, gates voicing on peak height and frame energy,
and median-smooths each voiced run.

It runs block-wise: the autocorrelation and the peak picking go over fixed
blocks of frames as array operations, so memory stays bounded however long
the clip is, and the run-median smoother is one array pass over the track.
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
# Frames analysed at once. A multiple of 16, so the FFT groups rows as it
# would over the whole clip; it bounds the autocorrelation's working set
# to a few [block, fft] arrays whatever the clip's length.
_BLOCK_FRAMES = 512


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


def _pick_f0(frames: np.ndarray, sr: int, lag_min: int, lag_max: int,
             f_floor: float, f_ceil: float) -> np.ndarray:
    """F0 of each frame of a block, 0 where it is unvoiced.

    A frame's peaks are the local maxima of its correlation over
    [lag_min + 1, lag_max - 1] that reach the voicing threshold; the
    earliest within `_PEAK_MARGIN` of the best one wins, and its lag is
    refined by a parabola through it and its two neighbours.
    """
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    energy_ok = rms >= 10.0 ** (defaults.VUV_ENERGY_FLOOR_DBFS / 20.0)
    r = _normalized_autocorr(frames, lag_max + 1)
    mid = r[:, lag_min + 1:lag_max]
    if mid.shape[1] == 0:  # lag range too narrow to hold a peak
        return np.zeros(frames.shape[0])
    peak = ((mid > r[:, lag_min:lag_max - 1]) & (mid >= r[:, lag_min + 2:lag_max + 1])
            & (mid >= defaults.VUV_PEAK_THRESHOLD))
    best = np.where(peak, mid, -np.inf).max(axis=1)
    lag = np.argmax(peak & (mid >= best[:, None] - _PEAK_MARGIN), axis=1) + lag_min + 1
    # parabolic refinement around the integer lag
    rows = np.arange(r.shape[0])
    y0, y1, y2 = r[rows, lag - 1], r[rows, lag], r[rows, lag + 1]
    denom = y0 - 2 * y1 + y2
    delta = np.zeros_like(denom)
    np.divide(0.5 * (y0 - y2), denom, out=delta, where=np.abs(denom) > 1e-12)
    delta = np.clip(delta, -0.5, 0.5)
    f0 = np.clip(sr / (lag + delta), f_floor, f_ceil)
    return np.where(energy_ok & peak.any(axis=1), f0, 0.0)


def _median_smooth_runs(f0: np.ndarray, vuv: np.ndarray,
                        width: int = defaults.F0_MEDIAN_WIDTH) -> np.ndarray:
    """Centred running median of `width` frames within each voiced run.

    Windows are clipped to the run, so a run's edge frames take the median
    of fewer values (the mean of the middle two for an even count).
    """
    n = f0.size
    idx = np.arange(n)
    start = np.maximum.accumulate(np.where(vuv, 0, idx + 1))  # first frame of the run
    stop = np.minimum.accumulate(np.where(vuv, n, idx)[::-1])[::-1]  # one past its last
    nb = idx[:, None] + np.arange(-(width // 2), width // 2 + 1)
    inside = (nb >= start[:, None]) & (nb < stop[:, None])
    win = np.sort(np.where(inside, f0[np.clip(nb, 0, n - 1)], np.nan), axis=1)
    count = inside.sum(axis=1)
    lo = win[idx, np.maximum(count - 1, 0) // 2]
    hi = win[idx, count // 2]
    return np.where(vuv, (lo + hi) / 2, f0)


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
    f0 = np.concatenate([
        _pick_f0(frames[i:i + _BLOCK_FRAMES], sr, lag_min, lag_max, f_floor, f_ceil)
        for i in range(0, frames.shape[0], _BLOCK_FRAMES)
    ])
    return F0Track(_median_smooth_runs(f0, f0 > 0))


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

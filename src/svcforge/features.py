"""Frame-synchronous spectral features on the canonical 10 ms grid.

`CANONICAL_FRAME_CONFIG` is the one analysis grid: the 80-bin log-mel
spectrogram and the A-weighted loudness (`mel_loudness`) and the F0 track
(`pitch.estimate_f0`) all read it here, so every per-frame track lines up
with every other and no caller passes a grid or a filterbank;
`frame_blocks` and `spectrum` also take the formant shifter's grid.
Framing is non-centered (no padding): T = 1 + (n - win) // hop.

Every clip is split into blocks of BLOCK_FRAMES frames (`frame_blocks`) and
analysed one block at a time, with `overlap_add` the one resynthesis rule,
so memory stays bounded by a few blocks however long the clip is.
`mel_loudness` and `pitch.estimate_f0` run their per-block kernels through
a `map` the caller passes, which a thread pool spreads over cores.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .audio import AudioClip
from .errors import InvalidParameterError


def hann(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class FrameConfig:
    """Analysis grid at defaults.SAMPLE_RATE: Hann window, hop/window/FFT
    sizes in samples."""

    hop: int = defaults.HOP
    win_length: int = defaults.WIN_LENGTH
    fft_size: int = defaults.FFT_SIZE

    def __post_init__(self):
        if self.hop <= 0:
            raise InvalidParameterError("hop must be positive")
        if not 0 < self.win_length <= self.fft_size:
            raise InvalidParameterError("need 0 < win_length <= fft_size")
        if self.fft_size & (self.fft_size - 1):
            raise InvalidParameterError("fft_size must be a power of two")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def num_frames(self, n_samples: int) -> int:
        if n_samples < self.win_length:
            raise InvalidParameterError(
                f"{n_samples} samples < one {self.win_length}-sample window"
            )
        return 1 + (n_samples - self.win_length) // self.hop

    def window(self) -> np.ndarray:
        """Periodic Hann."""
        return hann(self.win_length)

    def bin_frequencies(self) -> np.ndarray:
        return np.arange(self.n_bins) * defaults.SAMPLE_RATE / self.fft_size


CANONICAL_FRAME_CONFIG = FrameConfig()

# Frames analysed at once. A multiple of 16, so the FFT groups rows as it
# would over the whole clip; it bounds a block's working set to a few
# [BLOCK_FRAMES, fft_size] arrays whatever the clip's length.
BLOCK_FRAMES = 512


def frame_blocks(clip: AudioClip, cfg: FrameConfig = CANONICAL_FRAME_CONFIG,
                 rows: int = BLOCK_FRAMES) -> list:
    """The frames of a clip at defaults.SAMPLE_RATE on grid `cfg`, as
    consecutive read-only views of `rows` rows of its samples; the last
    holds the remainder."""
    if clip.sample_rate != defaults.SAMPLE_RATE:
        raise InvalidParameterError(
            f"clip at {clip.sample_rate} Hz, the frame grid wants {defaults.SAMPLE_RATE} Hz"
        )
    cfg.num_frames(clip.samples.size)  # a clip shorter than one window is refused here
    frames = sliding_window_view(clip.samples, cfg.win_length)[::cfg.hop]
    return [frames[i:i + rows] for i in range(0, frames.shape[0], rows)]


def spectrum(frames: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """One-sided complex spectrum [M, n_bins] of Hann-windowed frames [M, win_length]."""
    return np.fft.rfft(frames * cfg.window(), n=cfg.fft_size, axis=1)


def mel_loudness(clip: AudioClip, map=map) -> tuple:
    """The log-mel spectrogram [T, N_MELS] and the A-weighted loudness [T]
    of a clip on the canonical grid, from P, each frame's one-sided power
    spectrum:
    - log-mel is the natural log of (`build_mel_filterbank()` x P), floored
      at log(POWER_FLOOR);
    - loudness is L = 10 log10(sum_k wA(f_k) P(k) + POWER_FLOOR) in dB, with
      wA the linear-power A weight 10^(A/10); a zero frame reads -100 dB.

    They are computed one block of frames at a time: `map` runs the
    per-block work (a thread pool's `map` runs blocks in parallel), and the
    blocks are joined in order, so the result is the same whichever map runs
    it. A frame's values are those of the whole clip's spectrogram to the
    bit, except in a last block of very few rows (fewer than 16 with
    OpenBLAS): BLAS multiplies so short a matrix with other kernels, which
    move its log-mel in the last bits."""
    cfg = CANONICAL_FRAME_CONFIG
    fb = build_mel_filterbank()
    a_weight = 10.0 ** (a_weight_db(cfg.bin_frequencies()) / 10.0)

    def block(frames):
        power = np.abs(spectrum(frames, cfg)) ** 2
        mel = np.log(np.maximum(power @ fb.T, defaults.POWER_FLOOR))
        # a row-by-row sum, not `power @ a_weight`: BLAS splits a matrix-vector
        # product's rows over its threads, and a row's bits then depend on where it falls
        loud = 10.0 * np.log10(np.einsum("tk,k->t", power, a_weight) + defaults.POWER_FLOOR)
        return mel, loud

    mels, louds = zip(*map(block, frame_blocks(clip)))
    return np.concatenate(mels), np.concatenate(louds)


def add_frames(out: np.ndarray, frames: np.ndarray, hop: int, first: int = 0) -> None:
    """Add frame m of `frames` ([..., M, L]) into `out` ([..., N], N a whole
    number of hops) at sample (first + m) * hop, leading axes stacked. Slab
    c (columns c * hop to (c + 1) * hop) of every frame is added at once, in
    descending c, so each sample gets its frames in ascending m, as from a
    per-frame loop, and calls in ascending `first` keep that order."""
    n_frames, length = frames.shape[-2:]
    rows = out.reshape(out.shape[:-1] + (out.shape[-1] // hop, hop))[..., first:, :]
    for c in reversed(range(-(-length // hop))):
        lo, width = c * hop, min(hop, length - c * hop)
        rows[..., c:c + n_frames, :width] += frames[..., lo:lo + width]


def overlap_add(blocks, hop: int, weight: np.ndarray, shape) -> np.ndarray:
    """Add the [..., M, L] frame blocks in order, one after another, into
    zeros of `shape` ([..., N]; see `add_frames`), and divide by `weight`
    ([L]) added the same way where that sum exceeds 1e-8."""
    out, first = np.zeros(shape), 0
    for frames in blocks:
        add_frames(out, frames, hop, first)
        first += frames.shape[-2]
    wsum = np.zeros(out.shape[-1])
    add_frames(wsum, np.broadcast_to(weight, (first, weight.size)), hop)
    np.divide(out, wsum, out=out, where=wsum > 1e-8)
    return out


def hz_to_mel(f_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def build_mel_filterbank() -> np.ndarray:
    """Triangular filters with centers uniform on the mel scale, as an
    [N_MELS, n_bins] array over the canonical grid's FFT bins whose rows are
    nonnegative and unimodal. The N_MELS + 2 band edges run from
    MEL_FMIN_HZ to MEL_FMAX_HZ."""
    edges = mel_to_hz(np.linspace(hz_to_mel(defaults.MEL_FMIN_HZ),
                                  hz_to_mel(defaults.MEL_FMAX_HZ), defaults.N_MELS + 2))
    freqs = CANONICAL_FRAME_CONFIG.bin_frequencies()
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs - lo) / np.maximum(mid - lo, 1e-12)
    falling = (hi - freqs) / np.maximum(hi - mid, 1e-12)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    if not np.all(weights.max(axis=1) > 0):
        raise InvalidParameterError(
            "mel filters narrower than one FFT bin; raise FFT_SIZE or lower N_MELS"
        )
    return weights


def a_weight_db(f_hz):
    """A-weighting in dB, normalized so A(1 kHz) = 0; floored at -200 dB.

    Closed form: A(f) = 20 log10(R_A(f)) + 2.00 with
    R_A(f) = 12194^2 f^4 / [(f^2+20.6^2) sqrt((f^2+107.7^2)(f^2+737.9^2))
             (f^2+12194^2)].
    """
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise InvalidParameterError("frequency must be >= 0")
    f2 = f * f
    with np.errstate(divide="ignore"):
        ra = (12194.0 ** 2 * f2 * f2) / (
            (f2 + 20.6 ** 2)
            * np.sqrt((f2 + 107.7 ** 2) * (f2 + 737.9 ** 2))
            * (f2 + 12194.0 ** 2)
        )
        out = np.maximum(20.0 * np.log10(ra) + 2.00, defaults.A_WEIGHT_FLOOR_DB)
    return float(out) if np.isscalar(f_hz) else out


"""Whole-clip STFT and ISTFT for the tests: every frame of a clip through one
`features.spectrum` call, and the inverse through one `overlap_add` of every
frame. The package analyses and resynthesises one block of frames at a time
through `features.add_frames`; these are what its blocked paths are compared
against."""

import numpy as np

from svcforge.features import add_frames, frame_blocks, spectrum


def overlap_add(frames: np.ndarray, hop: int, weight: np.ndarray,
                n_samples: int) -> np.ndarray:
    """Add frame m of `frames` ([M, L]) at sample m * hop and divide by
    `weight` ([L]) added the same way, where that sum exceeds 1e-8;
    uncovered samples stay zero. Returns `n_samples` samples."""
    n_frames, length = frames.shape
    n_rows = max(n_frames - 1 + -(-length // hop), -(-n_samples // hop))
    y, wsum = np.zeros(n_rows * hop), np.zeros(n_rows * hop)
    add_frames(y, frames, hop)
    add_frames(wsum, np.broadcast_to(weight, frames.shape), hop)
    np.divide(y, wsum, out=y, where=wsum > 1e-8)
    return y[:n_samples]


def stft(clip, cfg):
    """One-sided complex spectrogram [T, n_bins] of a clip on grid `cfg`."""
    return spectrum(np.concatenate(frame_blocks(clip, cfg)), cfg)


def istft(spec, cfg, n_samples):
    """Weighted overlap-add inverse of `stft`, `n_samples` long: frames are
    windowed again and overlap-added with the squared window as weight."""
    win = cfg.window()
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, :cfg.win_length] * win
    return overlap_add(frames, cfg.hop, win ** 2, n_samples)

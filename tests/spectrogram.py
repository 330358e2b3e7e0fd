"""Whole-clip STFT and ISTFT for the tests: every frame of a clip through one
`features.spectrum` call, and the inverse through `features.overlap_add`.
The package analyses and resynthesises one `frame_blocks` block at a time;
these are what its blocked paths are compared against."""

import numpy as np

from svcforge.features import frame_blocks, overlap_add, spectrum


def stft(clip, cfg):
    """One-sided complex spectrogram [T, n_bins] of a clip on grid `cfg`."""
    return spectrum(np.concatenate(frame_blocks(clip, cfg)), cfg)


def istft(spec, cfg, n_samples):
    """Weighted overlap-add inverse of `stft`, `n_samples` long: frames are
    windowed again and overlap-added with the squared window as weight."""
    win = cfg.window()
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, :cfg.win_length] * win
    return overlap_add(frames, cfg.hop, win ** 2, n_samples)

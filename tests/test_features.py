import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from svcforge import defaults
from svcforge.audio import AudioClip
from svcforge.errors import InvalidParameterError
from svcforge.features import (
    BLOCK_FRAMES,
    CANONICAL_FRAME_CONFIG,
    FrameConfig,
    a_weight_db,
    add_frames,
    build_mel_filterbank,
    frame_blocks,
    hz_to_mel,
    mel_loudness,
    mel_to_hz,
    overlap_add,
)
from svcforge.pitch import estimate_f0
from spectrogram import istft, stft
from synth import sine

CFG = CANONICAL_FRAME_CONFIG
# Centre frequencies of the table's mel filters.
CENTERS = mel_to_hz(np.linspace(hz_to_mel(defaults.MEL_FMIN_HZ), hz_to_mel(defaults.MEL_FMAX_HZ),
                                defaults.N_MELS + 2))[1:-1]


def test_frame_config_validation():
    with pytest.raises(InvalidParameterError):
        FrameConfig(hop=0)
    with pytest.raises(InvalidParameterError):
        FrameConfig(win_length=2048, fft_size=1024)
    with pytest.raises(InvalidParameterError):
        FrameConfig(fft_size=1000)


def test_frame_count_formula():
    n = 24000
    assert CFG.num_frames(n) == 1 + (n - CFG.win_length) // CFG.hop


def test_stft_dc_window_sum():
    clip = AudioClip(np.ones(CFG.win_length), defaults.SAMPLE_RATE)
    spec = stft(clip, CFG)
    assert spec.shape == (1, CFG.n_bins)
    wsum = CFG.window().sum()
    assert abs(abs(spec[0, 0]) - wsum) < 1e-6
    # energy concentrated at DC; far bins carry only window leakage
    assert np.all(np.abs(spec[0, 8:]) < 1e-3 * wsum)


def test_stft_dc_unpadded_window_nulls():
    # with win_length == fft_size the Hann spectrum is exactly zero
    # beyond bins 0 and 1
    cfg = FrameConfig(win_length=1024, fft_size=1024)
    clip = AudioClip(np.ones(1024), defaults.SAMPLE_RATE)
    spec = stft(clip, cfg)
    wsum = cfg.window().sum()
    assert abs(abs(spec[0, 0]) - wsum) < 1e-6
    assert np.all(np.abs(spec[0, 2:]) < 1e-9 * wsum)


def test_stft_bin_aligned_sine_concentrates():
    k = 40
    freq = k * defaults.SAMPLE_RATE / CFG.fft_size  # exactly bin k
    clip = sine(freq, 0.2, amplitude=1.0)
    spec = stft(clip, CFG)
    power = np.abs(spec) ** 2
    frame = power[2]
    assert frame[k - 1:k + 2].sum() >= 0.9 * frame.sum()


def test_stft_zero_signal():
    clip = AudioClip(np.zeros(CFG.win_length + CFG.hop), defaults.SAMPLE_RATE)
    assert np.all(stft(clip, CFG) == 0)


def test_stft_errors():
    # the frames of every spectrum come from `frame_blocks`, which refuses these
    with pytest.raises(InvalidParameterError, match="clip at 16000 Hz"):
        frame_blocks(AudioClip(np.zeros(4000), 16000), CFG)
    with pytest.raises(InvalidParameterError, match="window"):
        frame_blocks(AudioClip(np.zeros(CFG.win_length - 1), defaults.SAMPLE_RATE), CFG)


@pytest.mark.parametrize("cfg", [
    CFG,
    FrameConfig(hop=256, win_length=1024, fft_size=1024),  # formant shifter's grid
], ids=["canonical", "formant"])
def test_istft_inverts_stft_where_fully_covered(cfg):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(cfg.win_length * 6 + 77)
    spec = stft(AudioClip(x, defaults.SAMPLE_RATE), cfg)
    y = istft(spec, cfg, x.size)
    # samples from the end of the first window to the start of the last are
    # covered by a full window's worth of frames
    covered = slice(cfg.win_length, (spec.shape[0] - 1) * cfg.hop + 1)
    assert np.allclose(y[covered], x[covered], rtol=0, atol=1e-12)
    # nothing past the last frame is invented
    assert np.all(y[(spec.shape[0] - 1) * cfg.hop + cfg.win_length:] == 0)


def _reference_istft(spec, cfg, n_samples):
    """The per-frame weighted overlap-add `istft` had before it shared
    `overlap_add` with WSOLA, kept verbatim as the reference."""
    win = cfg.window()
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, :cfg.win_length] * win
    n_out = max(n_samples, (frames.shape[0] - 1) * cfg.hop + cfg.win_length)
    y = np.zeros(n_out)
    wsum = np.zeros(n_out)
    for m in range(frames.shape[0]):
        start = m * cfg.hop
        y[start:start + cfg.win_length] += frames[m]
        wsum[start:start + cfg.win_length] += win ** 2
    good = wsum > 1e-8
    y[good] /= wsum[good]
    return y[:n_samples]


@pytest.mark.parametrize("cfg", [
    CFG,
    FrameConfig(hop=256, win_length=1024, fft_size=1024),
    FrameConfig(hop=100, win_length=960, fft_size=1024),
    FrameConfig(hop=1000, win_length=960, fft_size=1024),
], ids=["canonical", "formant", "hop-100", "hop-1000"])
@pytest.mark.parametrize("extra", [0, 1, 24000, 72017])
def test_istft_matches_per_frame_reference(cfg, extra):
    x = np.random.default_rng(extra).standard_normal(cfg.win_length + extra)
    spec = stft(AudioClip(x, defaults.SAMPLE_RATE), cfg)
    for n_samples in (x.size, x.size + 700, cfg.win_length // 2):
        assert np.array_equal(istft(spec, cfg, n_samples),
                              _reference_istft(spec, cfg, n_samples))


def test_overlap_add_weights_and_gaps():
    frames = np.array([[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]])
    weight = np.array([1.0, 1.0])
    # hop 1: overlapping frames are averaged
    assert np.array_equal(overlap_add([frames], 1, weight, 4), [2.0, 3.0, 5.0, 6.0])
    # hop 3: the samples between frames and past the last stay zero
    assert np.array_equal(overlap_add([frames], 3, weight, 9),
                          [2.0, 2.0, 0.0, 4.0, 4.0, 0.0, 6.0, 6.0, 0.0])
    assert np.array_equal(overlap_add([frames], 3, weight, 15)[8:], np.zeros(7))
    # a weight sum at or below 1e-8 leaves the summed frames undivided
    assert np.array_equal(overlap_add([frames[:1]], 1, np.array([0.5, 1e-9]), 2),
                          [4.0, 2.0])
    # no rows in the stack: an empty result of the asked shape
    assert overlap_add([np.zeros((0, 3, 2))], 3, weight, (0, 9)).shape == (0, 9)


def _reference_overlap_add(frames, hop, weight, n_samples):
    """Per-frame loop: each sample receives its frames in ascending order."""
    n_frames, length = frames.shape
    n_out = max(n_samples, (n_frames - 1) * hop + length)
    y = np.zeros(n_out)
    wsum = np.zeros(n_out)
    for m in range(n_frames):
        y[m * hop:m * hop + length] += frames[m]
        wsum[m * hop:m * hop + length] += weight
    good = wsum > 1e-8
    y[good] /= wsum[good]
    return y[:n_samples]


def _random_frames(rng, n_frames, length):
    """Frames spanning 16 decades, and weights of which about a third sit
    at or below the 1e-8 floor."""
    frames = rng.standard_normal((n_frames, length)) * 10.0 ** rng.integers(-8, 8, length)
    weight = np.where(rng.random(length) < 1 / 3, rng.choice([0.0, 1e-9, 1e-8], length),
                      3.0 * rng.random(length))
    return frames, weight


def _covering_size(n_frames, length, hop):
    """The fewest samples, a whole number of hops, that hold every frame."""
    return (n_frames - 1 + -(-length // hop)) * hop


@given(n_frames=st.integers(1, 40), length=st.integers(1, 64), hop=st.integers(1, 80),
       extra_rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_overlap_add_matches_per_frame_loop(n_frames, length, hop, extra_rows, seed):
    frames, weight = _random_frames(np.random.default_rng(seed), n_frames, length)
    size = _covering_size(n_frames, length, hop) + extra_rows * hop
    got = overlap_add([frames], hop, weight, size)
    assert got.shape == (size,)
    assert np.array_equal(got, _reference_overlap_add(frames, hop, weight, size))


@pytest.mark.parametrize("hop", [13, 60], ids=["overlapping", "gaps"])
def test_overlap_add_bytes_do_not_depend_on_the_block_split(hop):
    n_frames, length = 150, 50
    frames, weight = _random_frames(np.random.default_rng(hop), n_frames, length)
    size = _covering_size(n_frames, length, hop)
    want = _reference_overlap_add(frames, hop, weight, size)
    for rows in (1, 7, 64, n_frames):
        blocks = (frames[i:i + rows] for i in range(0, n_frames, rows))
        assert np.array_equal(overlap_add(blocks, hop, weight, size), want), rows


def test_overlap_add_stacks_rows_like_single_row_calls():
    n_rows, n_frames, length, hop = 3, 100, 40, 16
    rng = np.random.default_rng(3)
    stacked = rng.standard_normal((n_rows, n_frames, length))
    weight = _random_frames(rng, 1, length)[1]
    size = _covering_size(n_frames, length, hop)
    got = overlap_add((stacked[:, i:i + 7] for i in range(0, n_frames, 7)), hop, weight,
                      (n_rows, size))
    assert got.shape == (n_rows, size)
    for frames, row in zip(stacked, got):
        assert np.array_equal(row, overlap_add([frames], hop, weight, size))


@given(n_frames=st.integers(1, 40), length=st.integers(1, 64), hop=st.integers(1, 80),
       block=st.integers(1, 41), seed=st.integers(0, 2**32 - 1))
def test_add_frames_in_blocks_matches_per_frame_loop(n_frames, length, hop, block, seed):
    # blocks added in ascending order give each sample its frames in ascending order
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n_frames, length)) * 10.0 ** rng.integers(-8, 8, length)
    out = np.zeros((n_frames - 1 + -(-length // hop)) * hop)
    for first in range(0, n_frames, block):
        add_frames(out, frames[first:first + block], hop, first)
    want = np.zeros(out.size)
    for m in range(n_frames):
        want[m * hop:m * hop + length] += frames[m]
    assert np.array_equal(out, want)


def test_mel_scale_formula():
    # frozen from 2595 * log10(1 + 1000/700)
    assert abs(hz_to_mel(1000.0) - 999.9855371396244) < 1e-9


def test_filterbank_construction():
    fb = build_mel_filterbank()
    assert fb.shape == (80, CFG.n_bins)
    assert np.all(fb >= 0)
    assert np.all(np.diff(CENTERS) > 0)
    # each row peaks within one bin of its centre
    assert np.all(np.abs(fb.argmax(axis=1) - CENTERS * CFG.fft_size / defaults.SAMPLE_RATE) <= 1)
    # unimodal rows: weights rise then fall
    for row in fb:
        support = np.flatnonzero(row > 0)
        assert support.size >= 1
        peak = row.argmax()
        assert np.all(np.diff(row[support[0]:peak + 1]) >= -1e-12)
        assert np.all(np.diff(row[peak:support[-1] + 1]) <= 1e-12)


def test_filterbank_covers_interior_bins():
    fb = build_mel_filterbank()
    freqs = CFG.bin_frequencies()
    interior = (freqs > 0) & (freqs < 12000.0)
    assert np.all(fb.sum(axis=0)[interior] > 0)


def _zeros(n_frames: int) -> AudioClip:
    return AudioClip(np.zeros(CFG.win_length + (n_frames - 1) * CFG.hop), defaults.SAMPLE_RATE)


def test_log_mel_floor_and_scaling():
    out = mel_loudness(_zeros(3))[0]
    assert out.shape == (3, defaults.N_MELS)
    assert np.allclose(out, math.log(1e-10))

    clip = sine(1000, 0.2, amplitude=0.25)
    m1 = mel_loudness(clip)[0]
    m2 = mel_loudness(AudioClip(2 * clip.samples, defaults.SAMPLE_RATE))[0]
    above = m1 > math.log(1e-10) + 1e-6
    assert np.allclose(m2[above] - m1[above], math.log(4.0), atol=1e-6)


def test_log_mel_peak_bin_matches_filter_geometry():
    clip = sine(1000, 0.2)
    mel = mel_loudness(clip)[0]
    expected_bin = int(np.argmin(np.abs(CENTERS - 1000.0)))
    peaks = mel.argmax(axis=1)
    # all frames agree, within one filter of the geometric expectation
    assert np.all(np.abs(peaks - expected_bin) <= 1)


def test_a_weighting_anchors():
    assert abs(a_weight_db(1000.0)) < 0.01
    # frozen from the closed form
    assert abs(a_weight_db(100.0) - (-19.144954291317543)) < 1e-9
    assert a_weight_db(0.0) == -200.0


def test_a_weighting_shape():
    freqs = np.linspace(10, 12000, 4000)
    vals = a_weight_db(freqs)
    peak = int(np.argmax(vals))
    assert 2000 < freqs[peak] < 3000
    # unimodal: strictly rising up to the peak, strictly falling after
    d = np.diff(vals)
    assert np.all(d[:peak] > 0) and np.all(d[peak:] < 0)
    # continuous: refining the grid shrinks the largest jump proportionally
    fine = np.linspace(10, 12000, 40000)
    assert np.abs(np.diff(a_weight_db(fine))).max() < np.abs(d).max() / 5
    with pytest.raises(InvalidParameterError):
        a_weight_db(-1.0)


def test_loudness_zero_floor():
    out = mel_loudness(_zeros(2))[1]
    assert out.shape == (2,)
    assert np.allclose(out, -100.0)


def test_loudness_power_scaling():
    clip = sine(1000, 0.2, amplitude=0.05)
    l1 = mel_loudness(clip)[1]
    l2 = mel_loudness(AudioClip(10 * clip.samples, defaults.SAMPLE_RATE))[1]
    assert np.allclose(l2 - l1, 20.0, atol=1e-6)


def test_loudness_a_weight_difference():
    l1k = mel_loudness(sine(1000, 0.3))[1].mean()
    l100 = mel_loudness(sine(100, 0.3))[1].mean()
    expected = a_weight_db(1000.0) - a_weight_db(100.0)  # ~= 19.1 dB
    # leakage spreads energy over bins where the A-curve is steep at 100 Hz
    assert abs((l1k - l100) - expected) < 0.75


def test_track_alignment_across_features():
    clip = sine(220, 0.7)
    mel, loud = mel_loudness(clip)
    t_mel, t_loud = mel.shape[0], loud.shape[0]
    t_f0 = estimate_f0(clip).f0_hz.shape[0]
    assert t_mel == t_loud == t_f0 == CFG.num_frames(clip.samples.size)


@given(st.floats(min_value=1.01, max_value=8.0))
def test_log_mel_monotone_in_amplitude(gain):
    # gains bounded away from 1 so the property dominates FFT round-off
    # in near-cancelling leakage bins
    clip = sine(500, 0.15, amplitude=0.1)
    m1 = mel_loudness(clip)[0]
    m2 = mel_loudness(AudioClip(gain * clip.samples, defaults.SAMPLE_RATE))[0]
    assert np.all(m2 >= m1 - 1e-9)


def _noisy_tone(n_frames: int, seed: int) -> AudioClip:
    """A clip of exactly `n_frames` frames: a 330 Hz tone in noise."""
    n = CFG.win_length + (n_frames - 1) * CFG.hop
    t = np.arange(n) / defaults.SAMPLE_RATE
    noise = np.random.default_rng(seed).standard_normal(n)
    return AudioClip(0.4 * np.sin(2 * np.pi * 330.0 * t) + 0.05 * noise, defaults.SAMPLE_RATE)


def test_frame_blocks_split_the_frames_in_order():
    clip = _noisy_tone(2 * BLOCK_FRAMES + 37, 1)
    blocks = frame_blocks(clip)
    assert [b.shape[0] for b in blocks] == [BLOCK_FRAMES, BLOCK_FRAMES, 37]
    assert all(np.shares_memory(b, clip.samples) for b in blocks)  # views, not copies
    assert np.array_equal(np.concatenate(blocks),
                          sliding_window_view(clip.samples, CFG.win_length)[::CFG.hop])
    assert [b.shape[0] for b in frame_blocks(_noisy_tone(BLOCK_FRAMES, 1))] == [BLOCK_FRAMES]


@pytest.mark.parametrize("jobs", [0, 2, 3], ids=["map", "pool2", "pool3"])
@pytest.mark.parametrize("rest", [37, 1])
def test_mel_loudness_equals_whole_clip_features(jobs, rest):
    n_frames = 2 * BLOCK_FRAMES + rest
    clip = _noisy_tone(n_frames, 2)
    if jobs:
        with ThreadPoolExecutor(jobs) as pool:
            mel, loud = mel_loudness(clip, pool.map)
    else:
        mel, loud = mel_loudness(clip)
    # the whole clip's features, from one spectrogram of every frame
    power = np.abs(stft(clip, CFG)) ** 2
    want = np.log(np.maximum(power @ build_mel_filterbank().T, defaults.POWER_FLOOR))
    a_weight = 10.0 ** (a_weight_db(CFG.bin_frequencies()) / 10.0)
    want_loud = 10.0 * np.log10(np.einsum("tk,k->t", power, a_weight) + defaults.POWER_FLOOR)
    assert mel.shape == (n_frames, defaults.N_MELS)
    assert np.array_equal(loud, want_loud)
    # BLAS may multiply a one-row block by another kernel than the long
    # matrix's, so only that block's log-mel may move, in its last bits
    whole = n_frames if rest >= 16 else 2 * BLOCK_FRAMES
    assert np.array_equal(mel[:whole], want[:whole])
    np.testing.assert_allclose(mel[whole:], want[whole:], rtol=0, atol=1e-12)


def test_feature_stage_memory_is_bounded_by_the_block():
    # a whole-clip spectrogram and its features peak near 91 MiB here
    clip = _noisy_tone(CFG.num_frames(60 * defaults.SAMPLE_RATE), 3)
    tracemalloc.start()
    try:
        mel, loud = mel_loudness(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mel.shape[0] == loud.size == CFG.num_frames(clip.samples.size)
    assert peak <= 24 * 2**20

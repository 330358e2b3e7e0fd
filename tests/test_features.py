import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge import defaults
from svcforge.audio import AudioClip
from svcforge.errors import (
    ClipTooShortError,
    InvalidParameterError,
    RateMismatchError,
    ShapeMismatchError,
)
from svcforge.features import (
    CANONICAL_FRAME_CONFIG,
    FrameConfig,
    a_weight_db,
    build_mel_filterbank,
    hz_to_mel,
    istft,
    log_mel,
    loudness,
    mel_to_hz,
    overlap_add,
    stft,
)
from svcforge.pitch import estimate_f0
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
    with pytest.raises(RateMismatchError):
        stft(AudioClip(np.zeros(4000), 16000), CFG)
    with pytest.raises(ClipTooShortError):
        stft(AudioClip(np.zeros(CFG.win_length - 1), defaults.SAMPLE_RATE), CFG)


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
    assert np.array_equal(overlap_add(frames, 1, weight, 4), [2.0, 3.0, 5.0, 6.0])
    # hop 3: the samples between frames stay zero; output is cut or padded
    assert np.array_equal(overlap_add(frames, 3, weight, 9),
                          [2.0, 2.0, 0.0, 4.0, 4.0, 0.0, 6.0, 6.0, 0.0])
    assert np.array_equal(overlap_add(frames, 3, weight, 11)[8:], [0.0, 0.0, 0.0])
    assert np.array_equal(overlap_add(frames, 3, weight, 2), [2.0, 2.0])
    # a weight sum at or below 1e-8 leaves the summed frames undivided
    assert np.array_equal(overlap_add(frames[:1], 1, np.array([0.5, 1e-9]), 2),
                          [4.0, 2.0])


def test_mel_scale_formula():
    # frozen from 2595 * log10(1 + 1000/700)
    assert abs(hz_to_mel(1000.0) - 999.9855371396244) < 1e-9


def test_filterbank_construction():
    fb = build_mel_filterbank(CFG)
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
    fb = build_mel_filterbank(CFG)
    freqs = CFG.bin_frequencies()
    interior = (freqs > 0) & (freqs < 12000.0)
    assert np.all(fb.sum(axis=0)[interior] > 0)


def test_log_mel_floor_and_scaling():
    fb = build_mel_filterbank(CFG)
    zero = np.zeros((3, CFG.n_bins), dtype=complex)
    out = log_mel(zero, fb)
    assert np.allclose(out, math.log(1e-10))

    clip = sine(1000, 0.2, amplitude=0.25)
    m1 = log_mel(stft(clip, CFG), fb)
    m2 = log_mel(stft(AudioClip(2 * clip.samples, defaults.SAMPLE_RATE), CFG), fb)
    above = m1 > math.log(1e-10) + 1e-6
    assert np.allclose(m2[above] - m1[above], math.log(4.0), atol=1e-6)


def test_log_mel_peak_bin_matches_filter_geometry():
    fb = build_mel_filterbank(CFG)
    clip = sine(1000, 0.2)
    mel = log_mel(stft(clip, CFG), fb)
    expected_bin = int(np.argmin(np.abs(CENTERS - 1000.0)))
    peaks = mel.argmax(axis=1)
    # all frames agree, within one filter of the geometric expectation
    assert np.all(np.abs(peaks - expected_bin) <= 1)


def test_log_mel_shape_mismatch():
    fb = build_mel_filterbank(CFG)
    with pytest.raises(ShapeMismatchError):
        log_mel(np.zeros((2, 100), dtype=complex), fb)


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
    spec = np.zeros((2, CFG.n_bins), dtype=complex)
    out = loudness(spec, CFG)
    assert np.allclose(out, -100.0)


def test_loudness_power_scaling():
    clip = sine(1000, 0.2, amplitude=0.05)
    l1 = loudness(stft(clip, CFG), CFG)
    l2 = loudness(stft(AudioClip(10 * clip.samples, defaults.SAMPLE_RATE), CFG), CFG)
    assert np.allclose(l2 - l1, 20.0, atol=1e-6)


def test_loudness_a_weight_difference():
    l1k = loudness(stft(sine(1000, 0.3), CFG), CFG).mean()
    l100 = loudness(stft(sine(100, 0.3), CFG), CFG).mean()
    expected = a_weight_db(1000.0) - a_weight_db(100.0)  # ~= 19.1 dB
    # leakage spreads energy over bins where the A-curve is steep at 100 Hz
    assert abs((l1k - l100) - expected) < 0.75


def test_track_alignment_across_features():
    clip = sine(220, 0.7)
    spec = stft(clip, CFG)
    fb = build_mel_filterbank(CFG)
    t_mel = log_mel(spec, fb).shape[0]
    t_loud = loudness(spec, CFG).shape[0]
    t_f0 = estimate_f0(clip, CFG).f0_hz.shape[0]
    assert t_mel == t_loud == t_f0 == CFG.num_frames(clip.samples.size)


@given(st.floats(min_value=1.01, max_value=8.0))
def test_log_mel_monotone_in_amplitude(gain):
    # gains bounded away from 1 so the property dominates FFT round-off
    # in near-cancelling leakage bins
    fb = build_mel_filterbank(CFG)
    clip = sine(500, 0.15, amplitude=0.1)
    m1 = log_mel(stft(clip, CFG), fb)
    m2 = log_mel(stft(AudioClip(gain * clip.samples, defaults.SAMPLE_RATE), CFG), fb)
    assert np.all(m2 >= m1 - 1e-9)

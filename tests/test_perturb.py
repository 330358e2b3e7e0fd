from math import gcd, log2

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import freqz, welch

from svcforge.audio import AudioClip
from svcforge.errors import InvalidParameterError, RateMismatchError
from svcforge.features import hann, istft, stft
from svcforge.features import CANONICAL_FRAME_CONFIG as CFG, hz_to_mel, mel_to_hz
from svcforge.perturb import (
    PerturbConfig,
    formant_shift,
    parametric_eq,
    peaking_biquad,
    pitch_randomize,
    random_perturb_pair,
)
from svcforge import defaults, perturb
from svcforge.pitch import estimate_f0, semitones_to_ratio
from synth import sawtooth, sine, vowel


def _rel_rms_db(out, ref):
    err = np.sqrt(np.mean((out - ref) ** 2))
    return 20 * np.log10(max(err, 1e-300) / np.sqrt(np.mean(ref ** 2)))


def _median_f0(clip):
    track = estimate_f0(clip, CFG)
    return np.median(track.f0_hz[track.vuv])


def _envelope_peak_hz(clip, lo_hz, hi_hz, nfft=1024, qcut_ms=1.25):
    """Independent envelope oracle: mean log magnitude across Hann frames,
    cepstrally low-passed, parabolic peak in [lo, hi]."""
    x = clip.samples
    hop = nfft // 2
    win = np.hanning(nfft)
    frames = [x[i:i + nfft] * win for i in range(0, len(x) - nfft, hop)]
    logmag = np.log(np.maximum(np.abs(np.fft.rfft(frames, axis=1)), 1e-10)).mean(axis=0)
    cep = np.fft.irfft(logmag, n=nfft)
    q = int(round(qcut_ms / 1000 * clip.sample_rate))
    lift = np.zeros(nfft)
    lift[:q + 1] = 1.0
    lift[-q:] = 1.0
    env = np.fft.rfft(cep * lift).real
    freqs = np.arange(env.size) * clip.sample_rate / nfft
    band = np.flatnonzero((freqs >= lo_hz) & (freqs <= hi_hz))
    k = band[np.argmax(env[band])]
    y0, y1, y2 = env[k - 1], env[k], env[k + 1]
    denom = y0 - 2 * y1 + y2
    delta = 0.5 * (y0 - y2) / denom if denom else 0.0
    return (k + delta) * clip.sample_rate / nfft


# -- peaking biquad ----------------------------------------------------------

def _gain_at(b, a, freqs):
    return np.abs(freqz(b, a, worN=freqs, fs=24000)[1])


def test_biquad_zero_gain_is_identity():
    b, a = peaking_biquad(1000, 1.0, 0.0, 24000)
    assert a[0] == 1.0
    assert b[0] == pytest.approx(1.0, abs=1e-15)
    assert b[1] == pytest.approx(a[1], abs=1e-15)
    assert b[2] == pytest.approx(a[2], abs=1e-15)
    for f in [10, 100, 1000, 5000, 11000]:
        assert abs(_gain_at(b, a, [f])[0] - 1.0) < 1e-9


def test_biquad_center_gain():
    b, a = peaking_biquad(1000, 1.0, 6.0, 24000)
    gain_db = 20 * np.log10(_gain_at(b, a, [1000])[0])
    assert abs(gain_db - 6.0) < 0.01


@given(st.floats(min_value=20, max_value=11500),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-18.0, max_value=18.0))
def test_biquad_always_stable(fc, q, gain):
    b, a = peaking_biquad(fc, q, gain, 24000)
    roots = np.roots(a)
    assert np.all(np.abs(roots) < 1.0)


def test_biquad_invalid_params():
    with pytest.raises(InvalidParameterError):
        peaking_biquad(0, 1.0, 3.0, 24000)
    with pytest.raises(InvalidParameterError):
        peaking_biquad(13000, 1.0, 3.0, 24000)
    with pytest.raises(InvalidParameterError):
        peaking_biquad(1000, 0.0, 3.0, 24000)
    with pytest.raises(InvalidParameterError):
        peaking_biquad(1000, 1e-20, 3.0, 24000)  # poles outside unit circle
    with pytest.raises(InvalidParameterError):
        peaking_biquad(1000, 5e-324, 3.0, 24000)  # alpha overflows


# -- parametric EQ -----------------------------------------------------------

def test_eq_empty_band_list_is_identity():
    clip = sine(440, 0.2)
    out = parametric_eq(clip, [])
    assert np.array_equal(out.samples, clip.samples)


def test_eq_lti_additivity_and_homogeneity():
    rng = np.random.default_rng(0)
    x = AudioClip(rng.normal(scale=0.1, size=8000), 24000)
    y = AudioClip(rng.normal(scale=0.1, size=8000), 24000)
    bands = [(500.0, 1.2, 4.0), (3000.0, 2.0, -6.0)]
    ex = parametric_eq(x, bands).samples
    ey = parametric_eq(y, bands).samples
    exy = parametric_eq(AudioClip(x.samples + y.samples, 24000), bands).samples
    assert np.max(np.abs(exy - (ex + ey))) < 1e-9
    e2x = parametric_eq(AudioClip(2.0 * x.samples, 24000), bands).samples
    assert np.max(np.abs(e2x - 2.0 * ex)) < 1e-9


def test_eq_white_noise_band_boost():
    rng = np.random.default_rng(1)
    x = AudioClip(rng.normal(scale=0.1, size=240000), 24000)
    out = parametric_eq(x, [(2000.0, 1.0, 12.0)])
    f, p_in = welch(x.samples, fs=24000, nperseg=4096)
    _, p_out = welch(out.samples, fs=24000, nperseg=4096)
    k = np.argmin(np.abs(f - 2000.0))
    boost_db = 10 * np.log10(p_out[k] / p_in[k])
    assert abs(boost_db - 12.0) < 1.0


# -- formant shift -----------------------------------------------------------

def test_formant_shift_identity():
    clip = vowel(duration_sec=0.8)
    out = formant_shift(clip, 1.0)
    assert out.samples.size == clip.samples.size
    assert _rel_rms_db(out.samples, clip.samples) < -40.0


def test_formant_shift_preserves_f0():
    clip = vowel(duration_sec=1.0)
    out = formant_shift(clip, 1.2)
    assert abs(_median_f0(out) / _median_f0(clip) - 1) < 0.03


def test_formant_shift_moves_envelope_peak():
    clip = vowel(duration_sec=1.0)
    out = formant_shift(clip, 1.2)
    peak_in = _envelope_peak_hz(clip, 400, 1100)
    peak_out = _envelope_peak_hz(out, 400, 1100)
    centers = mel_to_hz(np.linspace(hz_to_mel(defaults.MEL_FMIN_HZ),
                                    hz_to_mel(defaults.MEL_FMAX_HZ), defaults.N_MELS + 2))[1:-1]
    i = int(np.argmin(np.abs(centers - 840.0)))
    mel_width = centers[i + 1] - centers[i - 1]
    assert 600 < peak_in < 800  # sanity: first formant found
    assert abs(peak_out - 840.0) <= mel_width


def test_formant_shift_validation():
    with pytest.raises(InvalidParameterError):
        formant_shift(vowel(duration_sec=0.2), 2.5)
    with pytest.raises(RateMismatchError):
        formant_shift(AudioClip(np.zeros(8000), 16000), 1.1)


def _reference_formant_shift(clip: AudioClip, rho: float) -> AudioClip:
    """The formant shifter as it was before it applied one envelope gain to
    the complex spectrum (polar split into magnitude, phase and cepstral
    residual), kept verbatim as the reference."""
    RATIO_LO, RATIO_HI = perturb.RATIO_LO, perturb.RATIO_HI
    _FORMANT_FRAMES = perturb._FORMANT_FRAMES
    if not RATIO_LO <= rho <= RATIO_HI:
        raise InvalidParameterError(f"rho must be in [0.5, 2], got {rho}")
    if clip.sample_rate != defaults.SAMPLE_RATE:
        raise RateMismatchError(
            f"formant_shift expects {defaults.SAMPLE_RATE} Hz, got {clip.sample_rate}"
        )
    n = clip.samples.size
    n_fft = _FORMANT_FRAMES.fft_size
    x = np.concatenate([np.zeros(n_fft), clip.samples, np.zeros(2 * n_fft)])
    spec = stft(AudioClip(x, clip.sample_rate), _FORMANT_FRAMES)
    mag = np.abs(spec)
    phase = np.angle(spec)
    log_mag = np.log(np.maximum(mag, 1e-10))

    qcut = int(round(defaults.FORMANT_QUEFRENCY_CUTOFF_SEC * clip.sample_rate))
    cep = np.fft.irfft(log_mag, n=n_fft, axis=1)
    lifter = np.zeros(n_fft)
    lifter[:qcut + 1] = 1.0
    lifter[-qcut:] = 1.0
    env = np.fft.rfft(cep * lifter, axis=1).real
    resid = log_mag - env

    n_bins = env.shape[1]
    query = np.arange(n_bins) / rho
    i0 = np.clip(np.floor(query).astype(int), 0, n_bins - 1)
    i1 = np.minimum(i0 + 1, n_bins - 1)
    frac = np.clip(query - i0, 0.0, 1.0)
    env_warped = env[:, i0] * (1.0 - frac) + env[:, i1] * frac

    new_mag = np.exp(env_warped + resid)
    y = istft(new_mag * np.exp(1j * phase), _FORMANT_FRAMES, len(x))
    return AudioClip(y[n_fft:n_fft + n], clip.sample_rate)


def _pcm16(x):
    return np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")


_REFERENCE_CLIPS = {
    "vowel-220": lambda: vowel(220.0, 0.5),
    "vowel-110": lambda: vowel(110.0, 0.5),
    "noise": lambda: AudioClip(np.random.default_rng(0).normal(scale=0.1, size=12000), 24000),
    "silence": lambda: AudioClip(np.zeros(12000), 24000),
}


@pytest.mark.parametrize("rho", [0.5, 0.8, 1.0, 1.25, 2.0])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CLIPS))
def test_formant_shift_matches_polar_reference(name, rho):
    clip = _REFERENCE_CLIPS[name]()
    got = formant_shift(clip, rho).samples
    want = _reference_formant_shift(clip, rho).samples
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(_pcm16(got), _pcm16(want))


# -- pitch randomization -----------------------------------------------------

def test_pitch_randomize_identity():
    clip = sawtooth(220, 0.5)
    out = pitch_randomize(clip, 1.0)
    assert _rel_rms_db(out.samples, clip.samples) < -40.0


@pytest.mark.parametrize("freq,ratio,synth_fn", [
    (220.0, 1.5, sawtooth),
    (440.0, 0.5, sine),
    (220.0, semitones_to_ratio(5.37), sawtooth),  # off the 100 Hz inner-rate grid
])
def test_pitch_randomize_ratio(freq, ratio, synth_fn):
    clip = synth_fn(freq, 1.0)
    out = pitch_randomize(clip, ratio)
    assert abs(out.samples.size - clip.samples.size) <= 0.01 * clip.samples.size
    assert abs(_median_f0(out) / (ratio * freq) - 1) < 0.03


def _reference_wsola(x, target_len, sample_rate):
    """The WSOLA stretch as it was before it shared `features.overlap_add`
    (search and overlap-add in one per-frame loop), kept verbatim as the
    reference."""
    seg = int(round(defaults.WSOLA_SEGMENT_SEC * sample_rate))
    search = int(round(defaults.WSOLA_SEARCH_SEC * sample_rate))
    hop = seg // 2
    win = hann(seg)
    scale = len(x) / target_len

    xp = np.concatenate([x, np.zeros(seg + search + 1)])
    out = np.zeros(target_len + seg)
    wsum = np.zeros(target_len + seg)
    n_frames = int(np.ceil(target_len / hop))
    prev = 0
    for m in range(n_frames):
        nominal = int(round(m * hop * scale))
        nominal = min(nominal, len(x) - 1)
        if m == 0:
            pos = nominal
        else:
            ref = xp[prev + hop:prev + hop + seg]
            lo = max(0, nominal - search)
            hi = min(max(len(x) - 1, 1), nominal + search)
            corr = np.correlate(xp[lo:hi + seg], ref, mode="valid")
            pos = lo + int(np.argmax(corr))
        out[m * hop:m * hop + seg] += xp[pos:pos + seg] * win
        wsum[m * hop:m * hop + seg] += win
        prev = pos
    good = wsum > 1e-8
    out[good] /= wsum[good]
    return out[:target_len]


@pytest.mark.parametrize("n", [1, 2, 299, 600, 601, 24000, 96000])
@pytest.mark.parametrize("ratio", [0.5, 0.93, 1.31, 1.7])
def test_wsola_matches_per_frame_reference(n, ratio):
    x = np.random.default_rng(n).standard_normal(n)
    target_len = max(1, int(n * ratio))
    assert np.array_equal(perturb._wsola_stretch(x, target_len, 24000),
                          _reference_wsola(x, target_len, 24000))


def test_pitch_randomize_validation():
    with pytest.raises(InvalidParameterError):
        pitch_randomize(sine(220, 0.2), 2.4)


def test_pitch_randomize_empty_clip():
    out = pitch_randomize(AudioClip(np.zeros(0), 24000), 1.5)
    assert out.samples.size == 0
    assert out.sample_rate == 24000


def test_pitch_randomize_inner_rate_grid(monkeypatch):
    """The inner resampling rate keeps the reduced up/down factors small and
    realises the requested ratio to within 7.3 cents at 24 kHz."""
    rates = []

    def fake_resample(clip, target_rate):
        rates.append(target_rate)
        return clip

    monkeypatch.setattr(perturb, "resample", fake_resample)
    sr = 24000
    clip = AudioClip(np.zeros(480), sr)
    ratios = [float(r) for r in np.linspace(0.5, 2.0, 301) if r != 1.0]
    for ratio in ratios:
        pitch_randomize(clip, ratio)
    assert len(rates) == len(ratios)
    for ratio, inner in zip(ratios, rates):
        g = gcd(sr, inner)
        assert max(inner // g, sr // g) <= 480
        assert abs(1200 * log2((sr / inner) / ratio)) <= 7.3


# -- seeded pair generator ---------------------------------------------------

def test_pair_deterministic():
    clip = vowel(duration_sec=0.4)
    cfg = PerturbConfig(seed=99)
    a1, b1 = random_perturb_pair(clip, cfg)
    a2, b2 = random_perturb_pair(clip, cfg)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(b1.samples, b2.samples)
    # the two chains differ from each other
    assert not np.array_equal(a1.samples, b1.samples)


def test_pair_degenerate_config_is_identity():
    clip = vowel(duration_sec=0.4)
    cfg = PerturbConfig(
        formant_ratio_range=(1.0, 1.0),
        pitch_semitone_range=(0.0, 0.0),
        eq_gain_range_db=(0.0, 0.0),
        seed=5,
    )
    a, b = random_perturb_pair(clip, cfg)
    assert _rel_rms_db(a.samples, clip.samples) < -40.0
    assert _rel_rms_db(b.samples, clip.samples) < -40.0


def test_pair_preserves_duration():
    clip = vowel(duration_sec=0.5)
    a, b = random_perturb_pair(clip, PerturbConfig(seed=2))
    n = clip.samples.size
    assert abs(a.samples.size - n) <= 0.01 * n
    assert abs(b.samples.size - n) <= 0.01 * n


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        PerturbConfig(formant_ratio_range=(1.4, 1.0))
    with pytest.raises(InvalidParameterError):
        PerturbConfig(eq_bands=0)
    with pytest.raises(InvalidParameterError):
        PerturbConfig(eq_q_range=(0.0, 1.0))
    nan, inf = float("nan"), float("inf")
    for kwargs in [
        {"eq_q_range": (nan, 1.0)},
        {"eq_q_range": (1.0, inf)},
        {"pitch_semitone_range": (nan, 1.0)},
        {"formant_ratio_range": (inf, inf)},
        {"eq_gain_range_db": (-inf, 0.0)},
        {"pitch_semitone_range": (-20.0, 20.0)},
        {"pitch_semitone_range": (0.0, 12.5)},
        {"formant_ratio_range": (0.4, 1.0)},
        {"formant_ratio_range": (1.0, 2.1)},
        {"eq_gain_range_db": (-24.5, 0.0)},
        {"eq_gain_range_db": (1e6, 1e6)},
    ]:
        with pytest.raises(InvalidParameterError):
            PerturbConfig(**kwargs)
    # the edges of the accepted ranges are valid
    PerturbConfig(pitch_semitone_range=(-12.0, 12.0), formant_ratio_range=(0.5, 2.0),
                  eq_gain_range_db=(-24.0, 24.0))

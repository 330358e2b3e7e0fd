import hashlib
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd, log2
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import freqz, lfilter, welch

from svcforge.audio import AudioClip
from svcforge.errors import InvalidParameterError
from svcforge.features import BLOCK_FRAMES, hann, hz_to_mel, mel_to_hz
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
from spectrogram import istft, stft
from synth import sawtooth, sine, vowel


def _rel_rms_db(out, ref):
    err = np.sqrt(np.mean((out - ref) ** 2))
    return 20 * np.log10(max(err, 1e-300) / np.sqrt(np.mean(ref ** 2)))


def _median_f0(clip):
    track = estimate_f0(clip)
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


def test_biquad_verdict_at_absurd_q_follows_the_coefficients():
    # Q -> 0: the poles lie just inside the unit circle (a[2] = -1 + 7e-16), where
    # np.roots' rounded moduli may read 1, in some processes and not in others;
    # the filter is then the flat gain 10^(gain/20)
    _, a = peaking_biquad(500.0, 1e-17, 12.0, 24000)
    assert -1.0 < a[2] < -1.0 + 1e-15
    x = np.random.default_rng(0).standard_normal(4800)
    y = parametric_eq(AudioClip(x, 24000), [(500.0, 1e-17, 12.0)]).samples
    assert np.allclose(y, 10 ** (12 / 20) * x, rtol=0, atol=1e-12)
    # Q -> inf: a[2] rounds to exactly 1, a pole pair on the unit circle, which
    # np.roots' rounded moduli may put just inside it
    with pytest.raises(InvalidParameterError, match="unstable"):
        peaking_biquad(1000.0, 1e16, 12.0, 24000)


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


def _lfilter_cascade(x, bands, sample_rate=24000):
    for fc, q, gain_db in bands:
        x = lfilter(*peaking_biquad(fc, q, gain_db, sample_rate), x)
    return x


_EQ_CENTERS = np.geomspace(defaults.EQ_FC_LO_HZ, defaults.EQ_FC_HI_HZ, defaults.EQ_BANDS)


def _drawn_bands(seed):
    rng = np.random.default_rng(seed)
    return [(fc, rng.uniform(defaults.EQ_Q_LO, defaults.EQ_Q_HI),
             rng.uniform(defaults.EQ_GAIN_LO_DB, defaults.EQ_GAIN_HI_DB)) for fc in _EQ_CENTERS]


# the two extremes of the defaults table's ranges at every centre, and seeded draws
_EQ_BAND_SETS = {
    "boost": [(fc, 5.0, 12.0) for fc in _EQ_CENTERS],
    "cut": [(fc, 5.0, -12.0) for fc in _EQ_CENTERS],
    **{f"drawn-{seed}": _drawn_bands(seed) for seed in range(20)},
}


@pytest.mark.parametrize("name", sorted(_EQ_BAND_SETS))
def test_eq_matches_lfilter_cascade(name):
    x = np.random.default_rng(2).normal(scale=0.1, size=4 * 24000)
    got = parametric_eq(AudioClip(x, 24000), _EQ_BAND_SETS[name]).samples
    want = _lfilter_cascade(x, _EQ_BAND_SETS[name])
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 4 * 24000])
def test_eq_keeps_the_clip_length(n):
    # around one 128-sample block, and an empty clip, which comes back empty
    x = np.random.default_rng(n).normal(scale=0.1, size=n)
    out = parametric_eq(AudioClip(x, 24000), _EQ_BAND_SETS["boost"])
    assert out.samples.shape == (n,) and out.sample_rate == 24000
    assert not np.shares_memory(out.samples, x)
    want = _lfilter_cascade(x, _EQ_BAND_SETS["boost"])
    assert np.max(np.abs(out.samples - want), initial=0) <= 1e-11 * np.max(np.abs(want), initial=0)


_EQ_THREAD_PROBE = """
import hashlib
import numpy as np
from svcforge import defaults
from svcforge.audio import AudioClip
from svcforge.perturb import parametric_eq
rng = np.random.default_rng(0)
centers = np.geomspace(defaults.EQ_FC_LO_HZ, defaults.EQ_FC_HI_HZ, defaults.EQ_BANDS)
h = hashlib.sha256()
for n in (14400, 96000, 240001):
    bands = [(fc, rng.uniform(defaults.EQ_Q_LO, defaults.EQ_Q_HI),
              rng.uniform(defaults.EQ_GAIN_LO_DB, defaults.EQ_GAIN_HI_DB)) for fc in centers]
    clip = AudioClip(rng.normal(scale=0.1, size=n), 24000)
    h.update(parametric_eq(clip, bands).samples.tobytes())
print(h.hexdigest())
"""


def test_eq_bytes_do_not_depend_on_the_blas_thread_count():
    # the block products are large enough for OpenBLAS to split them over its threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for threads in ("1", "4"):
        result = subprocess.run(
            [sys.executable, "-c", _EQ_THREAD_PROBE], capture_output=True, text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


# -- formant shift -----------------------------------------------------------

def test_formant_shift_identity():
    clip = vowel(duration_sec=0.8)
    [out] = formant_shift(clip, [1.0])
    assert out.samples.size == clip.samples.size
    assert _rel_rms_db(out.samples, clip.samples) < -40.0


def test_formant_shift_preserves_f0():
    clip = vowel(duration_sec=1.0)
    [out] = formant_shift(clip, [1.2])
    assert abs(_median_f0(out) / _median_f0(clip) - 1) < 0.03


def test_formant_shift_moves_envelope_peak():
    clip = vowel(duration_sec=1.0)
    [out] = formant_shift(clip, [1.2])
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
        formant_shift(vowel(duration_sec=0.2), [2.5])
    with pytest.raises(InvalidParameterError, match="clip at 16000 Hz"):
        formant_shift(AudioClip(np.zeros(8000), 16000), [1.1])


def test_formant_shift_many_ratios_match_one_at_a_time():
    clip = vowel(duration_sec=0.4)
    rhos = [0.7, 1.0, 1.9]
    outs = formant_shift(clip, rhos)
    assert len(outs) == len(rhos)
    for rho, out in zip(rhos, outs):
        assert np.array_equal(out.samples, formant_shift(clip, [rho])[0].samples)
    assert formant_shift(clip, []) == []


@pytest.mark.parametrize("bad", [0.49, 2.01, float("nan")])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_formant_shift_checks_every_ratio_first(monkeypatch, bad, where):
    rhos = [1.1, 0.8, 1.3]
    rhos[where] = bad

    def no_spectrum(*args):
        raise AssertionError("analysis ran before every ratio was checked")

    monkeypatch.setattr(perturb, "spectrum", no_spectrum)
    with pytest.raises(InvalidParameterError):
        formant_shift(vowel(duration_sec=0.2), rhos)


def _reference_formant_shift(clip: AudioClip, rho: float) -> AudioClip:
    """The formant shifter as it was before it applied one envelope gain to
    the complex spectrum (polar split into magnitude, phase and cepstral
    residual), kept verbatim as the reference."""
    RATIO_LO, RATIO_HI = perturb.RATIO_LO, perturb.RATIO_HI
    _FORMANT_FRAMES = perturb._FORMANT_FRAMES
    if not RATIO_LO <= rho <= RATIO_HI:
        raise InvalidParameterError(f"rho must be in [0.5, 2], got {rho}")
    if clip.sample_rate != defaults.SAMPLE_RATE:
        raise InvalidParameterError(
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


def _whole_clip_formant_shift(clip: AudioClip, rhos: list) -> list:
    """The formant shifter as it was before it ran one block of frames at a
    time (one spectrogram of the whole padded clip, one `istft` per ratio),
    kept verbatim as the reference."""
    RATIO_LO, RATIO_HI = perturb.RATIO_LO, perturb.RATIO_HI
    _FORMANT_FRAMES = perturb._FORMANT_FRAMES
    for rho in rhos:
        if not RATIO_LO <= rho <= RATIO_HI:
            raise InvalidParameterError(f"rho must be in [0.5, 2], got {rho}")
    n = clip.samples.size
    n_fft = _FORMANT_FRAMES.fft_size
    x = np.concatenate([np.zeros(n_fft), clip.samples, np.zeros(2 * n_fft)])
    spec = stft(AudioClip(x, clip.sample_rate), _FORMANT_FRAMES)

    qcut = int(round(defaults.FORMANT_QUEFRENCY_CUTOFF_SEC * clip.sample_rate))
    cep = np.fft.irfft(np.log(np.maximum(np.abs(spec), 1e-10)), n=n_fft, axis=1)
    cep[:, qcut + 1:n_fft - qcut] = 0.0
    env = np.fft.rfft(cep, axis=1).real

    n_bins = env.shape[1]
    out = []
    for rho in rhos:
        query = np.arange(n_bins) / rho
        i0 = np.clip(np.floor(query).astype(int), 0, n_bins - 1)
        i1 = np.minimum(i0 + 1, n_bins - 1)
        frac = np.clip(query - i0, 0.0, 1.0)
        env_warped = env[:, i0] * (1.0 - frac) + env[:, i1] * frac
        y = istft(spec * np.exp(env_warped - env), _FORMANT_FRAMES, len(x))
        out.append(AudioClip(y[n_fft:n_fft + n], clip.sample_rate))
    return out


def _formant_clip(n_frames: int, seed: int) -> AudioClip:
    """Noise whose zero-padded formant analysis has exactly `n_frames` frames."""
    cfg = perturb._FORMANT_FRAMES
    n = (n_frames - 1) * cfg.hop + cfg.win_length - 3 * cfg.fft_size
    return AudioClip(np.random.default_rng(seed).normal(scale=0.1, size=n), 24000)


_FB = perturb._FORMANT_BLOCK


@pytest.mark.parametrize("n_frames", [_FB - 1, _FB, _FB + 1, BLOCK_FRAMES - 1, BLOCK_FRAMES,
                                      BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 37])
def test_formant_shift_blocks_equal_the_whole_clip_shifter(n_frames):
    clip = _formant_clip(n_frames, n_frames)
    rhos = [0.5, 1.0, 1.39, 2.0]
    for got, want in zip(formant_shift(clip, rhos), _whole_clip_formant_shift(clip, rhos),
                         strict=True):
        assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("n_frames", [_FB - 1, _FB, _FB + 1, 2 * _FB + 37, BLOCK_FRAMES + _FB + 5])
def test_formant_shift_map_gives_the_same_bytes(n_frames):
    # a pool's map runs the blocks out of order and at once; the sums are not reordered
    clip = _formant_clip(n_frames, n_frames)
    rhos = [0.5, 1.0, 1.39, 2.0]
    with ThreadPoolExecutor(2) as pool:
        got = formant_shift(clip, rhos, map=pool.map)
        assert formant_shift(clip, [], map=pool.map) == []
    for a, b in zip(got, formant_shift(clip, rhos), strict=True):
        assert np.array_equal(a.samples, b.samples)


def test_formant_shift_memory_is_bounded_by_the_block():
    # 3 canonical blocks and 37 frames (16.7 s). The whole-clip shifter held
    # [T, 513] spectrograms and peaked at 86 MiB; run over blocks of
    # BLOCK_FRAMES frames it read 36 MiB. Over blocks of _FORMANT_BLOCK
    # frames it holds one block's working set, at most twelve
    # [_FORMANT_BLOCK, fft_size] float64 arrays (6 MiB), and four float64
    # arrays of the padded clip's length (the padded clip, two outputs, the
    # squared-window sum) with room for two more (18.5 MiB in all). It read
    # 16 MiB.
    cfg = perturb._FORMANT_FRAMES
    clip = _formant_clip(3 * BLOCK_FRAMES + 37, 5)
    n_padded = clip.samples.size + 3 * cfg.fft_size
    bound = 12 * _FB * cfg.fft_size * 8 + 6 * n_padded * 8
    tracemalloc.start()
    try:
        formant_shift(clip, [0.8, 1.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB >= {bound / 2**20:.1f} MiB"


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
    got = formant_shift(clip, [rho])[0].samples
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


def _check_wsola(n, ratio, sample_rate):
    x = np.random.default_rng(n).standard_normal(n)
    target_len = max(1, int(n * ratio))
    assert np.array_equal(perturb._wsola_stretch(x, target_len, sample_rate),
                          _reference_wsola(x, target_len, sample_rate))


@pytest.mark.parametrize("n", [1, 2, 299, 600, 601, 24000, 96000])
@pytest.mark.parametrize("ratio", [0.5, 0.93, 1.31, 1.7])
def test_wsola_matches_per_frame_reference(n, ratio):
    _check_wsola(n, ratio, 24000)


# At 22,050 Hz the 551-sample segment has hop 275, so its last overlap-add
# slab is 1 sample wide; at 44,100 Hz the segment is 1,102 samples, hop 551.
@pytest.mark.parametrize("n", [1, 275, 551, 552, 22050, 88200])
@pytest.mark.parametrize("ratio", [0.5, 1.31, 1.7])
@pytest.mark.parametrize("sample_rate", [22050, 44100])
def test_wsola_matches_per_frame_reference_at_other_rates(n, ratio, sample_rate):
    _check_wsola(n, ratio, sample_rate)


def test_pitch_randomize_memory_is_bounded_by_the_wsola_block():
    # 15 s of noise, n samples, at ratio 1.3: the resampled clip and its
    # padded copy (2n / 1.3), the output and its weight sum (2n) and one
    # block of _WSOLA_BLOCK segments, 3.8n in all. Before the segments went
    # in blocks, all of them were held twice over (4n more) and it read 5.7n.
    clip = AudioClip(np.random.default_rng(0).normal(scale=0.1, size=15 * 24000), 24000)
    tracemalloc.start()
    try:
        pitch_randomize(clip, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * clip.samples.nbytes, f"peak {peak / clip.samples.nbytes:.2f}n"


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


# sha256 of both outputs' float64 samples, computed when each chain ran its
# own formant analysis and overlap-add looped over frames, and pinned again
# when the resampler's filter took a unit DC gain, when the resampler
# became numpy block products and when the EQ became numpy block products:
# any moved bit fails
_PAIR_DIGESTS = {
    ("vowel", 0): "a71d542992b40dfe39ced776d0f4e99797b899195f06a3e912d726ff78ac1498",
    ("vowel", 7): "2279709cf40b4c02a64a914ee2b5fcc3365b4eff3a0ece95a2350a25e326fee8",
    ("sawtooth", 0): "b7564d838532d7f0b6969bd8a46a52f461d81aeb50540b3d79f2a6c025363f46",
    ("sawtooth", 7): "803384f7c2a90e67c95eb1bbc2cabe9a789a7681ca3886d4818144ba3b6e9b2b",
}


_PAIR_CLIPS = {"vowel": lambda: vowel(150.0, 0.6), "sawtooth": lambda: sawtooth(220.0, 0.6)}


@pytest.mark.parametrize("name,seed", sorted(_PAIR_DIGESTS))
def test_pair_golden_digest(name, seed):
    h = hashlib.sha256()
    for out in random_perturb_pair(_PAIR_CLIPS[name](), PerturbConfig(seed=seed)):
        h.update(out.samples.astype("<f8").tobytes())
    assert h.hexdigest() == _PAIR_DIGESTS[name, seed]


def _serial_pair(clip, seed):
    """The pair's documented draws, then one `formant_shift` and each chain
    in turn, on one thread."""
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(2):
        rho = rng.uniform(defaults.FORMANT_RATIO_LO, defaults.FORMANT_RATIO_HI)
        semis = rng.uniform(defaults.PITCH_SEMITONE_LO, defaults.PITCH_SEMITONE_HI)
        bands = [(fc, rng.uniform(defaults.EQ_Q_LO, defaults.EQ_Q_HI),
                  rng.uniform(defaults.EQ_GAIN_LO_DB, defaults.EQ_GAIN_HI_DB))
                 for fc in _EQ_CENTERS]
        chains.append((rho, semis, bands))
    shifted = formant_shift(clip, [rho for rho, _, _ in chains])
    return [parametric_eq(pitch_randomize(out, semitones_to_ratio(semis)), bands)
            for out, (_, semis, bands) in zip(shifted, chains)]


@pytest.mark.parametrize("seconds", [0.05, 0.6, 4.0])
@pytest.mark.parametrize("seed", [0, 7, 31])
def test_pair_equals_the_serial_composition(seconds, seed):
    clip = AudioClip(np.random.default_rng(seed).normal(scale=0.1, size=int(seconds * 24000)),
                     24000)
    for got, want in zip(random_perturb_pair(clip, PerturbConfig(seed=seed)),
                         _serial_pair(clip, seed), strict=True):
        assert np.array_equal(got.samples, want.samples)


def test_pair_reads_its_ranges_from_the_defaults_table(monkeypatch):
    # ranges that hold only each stage's neutral value make both chains identity
    for name, value in [("FORMANT_RATIO_LO", 1.0), ("FORMANT_RATIO_HI", 1.0),
                        ("PITCH_SEMITONE_LO", 0.0), ("PITCH_SEMITONE_HI", 0.0),
                        ("EQ_GAIN_LO_DB", 0.0), ("EQ_GAIN_HI_DB", 0.0)]:
        monkeypatch.setattr(defaults, name, value)
    clip = vowel(duration_sec=0.4)
    a, b = random_perturb_pair(clip, PerturbConfig(seed=5))
    assert _rel_rms_db(a.samples, clip.samples) < -40.0
    assert _rel_rms_db(b.samples, clip.samples) < -40.0


def test_pair_preserves_duration():
    clip = vowel(duration_sec=0.5)
    a, b = random_perturb_pair(clip, PerturbConfig(seed=2))
    n = clip.samples.size
    assert abs(a.samples.size - n) <= 0.01 * n
    assert abs(b.samples.size - n) <= 0.01 * n

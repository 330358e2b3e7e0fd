import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge import defaults
from svcforge.audio import AudioClip, resample
from svcforge.errors import InvalidParameterError, RateMismatchError, ShapeMismatchError
from svcforge.features import CANONICAL_FRAME_CONFIG as CFG, frame_signal
from svcforge.pitch import (
    _BLOCK_FRAMES,
    F0Track,
    _median_smooth_runs,
    _normalized_autocorr,
    _PEAK_MARGIN,
    cents_between,
    estimate_f0,
    semitones_to_ratio,
)
from synth import sawtooth, sine, vowel


def test_silence_is_unvoiced():
    track = estimate_f0(AudioClip(np.zeros(24000), 24000), CFG)
    assert not track.vuv.any()
    assert np.all(track.f0_hz == 0)
    assert np.all(np.isnan(track.log_f0))


def test_sine_440():
    track = estimate_f0(sine(440, 1.0), CFG)
    interior = track.vuv[2:-2]
    assert interior.mean() >= 0.95
    median = np.median(track.f0_hz[track.vuv])
    assert abs(median / 440.0 - 1) < 0.01


def test_sawtooth_220_no_octave_errors():
    track = estimate_f0(sawtooth(220, 1.0), CFG)
    voiced = track.f0_hz[track.vuv]
    assert abs(np.median(voiced) / 220.0 - 1) < 0.01
    octave_ok = np.abs(voiced / 220.0 - 1) < 0.1
    assert octave_ok.mean() >= 0.90


def test_rate_mismatch():
    with pytest.raises(RateMismatchError):
        estimate_f0(sine(440, 0.5, sample_rate=16000), CFG)


def test_bad_range():
    with pytest.raises(InvalidParameterError):
        estimate_f0(sine(440, 0.5), CFG, f_floor=10.0)  # lag exceeds window
    with pytest.raises(InvalidParameterError):
        estimate_f0(sine(440, 0.5), CFG, f_floor=500.0, f_ceil=100.0)


def test_voiced_f0_within_range():
    track = estimate_f0(sawtooth(220, 0.6), CFG, f_floor=80.0, f_ceil=900.0)
    voiced = track.f0_hz[track.vuv]
    assert np.all(voiced >= 80.0) and np.all(voiced <= 900.0)


def test_pitch_shift_consistency():
    # resample-based pitch shift scales reported f0 by the commanded ratio
    base = sine(300, 1.0)
    ratio = 1.25
    inner = resample(base, int(round(24000 / ratio)))
    shifted = AudioClip(inner.samples, 24000)
    t_base = estimate_f0(base, CFG)
    t_shift = estimate_f0(shifted, CFG)
    m_base = np.median(t_base.f0_hz[t_base.vuv])
    m_shift = np.median(t_shift.f0_hz[t_shift.vuv])
    assert abs(m_shift / (ratio * m_base) - 1) < 0.02


def test_track_invariants_enforced():
    track = F0Track(np.array([100.0, 0.0, 250.0]))
    assert np.array_equal(track.vuv, [True, False, True])
    assert track.log_f0[0] == np.log(100.0) and track.log_f0[2] == np.log(250.0)
    assert np.isnan(track.log_f0[1])
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(InvalidParameterError):
            F0Track(np.array([100.0, bad]))
    with pytest.raises(ShapeMismatchError):
        F0Track(np.array([[100.0]]))
    # serialized tracks: no non-finite entry, no voiced frame at F0 <= 0
    for row in ([np.nan, 1.0], [-220.0, 1.0], [0.0, 1.0], [np.nan, 0.0], [220.0, np.inf]):
        with pytest.raises(InvalidParameterError):
            F0Track.from_array(np.array([[220.0, 1.0], row]))


def test_track_array_roundtrip():
    track = estimate_f0(sine(440, 0.5), CFG)
    back = F0Track.from_array(track.to_array())
    assert np.array_equal(back.f0_hz, track.f0_hz)
    assert np.array_equal(back.vuv, track.vuv)
    # an unvoiced frame reads as F0 0 whatever its stored F0
    back = F0Track.from_array(np.array([[220.0, 1.0], [-5.0, 0.0], [180.0, 0.0]]))
    assert np.array_equal(back.f0_hz, [220.0, 0.0, 0.0])


def test_semitone_ratios():
    assert semitones_to_ratio(0) == 1.0
    assert semitones_to_ratio(12) == 2.0
    assert abs(semitones_to_ratio(6) - 2 ** 0.5) < 1e-12


def test_cents_anchors():
    assert cents_between(440.0, 440.0) == 0.0
    assert abs(cents_between(440.0, 880.0) - 1200.0) < 1e-9
    assert abs(cents_between(440.0, 466.1637615180899) - 100.0) < 1e-6
    with pytest.raises(InvalidParameterError):
        cents_between(0.0, 440.0)
    with pytest.raises(InvalidParameterError):
        cents_between(440.0, -1.0)


@given(st.floats(min_value=-24.0, max_value=24.0))
def test_cents_semitone_roundtrip(semis):
    f = 440.0
    assert abs(cents_between(f, semitones_to_ratio(semis) * f) - 100.0 * semis) < 1e-6


# -- the per-frame tracker the block-wise one replaced, kept as the reference --

def _reference_median_smooth_runs(f0: np.ndarray, vuv: np.ndarray,
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


def _reference_estimate_f0(clip, cfg, f_floor=defaults.F0_FLOOR_HZ,
                           f_ceil=defaults.F0_CEIL_HZ) -> np.ndarray:
    sr = defaults.SAMPLE_RATE
    lag_min = max(2, int(np.ceil(sr / f_ceil)))
    lag_max = int(np.floor(sr / f_floor))

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
    return _reference_median_smooth_runs(f0, vuv)


def _sung_phrases(seed: int, seconds: float) -> AudioClip:
    """Glottal vowels at seeded pitches in 60-1000 Hz, with seeded formants
    and levels, separated by short gaps of silence or breath noise."""
    rng = np.random.default_rng(seed)
    sr = defaults.SAMPLE_RATE
    parts = []
    while sum(p.size for p in parts) < seconds * sr:
        f1, f2 = rng.uniform(300, 900), rng.uniform(1000, 2500)
        note = vowel(rng.uniform(60, 1000), rng.uniform(0.05, 0.8),
                     formants=((f1, 80.0), (f2, 120.0)),
                     amplitude=rng.uniform(0.05, 0.9))
        parts.append(note.samples)
        parts.append(rng.standard_normal(int(rng.uniform(0.0, 0.15) * sr))
                     * rng.choice([0.0, 1e-4, 0.02]))
    x = np.concatenate(parts)[:int(seconds * sr)]
    return AudioClip(x, sr)


def _assert_matches_reference(clip, **range_hz):
    track = estimate_f0(clip, CFG, **range_hz)
    assert np.array_equal(track.f0_hz, _reference_estimate_f0(clip, CFG, **range_hz))
    return track


@pytest.mark.parametrize("seed", range(6))
def test_tracker_matches_per_frame_reference_on_vowels(seed):
    track = _assert_matches_reference(_sung_phrases(seed, 7.0))
    assert 0.2 < track.vuv.mean() < 1.0


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal(3 * defaults.SAMPLE_RATE) * 0.3,
    lambda rng: np.zeros(2 * defaults.SAMPLE_RATE),
    lambda rng: rng.standard_normal(CFG.win_length) * 0.3,
    lambda rng: vowel(220.0, CFG.win_length / defaults.SAMPLE_RATE).samples,
], ids=["noise", "silence", "one-window-noise", "one-window-vowel"])
def test_tracker_matches_per_frame_reference_on_edge_clips(make):
    _assert_matches_reference(AudioClip(make(np.random.default_rng(7)), defaults.SAMPLE_RATE))


def test_tracker_matches_reference_across_a_block_boundary():
    n_frames = 2 * _BLOCK_FRAMES + 37
    n = CFG.win_length + (n_frames - 1) * CFG.hop
    x = _sung_phrases(11, n / defaults.SAMPLE_RATE).samples
    # one sustained note over the first block boundary
    t0 = (_BLOCK_FRAMES - 40) * CFG.hop
    note = vowel(180.0, 80 * CFG.hop / defaults.SAMPLE_RATE).samples
    x = x.copy()
    x[t0:t0 + note.size] = note
    track = _assert_matches_reference(AudioClip(x, defaults.SAMPLE_RATE))
    assert track.f0_hz.size == n_frames and n_frames % _BLOCK_FRAMES
    assert track.vuv[_BLOCK_FRAMES - 20:_BLOCK_FRAMES + 20].all()


@pytest.mark.parametrize("f_floor,f_ceil", [
    (80.0, 900.0), (120.0, 400.0), (300.0, 1000.0), (1000.0, 1100.0), (1050.0, 1100.0),
])
def test_tracker_matches_reference_on_other_ranges(f_floor, f_ceil):
    _assert_matches_reference(_sung_phrases(3, 4.0), f_floor=f_floor, f_ceil=f_ceil)


def test_run_median_matches_reference_on_short_edge_runs():
    rng = np.random.default_rng(5)
    patterns = []
    for length in range(1, 7):
        for gap in range(0, 3):
            run = [True] * length
            patterns += [run, run + [False] * (gap + 1), [False] * (gap + 1) + run,
                         run + [False] * (gap + 1) + run[::-1][:max(1, length - 1)],
                         [False] + run + [False] + run + [False] * gap]
    patterns.append([False] * 4)
    for vuv in patterns:
        vuv = np.array(vuv)
        f0 = np.where(vuv, rng.uniform(50.0, 1100.0, vuv.size), 0.0)
        for width in (1, 2, 3, 4, 5, 7):
            assert np.array_equal(_median_smooth_runs(f0, vuv, width),
                                  _reference_median_smooth_runs(f0, vuv, width))

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.audio import AudioClip, resample
from svcforge.errors import InvalidParameterError, RateMismatchError, ShapeMismatchError
from svcforge.features import CANONICAL_FRAME_CONFIG as CFG
from svcforge.pitch import (
    F0Track,
    cents_between,
    estimate_f0,
    semitones_to_ratio,
)
from svcforge.synth import sawtooth, sine


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

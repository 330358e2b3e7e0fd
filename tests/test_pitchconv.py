import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.errors import (
    DegenerateStatsError,
    InvalidParameterError,
    NoVoicedFramesError,
)
from svcforge.pitch import F0Track, cents_between
from svcforge.pitchconv import (
    ConversionPolicy,
    SpeakerF0Stats,
    compute_f0_stats,
    convert_logf0,
    load_stats,
    quantize_shift_cents,
    save_stats,
)

IDENTITY = ConversionPolicy(scale_sigma=False, quantize_cents=0,
                            cross_domain_offset_semitones=0.0)


def _track(f0_values):
    return F0Track(np.asarray(f0_values, dtype=float))


def test_stats_constant_track():
    stats = compute_f0_stats([_track([220.0] * 10)], "s")
    assert stats.mean_log_f0 == pytest.approx(math.log(220.0), abs=1e-12)
    assert stats.std_log_f0 == 0.0
    assert stats.n_voiced_frames == 10


def test_stats_two_values():
    # oracle: direct arithmetic on {ln 200, ln 300}
    stats = compute_f0_stats([_track([200.0, 0.0, 300.0])], "s")
    assert stats.mean_log_f0 == pytest.approx(
        (math.log(200) + math.log(300)) / 2, abs=1e-12)  # = 5.5010499206...
    assert stats.std_log_f0 == pytest.approx(
        abs(math.log(300) - math.log(200)) / 2, abs=1e-12)  # = 0.2027325540...
    assert stats.n_voiced_frames == 2


def test_stats_all_unvoiced_is_error():
    with pytest.raises(NoVoicedFramesError):
        compute_f0_stats([_track([0.0, 0.0])], "s")


def test_stats_pooled_across_tracks():
    stats = compute_f0_stats([_track([200.0]), _track([300.0])], "s")
    assert stats.n_voiced_frames == 2
    assert stats.mean_log_f0 == pytest.approx((math.log(200) + math.log(300)) / 2)


def test_stats_validation():
    with pytest.raises(InvalidParameterError):
        SpeakerF0Stats("s", math.log(5000.0), 0.1, 10)
    with pytest.raises(InvalidParameterError):
        SpeakerF0Stats("s", math.log(220.0), -0.1, 10)


def test_quantize_cases():
    assert quantize_shift_cents(600.0) == 600.0
    assert quantize_shift_cents(349.9) == 300.0
    assert quantize_shift_cents(250.0) == 300.0  # tie away from zero
    assert quantize_shift_cents(-250.0) == -300.0
    assert quantize_shift_cents(349.9, granularity=0) == 349.9
    with pytest.raises(InvalidParameterError):
        quantize_shift_cents(100.0, granularity=50)


def test_identity_conversion():
    track = _track([200.0, 0.0, 330.0, 415.0])
    stats = compute_f0_stats([track], "s")
    out = convert_logf0(track, stats, stats, IDENTITY)
    assert np.allclose(out.f0_hz, track.f0_hz, rtol=1e-12)
    assert np.array_equal(out.vuv, track.vuv)


def test_cross_domain_offset_six_semitones():
    track = _track([220.0])
    stats = compute_f0_stats([_track([220.0, 247.0])], "s")
    policy = ConversionPolicy(scale_sigma=False, quantize_cents=0,
                              cross_domain_offset_semitones=6.0)
    out = convert_logf0(track, stats, stats, policy)
    assert out.f0_hz[0] == pytest.approx(220.0 * 2 ** 0.5, abs=1e-9)


def test_sigma_scaling_reproduces_target_stats():
    track = _track([200.0, 300.0])
    stats_x = compute_f0_stats([track], "x")
    stats_y = SpeakerF0Stats("y", math.log(440.0), stats_x.std_log_f0, 2)
    out = convert_logf0(track, stats_x, stats_y,
                        ConversionPolicy(scale_sigma=True, quantize_cents=0))
    got = compute_f0_stats([out], "out")
    assert got.mean_log_f0 == pytest.approx(math.log(440.0), abs=1e-12)
    assert got.std_log_f0 == pytest.approx(stats_x.std_log_f0, abs=1e-12)
    # geometric mean is exactly 440
    assert np.exp(np.mean(np.log(out.f0_hz[out.vuv]))) == pytest.approx(440.0)


def test_sigma_zero_is_error():
    track = _track([220.0, 220.0])
    stats_x = compute_f0_stats([track], "x")  # std == 0
    stats_y = SpeakerF0Stats("y", math.log(440.0), 0.3, 5)
    with pytest.raises(DegenerateStatsError):
        convert_logf0(track, stats_x, stats_y,
                      ConversionPolicy(scale_sigma=True))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f0_hz, std_y", [
    ([220.0, 0.0, 221.0], 100.0),   # exp underflows to 0 Hz
    ([800.0, 0.0, 801.0], 100.0),   # exp overflows to inf
    ([220.0, 0.0, 221.0], math.inf),
])
def test_converted_f0_must_stay_finite_and_positive(f0_hz, std_y):
    stats_x = SpeakerF0Stats("x", 5.99, 0.001, 10)
    stats_y = SpeakerF0Stats("y", 5.4, std_y, 10)
    with pytest.raises(InvalidParameterError):
        convert_logf0(_track(f0_hz), stats_x, stats_y,
                      ConversionPolicy(scale_sigma=True, quantize_cents=0))


def test_quantized_shift_applied_per_frame():
    # mean shift equivalent to 349.9 cents quantizes to exactly 300
    track = _track([150.0, 0.0, 220.0, 440.0])
    mean_x = math.log(220.0)
    stats_x = SpeakerF0Stats("x", mean_x, 0.2, 10)
    stats_y = SpeakerF0Stats("y", mean_x + 349.9 * math.log(2) / 1200.0, 0.2, 10)
    policy = ConversionPolicy(scale_sigma=False, quantize_cents=100)
    out = convert_logf0(track, stats_x, stats_y, policy)
    shift = cents_between(track.f0_hz[track.vuv], out.f0_hz[out.vuv])
    assert np.allclose(shift, 300.0, atol=1e-9)


def test_quantization_invariant_constant_multiple_of_100():
    rng = np.random.default_rng(3)
    f0 = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(100, 800, 40))
    track = _track(f0)
    stats_x = SpeakerF0Stats("x", math.log(200.0), 0.25, 10)
    stats_y = SpeakerF0Stats("y", math.log(388.0), 0.31, 10)
    out = convert_logf0(track, stats_x, stats_y,
                        ConversionPolicy(scale_sigma=False, quantize_cents=100))
    assert np.array_equal(out.vuv, track.vuv)
    shift = cents_between(track.f0_hz[track.vuv], out.f0_hz[out.vuv])
    assert np.ptp(shift) < 1e-9  # constant across frames
    assert abs(shift[0] - round(shift[0] / 100.0) * 100.0) < 1e-9


@given(st.floats(min_value=80.0, max_value=800.0),
       st.floats(min_value=81.0, max_value=900.0))
def test_monotone_in_input_frequency(f_lo, f_hi):
    lo, hi = sorted((f_lo, f_hi))
    if hi - lo < 1.0:
        hi = lo + 1.0
    track = _track([lo, hi])
    stats_x = SpeakerF0Stats("x", math.log(220.0), 0.2, 10)
    stats_y = SpeakerF0Stats("y", math.log(330.0), 0.4, 10)
    out = convert_logf0(track, stats_x, stats_y,
                        ConversionPolicy(scale_sigma=True, quantize_cents=0))
    assert out.f0_hz[1] > out.f0_hz[0]


def test_stats_json_roundtrip(tmp_path):
    stats = SpeakerF0Stats("singer-a", math.log(261.0), 0.21, 4242)
    p = tmp_path / "stats.json"
    save_stats(stats, p)
    back = load_stats(p)
    assert back == stats

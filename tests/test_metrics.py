import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.errors import InvalidParameterError, ShapeMismatchError, ZeroNormError
from svcforge.metrics import cosine_similarity, f0_metrics
from svcforge.pitch import F0Track


def _track(values):
    return F0Track(np.asarray(values, dtype=float))


def test_cosine_anchors():
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, b) == pytest.approx(1 / np.sqrt(2))
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_errors():
    for a, b in ((np.ones(3), np.ones(4)), (np.ones((2, 2)), np.ones((2, 2))),
                 (np.ones((2, 2, 2)), np.ones((2, 2, 2))), (np.float64(1.0), np.float64(1.0))):
        with pytest.raises(ShapeMismatchError):
            cosine_similarity(a, b)
    with pytest.raises(ZeroNormError):
        cosine_similarity(np.zeros(3), np.ones(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.array([1.0, bad]), np.ones(2))
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.ones(2), np.array([bad, 1.0]))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
       st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_properties(xs, ys, scale):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    s = cosine_similarity(a, b)
    assert -1.0 <= s <= 1.0
    assert cosine_similarity(b, a) == pytest.approx(s, abs=1e-12)
    assert cosine_similarity(scale * a, b) == pytest.approx(s, abs=1e-9)


def test_f0_metrics_identical():
    track = _track([220.0, 0.0, 440.0])
    result = f0_metrics(track, track)
    assert result.rmse_cents == 0.0
    assert result.vuv_error_rate == 0.0


def test_f0_metrics_constant_shift():
    a = _track([220.0, 0.0, 440.0, 110.0])
    shifted = a.f0_hz * np.where(a.vuv, 2 ** 0.5, 1.0)
    b = _track(np.where(a.vuv, shifted, 0.0))
    result = f0_metrics(a, b)
    assert result.rmse_cents == pytest.approx(600.0, abs=1e-9)
    assert result.vuv_error_rate == 0.0


def test_f0_metrics_flipped_vuv():
    a = _track([220.0, 0.0])
    b = _track([0.0, 220.0])
    result = f0_metrics(a, b)
    assert result.rmse_cents is None
    assert result.vuv_error_rate == 1.0


def test_f0_metrics_frame_count_mismatch():
    with pytest.raises(ShapeMismatchError):
        f0_metrics(_track([220.0]), _track([220.0, 220.0]))

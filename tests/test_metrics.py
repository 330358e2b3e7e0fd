import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svcforge.errors import InvalidParameterError
from svcforge.metrics import cosine_similarity, f0_metrics
from svcforge.pitch import F0Track


def _track(values):
    return F0Track(np.asarray(values, dtype=float))


def _cos(a, b):
    """Cosine of two vectors, as the 1 x 1 matrix of their rows."""
    sims = cosine_similarity(np.atleast_2d(a), np.atleast_2d(b))
    assert sims.shape == (1, 1)
    return sims[0, 0]


def test_cosine_anchors():
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    assert _cos(a, a) == pytest.approx(1.0)
    assert _cos(a, b) == pytest.approx(1 / np.sqrt(2))
    assert _cos(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_errors():
    for a, b in ((np.ones((1, 3)), np.ones((1, 4))), (np.ones(2), np.ones((2, 2))),
                 (np.ones((2, 2, 2)), np.ones((2, 2, 2))), (np.float64(1.0), np.float64(1.0))):
        with pytest.raises(InvalidParameterError, match=r"needs \[N, d\] and \[M, d\] rows"):
            cosine_similarity(a, b)
    with pytest.raises(InvalidParameterError, match="at least one row"):
        cosine_similarity(np.ones((0, 3)), np.ones((2, 3)))
    with pytest.raises(InvalidParameterError, match="zero-norm"):
        cosine_similarity(np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(InvalidParameterError, match="zero-norm"):
        cosine_similarity(np.ones((1, 3)), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.array([[1.0, bad]]), np.ones((1, 2)))
        with pytest.raises(InvalidParameterError):
            cosine_similarity(np.ones((1, 2)), np.array([[bad, 1.0]]))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
       st.floats(min_value=1e-3, max_value=1e3))
@example(xs=[2.264206495849417e-158, 0.0], ys=[1.0, 0.0], scale=0.25)  # a norm that underflowed
def test_cosine_properties(xs, ys, scale):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    s = _cos(a, b)
    assert _cos(b, a) == pytest.approx(s, abs=1e-12)
    assert _cos(scale * a, b) == pytest.approx(s, abs=1e-9)


@pytest.mark.parametrize("size", [1e-200, 5.66e-159, 1e-320, 1e200, 1e307])
def test_cosine_of_tiny_and_huge_rows(size):
    # the squares of such entries under- or overflow float64, so their norms do too
    assert _cos([size, 0.0], [1.0, 0.0]) == 1.0
    assert _cos([size, size], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert _cos([size, -size], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert _cos([0.0, size], [size, 0.0]) == 0.0


def test_cosine_matrix_is_every_row_pair():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    sims = cosine_similarity(a, b)
    assert sims.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert sims[i, j] == pytest.approx(want, abs=1e-15)


def test_f0_metrics_identical():
    track = _track([220.0, 0.0, 440.0])
    result = f0_metrics(track, track)
    assert set(result) == {"rmse_cents", "vuv_error_rate"}
    assert result["rmse_cents"] == 0.0
    assert result["vuv_error_rate"] == 0.0


def test_f0_metrics_constant_shift():
    a = _track([220.0, 0.0, 440.0, 110.0])
    shifted = a.f0_hz * np.where(a.vuv, 2 ** 0.5, 1.0)
    b = _track(np.where(a.vuv, shifted, 0.0))
    result = f0_metrics(a, b)
    assert result["rmse_cents"] == pytest.approx(600.0, abs=1e-9)
    assert result["vuv_error_rate"] == 0.0


def test_f0_metrics_flipped_vuv():
    a = _track([220.0, 0.0])
    b = _track([0.0, 220.0])
    result = f0_metrics(a, b)
    assert result["rmse_cents"] is None
    assert result["vuv_error_rate"] == 1.0


def test_f0_metrics_frame_count_mismatch():
    with pytest.raises(InvalidParameterError, match="equal frame counts"):
        f0_metrics(_track([220.0]), _track([220.0, 220.0]))

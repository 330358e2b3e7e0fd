import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.contrastive import FeaturePairBatch, _logsumexp, contrastive_loss, ramp_weight
from svcforge.errors import InvalidParameterError


def _unit_rows(n, d, seed):
    rows = np.random.default_rng(seed).normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_single_aligned_pair_is_exactly_zero():
    z = np.array([[0.3, -0.4, 1.2]])
    assert contrastive_loss(FeaturePairBatch(z, z.copy())) == 0.0


def test_two_pair_closed_form():
    # positives identical, negatives orthogonal: per row
    # -log(e^10 / (e^10 + e^0)) = log(1 + e^-10)
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = contrastive_loss(FeaturePairBatch(z, z.copy()))
    assert loss == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-9)


def test_misaligned_pairs_never_beat_aligned():
    z = _unit_rows(4, 6, seed=11)
    zp = _unit_rows(4, 6, seed=12) * 0.05 + z  # noisy positives
    aligned = contrastive_loss(FeaturePairBatch(z, zp))
    for perm in itertools.permutations(range(4)):
        permuted = contrastive_loss(FeaturePairBatch(z, zp[list(perm)]))
        assert permuted >= aligned - 1e-12


def test_loss_nonnegative():
    for seed in range(5):
        z = _unit_rows(6, 4, seed=seed)
        zp = _unit_rows(6, 4, seed=seed + 100)
        assert contrastive_loss(FeaturePairBatch(z, zp)) >= 0.0


def test_rotation_invariance():
    z = _unit_rows(5, 5, seed=3)
    zp = _unit_rows(5, 5, seed=4)
    base = contrastive_loss(FeaturePairBatch(z, zp))
    rot, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(5, 5)))
    rotated = contrastive_loss(FeaturePairBatch(z @ rot, zp @ rot))
    assert rotated == pytest.approx(base, abs=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_row_scale_invariance(c):
    z = _unit_rows(4, 3, seed=21)
    zp = _unit_rows(4, 3, seed=22)
    base = contrastive_loss(FeaturePairBatch(z, zp))
    scaled_z = z.copy()
    scaled_z[2] *= c
    assert contrastive_loss(FeaturePairBatch(scaled_z, zp)) == pytest.approx(
        base, abs=1e-9)


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_tiny_and_huge_rows_keep_the_loss(size):
    # rows whose squared entries under- or overflow float64
    z = _unit_rows(4, 3, seed=21)
    zp = _unit_rows(4, 3, seed=22)
    base = contrastive_loss(FeaturePairBatch(z, zp))
    assert contrastive_loss(FeaturePairBatch(z * size, zp * size)) == pytest.approx(
        base, abs=1e-9)


def test_logsumexp_port_is_bit_equal_to_scipy():
    """600 seeded 32x32 matrices on the scale of cos / tau, both axes; every
    third has each row's maximum copied into a second column, the ties that
    a plain max-shift gets wrong in the last bits."""
    from scipy.special import logsumexp

    rng = np.random.default_rng(2023)
    for i in range(600):
        a = rng.uniform(-10.0, 10.0, size=(32, 32))
        if i % 3 == 0:
            rows = np.arange(32)
            a[rows, (a.argmax(axis=1) + rng.integers(1, 32, size=32)) % 32] = a.max(axis=1)
        for axis in (0, 1):
            assert np.array_equal(_logsumexp(a, axis), logsumexp(a, axis=axis))


def test_zero_norm_row_rejected():
    z = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidParameterError, match="zero-norm"):
        contrastive_loss(FeaturePairBatch(z, z.copy()))


def test_batch_validation():
    with pytest.raises(InvalidParameterError, match="equal-shape"):
        FeaturePairBatch(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(InvalidParameterError):
        FeaturePairBatch(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(InvalidParameterError, match="finite"):
        FeaturePairBatch(np.array([[1.0, 0.0], [np.nan, 1.0]]), np.eye(2))


def test_batch_survives_svcf_interchange(tmp_path):
    from svcforge.svcf import read_tensor, tensor_bytes

    z = _unit_rows(3, 4, seed=30).astype(np.float32)
    zp = _unit_rows(3, 4, seed=31).astype(np.float32)
    (tmp_path / "z.svcf").write_bytes(tensor_bytes(z, "z.svcf"))
    (tmp_path / "zp.svcf").write_bytes(tensor_bytes(zp, "zp.svcf"))
    direct = contrastive_loss(FeaturePairBatch(z, zp))
    via_files = contrastive_loss(FeaturePairBatch(
        read_tensor(tmp_path / "z.svcf"), read_tensor(tmp_path / "zp.svcf")))
    assert via_files == direct


def test_ramp_anchors():
    assert ramp_weight(0) == 0.0
    assert ramp_weight(100_000) == 1.0
    assert ramp_weight(200_000) == 1.0
    assert ramp_weight(50_000) == pytest.approx(0.5)
    with pytest.raises(InvalidParameterError):
        ramp_weight(-1)


@given(st.integers(min_value=0, max_value=10 ** 7))
def test_ramp_nondecreasing(n):
    assert ramp_weight(n) <= ramp_weight(n + 1)
    assert 0.0 <= ramp_weight(n) <= 1.0

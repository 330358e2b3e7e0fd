"""Self-contained objective metrics: embedding cosine similarity and
F0/VUV agreement between two tracks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeMismatchError, ZeroNormError
from .pitch import F0Track, cents_between


def cosine_similarity(a, b) -> float:
    """a.b / (|a||b|) of two vectors, clipped into [-1, 1]."""
    va, vb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if va.ndim != 1:
        raise ShapeMismatchError(f"cosine similarity needs vectors, got shape {va.shape}")
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"dims disagree: {va.shape} vs {vb.shape}")
    if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
        raise InvalidParameterError("cosine similarity needs finite input")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise ZeroNormError("cosine similarity undefined for zero-norm input")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class F0CompareResult:
    """RMSE in cents over frames voiced in both tracks (None when no such
    frame exists) and the VUV disagreement rate."""

    rmse_cents: float | None
    vuv_error_rate: float


def f0_metrics(track_a: F0Track, track_b: F0Track) -> F0CompareResult:
    if track_a.f0_hz.shape != track_b.f0_hz.shape:
        raise ShapeMismatchError("tracks must have equal frame counts")
    vuv_error = float(np.mean(track_a.vuv != track_b.vuv)) if track_a.vuv.size else 0.0
    both = track_a.vuv & track_b.vuv
    if not np.any(both):
        return F0CompareResult(rmse_cents=None, vuv_error_rate=vuv_error)
    diff = cents_between(track_a.f0_hz[both], track_b.f0_hz[both])
    return F0CompareResult(
        rmse_cents=float(np.sqrt(np.mean(np.square(diff)))),
        vuv_error_rate=vuv_error,
    )

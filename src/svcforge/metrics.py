"""Self-contained objective metrics: embedding cosine similarity and
F0/VUV agreement between two tracks."""

import numpy as np

from .errors import InvalidParameterError
from .pitch import F0Track, cents_between


def cosine_similarity(a, b) -> np.ndarray:
    """[N, M] cosine similarities between the rows of finite a [N, d] and b [M, d]: each
    row divided by its largest magnitude, so its L2 norm neither under- nor overflows, then
    by that norm; then one matrix product, unclipped. Each side needs a row, none all zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidParameterError(f"cosine similarity needs [N, d] and [M, d] rows, "
                                    f"got {a.shape} and {b.shape}")
    if min(a.shape[0], b.shape[0]) < 1:
        raise InvalidParameterError("cosine similarity needs at least one row on each side")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidParameterError("cosine similarity needs finite input")
    peak_a, peak_b = np.abs(a).max(axis=1, initial=0.0), np.abs(b).max(axis=1, initial=0.0)
    if not (peak_a.all() and peak_b.all()):
        raise InvalidParameterError("cosine similarity undefined for a zero-norm row")
    a, b = a / peak_a[:, None], b / peak_b[:, None]
    a /= np.sqrt(np.add.reduce(a * a, axis=1))[:, None]
    b /= np.sqrt(np.add.reduce(b * b, axis=1))[:, None]
    return a @ b.T


def f0_metrics(track_a: F0Track, track_b: F0Track) -> dict:
    """{"rmse_cents": RMSE in cents over frames voiced in both tracks (None
    when no such frame exists), "vuv_error_rate": VUV disagreement rate}."""
    if track_a.f0_hz.shape != track_b.f0_hz.shape:
        raise InvalidParameterError("tracks must have equal frame counts")
    vuv_error = float(np.mean(track_a.vuv != track_b.vuv)) if track_a.vuv.size else 0.0
    both = track_a.vuv & track_b.vuv
    rmse = float(np.sqrt(np.mean(np.square(
        cents_between(track_a.f0_hz[both], track_b.f0_hz[both]))))) if np.any(both) else None
    return {"rmse_cents": rmse, "vuv_error_rate": vuv_error}

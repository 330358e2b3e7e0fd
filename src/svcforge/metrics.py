"""Self-contained objective metrics: embedding cosine similarity and
F0/VUV agreement between two tracks."""

import numpy as np

from .errors import InvalidParameterError
from .pitch import F0Track, cents_between


def embedding_rows(x) -> np.ndarray:
    """x as float64 rows [N, d] for `cosine_similarity`: finite, at least one row, none
    all zero (InvalidParameterError otherwise)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidParameterError(f"cosine similarity needs [N, d] and [M, d] rows, "
                                    f"got {x.shape}")
    if x.shape[0] < 1:
        raise InvalidParameterError("cosine similarity needs at least one row")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("cosine similarity needs finite input")
    if not np.abs(x).max(axis=1, initial=0.0).all():
        raise InvalidParameterError("cosine similarity undefined for a zero-norm row")
    return x


def cosine_similarity(a, b) -> np.ndarray:
    """[N, M] cosine similarities between the `embedding_rows` a [N, d] and b [M, d]: each
    row divided by its largest magnitude, so its L2 norm neither under- nor overflows, then
    by that norm; then one matrix product, unclipped."""
    a, b = embedding_rows(a), embedding_rows(b)
    if a.shape[1] != b.shape[1]:
        raise InvalidParameterError(f"cosine similarity needs [N, d] and [M, d] rows, "
                                    f"got {a.shape} and {b.shape}")
    a, b = a / np.abs(a).max(axis=1)[:, None], b / np.abs(b).max(axis=1)[:, None]
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

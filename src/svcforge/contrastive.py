"""Perturbation-invariance contrastive objective and its weight ramp.

Symmetric InfoNCE over cosine similarities: row i of each side of a batch
comes from the same underlying frame, every other row is a negative.
"""

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InvalidParameterError
from .metrics import cosine_similarity


@dataclass(frozen=True)
class FeaturePairBatch:
    """Aligned feature matrices [N, d] from two perturbations of one source."""

    z: np.ndarray
    z_prime: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        zp = np.asarray(self.z_prime, dtype=np.float64)
        if z.ndim != 2 or z.shape != zp.shape:
            raise InvalidParameterError("z and z_prime must be equal-shape [N, d]")
        if z.shape[0] < 1:
            raise InvalidParameterError("batch must contain at least one row")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zp))):
            raise InvalidParameterError("batch rows must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "z_prime", zp)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along `axis` for finite `a`, in the form scipy 1.17's
    `scipy.special.logsumexp` takes (and bit-equal to it): with a_max the
    maximum, m the number of entries equal to it and s the sum of
    exp(a - a_max) over the other entries, log1p(s / m) + log(m) + a_max."""
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.add.reduce(at_max, axis=axis, keepdims=True, dtype=a.dtype)
    rest = np.where(at_max, -np.inf, a)
    rest -= a_max
    s = np.add.reduce(np.exp(rest, out=rest), axis=axis, keepdims=True)
    return np.squeeze(np.log1p(s / m) + np.log(m) + a_max, axis=axis)


def contrastive_loss(batch: FeaturePairBatch) -> float:
    """Symmetric InfoNCE on cosine similarities at temperature
    tau = CONTRASTIVE_TAU.

    L = -(1/2N) sum_i [log softmax_j(cos(z_i, z'_j)/tau)_i
                       + log softmax_j(cos(z'_i, z_j)/tau)_i]
    """
    sim = cosine_similarity(batch.z, batch.z_prime)
    sim /= defaults.CONTRASTIVE_TAU
    diag = sim.diagonal()
    forward = _logsumexp(sim, axis=1)
    forward -= diag
    backward = _logsumexp(sim, axis=0)
    backward -= diag
    forward += backward
    return float(np.add.reduce(forward) / forward.size / 2.0)


def ramp_weight(n: int) -> float:
    """Contrastive-loss weight at training step n: min(RAMP_RATE * n, RAMP_CAP)."""
    if n < 0:
        raise InvalidParameterError("step must be >= 0")
    return float(min(defaults.RAMP_RATE * n, defaults.RAMP_CAP))

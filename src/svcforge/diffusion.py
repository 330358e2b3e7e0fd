"""DDPM machinery for mel-frame generation at desk scale.

Covers the full contract surface of the production acoustic model without
its bulk: noise schedules, forward noising, guided ancestral sampling, a
closed-form Gaussian denoiser used as a correctness oracle, and a two-layer
trainable denoiser whose conditional layer norm (CLN) is the one the
CLN-only fine-tuning loop adapts. Everything here runs in float64;
the gradient and moment tests depend on it.

Steps are 1-based: t runs from 1 to T, matching the forward-process
indexing x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import defaults
from .contrastive import FeaturePairBatch, contrastive_loss, ramp_weight
from .errors import (
    InvalidParameterError,
    ManifestFormatError,
    ShapeMismatchError,
    ZeroNormError,
    check_elements,
)
from .svcf import (atomic_write_files, json_bytes, json_field, read_json, read_tensor,
                   tensor_bytes)

_LN_EPS = 1e-5  # layer-norm variance epsilon
TIME_FREQS = 4  # sinusoid pairs in the time embedding


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step beta with the alpha and cumulative-product tables derived from it."""

    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise InvalidParameterError("beta must be a nonempty 1-D array")
        if np.any(beta <= 0) or np.any(beta >= 1):
            raise InvalidParameterError("need 0 < beta[t] < 1")
        alpha = 1.0 - beta
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_bar", np.cumprod(alpha))

    @property
    def num_steps(self) -> int:
        return self.beta.size

    def _check_step(self, t: int) -> int:
        if not 1 <= t <= self.num_steps:
            raise InvalidParameterError(
                f"step {t} outside [1, {self.num_steps}]"
            )
        return int(t)

    def beta_at(self, t: int) -> float:
        return float(self.beta[self._check_step(t) - 1])

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[self._check_step(t) - 1])

    def alpha_bar_at(self, t: int) -> float:
        return float(self.alpha_bar[self._check_step(t) - 1])


def linear_schedule(num_steps: int = defaults.DIFFUSION_STEPS) -> NoiseSchedule:
    """Beta linear in t from BETA_START to BETA_END; alpha_bar by cumulative
    product."""
    if num_steps < 1:
        raise InvalidParameterError("num_steps must be >= 1")
    check_elements(num_steps, "the noise schedule")
    return NoiseSchedule(np.linspace(defaults.BETA_START, defaults.BETA_END, num_steps))


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray,
             sched: NoiseSchedule) -> np.ndarray:
    """Forward noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeMismatchError(f"x0 {x0.shape} vs eps {eps.shape}")
    ab = sched.alpha_bar_at(t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


@dataclass(frozen=True)
class ConditionSet:
    """Frame-level conditioning plus an optional unit-norm speaker embedding.

    linguistic: [T, d_ling]; log_f0_vuv: [T, 2]; loudness: [T].
    """

    linguistic: np.ndarray
    log_f0_vuv: np.ndarray
    loudness: np.ndarray
    speaker_embedding: np.ndarray | None = None
    _summary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ling = np.asarray(self.linguistic, dtype=np.float64)
        lfv = np.asarray(self.log_f0_vuv, dtype=np.float64)
        loud = np.asarray(self.loudness, dtype=np.float64)
        if ling.ndim != 2 or lfv.ndim != 2 or lfv.shape[1] != 2 or loud.ndim != 1:
            raise ShapeMismatchError(
                "want linguistic [T, d], log_f0_vuv [T, 2], loudness [T]"
            )
        if not ling.shape[0] == lfv.shape[0] == loud.shape[0] >= 1:
            raise ShapeMismatchError("condition tracks must share one frame count of at least 1")
        object.__setattr__(self, "linguistic", ling)
        object.__setattr__(self, "log_f0_vuv", lfv)
        object.__setattr__(self, "loudness", loud)
        if self.speaker_embedding is not None:
            emb = np.asarray(self.speaker_embedding, dtype=np.float64)
            if emb.ndim != 1:
                raise ShapeMismatchError("speaker embedding must be 1-D")
            if abs(np.linalg.norm(emb) - 1.0) > 1e-6:
                raise InvalidParameterError("speaker embedding must have unit norm")
            object.__setattr__(self, "speaker_embedding", emb)
        summary = np.concatenate([ling.mean(axis=0), lfv.mean(axis=0), [loud.mean()]])
        summary.flags.writeable = False
        object.__setattr__(self, "_summary", summary)

    def summary(self) -> np.ndarray:
        """Fixed-size condition summary: per-track means, concatenated.
        Computed once, when the set is built, and read-only."""
        return self._summary


def guided_eps(denoiser, x_t: np.ndarray, t: int,
               cond: ConditionSet, w: float = defaults.GUIDANCE_SCALE) -> np.ndarray:
    """Classifier-free guidance: eps_u + w (eps_c - eps_u).

    `denoiser` is any object with `predict_eps`. w == 1 and w == 0 return the
    conditional / unconditional predictions verbatim (bit-equal, no
    arithmetic detour).
    """
    if w == 1.0:
        return denoiser.predict_eps(x_t, t, cond, unconditional=False)
    if w == 0.0:
        return denoiser.predict_eps(x_t, t, cond, unconditional=True)
    eps_c = denoiser.predict_eps(x_t, t, cond, unconditional=False)
    eps_u = denoiser.predict_eps(x_t, t, cond, unconditional=True)
    return eps_u + w * (eps_c - eps_u)


def reverse_step(x_t: np.ndarray, t: int, eps_hat: np.ndarray,
                 sched: NoiseSchedule, z: np.ndarray) -> np.ndarray:
    """One ancestral step:
    x_{t-1} = (x_t - beta_t/sqrt(1-abar_t) eps_hat)/sqrt(alpha_t) + sqrt(beta_t) z.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x_t.shape != eps_hat.shape or x_t.shape != z.shape:
        raise ShapeMismatchError(
            f"x_t {x_t.shape}, eps_hat {eps_hat.shape}, z {z.shape} must agree"
        )
    if t == 1 and np.any(z != 0):
        raise InvalidParameterError("z must be the zero vector at t == 1")
    beta = sched.beta_at(t)
    mean = (x_t - beta / math.sqrt(1.0 - sched.alpha_bar_at(t)) * eps_hat) \
        / math.sqrt(sched.alpha_at(t))
    return mean + math.sqrt(beta) * z


def sample(denoiser, sched: NoiseSchedule, cond: ConditionSet,
           w: float = defaults.GUIDANCE_SCALE, dim: int | tuple = 8,
           seed: int = 0) -> np.ndarray:
    """Full reverse chain from seeded x_T ~ N(0, I) down to x_0.

    `dim` may be an int (one vector) or a shape tuple such as (n, d) to draw
    n independent samples in one pass; every operation in the chain is
    elementwise or scalar-weighted, so the rows do not interact. A chain
    that overflows to a non-finite value is an InvalidParameterError.
    """
    shape = (dim,) if isinstance(dim, int) else tuple(dim)
    if not math.isfinite(w):
        raise InvalidParameterError(f"guidance scale must be finite, got {w}")
    if min(shape, default=1) < 1:
        raise InvalidParameterError(f"every sample dimension must be >= 1, got {shape}")
    check_elements(math.prod(shape), "the sample")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(sched.num_steps, 0, -1):
            eps_hat = guided_eps(denoiser, x, t, cond, w)
            z = rng.standard_normal(shape) if t > 1 else np.zeros(shape)
            x = reverse_step(x, t, eps_hat, sched, z)
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("the reverse chain left the finite range")
    return x


class AnalyticGaussianDenoiser:
    """Closed-form optimal denoiser for x0 ~ N(mu0, sigma0^2 I).

    Under the forward process, (x0, x_t) are jointly Gaussian, so the
    conditional expectation of x0 given x_t is linear:

        E[x_t] = sqrt(abar) mu0,  Var(x_t) = abar sigma0^2 + 1 - abar,
        Cov(x0, x_t) = sqrt(abar) sigma0^2,

        x0_hat = mu0 + Cov/Var (x_t - E[x_t])
               = (sigma0^2 sqrt(abar) x_t + (1 - abar) mu0)
                 / (abar sigma0^2 + 1 - abar)

    and predict_eps returns (x_t - sqrt(abar) x0_hat) / sqrt(1 - abar).
    Conditioning is ignored: conditional and unconditional predictions
    coincide, as befits an oracle for the sampling machinery itself.
    """

    def __init__(self, mu0: np.ndarray, sigma0: float, sched: NoiseSchedule):
        sigma0 = float(sigma0)
        self.var0 = sigma0 * sigma0  # not sigma0 ** 2, which raises on overflow
        if not (sigma0 >= 0 and math.isfinite(self.var0)):
            raise InvalidParameterError("sigma0 must be >= 0 with a finite square")
        self.mu0 = np.asarray(mu0, dtype=np.float64)
        if not np.all(np.isfinite(self.mu0)):
            raise InvalidParameterError("mu0 must be finite")
        self.sched = sched

    def predict_eps(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                    unconditional: bool = False) -> np.ndarray:
        ab = self.sched.alpha_bar_at(t)
        denom = ab * self.var0 + 1.0 - ab
        x0_hat = (self.var0 * math.sqrt(ab) * x_t + (1.0 - ab) * self.mu0) / denom
        return (x_t - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)


def analytic_gaussian_denoiser(mu0: np.ndarray, sigma0: float,
                               sched: NoiseSchedule) -> AnalyticGaussianDenoiser:
    return AnalyticGaussianDenoiser(mu0, sigma0, sched)


CLN_PARAM_NAMES = ("cln_w_gamma", "cln_b_gamma", "cln_w_beta", "cln_b_beta")


class ToyDenoiser:
    """Two dense layers with tanh between, one CLN site after the first.

    Input is concat(x_t, sinusoidal time embedding, condition summary); the
    speaker embedding enters only through the CLN affines. Unconditional
    mode feeds the zero embedding, so the CLN biases act as learned null
    parameters.
    """

    def __init__(self, dim: int, cond_dim: int, speaker_dim: int,
                 num_steps: int = defaults.DIFFUSION_STEPS,
                 hidden: int = 32, seed: int = 0):
        if min(dim, cond_dim, speaker_dim, hidden) < 1:
            raise InvalidParameterError("all model dimensions must be >= 1")
        in_dim = dim + 2 * TIME_FREQS + cond_dim
        check_elements(hidden * (in_dim + 2 * speaker_dim + dim + 3) + dim,
                       "the model's parameters")
        self.dim = dim
        self.cond_dim = cond_dim
        self.speaker_dim = speaker_dim
        self.num_steps = num_steps
        self._time_rows = {}  # t -> time_embedding(t)
        rng = np.random.default_rng(seed)
        self.params = {
            "w1": rng.standard_normal((hidden, in_dim)) / math.sqrt(in_dim),
            "b1": np.zeros(hidden),
            "cln_w_gamma": rng.standard_normal((hidden, speaker_dim)) * 0.1,
            "cln_b_gamma": np.ones(hidden),
            "cln_w_beta": rng.standard_normal((hidden, speaker_dim)) * 0.1,
            "cln_b_beta": np.zeros(hidden),
            "w2": rng.standard_normal((dim, hidden)) / math.sqrt(hidden),
            "b2": np.zeros(dim),
        }

    # -- plumbing ---------------------------------------------------------

    def param_hash(self, names=None) -> str:
        """SHA-256 over the raw bytes of the named parameters (all if None)."""
        digest = hashlib.sha256()
        for name in sorted(names if names is not None else self.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.params[name]).tobytes())
        return digest.hexdigest()

    def time_embedding(self, t: int) -> np.ndarray:
        """sin then cos of 2 pi t k / num_steps for k = 1..TIME_FREQS; each
        row is computed once per model and is read-only."""
        row = self._time_rows.get(t)
        if row is None:
            phase = 2.0 * np.pi * t / self.num_steps * np.arange(1, TIME_FREQS + 1)
            row = np.concatenate([np.sin(phase), np.cos(phase)])
            row.flags.writeable = False
            self._time_rows[t] = row
        return row

    def _embedding(self, cond: ConditionSet, unconditional: bool) -> np.ndarray:
        if unconditional:
            return np.zeros(self.speaker_dim)
        if cond.speaker_embedding is None:
            raise InvalidParameterError(
                "conditional call needs a speaker embedding in the condition set"
            )
        if cond.speaker_embedding.size != self.speaker_dim:
            raise ShapeMismatchError(f"want a {self.speaker_dim}-entry speaker embedding")
        return cond.speaker_embedding

    # -- forward / backward -------------------------------------------------

    def _forward(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                 unconditional: bool) -> tuple:
        """Prediction for (..., dim) inputs plus the activations the backward
        pass reuses; the CLN is rounded as gamma * h_hat + beta."""
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape[-1:] != (self.dim,):
            raise ShapeMismatchError(f"last axis must be {self.dim}")
        p = self.params
        e = self._embedding(cond, unconditional)
        summary = cond.summary()
        if summary.size != self.cond_dim:
            raise ShapeMismatchError(
                f"model wants a {self.cond_dim}-entry condition summary, got {summary.size}")
        fixed = np.concatenate([self.time_embedding(t), summary])
        inp = np.empty(x_t.shape[:-1] + (self.dim + fixed.size,))
        inp[..., :self.dim] = x_t
        inp[..., self.dim:] = fixed
        h = inp @ p["w1"].T + p["b1"]
        centred = h - h.mean(axis=-1, keepdims=True)
        s = np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + _LN_EPS)
        h_hat = centred / s
        gamma = p["cln_w_gamma"] @ e + p["cln_b_gamma"]
        beta = p["cln_w_beta"] @ e + p["cln_b_beta"]
        a = np.tanh(gamma * h_hat + beta)
        out = a @ p["w2"].T + p["b2"]
        return out, (inp, e, h_hat, s, gamma, a)

    def predict_eps(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                    unconditional: bool = False) -> np.ndarray:
        """Deterministic epsilon prediction; accepts (..., dim) batches."""
        return self._forward(x_t, t, cond, unconditional)[0]

    def l2_loss_and_grads(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                          eps_target: np.ndarray,
                          unconditional: bool = False) -> tuple:
        """Squared-error loss ||eps_target - predict_eps||^2 and its analytic
        gradient for every parameter. Single vectors only."""
        x_t = np.asarray(x_t, dtype=np.float64)
        eps_target = np.asarray(eps_target, dtype=np.float64)
        if x_t.ndim != 1 or eps_target.shape != x_t.shape:
            raise ShapeMismatchError("loss path expects matching 1-D vectors")
        out, (inp, e, h_hat, s, gamma, a) = self._forward(x_t, t, cond, unconditional)
        r = out - eps_target
        loss = float(r @ r)

        g_out = 2.0 * r
        g_a = self.params["w2"].T @ g_out
        g_y = g_a * (1.0 - a * a)
        g_hhat = g_y * gamma
        g_h = (g_hhat - g_hhat.mean() - h_hat * np.mean(g_hhat * h_hat)) / s
        grads = {
            "w2": np.outer(g_out, a),
            "b2": g_out,
            "cln_w_gamma": np.outer(g_y * h_hat, e),
            "cln_b_gamma": g_y * h_hat,
            "cln_w_beta": np.outer(g_y, e),
            "cln_b_beta": g_y,
            "w1": np.outer(g_h, inp),
            "b1": g_h,
        }
        return loss, grads


@dataclass
class TrainConfig:
    """Training-loop knobs.

    contrastive_source, when set, maps a step index to a FeaturePairBatch
    (or None for "nothing this step"); its weighted loss is added to the
    recorded history. The batches carry no model parameters, so they shape
    the history, not the gradients.
    """

    steps: int = 500
    lr: float = 1e-3
    p_uncond: float = defaults.P_UNCOND
    contrastive_source: Callable[[int], FeaturePairBatch | None] | None = None
    seed: int = 0


def _draw(rng: np.random.Generator, dataset: list, sched: NoiseSchedule) -> tuple:
    """One (x0, cond, t, eps) draw; the RNG draws the dataset index, then
    the timestep t, then the noise eps."""
    x0, cond = dataset[int(rng.integers(len(dataset)))]
    t = int(rng.integers(1, sched.num_steps + 1))
    return x0, cond, t, rng.standard_normal(np.shape(x0))


def _check_lr(lr: float) -> None:
    if not 0 < lr < math.inf:
        raise InvalidParameterError(f"learning rate must be finite and > 0, got {lr}")


def _check_finite(model: ToyDenoiser, losses=()) -> None:
    """Reject a diverged run: a loss or a parameter that is not finite."""
    if not (np.all(np.isfinite(losses))
            and all(np.all(np.isfinite(v)) for v in model.params.values())):
        raise InvalidParameterError(
            "training diverged: a loss or a parameter is not finite; lower the learning rate")


def train_toy(model: ToyDenoiser, dataset: list, sched: NoiseSchedule,
              cfg: TrainConfig) -> np.ndarray:
    """Epsilon-prediction training loop; returns the per-step loss history.

    Per step the RNG draws, in this fixed order: dataset index, timestep t,
    noise eps, one uniform for the condition-drop decision. The condition is
    dropped (unconditional mode) when that uniform is below p_uncond.
    """
    if not dataset:
        raise InvalidParameterError("dataset must be nonempty")
    if cfg.steps < 1:
        raise InvalidParameterError("steps must be >= 1")
    check_elements(cfg.steps, "the loss history")
    _check_lr(cfg.lr)
    if not 0 <= cfg.p_uncond <= 1:
        raise InvalidParameterError(f"p_uncond must lie in [0, 1], got {cfg.p_uncond}")
    rng = np.random.default_rng(cfg.seed)
    history = np.empty(cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.steps):
            x0, cond, t, eps = _draw(rng, dataset, sched)
            drop = rng.random() < cfg.p_uncond
            x_t = q_sample(x0, t, eps, sched)
            loss, grads = model.l2_loss_and_grads(x_t, t, cond, eps,
                                                  unconditional=drop)
            if cfg.contrastive_source is not None:
                batch = cfg.contrastive_source(n)
                if batch is not None:
                    loss += ramp_weight(n) * contrastive_loss(batch)
            for name, grad in grads.items():
                model.params[name] -= cfg.lr * grad
            history[n] = loss
    _check_finite(model, history)
    return history


def finetune_cln(model: ToyDenoiser, dataset: list, sched: NoiseSchedule,
                 target_embedding: np.ndarray,
                 iterations: int = defaults.FINETUNE_ITERATIONS,
                 lr: float = 1e-3, seed: int = 0) -> ToyDenoiser:
    """Adapt a pre-trained model to one target by updating only the CLN
    affines, with a fixed unit-norm embedding in place of the speaker
    encoder. No perturbation pairs, no contrastive term, no condition drop.
    iterations == 0 is a no-op."""
    if iterations < 0:
        raise InvalidParameterError("iterations must be >= 0")
    _check_lr(lr)
    if not dataset:
        raise InvalidParameterError("dataset must be nonempty")
    # ConditionSet checks that the embedding is 1-D with unit norm
    dataset = [(x0, replace(c, speaker_embedding=target_embedding)) for x0, c in dataset]
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            x0, cond, t, eps = _draw(rng, dataset, sched)
            x_t = q_sample(x0, t, eps, sched)
            _, grads = model.l2_loss_and_grads(x_t, t, cond, eps)
            for name in CLN_PARAM_NAMES:
                model.params[name] -= lr * grads[name]
    _check_finite(model)
    return model


def evaluate_l2(model: ToyDenoiser, dataset: list, sched: NoiseSchedule,
                embedding: np.ndarray) -> float:
    """Mean epsilon-prediction loss, with `embedding` as every item's speaker
    embedding, over 200 fixed random (item, t, eps) draws from seed 12345."""
    n_draws = 200
    dataset = [(x0, replace(c, speaker_embedding=embedding)) for x0, c in dataset]
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(n_draws):
        x0, cond, t, eps = _draw(rng, dataset, sched)
        loss, _ = model.l2_loss_and_grads(q_sample(x0, t, eps, sched), t, cond, eps)
        total += loss
    return total / n_draws


def pseudo_speaker_embedding(seed: int, dim: int) -> np.ndarray:
    """Seeded standard-normal vector scaled to unit L2 norm."""
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    v = np.random.default_rng(seed).standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ZeroNormError("degenerate zero draw")
    return v / norm


def toy_dataset(model_dim: int, ling_dim: int, speaker_dim: int,
                n_items: int, seed: int) -> list:
    """Deterministic synthetic (x0, condition) pairs for the desk-scale
    model, each with 4-frame condition tracks and a unit speaker embedding."""
    rng = np.random.default_rng(seed)
    dataset = []
    for _ in range(n_items):
        x0 = rng.normal(scale=0.5, size=model_dim)
        cond = ConditionSet(
            linguistic=rng.normal(size=(4, ling_dim)),
            log_f0_vuv=rng.normal(size=(4, 2)),
            loudness=rng.normal(size=4),
            speaker_embedding=pseudo_speaker_embedding(
                int(rng.integers(1 << 31)), speaker_dim),
        )
        dataset.append((x0, cond))
    return dataset


# -- model serialization ----------------------------------------------------

def save_model(model: ToyDenoiser, directory: str | os.PathLike) -> None:
    """One SVCF tensor per named parameter plus a JSON index of num_steps and files.

    SVCF payloads are float32, so loading quantizes parameters accordingly;
    all are encoded (and checked) before the directory is created, and the
    files are written together, so a failed save changes none of them.
    """
    d = Path(directory)
    files = {name: f"{name}.svcf" for name in model.params}
    blobs = {d / f: tensor_bytes(model.params[name], str(d / f)) for name, f in files.items()}
    blobs[d / "index.json"] = json_bytes({"num_steps": model.num_steps, "params": files})
    d.mkdir(parents=True, exist_ok=True)
    atomic_write_files(blobs)


def load_model(directory: str | os.PathLike) -> ToyDenoiser:
    """Inverse of `save_model`. Every named file must lie inside `directory`
    and hold a finite tensor. The sizes are read off the shapes of w1 (hidden
    rows, dim + 2 TIME_FREQS + cond_dim columns), w2 (dim rows) and cln_w_gamma
    (speaker_dim columns); the tensors must then be exactly the parameters of
    a model of those sizes, and an older index's size fields must equal them.
    Anything else is a ManifestFormatError."""
    d = Path(directory)
    index_path = d / "index.json"
    what = f"model index {index_path}"
    index = read_json(index_path, "model index")
    num_steps = json_field(index, "num_steps", int, what)

    def bad(why):
        return ManifestFormatError(f"bad {what}: {why}")

    # realpath: on a symlink loop Path.resolve raises RuntimeError
    params, root = {}, Path(os.path.realpath(d))
    try:
        for name, fname in index["params"].items():
            path = d / fname
            if root not in Path(os.path.realpath(path)).parents:
                raise bad(f"{name} file {fname!r} is outside the model directory")
            params[name] = read_tensor(path).astype(np.float64)
            if not np.all(np.isfinite(params[name])):
                raise bad(f"{name} has non-finite entries")
        if any(params[n].ndim != 2 for n in ("w1", "w2", "cln_w_gamma")):
            raise bad("w1, w2 and cln_w_gamma must be matrices")
        (hidden, width), (dim, _), (_, speaker_dim) = (
            params[n].shape for n in ("w1", "w2", "cln_w_gamma"))
        sizes = {"dim": dim, "cond_dim": width - dim - 2 * TIME_FREQS,
                 "speaker_dim": speaker_dim, "hidden": hidden}
        for key, size in {**sizes, "time_freqs": TIME_FREQS}.items():
            if key in index and json_field(index, key, int, what) != size:
                raise bad(f"{key} is {index[key]}, but the tensors give {size}")
        model = ToyDenoiser(num_steps=num_steps, **sizes)
        got, want = ({n: v.shape for n, v in p.items()} for p in (params, model.params))
        if got != want:
            raise bad(f"parameter shapes {got}, but a model of {sizes} has {want}")
        model.params.update(params)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise bad(exc) from exc
    return model

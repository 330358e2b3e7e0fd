"""DDPM machinery for mel-frame generation at desk scale.

Covers the full contract surface of the production acoustic model without
its bulk: noise schedules, forward noising, guided ancestral sampling, a
closed-form Gaussian denoiser used as a correctness oracle, and a two-layer
trainable denoiser whose conditional layer norm (CLN) is the one the
CLN-only fine-tuning loop adapts. Everything here runs in float64;
the gradient and moment tests depend on it.

Steps are 1-based: t runs from 1 to T, matching the forward-process
indexing x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps.

The sampling and training hot paths allocate each formula's result once and
compute the rest of it in place, in the written-out formula's operand order,
so the bits are those of the formula; an array a caller passed in, or that a
denoiser's `predict_eps` returned, is never written.
"""

import hashlib
import math
import operator
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import defaults
from .contrastive import FeaturePairBatch, contrastive_loss, ramp_weight
from .errors import FormatError, InvalidParameterError, check_elements
from .svcf import json_bytes, json_field, read_json, read_tensor, tensor_bytes

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

    def at(self, t: int) -> tuple:
        """(beta_t, alpha_t, alpha_bar_t) of step t in [1, num_steps], as floats."""
        if not 1 <= t <= self.num_steps:
            raise InvalidParameterError(f"step {t} outside [1, {self.num_steps}]")
        i = int(t) - 1
        return float(self.beta[i]), float(self.alpha[i]), float(self.alpha_bar[i])


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
        raise InvalidParameterError(f"x0 {x0.shape} vs eps {eps.shape}")
    ab = sched.at(t)[2]
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


@dataclass(frozen=True)
class ConditionSet:
    """Frame-level conditioning plus an optional unit-norm speaker embedding.

    linguistic: [T, d_ling]; log_f0_vuv: [T, 2]; loudness: [T]. `summary`
    is the fixed-size condition summary, the per-track means concatenated;
    it is computed when the set is built and is read-only.
    """

    linguistic: np.ndarray
    log_f0_vuv: np.ndarray
    loudness: np.ndarray
    speaker_embedding: np.ndarray | None = None
    summary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ling = np.asarray(self.linguistic, dtype=np.float64)
        lfv = np.asarray(self.log_f0_vuv, dtype=np.float64)
        loud = np.asarray(self.loudness, dtype=np.float64)
        if ling.ndim != 2 or lfv.ndim != 2 or lfv.shape[1] != 2 or loud.ndim != 1:
            raise InvalidParameterError(
                "want linguistic [T, d], log_f0_vuv [T, 2], loudness [T]"
            )
        if not ling.shape[0] == lfv.shape[0] == loud.shape[0] >= 1:
            raise InvalidParameterError("condition tracks must share one frame count of at least 1")
        object.__setattr__(self, "linguistic", ling)
        object.__setattr__(self, "log_f0_vuv", lfv)
        object.__setattr__(self, "loudness", loud)
        if self.speaker_embedding is not None:
            emb = np.asarray(self.speaker_embedding, dtype=np.float64)
            if emb.ndim != 1:
                raise InvalidParameterError("speaker embedding must be 1-D")
            if abs(np.linalg.norm(emb) - 1.0) > 1e-6:
                raise InvalidParameterError("speaker embedding must have unit norm")
            object.__setattr__(self, "speaker_embedding", emb)
        summary = np.concatenate([ling.mean(axis=0), lfv.mean(axis=0), [loud.mean()]])
        summary.flags.writeable = False
        object.__setattr__(self, "summary", summary)


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
    out = np.asarray(eps_c - eps_u)  # 0-d predictions subtract to a scalar
    out *= w
    return np.add(eps_u, out, out=out)


def reverse_step(x_t: np.ndarray, t: int, eps_hat: np.ndarray,
                 sched: NoiseSchedule, z: np.ndarray) -> np.ndarray:
    """One ancestral step:
    x_{t-1} = (x_t - beta_t/sqrt(1-abar_t) eps_hat)/sqrt(alpha_t) + sqrt(beta_t) z.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x_t.shape != eps_hat.shape or x_t.shape != z.shape:
        raise InvalidParameterError(
            f"x_t {x_t.shape}, eps_hat {eps_hat.shape}, z {z.shape} must agree"
        )
    if t == 1 and np.any(z != 0):
        raise InvalidParameterError("z must be the zero vector at t == 1")
    beta, alpha, ab = sched.at(t)
    out = np.asarray(beta / math.sqrt(1.0 - ab) * eps_hat)  # a scalar for a 0-d eps_hat
    np.subtract(x_t, out, out=out)
    out /= math.sqrt(alpha)
    out += math.sqrt(beta) * z
    return out


def _check_schedule(denoiser, sched: NoiseSchedule) -> None:
    """Reject a schedule whose length is not the `num_steps` the denoiser was
    trained or built for, or whose betas are not those of the `sched` it was
    built on (the oracle's); a denoiser without either is unchecked."""
    steps = getattr(denoiser, "num_steps", sched.num_steps)
    if sched.num_steps != steps:
        raise InvalidParameterError(f"a {sched.num_steps}-step schedule for a {steps}-step model")
    if not np.array_equal(getattr(denoiser, "sched", sched).beta, sched.beta):
        raise InvalidParameterError("the schedule's betas are not the ones the model was built on")


def sample(denoiser, sched: NoiseSchedule, cond: ConditionSet,
           w: float = defaults.GUIDANCE_SCALE, dim: int | tuple = 8,
           seed: int = 0) -> np.ndarray:
    """Full reverse chain from seeded x_T ~ N(0, I) down to x_0.

    `dim` may be an integer (one vector) or a shape tuple such as (n, d) to
    draw n independent samples in one pass; every operation in the chain is
    elementwise or scalar-weighted, so the rows do not interact. A chain
    that overflows to a non-finite value is an InvalidParameterError, and so
    is a schedule that `_check_schedule` rejects.
    """
    _check_schedule(denoiser, sched)
    try:
        shape = (operator.index(dim),)
    except TypeError:
        shape = tuple(dim)
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
        self.num_steps = sched.num_steps

    def predict_eps(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                    unconditional: bool = False) -> np.ndarray:
        ab = self.sched.at(t)[2]
        denom = ab * self.var0 + 1.0 - ab
        # float64 and the shape of x_t broadcast against mu0, like the formula's result
        out = np.multiply(self.var0 * math.sqrt(ab), x_t,
                          out=np.empty(np.broadcast_shapes(np.shape(x_t), self.mu0.shape)))
        out += (1.0 - ab) * self.mu0
        out /= denom  # x0_hat
        out *= math.sqrt(ab)
        np.subtract(x_t, out, out=out)
        out /= math.sqrt(1.0 - ab)
        return out


def analytic_gaussian_denoiser(mu0: np.ndarray, sigma0: float,
                               sched: NoiseSchedule) -> AnalyticGaussianDenoiser:
    return AnalyticGaussianDenoiser(mu0, sigma0, sched)


CLN_PARAM_NAMES = ("cln_w_gamma", "cln_b_gamma", "cln_w_beta", "cln_b_beta")
# ToyDenoiser's parameters in build order; a model directory holds each as <name>.svcf
PARAM_NAMES = ("w1", "b1", *CLN_PARAM_NAMES, "w2", "b2")


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
        if min(dim, cond_dim, speaker_dim, hidden, num_steps) < 1:
            raise InvalidParameterError("all model dimensions and num_steps must be >= 1")
        check_elements(num_steps, "the noise schedule")
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
        """sin then cos of 2 pi t k / num_steps for k = 1..TIME_FREQS, for t
        in [1, num_steps]; each row is computed once per model and is
        read-only."""
        row = self._time_rows.get(t)
        if row is None:
            if not 1 <= t <= self.num_steps:
                raise InvalidParameterError(f"step {t} outside the model's [1, {self.num_steps}]")
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
            raise InvalidParameterError(f"want a {self.speaker_dim}-entry speaker embedding")
        return cond.speaker_embedding

    # -- forward / backward -------------------------------------------------

    def _forward(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                 unconditional: bool) -> tuple:
        """Prediction for (..., dim) inputs plus the activations the backward
        pass reuses; the CLN is rounded as gamma * h_hat + beta."""
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape[-1:] != (self.dim,):
            raise InvalidParameterError(f"last axis must be {self.dim}")
        p = self.params
        e = self._embedding(cond, unconditional)
        summary = cond.summary
        if summary.size != self.cond_dim:
            raise InvalidParameterError(
                f"model wants a {self.cond_dim}-entry condition summary, got {summary.size}")
        fixed = np.concatenate([self.time_embedding(t), summary])
        inp = np.empty(x_t.shape[:-1] + (self.dim + fixed.size,))
        inp[..., :self.dim] = x_t
        inp[..., self.dim:] = fixed
        # h, then centred, then h_hat in one array; a mean is a sum over the count
        h = inp @ p["w1"].T
        h += p["b1"]
        n = h.shape[-1]
        h -= np.add.reduce(h, axis=-1, keepdims=True) / n
        s = np.add.reduce(h * h, axis=-1, keepdims=True) / n
        s += _LN_EPS
        np.sqrt(s, out=s)
        h /= s
        gamma = p["cln_w_gamma"] @ e + p["cln_b_gamma"]
        beta = p["cln_w_beta"] @ e + p["cln_b_beta"]
        a = gamma * h
        a += beta
        np.tanh(a, out=a)
        out = a @ p["w2"].T
        out += p["b2"]
        return out, (inp, e, h, s, gamma, a)

    def predict_eps(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                    unconditional: bool = False) -> np.ndarray:
        """Deterministic epsilon prediction; accepts (..., dim) batches."""
        return self._forward(x_t, t, cond, unconditional)[0]

    def l2_loss_and_grads(self, x_t: np.ndarray, t: int, cond: ConditionSet,
                          eps_target: np.ndarray, unconditional: bool = False,
                          names=PARAM_NAMES) -> tuple:
        """Squared-error loss ||eps_target - predict_eps||^2 and a dict of its
        analytic gradient for each parameter in `names` (only those are
        computed). Single vectors only."""
        x_t = np.asarray(x_t, dtype=np.float64)
        eps_target = np.asarray(eps_target, dtype=np.float64)
        if x_t.ndim != 1 or eps_target.shape != x_t.shape:
            raise InvalidParameterError("loss path expects matching 1-D vectors")
        out, (inp, e, h_hat, s, gamma, a) = self._forward(x_t, t, cond, unconditional)
        out -= eps_target  # the residual
        loss = float(out @ out)
        if not names:
            return loss, {}

        g_out = out
        g_out *= 2.0
        g_y = a * a
        np.subtract(1.0, g_y, out=g_y)
        np.multiply(self.params["w2"].T @ g_out, g_y, out=g_y)
        grads = {"b2": g_out, "cln_b_gamma": g_y * h_hat, "cln_b_beta": g_y}
        if "w1" in names or "b1" in names:
            n = a.size
            g_h = g_y * gamma  # the gradient at h_hat, then at h in place
            mean_gh = np.add.reduce(g_h * h_hat) / n
            g_h -= np.add.reduce(g_h) / n
            g_h -= h_hat * mean_gh
            g_h /= s
            grads["b1"] = g_h
        # a weight's gradient is the outer product of its bias's gradient and its input
        for weight, bias, v in (("w2", "b2", a), ("cln_w_gamma", "cln_b_gamma", e),
                                ("cln_w_beta", "cln_b_beta", e), ("w1", "b1", inp)):
            if weight in names:
                grads[weight] = grads[bias][:, None] * v
        return loss, {name: grads[name] for name in names}


@dataclass
class TrainConfig:
    """Training-loop knobs.

    contrastive_source, when set, maps step n to a FeaturePairBatch whose
    contrastive loss, times ramp_weight(n), is added to step n's recorded
    loss. A batch carries no model parameters: it shapes the history only.
    """

    steps: int = 500
    lr: float = 1e-3
    p_uncond: float = defaults.P_UNCOND
    contrastive_source: Callable[[int], FeaturePairBatch] | None = None
    seed: int = 0


def _draw_loop(model: ToyDenoiser, dataset: list, sched: NoiseSchedule, steps: int,
               seed: int, names=(), lr: float = 0.0, p_uncond: float | None = None):
    """The one training draw loop: yields the loss of each of `steps` noised
    draws from `dataset`, then steps the `names` parameters down that draw's
    gradient by `lr`; no other gradient is computed.

    Per step the RNG (from `seed`) draws, in this fixed order: dataset index,
    timestep t, noise eps and, when `p_uncond` is given, one uniform that
    drops the condition (unconditional mode) when it is below p_uncond.
    Before the first draw it rejects an empty dataset, a schedule that
    `_check_schedule` rejects and, when `names` is not empty, a learning rate
    that is not finite and > 0. A loss or a stepped parameter that is not
    finite means the run diverged.
    """
    if not dataset:
        raise InvalidParameterError("dataset must be nonempty")
    if names and not 0 < lr < math.inf:
        raise InvalidParameterError(f"learning rate must be finite and > 0, got {lr}")
    _check_schedule(model, sched)
    diverged = InvalidParameterError(
        "training diverged: a loss or a parameter is not finite; lower the learning rate")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            x0, cond = dataset[int(rng.integers(len(dataset)))]
            t = int(rng.integers(1, sched.num_steps + 1))
            eps = rng.standard_normal(np.shape(x0))
            drop = p_uncond is not None and rng.random() < p_uncond
            loss, grads = model.l2_loss_and_grads(q_sample(x0, t, eps, sched), t, cond, eps,
                                                  unconditional=drop, names=names)
            if not math.isfinite(loss):
                raise diverged
            yield loss
            for name in names:
                model.params[name] -= lr * grads[name]
    if not all(np.all(np.isfinite(model.params[name])) for name in names):
        raise diverged


def train_toy(model: ToyDenoiser, dataset: list, sched: NoiseSchedule,
              cfg: TrainConfig) -> np.ndarray:
    """Epsilon-prediction training loop over every parameter (`_draw_loop`,
    with the condition-drop uniform); returns the per-step loss history."""
    if cfg.steps < 1:
        raise InvalidParameterError("steps must be >= 1")
    check_elements(cfg.steps, "the loss history")
    if not 0 <= cfg.p_uncond <= 1:
        raise InvalidParameterError(f"p_uncond must lie in [0, 1], got {cfg.p_uncond}")
    history = np.empty(cfg.steps)
    for n, loss in enumerate(_draw_loop(model, dataset, sched, cfg.steps, cfg.seed,
                                        tuple(model.params), cfg.lr, cfg.p_uncond)):
        if cfg.contrastive_source is not None:
            loss += ramp_weight(n) * contrastive_loss(cfg.contrastive_source(n))
        history[n] = loss
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
    # ConditionSet checks that the embedding is 1-D with unit norm
    dataset = [(x0, replace(c, speaker_embedding=target_embedding)) for x0, c in dataset]
    for _ in _draw_loop(model, dataset, sched, iterations, seed, CLN_PARAM_NAMES, lr):
        pass
    return model


def evaluate_l2(model: ToyDenoiser, dataset: list, sched: NoiseSchedule,
                embedding: np.ndarray) -> float:
    """Mean epsilon-prediction loss, with `embedding` as every item's speaker
    embedding, over 200 fixed random (item, t, eps) draws from seed 12345,
    summed in draw order."""
    n_draws = 200
    dataset = [(x0, replace(c, speaker_embedding=embedding)) for x0, c in dataset]
    total = 0.0
    for loss in _draw_loop(model, dataset, sched, n_draws, 12345):
        total += loss
    return total / n_draws


def pseudo_speaker_embedding(seed: int, dim: int) -> np.ndarray:
    """Seeded standard-normal vector scaled to unit L2 norm."""
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    v = np.random.default_rng(seed).standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise InvalidParameterError("degenerate zero draw")
    return v / norm


def toy_condition(model: ToyDenoiser, rng: np.random.Generator) -> ConditionSet:
    """A seeded 4-frame condition whose summary fits `model`, without a speaker:
    linguistic [4, cond_dim - 3], log_f0_vuv [4, 2] and loudness [4], in that order."""
    if model.cond_dim < 3:  # no room for the log-F0, VUV and loudness means
        raise InvalidParameterError(f"a toy condition needs cond_dim >= 3, got {model.cond_dim}")
    return ConditionSet(linguistic=rng.normal(size=(4, model.cond_dim - 3)),
                        log_f0_vuv=rng.normal(size=(4, 2)), loudness=rng.normal(size=4))


def toy_dataset(model: ToyDenoiser, seed: int) -> list:
    """Eight seeded (x0, condition) pairs sized by `model`; each item draws x0, a
    `toy_condition` and the seed of a unit speaker embedding, in that order."""
    rng = np.random.default_rng(seed)
    items = ((rng.normal(scale=0.5, size=model.dim), toy_condition(model, rng),
              pseudo_speaker_embedding(int(rng.integers(1 << 31)), model.speaker_dim))
             for _ in range(8))
    return [(x0, replace(cond, speaker_embedding=embedding)) for x0, cond, embedding in items]


# -- model serialization ----------------------------------------------------

def model_files(model: ToyDenoiser, directory: str | os.PathLike) -> list:
    """The `(path, bytes)` pairs of a model saved in `directory`, for
    `svcf.atomic_write_files`: one SVCF tensor `<name>.svcf` per name in
    PARAM_NAMES plus an `index.json` that holds only num_steps. SVCF payloads
    are float32, so loading quantizes parameters accordingly; a non-finite
    parameter is an InvalidParameterError here, before anything is written."""
    d = Path(directory)
    index = json_bytes({"num_steps": model.num_steps})
    return [(d / f"{n}.svcf", tensor_bytes(model.params[n], str(d / f"{n}.svcf")))
            for n in PARAM_NAMES] + [(d / "index.json", index)]


def load_model(directory: str | os.PathLike) -> ToyDenoiser:
    """The model whose `model_files(model, directory)` were written. Each
    `<name>.svcf` is read like any input path, by `read_tensor`, which also
    refuses a NaN or an infinity; any index key but num_steps, such as an
    older index's file map and sizes, is ignored. The sizes are read off the
    shapes of w1 (hidden rows, dim + 2 TIME_FREQS + cond_dim columns), w2
    (dim rows) and cln_w_gamma (speaker_dim columns); the tensors must then
    be exactly the parameters of a model of those sizes. Anything else is a
    FormatError."""
    d = Path(directory)
    index_path = d / "index.json"
    what = f"model index {index_path}"
    num_steps = json_field(read_json(index_path, "model index"), "num_steps", int, what)

    def bad(why):
        return FormatError(f"bad {what}: {why}")

    params = {name: read_tensor(d / f"{name}.svcf").astype(np.float64) for name in PARAM_NAMES}
    if any(params[n].ndim != 2 for n in ("w1", "w2", "cln_w_gamma")):
        raise bad("w1, w2 and cln_w_gamma must be matrices")
    (hidden, width), (dim, _), (_, speaker_dim) = (
        params[n].shape for n in ("w1", "w2", "cln_w_gamma"))
    sizes = {"dim": dim, "cond_dim": width - dim - 2 * TIME_FREQS,
             "speaker_dim": speaker_dim, "hidden": hidden}
    try:
        model = ToyDenoiser(num_steps=num_steps, **sizes)
    except InvalidParameterError as exc:
        raise bad(exc) from exc
    got, want = ({n: v.shape for n, v in p.items()} for p in (params, model.params))
    if got != want:
        raise bad(f"parameter shapes {got}, but a model of {sizes} has {want}")
    model.params.update(params)
    return model

import json
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge import defaults
from svcforge.contrastive import FeaturePairBatch, contrastive_loss, ramp_weight
from svcforge.diffusion import (
    CLN_PARAM_NAMES,
    PARAM_NAMES,
    TIME_FREQS,
    ConditionSet,
    NoiseSchedule,
    ToyDenoiser,
    TrainConfig,
    analytic_gaussian_denoiser,
    evaluate_l2,
    finetune_cln,
    linear_schedule,
    load_model,
    pseudo_speaker_embedding,
    q_sample,
    guided_eps,
    reverse_step,
    model_files,
    sample,
    toy_dataset,
    train_toy,
)
from svcforge.errors import InvalidParameterError
from svcforge.features import build_mel_filterbank
from svcforge.svcf import atomic_write_files

SCHED = linear_schedule()


def _cond(seed=0, ling_dim=4, speaker_dim=3, frames=2):
    rng = np.random.default_rng(seed)
    return ConditionSet(
        linguistic=rng.normal(size=(frames, ling_dim)),
        log_f0_vuv=rng.normal(size=(frames, 2)),
        loudness=rng.normal(size=frames),
        speaker_embedding=pseudo_speaker_embedding(seed + 1, speaker_dim),
    )


def _toy(dim=3, seed=1, hidden=6):
    cond = _cond()
    return ToyDenoiser(dim=dim, cond_dim=cond.summary.size, speaker_dim=3,
                       hidden=hidden, seed=seed), cond


# -- schedule -----------------------------------------------------------------

def test_single_step_schedule():
    sched = NoiseSchedule(np.array([0.01]))
    assert sched.num_steps == 1
    assert sched.at(1)[2] == pytest.approx(1 - 0.01, abs=1e-15)


def test_default_schedule_alpha_bar():
    # independent oracle: plain product loop
    prod = 1.0
    for t in range(1, 101):
        prod *= 1.0 - SCHED.at(t)[0]
    assert SCHED.at(100)[2] == pytest.approx(prod, rel=1e-12)
    assert 0.0 < SCHED.at(100)[2] < 0.5
    bars = [SCHED.at(t)[2] for t in range(1, 101)]
    assert np.all(np.diff(bars) < 0)


def test_schedule_derives_alpha_tables_from_beta():
    beta = np.array([0.1, 0.2, 0.05])
    sched = NoiseSchedule(beta)
    assert np.array_equal(sched.alpha, 1.0 - beta)
    assert np.array_equal(sched.alpha_bar, np.cumprod(1.0 - beta))
    for t in (1, 2, 3):
        got = sched.at(t)
        assert got == (sched.beta[t - 1], sched.alpha[t - 1], sched.alpha_bar[t - 1])
        assert all(type(v) is float for v in got)
    with pytest.raises(TypeError):
        NoiseSchedule(beta, alpha=1.0 - beta, alpha_bar=np.ones(3))


def test_hyper_parameters_are_read_from_the_table_when_used(monkeypatch):
    # no keyword overrides these values: what `config show` prints is what runs
    batch = FeaturePairBatch(np.eye(3), np.eye(3)[[0, 2, 1]])

    def used():
        return (contrastive_loss(batch), ramp_weight(1000), linear_schedule().beta[-1],
                build_mel_filterbank().shape[0])

    before = used()
    monkeypatch.setattr(defaults, "CONTRASTIVE_TAU", 0.5)
    monkeypatch.setattr(defaults, "RAMP_RATE", 2e-5)
    monkeypatch.setattr(defaults, "BETA_END", 0.03)
    monkeypatch.setattr(defaults, "N_MELS", 40)
    after = used()
    assert after[0] != before[0]
    assert (before[1:], after[1:]) == ((0.01, 0.02, 80), (0.02, 0.03, 40))
    # 200 filters over 0-12 kHz put the lowest ones' feet closer than the
    # 23.4 Hz bin spacing
    monkeypatch.setattr(defaults, "N_MELS", 200)
    with pytest.raises(InvalidParameterError, match="narrower than one FFT bin"):
        build_mel_filterbank()


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        linear_schedule(num_steps=0)
    with pytest.raises(InvalidParameterError, match="nonempty"):
        NoiseSchedule(np.zeros(0))
    with pytest.raises(InvalidParameterError, match="0 < beta"):
        NoiseSchedule(np.array([0.01, 0.0]))
    for t in (0, 101, -1):
        with pytest.raises(InvalidParameterError, match="outside"):
            SCHED.at(t)


# -- forward process ----------------------------------------------------------

def test_q_sample_zero_noise():
    x0 = np.array([1.0, -2.0, 0.5])
    out = q_sample(x0, 42, np.zeros(3), SCHED)
    assert np.allclose(out, math.sqrt(SCHED.at(42)[2]) * x0, rtol=0, atol=0)


def test_q_sample_pure_noise_at_t_max():
    eps = np.array([0.3, -0.7])
    out = q_sample(np.zeros(2), 100, eps, SCHED)
    assert np.allclose(out, math.sqrt(1 - SCHED.at(100)[2]) * eps)


def test_q_sample_monte_carlo_moments():
    rng = np.random.default_rng(8)
    x0 = np.array([0.5])
    for t in (1, 50, 100):
        eps = rng.standard_normal((100_000, 1))
        out = q_sample(np.broadcast_to(x0, (100_000, 1)), t, eps, SCHED)
        ab = SCHED.at(t)[2]
        assert abs(out.mean() - math.sqrt(ab) * 0.5) < 3 * math.sqrt((1 - ab) / 100_000)
        assert abs(out.var() / (1 - ab) - 1) < 0.05


def test_q_sample_errors():
    with pytest.raises(InvalidParameterError, match=r"x0 \(3,\) vs eps \(4,\)"):
        q_sample(np.zeros(3), 10, np.zeros(4), SCHED)
    with pytest.raises(InvalidParameterError):
        q_sample(np.zeros(3), 0, np.zeros(3), SCHED)


# -- guidance -----------------------------------------------------------------

class _TwoFaced:
    """Distinct, fixed conditional and unconditional predictions."""

    def __init__(self, eps_c, eps_u):
        self.eps_c = np.asarray(eps_c, dtype=float)
        self.eps_u = np.asarray(eps_u, dtype=float)

    def predict_eps(self, x_t, t, cond, unconditional=False):
        return self.eps_u.copy() if unconditional else self.eps_c.copy()


def test_guided_eps_collapses():
    den = _TwoFaced([1.0, 0.0], [0.0, 1.0])
    cond = _cond()
    assert np.array_equal(guided_eps(den, np.zeros(2), 5, cond, w=1.0), den.eps_c)
    assert np.array_equal(guided_eps(den, np.zeros(2), 5, cond, w=0.0), den.eps_u)
    assert np.allclose(guided_eps(den, np.zeros(2), 5, cond, w=2.0), [2.0, -1.0])


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_guided_eps_linear_identity(w):
    den = _TwoFaced([0.7, -0.2, 0.1], [0.3, 0.4, -0.9])
    out = guided_eps(den, np.zeros(3), 9, _cond(), w=w)
    assert np.max(np.abs(out - (den.eps_u + w * (den.eps_c - den.eps_u)))) < 1e-12


# -- reverse process ----------------------------------------------------------

def test_reverse_step_inverts_one_step_schedule():
    sched = NoiseSchedule(np.array([0.01]))
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=5)
    eps = rng.normal(size=5)
    x1 = q_sample(x0, 1, eps, sched)
    back = reverse_step(x1, 1, eps, sched, np.zeros(5))
    assert np.max(np.abs(back - x0)) < 1e-9


def test_reverse_step_zero_eps_is_rescale():
    x = np.array([2.0, -4.0])
    out = reverse_step(x, 10, np.zeros(2), SCHED, np.zeros(2))
    assert np.allclose(out, x / math.sqrt(SCHED.at(10)[1]))


def test_reverse_step_errors():
    with pytest.raises(InvalidParameterError, match="must agree"):
        reverse_step(np.zeros(3), 5, np.zeros(4), SCHED, np.zeros(3))
    with pytest.raises(InvalidParameterError):
        reverse_step(np.zeros(2), 1, np.zeros(2), SCHED, np.ones(2))


# -- the in-place chain: no input written, each formula's bits ------------------

def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class _Fixed:
    """Returns its own read-only predictions themselves, not copies; one
    array for both modes when built with a single prediction."""

    def __init__(self, eps_c, eps_u=None):
        self.eps_c = eps_c
        self.eps_u = eps_c if eps_u is None else eps_u

    def predict_eps(self, x_t, t, cond, unconditional=False):
        return self.eps_u if unconditional else self.eps_c


@pytest.mark.parametrize("shape", [(5, 3), ()])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("w", [2.0, -0.5, 3.25])
def test_guided_eps_writes_no_prediction_and_keeps_the_formula(shape, dtype, w):
    rng = np.random.default_rng(3)
    eps_c, eps_u = (_read_only(rng.normal(size=shape).astype(dtype)) for _ in range(2))
    x_t = _read_only(rng.normal(size=shape))
    for den in (_Fixed(eps_c, eps_u), _Fixed(eps_c)):
        saved = den.eps_c.copy(), den.eps_u.copy()
        got = guided_eps(den, x_t, 7, _cond(), w=w)
        assert _same_bits(got, den.eps_u + w * (den.eps_c - den.eps_u))
        assert not np.shares_memory(got, den.eps_c) and not np.shares_memory(got, den.eps_u)
        assert np.array_equal(den.eps_c, saved[0]) and np.array_equal(den.eps_u, saved[1])


@pytest.mark.parametrize("shape", [(4, 3), ()])
@pytest.mark.parametrize("t", [1, 37, 100])
def test_reverse_step_writes_no_input_and_keeps_the_formula(t, shape):
    rng = np.random.default_rng(t)
    x_t, eps_hat = rng.normal(size=(2, *shape))
    x_t.flat[0], eps_hat.flat[0] = -0.0, 0.0  # a -0.0 mean, which + 0.0 z at t == 1 makes +0.0
    x_t, eps_hat = _read_only(x_t), _read_only(eps_hat)
    z = _read_only(np.zeros(shape) if t == 1 else rng.normal(size=shape))
    saved = x_t.copy(), eps_hat.copy(), z.copy()
    got = reverse_step(x_t, t, eps_hat, SCHED, z)
    beta, alpha, ab = SCHED.at(t)
    want = (x_t - beta / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(alpha) + math.sqrt(beta) * z
    assert _same_bits(got, want)
    assert not any(np.shares_memory(got, a) for a in (x_t, eps_hat, z))
    assert all(np.array_equal(a, b) for a, b in zip((x_t, eps_hat, z), saved))


@pytest.mark.parametrize("mu0", [0.5, [0.2, -1.0, 3.0]])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(3,), (6, 3), ()])
def test_oracle_predict_eps_writes_no_input_and_keeps_the_formula(mu0, dtype, shape):
    den = analytic_gaussian_denoiser(np.array(mu0), 2.0, SCHED)
    den.mu0.flags.writeable = False
    x_t = _read_only(np.random.default_rng(8).normal(size=shape).astype(dtype))
    saved = x_t.copy(), den.mu0.copy()
    for t in (1, 50, 100):
        got = den.predict_eps(x_t, t, _cond())
        ab = SCHED.at(t)[2]
        denom = ab * den.var0 + 1.0 - ab
        x0_hat = (den.var0 * math.sqrt(ab) * x_t + (1.0 - ab) * den.mu0) / denom
        assert _same_bits(got, (x_t - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab))
        assert not np.shares_memory(got, x_t) and not np.shares_memory(got, den.mu0)
    assert np.array_equal(x_t, saved[0]) and np.array_equal(den.mu0, saved[1])


@pytest.mark.parametrize("w", [1.0, 2.0])
def test_a_mean_that_does_not_fit_the_sample_is_refused(w):
    den = analytic_gaussian_denoiser(np.zeros(4), 1.0, SCHED)
    assert den.predict_eps(np.zeros((5, 1)), 10, _cond()).shape == (5, 4)  # broadcast
    with pytest.raises(InvalidParameterError, match="must agree"):
        sample(den, SCHED, _cond(), w=w, dim=(5, 1), seed=0)


# -- sampler + analytic denoiser ---------------------------------------------

def test_sample_deterministic_per_seed():
    den = analytic_gaussian_denoiser(np.zeros(4), 1.0, SCHED)
    cond = _cond()
    a = sample(den, SCHED, cond, w=1.0, dim=4, seed=77)
    b = sample(den, SCHED, cond, w=1.0, dim=4, seed=77)
    c = sample(den, SCHED, cond, w=1.0, dim=4, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_sigma0_zero_collapses_to_mean():
    mu0 = np.array([0.2, -1.0, 3.0])
    den = analytic_gaussian_denoiser(mu0, 0.0, SCHED)
    out = sample(den, SCHED, _cond(), w=1.0, dim=(50, 3), seed=5)
    assert np.max(np.abs(out - mu0)) < 1e-6


@pytest.mark.parametrize("w, dim", [(math.inf, 4), (-math.inf, 4), (math.nan, 4),
                                    (1.0, 0), (1.0, -2), (1.0, (3, 0))])
def test_sample_rejects_bad_scale_and_dims(w, dim):
    den = analytic_gaussian_denoiser(np.zeros(4), 1.0, SCHED)
    with pytest.raises(InvalidParameterError):
        sample(den, SCHED, _cond(), w=w, dim=dim, seed=0)


@pytest.mark.parametrize("dim", [np.int64(4), np.uint8(4)])
def test_sample_reads_any_integer_dim(dim):
    den = analytic_gaussian_denoiser(np.zeros(4), 1.0, SCHED)
    got = sample(den, SCHED, _cond(), w=1.0, dim=dim, seed=3)
    assert np.array_equal(got, sample(den, SCHED, _cond(), w=1.0, dim=(int(dim),), seed=3))


@pytest.mark.parametrize("w", [1.0, 2.0])
def test_sample_of_an_empty_shape_is_one_draw(w):
    den = analytic_gaussian_denoiser(0.3, 1.0, SCHED)
    got = sample(den, SCHED, _cond(), w=w, dim=(), seed=4)
    assert np.shape(got) == ()
    assert got == sample(den, SCHED, _cond(), w=w, dim=1, seed=4)[0]


@pytest.mark.parametrize("mu0, sigma0", [([0.0, math.nan], 1.0), ([math.inf, 0.0], 1.0),
                                         ([0.0, 0.0], math.nan), ([0.0, 0.0], math.inf),
                                         ([0.0, 0.0], -1.0), ([0.0, 0.0], 1e200)])
def test_analytic_denoiser_rejects_non_finite_target(mu0, sigma0):
    with pytest.raises(InvalidParameterError):
        analytic_gaussian_denoiser(np.array(mu0), sigma0, SCHED)


def test_sample_rejects_a_chain_that_leaves_the_finite_range():
    den = analytic_gaussian_denoiser(np.zeros(8), 1e154, SCHED)
    with pytest.raises(InvalidParameterError):
        sample(den, SCHED, _cond(), w=1.0, dim=8, seed=0)


def test_analytic_denoiser_point_mass_formula():
    mu0 = np.array([1.0, -0.5])
    den = analytic_gaussian_denoiser(mu0, 0.0, SCHED)
    x_t = np.array([0.7, 0.7])
    t = 30
    ab = SCHED.at(t)[2]
    want = (x_t - math.sqrt(ab) * mu0) / math.sqrt(1 - ab)
    assert np.allclose(den.predict_eps(x_t, t, _cond()), want, rtol=0, atol=1e-15)
    at_mean = den.predict_eps(math.sqrt(ab) * mu0, t, _cond())
    assert np.allclose(at_mean, 0.0, atol=1e-15)


def test_analytic_denoiser_beats_constant_predictors():
    # posterior mean minimizes expected squared error among all predictors;
    # in particular it beats any constant one
    rng = np.random.default_rng(11)
    sigma0, mu0 = 0.8, np.array([0.4])
    den = analytic_gaussian_denoiser(mu0, sigma0, SCHED)
    t = 60
    ab = SCHED.at(t)[2]
    x0 = mu0 + sigma0 * rng.standard_normal((10_000, 1))
    eps = rng.standard_normal((10_000, 1))
    x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
    pred = den.predict_eps(x_t, t, _cond())
    mse = np.mean((eps - pred) ** 2)
    for const in (-0.5, 0.0, 0.1, 0.5):
        assert mse <= np.mean((eps - const) ** 2)


def test_sampler_moment_recovery_smoke():
    # tighter statistical validation lives in the acceptance suite
    mu0 = np.full(4, 0.05)
    den = analytic_gaussian_denoiser(mu0, 1.0, SCHED)
    out = sample(den, SCHED, _cond(), w=1.0, dim=(4000, 4), seed=3)
    assert np.max(np.abs(out.mean(axis=0) - mu0)) < 0.08
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 0.1


# -- conditional layer norm ----------------------------------------------------

def test_cln_identity_affine_is_plain_layernorm():
    model, cond = _toy(hidden=8, seed=2)
    model.params["cln_w_gamma"][:] = 0.0
    model.params["cln_w_beta"][:] = 0.0
    x_t = np.random.default_rng(2).normal(size=3)
    _, (_, _, h_hat, _, gamma, a) = model._forward(x_t, 7, cond, False)
    assert np.array_equal(gamma, np.ones(8))
    assert np.array_equal(a, np.tanh(h_hat))  # so beta == 0 too
    assert abs(h_hat.mean()) < 1e-12
    assert abs(h_hat.var() - 1.0) < 1e-4  # epsilon shrinks variance slightly


def test_cln_constant_input_returns_beta():
    model, cond = _toy(hidden=4)
    model.params["w1"][:] = 0.0
    model.params["b1"][:] = 3.3
    model.params["cln_w_beta"][:] = 0.0
    model.params["cln_b_beta"] = np.array([0.5, -0.5, 1.0, 2.0])
    p = model.params
    for unconditional in (False, True):
        out = model.predict_eps(np.ones(3), 5, cond, unconditional=unconditional)
        assert np.allclose(out, p["w2"] @ np.tanh(p["cln_b_beta"]) + p["b2"])


def test_cln_gradients_match_finite_differences():
    model, cond = _toy()
    rng = np.random.default_rng(6)
    x_t = rng.normal(size=3)
    eps_t = rng.normal(size=3)
    _, grads = model.l2_loss_and_grads(x_t, 17, cond, eps_t)
    worst = _fd_worst_rel_err(model, grads, x_t, 17, cond, eps_t,
                              names=CLN_PARAM_NAMES)
    assert worst < 1e-4


def _fd_worst_rel_err(model, grads, x_t, t, cond, eps_t, names=None, step=1e-5):
    worst = 0.0
    for name in (names if names is not None else model.params):
        param = model.params[name]
        grad = grads[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up, _ = model.l2_loss_and_grads(x_t, t, cond, eps_t)
            param[idx] = orig - step
            down, _ = model.l2_loss_and_grads(x_t, t, cond, eps_t)
            param[idx] = orig
            fd = (up - down) / (2 * step)
            denom = max(abs(grad[idx]), abs(fd), 1e-6)
            worst = max(worst, abs(grad[idx] - fd) / denom)
    return worst


def test_toy_gradients_match_finite_differences_all_params():
    model, cond = _toy()
    rng = np.random.default_rng(13)
    x_t = rng.normal(size=3)
    eps_t = rng.normal(size=3)
    _, grads = model.l2_loss_and_grads(x_t, 80, cond, eps_t)
    assert _fd_worst_rel_err(model, grads, x_t, 80, cond, eps_t) < 1e-4


def test_toy_gradients_unconditional_mode():
    model, cond = _toy()
    rng = np.random.default_rng(14)
    x_t = rng.normal(size=3)
    eps_t = rng.normal(size=3)
    _, grads = model.l2_loss_and_grads(x_t, 5, cond, eps_t, unconditional=True)
    worst = 0.0
    for name in model.params:
        param, grad = model.params[name], grads[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + 1e-5
            up, _ = model.l2_loss_and_grads(x_t, 5, cond, eps_t, unconditional=True)
            param[idx] = orig - 1e-5
            down, _ = model.l2_loss_and_grads(x_t, 5, cond, eps_t, unconditional=True)
            param[idx] = orig
            fd = (up - down) / 2e-5
            worst = max(worst, abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6))
    assert worst < 1e-4


@pytest.mark.parametrize("names", [(), ("w2",), ("b1",), CLN_PARAM_NAMES,
                                   ("w1", "b2", "cln_w_beta"), PARAM_NAMES[::-1]])
def test_named_gradients_are_the_full_calls_entries(names):
    model, cond = _toy()
    for name in CLN_PARAM_NAMES:  # move the CLN off its identity init
        model.params[name] = np.random.default_rng(4).normal(size=model.params[name].shape)
    x_t, eps_t = np.random.default_rng(15).normal(size=(2, 3))
    for unconditional in (False, True):
        loss, full = model.l2_loss_and_grads(x_t, 17, cond, eps_t, unconditional=unconditional)
        got_loss, got = model.l2_loss_and_grads(x_t, 17, cond, eps_t,
                                                unconditional=unconditional, names=names)
        assert list(full) == list(PARAM_NAMES)
        assert got_loss == loss and list(got) == list(names)
        assert all(_same_bits(got[n], full[n]) for n in names)


def test_evaluate_l2_is_the_summed_loss_of_its_draws_to_the_bit():
    model, _ = _toy()
    dataset = toy_dataset(model, 5)
    embedding = pseudo_speaker_embedding(9, 3)
    # float.hex of the values before the loss path computed only the named gradients
    assert evaluate_l2(model, dataset, SCHED, embedding).hex() == "0x1.e6ed4345e50eap+1"
    train_toy(model, dataset, SCHED, TrainConfig(steps=30, lr=1e-2, seed=2))
    assert evaluate_l2(model, dataset, SCHED, embedding).hex() == "0x1.8804eabe89284p+1"


def test_predict_eps_batched_matches_single():
    model, cond = _toy()
    rng = np.random.default_rng(21)
    batch = rng.normal(size=(5, 3))
    stacked = model.predict_eps(batch, 9, cond)
    singles = np.stack([model.predict_eps(row, 9, cond) for row in batch])
    assert np.allclose(stacked, singles, atol=1e-14)


def _written_out_time_embedding(t, num_steps):
    phase = 2.0 * np.pi * t / num_steps * np.arange(1, TIME_FREQS + 1)
    return np.concatenate([np.sin(phase), np.cos(phase)])


def _written_out_summary(cond):
    return np.concatenate([cond.linguistic.mean(axis=0), cond.log_f0_vuv.mean(axis=0),
                           [cond.loudness.mean()]])


def _reference_predict_eps(model, x_t, t, cond, unconditional):
    """w2 tanh(CLN(w1 inp + b1)) + b2, the CLN written out from its
    definition gamma(e) * (h - mean) / sqrt(var + 1e-5) + beta(e), the time
    embedding and the condition summary from theirs."""
    p = model.params
    e = np.zeros(model.speaker_dim) if unconditional else cond.speaker_embedding
    fixed = np.concatenate([_written_out_time_embedding(t, model.num_steps),
                            _written_out_summary(cond)])
    inp = np.concatenate(
        [x_t, np.broadcast_to(fixed, x_t.shape[:-1] + fixed.shape)], axis=-1)
    h = inp @ p["w1"].T + p["b1"]
    gamma = p["cln_w_gamma"] @ e + p["cln_b_gamma"]
    beta = p["cln_w_beta"] @ e + p["cln_b_beta"]
    h_hat = (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + 1e-5)
    return np.tanh(gamma * h_hat + beta) @ p["w2"].T + p["b2"]


def test_predict_eps_matches_reference_composition():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cond = _cond(seed=seed, speaker_dim=4)
        model = ToyDenoiser(dim=5, cond_dim=cond.summary.size, speaker_dim=4,
                            hidden=12, seed=seed)
        for name in CLN_PARAM_NAMES:  # move the CLN off its identity init
            model.params[name] = rng.normal(size=model.params[name].shape)
        for shape in [(5,), (7, 5)]:
            x_t = rng.normal(size=shape)
            t = int(rng.integers(1, SCHED.num_steps + 1))
            for unconditional in (False, True):
                got = model.predict_eps(x_t, t, cond, unconditional=unconditional)
                want = _reference_predict_eps(model, x_t, t, cond, unconditional)
                assert got.shape == shape
                assert np.allclose(got, want, rtol=1e-10, atol=0)


def test_condition_summary_is_the_track_means_computed_once():
    cond = _cond(seed=5, frames=3)
    want = _written_out_summary(cond)
    assert np.array_equal(cond.summary, want)
    with pytest.raises(ValueError):
        cond.summary[0] = 1.0
    with pytest.raises(FrozenInstanceError):
        cond.summary = want
    with pytest.raises(TypeError):
        ConditionSet(cond.linguistic, cond.log_f0_vuv, cond.loudness, summary=want)
    assert np.array_equal(cond.summary, want)


def test_condition_summary_follows_replace_and_stays_out_of_eq_and_repr():
    cond = _cond(seed=6, frames=3)
    ling = np.random.default_rng(7).normal(size=(5, 4))
    moved = replace(cond, linguistic=ling, log_f0_vuv=np.ones((5, 2)), loudness=np.zeros(5))
    assert np.array_equal(moved.summary, np.concatenate([ling.mean(axis=0), [1.0, 1.0, 0.0]]))
    twin = replace(cond)  # the same track arrays, a summary of its own
    assert twin.summary is not cond.summary
    assert twin == cond
    assert [f.name for f in fields(ConditionSet) if f.compare] == [
        "linguistic", "log_f0_vuv", "loudness", "speaker_embedding"]
    assert "summary" not in repr(cond)


def test_condition_tracks_need_a_frame():
    with pytest.raises(InvalidParameterError, match="share one frame count"):
        ConditionSet(np.zeros((0, 4)), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(InvalidParameterError, match="want linguistic"):
        ConditionSet(np.zeros(4), np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(InvalidParameterError, match="must be 1-D"):
        ConditionSet(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros(1),
                     speaker_embedding=np.eye(2)[:1])


@pytest.mark.parametrize("num_steps", [0, -3, 10**10])
def test_toy_denoiser_checks_its_num_steps(num_steps):
    with pytest.raises(InvalidParameterError, match="num_steps|noise schedule"):
        ToyDenoiser(dim=3, cond_dim=7, speaker_dim=3, num_steps=num_steps)


@pytest.mark.parametrize("cond_dim", [3, 11])
def test_toy_dataset_is_sized_by_the_model(cond_dim):
    model = ToyDenoiser(dim=5, cond_dim=cond_dim, speaker_dim=2)
    dataset = toy_dataset(model, seed=0)
    assert len(dataset) == 8
    for x0, cond in dataset:
        assert (x0.shape, cond.summary.size, cond.speaker_embedding.size) == ((5,), cond_dim, 2)
    x0, cond = dataset[0]
    assert math.isfinite(model.l2_loss_and_grads(x0, 1, cond, np.zeros(5))[0])


def test_toy_dataset_needs_room_for_the_pitch_and_loudness_means():
    with pytest.raises(InvalidParameterError, match="cond_dim >= 3"):
        toy_dataset(ToyDenoiser(dim=5, cond_dim=2, speaker_dim=2), seed=0)


def test_time_embedding_is_the_written_out_expression_for_every_step():
    model = ToyDenoiser(dim=3, cond_dim=7, speaker_dim=3, num_steps=37, hidden=6)
    for t in range(1, 38):
        row = model.time_embedding(t)
        assert np.array_equal(row, _written_out_time_embedding(t, 37))
        assert model.time_embedding(t) is row
        assert not row.flags.writeable


def test_time_embedding_rejects_a_step_outside_the_model():
    # a 50-step model would give steps 50, 100 and 150 one embedding
    cond = _cond()
    model = ToyDenoiser(dim=3, cond_dim=cond.summary.size, speaker_dim=3, num_steps=50)
    for t in (0, 51, 100, 150):
        with pytest.raises(InvalidParameterError, match="outside the model's"):
            model.time_embedding(t)
    with pytest.raises(InvalidParameterError, match="100-step schedule for a 50-step model"):
        sample(model, linear_schedule(100), cond, dim=3)


@pytest.mark.parametrize("sched_steps", [25, 100, 200])
def test_training_rejects_a_schedule_whose_length_is_not_the_models(sched_steps):
    cond = _cond()
    model = ToyDenoiser(dim=3, cond_dim=cond.summary.size, speaker_dim=3, num_steps=50)
    oracle = analytic_gaussian_denoiser(np.zeros(3), 1.0, linear_schedule(50))
    before = model.param_hash()
    sched = linear_schedule(sched_steps)
    data = [(np.zeros(3), cond)]
    emb = pseudo_speaker_embedding(4, 3)
    for run in (lambda: train_toy(model, data, sched, TrainConfig(steps=2)),
                lambda: finetune_cln(model, data, sched, emb, iterations=2),
                lambda: evaluate_l2(model, data, sched, emb),
                lambda: sample(model, sched, cond, dim=3),
                lambda: sample(oracle, sched, cond, dim=3)):
        with pytest.raises(InvalidParameterError,
                           match=f"a {sched_steps}-step schedule for a 50-step model"):
            run()
    assert model.param_hash() == before
    # a denoiser without num_steps is not checked
    assert sample(_TwoFaced(np.zeros(3), np.zeros(3)), sched, cond, dim=3).shape == (3,)


def test_the_oracle_refuses_a_schedule_it_was_not_built_on():
    # one length, other betas: the oracle's posterior would read the wrong
    # alpha_bar at every step and the samples would miss N(mu0, sigma0^2)
    oracle = analytic_gaussian_denoiser(np.full(8, 1.5), 1.0, SCHED)
    with pytest.raises(InvalidParameterError, match="betas"):
        sample(oracle, NoiseSchedule(np.full(100, 0.05)), _cond(), dim=8)
    # an equal schedule built anew is the same schedule
    assert np.array_equal(sample(oracle, linear_schedule(), _cond(), dim=8),
                          sample(oracle, SCHED, _cond(), dim=8))


def test_forward_checks_shapes():
    model, cond = _toy()
    wrong_speaker = replace(cond, speaker_embedding=pseudo_speaker_embedding(0, 2))
    with pytest.raises(InvalidParameterError, match="last axis must be 3"):
        model.predict_eps(np.zeros(4), 3, cond)
    with pytest.raises(InvalidParameterError, match="speaker embedding"):
        model.predict_eps(np.zeros(3), 3, wrong_speaker)
    with pytest.raises(InvalidParameterError, match="last axis must be 3"):
        model.l2_loss_and_grads(np.zeros(4), 3, cond, np.zeros(4))
    with pytest.raises(InvalidParameterError, match="speaker embedding"):
        model.l2_loss_and_grads(np.zeros(3), 3, wrong_speaker, np.zeros(3))
    with pytest.raises(InvalidParameterError, match="needs a speaker embedding"):
        model.predict_eps(np.zeros(3), 3, replace(cond, speaker_embedding=None))
    with pytest.raises(InvalidParameterError, match="matching 1-D vectors"):
        model.l2_loss_and_grads(np.zeros((2, 3)), 3, cond, np.zeros((2, 3)))
    # condition summary of 8, model wants 7
    with pytest.raises(InvalidParameterError, match="7-entry condition summary, got 8"):
        model.predict_eps(np.zeros(3), 3, _cond(ling_dim=5))


# -- training loops -----------------------------------------------------------

def _toy_dataset(n_items, dim, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n_items):
        out.append((rng.normal(size=dim), _cond(seed=seed + 10 * k)))
    return out


def test_train_reduces_loss():
    model, cond = _toy(dim=4, hidden=16, seed=3)
    dataset = [(np.array([0.5, -0.2, 1.0, 0.0]), cond)]
    hist = train_toy(model, dataset, SCHED,
                     TrainConfig(steps=500, lr=3e-3, seed=9))
    assert hist.size == 500
    assert hist[-50:].mean() < hist[:50].mean()


def _spy_unconditional(model):
    """Record the `unconditional` flag of every loss call on `model`."""
    flags = []
    loss_and_grads = model.l2_loss_and_grads

    def spy(*args, unconditional=False, **kwargs):
        flags.append(unconditional)
        return loss_and_grads(*args, unconditional=unconditional, **kwargs)

    model.l2_loss_and_grads = spy
    return flags


def test_p_uncond_zero_never_visits_unconditional():
    model, cond = _toy(dim=2, seed=5)
    flags = _spy_unconditional(model)
    hist = train_toy(model, [(np.zeros(2), cond)], SCHED,
                     TrainConfig(steps=100, lr=1e-3, p_uncond=0.0, seed=1))
    assert len(flags) == 100 and not any(flags)
    assert hist.size == 100


def test_p_uncond_positive_visits_unconditional():
    model, cond = _toy(dim=2, seed=5)
    flags = _spy_unconditional(model)
    train_toy(model, [(np.zeros(2), cond)], SCHED,
              TrainConfig(steps=200, lr=1e-3, p_uncond=0.3, seed=1))
    assert len(flags) == 200 and any(flags)


def _reference_pure_l2_loop(model, dataset, sched, steps, lr, p_uncond, seed):
    """Mirror of the documented training contract without any contrastive
    machinery; used to pin the RNG draw order."""
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(steps):
        x0, cond = dataset[int(rng.integers(len(dataset)))]
        t = int(rng.integers(1, sched.num_steps + 1))
        eps = rng.standard_normal(np.shape(x0))
        drop = rng.random() < p_uncond
        loss, grads = model.l2_loss_and_grads(
            q_sample(x0, t, eps, sched), t, cond, eps, unconditional=drop)
        for name, grad in grads.items():
            model.params[name] -= lr * grad
        history.append(loss)
    return np.array(history)


def test_training_without_contrastive_source_matches_pure_l2_bit_exact():
    dataset = _toy_dataset(3, 4, seed=40)
    cond_dim = dataset[0][1].summary.size
    a = ToyDenoiser(dim=4, cond_dim=cond_dim, speaker_dim=3, seed=7)
    b = ToyDenoiser(dim=4, cond_dim=cond_dim, speaker_dim=3, seed=7)
    hist_a = train_toy(a, dataset, SCHED,
                       TrainConfig(steps=120, lr=2e-3, p_uncond=0.1, seed=55))
    hist_b = _reference_pure_l2_loop(b, dataset, SCHED, steps=120, lr=2e-3,
                                     p_uncond=0.1, seed=55)
    assert np.array_equal(hist_a, hist_b)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_contrastive_source_only_adds_weighted_term_to_history():
    dataset = _toy_dataset(2, 3, seed=41)
    cond_dim = dataset[0][1].summary.size
    batch = FeaturePairBatch(np.eye(3)[:2], np.eye(3)[:2])
    term = contrastive_loss(batch)

    a = ToyDenoiser(dim=3, cond_dim=cond_dim, speaker_dim=3, seed=2)
    b = ToyDenoiser(dim=3, cond_dim=cond_dim, speaker_dim=3, seed=2)
    hist_plain = train_toy(a, dataset, SCHED,
                           TrainConfig(steps=50, lr=1e-3, seed=8))
    hist_aug = train_toy(b, dataset, SCHED,
                         TrainConfig(steps=50, lr=1e-3, seed=8,
                                     contrastive_source=lambda n: batch))
    expected = hist_plain + np.array([ramp_weight(n) * term for n in range(50)])
    assert np.allclose(hist_aug, expected, rtol=0, atol=1e-15)
    for name in a.params:  # gradients untouched by the additive term
        assert np.array_equal(a.params[name], b.params[name])


def test_train_empty_dataset_rejected():
    model, _ = _toy()
    with pytest.raises(InvalidParameterError):
        train_toy(model, [], SCHED, TrainConfig(steps=1))


@pytest.mark.parametrize("steps", [0, -3])
def test_train_nonpositive_steps_rejected(steps):
    model, cond = _toy()
    with pytest.raises(InvalidParameterError):
        train_toy(model, [(np.zeros(3), cond)], SCHED, TrainConfig(steps=steps))


@pytest.mark.parametrize("lr, p_uncond", [(math.nan, 0.1), (0.0, 0.1), (-1e-3, 0.1),
                                         (math.inf, 0.1), (1e-3, 1.5), (1e-3, -0.1),
                                         (1e-3, math.nan)])
def test_train_rejects_bad_rate_and_drop_probability(lr, p_uncond):
    model, cond = _toy()
    before = model.param_hash()
    with pytest.raises(InvalidParameterError):
        train_toy(model, [(np.zeros(3), cond)], SCHED,
                  TrainConfig(steps=2, lr=lr, p_uncond=p_uncond))
    assert model.param_hash() == before


def test_training_that_overflows_a_parameter_diverged():
    # the one loss is finite; the step it takes at this rate overflows
    model = ToyDenoiser(dim=4, cond_dim=5, speaker_dim=2, num_steps=10, hidden=4, seed=0)
    with pytest.raises(InvalidParameterError, match="training diverged"):
        train_toy(model, toy_dataset(model, 0), linear_schedule(10),
                  TrainConfig(steps=1, lr=1.7e308))


@pytest.mark.parametrize("lr", [math.nan, 0.0, -1e-3, math.inf])
def test_finetune_rejects_bad_rate(lr):
    model, _ = _toy()
    with pytest.raises(InvalidParameterError):
        finetune_cln(model, _toy_dataset(1, 3, seed=0), SCHED, iterations=1,
                     target_embedding=pseudo_speaker_embedding(4, 3), lr=lr)


# -- fine-tuning ----------------------------------------------------------------

def test_finetune_zero_iterations_is_noop():
    model, _ = _toy()
    before = model.param_hash()
    out = finetune_cln(model, _toy_dataset(2, 3, seed=1), SCHED, iterations=0,
                       target_embedding=pseudo_speaker_embedding(4, 3))
    assert out is model
    assert model.param_hash() == before


def test_finetune_updates_only_cln_and_reduces_loss():
    dataset = _toy_dataset(4, 4, seed=50)
    cond_dim = dataset[0][1].summary.size
    model = ToyDenoiser(dim=4, cond_dim=cond_dim, speaker_dim=3, seed=3)
    # light pre-training so fine-tuning starts from a sensible model
    train_toy(model, dataset, SCHED, TrainConfig(steps=300, lr=2e-3, seed=31))

    target = pseudo_speaker_embedding(123, 3)
    shifted = [(x0 + 0.8, cond) for x0, cond in dataset]
    non_cln = [n for n in model.params if n not in CLN_PARAM_NAMES]
    before_rest = model.param_hash(non_cln)
    before_cln = model.param_hash(CLN_PARAM_NAMES)
    before_loss = evaluate_l2(model, shifted, SCHED, embedding=target)

    finetune_cln(model, shifted, SCHED, iterations=500, target_embedding=target,
                 lr=2e-3, seed=77)

    assert model.param_hash(non_cln) == before_rest
    assert model.param_hash(CLN_PARAM_NAMES) != before_cln
    assert evaluate_l2(model, shifted, SCHED, embedding=target) < before_loss


def test_finetune_requires_unit_embedding():
    model, _ = _toy()
    with pytest.raises(InvalidParameterError):
        finetune_cln(model, _toy_dataset(1, 3, seed=0), SCHED,
                     target_embedding=np.array([2.0, 0.0, 0.0]))


# -- pseudo speaker embedding ---------------------------------------------------

def test_pseudo_embedding_unit_norm_and_deterministic():
    v = pseudo_speaker_embedding(42, 16)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert np.array_equal(v, pseudo_speaker_embedding(42, 16))
    assert not np.array_equal(v, pseudo_speaker_embedding(43, 16))


def test_pseudo_embedding_dim_one():
    assert pseudo_speaker_embedding(7, 1)[0] in (-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        pseudo_speaker_embedding(7, 0)


def test_pseudo_embedding_refuses_a_zero_draw(monkeypatch):
    class Zeros:
        def standard_normal(self, dim):
            return np.zeros(dim)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    with pytest.raises(InvalidParameterError, match="degenerate zero draw"):
        pseudo_speaker_embedding(7, 3)


# -- serialization ----------------------------------------------------------------

def test_model_save_load_roundtrip(tmp_path):
    model, cond = _toy(dim=4, seed=9)
    atomic_write_files(model_files(model, tmp_path / "m"))
    index = json.loads((tmp_path / "m" / "index.json").read_text())
    assert set(index) == {"num_steps"}
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == sorted(
        ["index.json", *(f"{name}.svcf" for name in PARAM_NAMES)])
    back = load_model(tmp_path / "m")
    assert tuple(model.params) == tuple(back.params) == PARAM_NAMES
    sizes = ("dim", "cond_dim", "speaker_dim", "num_steps")
    assert [getattr(back, k) for k in sizes] == [getattr(model, k) for k in sizes]
    assert back.params["w1"].shape == model.params["w1"].shape
    for name in model.params:
        assert np.array_equal(back.params[name],
                              model.params[name].astype(np.float32).astype(np.float64))
    x = np.arange(4, dtype=float)
    a = model.predict_eps(x, 10, cond)
    b = back.predict_eps(x, 10, cond)
    assert np.allclose(a, b, atol=1e-5)  # float32 storage quantization


@pytest.mark.parametrize("variant", ["sizes-agree", "legacy-hidden", "huge-legacy-hidden",
                                     "params-list"])
def test_an_older_model_index_loads(tmp_path, variant):
    """An index as older versions wrote it, with a file map and the sizes,
    loads from the tensors alone: its other keys are ignored, whatever they say."""
    model, _ = _toy(dim=4, seed=9)
    atomic_write_files(model_files(model, tmp_path / "m"))
    current = load_model(tmp_path / "m")
    index = {"num_steps": model.num_steps, "params": {n: f"{n}.svcf" for n in PARAM_NAMES},
             "dim": model.dim, "cond_dim": model.cond_dim, "speaker_dim": model.speaker_dim,
             "hidden": model.params["w1"].shape[0], "time_freqs": TIME_FREQS}
    if variant.endswith("legacy-hidden"):
        index["hidden"] = 10**11 if variant.startswith("huge") else 33
    elif variant == "params-list":
        index["params"] = sorted(index["params"].values())
    (tmp_path / "m" / "index.json").write_text(json.dumps(index))
    older = load_model(tmp_path / "m")
    assert older.num_steps == model.num_steps
    assert tuple(older.params) == PARAM_NAMES
    assert all(np.array_equal(older.params[n], current.params[n]) for n in PARAM_NAMES)


def test_save_model_checks_every_parameter_before_creating_the_directory(tmp_path):
    model, _ = _toy()
    model.params["cln_b_beta"] = np.full_like(model.params["cln_b_beta"], 1e39)
    with pytest.raises(InvalidParameterError):
        model_files(model, tmp_path / "m")
    assert not (tmp_path / "m").exists()

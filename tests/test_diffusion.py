import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.contrastive import FeaturePairBatch, contrastive_loss, ramp_weight
from svcforge.diffusion import (
    CLN_PARAM_NAMES,
    CLNParams,
    ConditionSet,
    NoiseSchedule,
    ToyDenoiser,
    TrainConfig,
    analytic_gaussian_denoiser,
    conditional_layer_norm,
    evaluate_l2,
    finetune_cln,
    linear_schedule,
    load_model,
    pseudo_speaker_embedding,
    q_sample,
    guided_eps,
    reverse_step,
    sample,
    save_model,
    train_toy,
)
from svcforge.errors import (
    InvalidParameterError,
    ManifestFormatError,
    ShapeMismatchError,
)

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
    return ToyDenoiser(dim=dim, cond_dim=cond.summary().size, speaker_dim=3,
                       hidden=hidden, seed=seed), cond


# -- schedule -----------------------------------------------------------------

def test_single_step_schedule():
    sched = linear_schedule(num_steps=1, beta_start=0.01, beta_end=0.02)
    assert sched.num_steps == 1
    assert sched.alpha_bar_at(1) == pytest.approx(1 - 0.01, abs=1e-15)


def test_default_schedule_alpha_bar():
    # independent oracle: plain product loop
    prod = 1.0
    for t in range(1, 101):
        prod *= 1.0 - SCHED.beta_at(t)
    assert SCHED.alpha_bar_at(100) == pytest.approx(prod, rel=1e-12)
    assert 0.0 < SCHED.alpha_bar_at(100) < 0.5
    bars = [SCHED.alpha_bar_at(t) for t in range(1, 101)]
    assert np.all(np.diff(bars) < 0)


def test_schedule_derives_alpha_tables_from_beta():
    beta = np.array([0.1, 0.2, 0.05])
    sched = NoiseSchedule(beta)
    assert np.array_equal(sched.alpha, 1.0 - beta)
    assert np.array_equal(sched.alpha_bar, np.cumprod(1.0 - beta))
    with pytest.raises(TypeError):
        NoiseSchedule(beta, alpha=1.0 - beta, alpha_bar=np.ones(3))


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        linear_schedule(beta_start=0.02, beta_end=0.01)
    with pytest.raises(InvalidParameterError):
        linear_schedule(num_steps=0)
    with pytest.raises(InvalidParameterError):
        SCHED.alpha_bar_at(0)
    with pytest.raises(InvalidParameterError):
        SCHED.alpha_bar_at(101)


# -- forward process ----------------------------------------------------------

def test_q_sample_zero_noise():
    x0 = np.array([1.0, -2.0, 0.5])
    out = q_sample(x0, 42, np.zeros(3), SCHED)
    assert np.allclose(out, math.sqrt(SCHED.alpha_bar_at(42)) * x0, rtol=0, atol=0)


def test_q_sample_pure_noise_at_t_max():
    eps = np.array([0.3, -0.7])
    out = q_sample(np.zeros(2), 100, eps, SCHED)
    assert np.allclose(out, math.sqrt(1 - SCHED.alpha_bar_at(100)) * eps)


def test_q_sample_monte_carlo_moments():
    rng = np.random.default_rng(8)
    x0 = np.array([0.5])
    for t in (1, 50, 100):
        eps = rng.standard_normal((100_000, 1))
        out = q_sample(np.broadcast_to(x0, (100_000, 1)), t, eps, SCHED)
        ab = SCHED.alpha_bar_at(t)
        assert abs(out.mean() - math.sqrt(ab) * 0.5) < 3 * math.sqrt((1 - ab) / 100_000)
        assert abs(out.var() / (1 - ab) - 1) < 0.05


def test_q_sample_errors():
    with pytest.raises(ShapeMismatchError):
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
    sched = linear_schedule(num_steps=1, beta_start=0.01, beta_end=0.01)
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=5)
    eps = rng.normal(size=5)
    x1 = q_sample(x0, 1, eps, sched)
    back = reverse_step(x1, 1, eps, sched, np.zeros(5))
    assert np.max(np.abs(back - x0)) < 1e-9


def test_reverse_step_zero_eps_is_rescale():
    x = np.array([2.0, -4.0])
    out = reverse_step(x, 10, np.zeros(2), SCHED, np.zeros(2))
    assert np.allclose(out, x / math.sqrt(SCHED.alpha_at(10)))


def test_reverse_step_errors():
    with pytest.raises(ShapeMismatchError):
        reverse_step(np.zeros(3), 5, np.zeros(4), SCHED, np.zeros(3))
    with pytest.raises(InvalidParameterError):
        reverse_step(np.zeros(2), 1, np.zeros(2), SCHED, np.ones(2))


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
    ab = SCHED.alpha_bar_at(t)
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
    ab = SCHED.alpha_bar_at(t)
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

def _identity_cln(d, d_spk):
    return CLNParams(np.zeros((d, d_spk)), np.ones(d),
                     np.zeros((d, d_spk)), np.zeros(d))


def test_cln_identity_affine_is_plain_layernorm():
    rng = np.random.default_rng(2)
    h = rng.normal(size=8)
    out = conditional_layer_norm(h, np.zeros(3), _identity_cln(8, 3))
    assert abs(out.mean()) < 1e-12
    assert abs(out.var() - 1.0) < 1e-4  # epsilon shrinks variance slightly


def test_cln_constant_input_returns_beta():
    p = CLNParams(np.zeros((4, 2)), np.ones(4), np.zeros((4, 2)),
                  np.array([0.5, -0.5, 1.0, 2.0]))
    out = conditional_layer_norm(np.full(4, 3.3), np.zeros(2), p)
    assert np.allclose(out, p.b_beta)


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


def test_predict_eps_batched_matches_single():
    model, cond = _toy()
    rng = np.random.default_rng(21)
    batch = rng.normal(size=(5, 3))
    stacked = model.predict_eps(batch, 9, cond)
    singles = np.stack([model.predict_eps(row, 9, cond) for row in batch])
    assert np.allclose(stacked, singles, atol=1e-14)


def _reference_predict_eps(model, x_t, t, cond, unconditional):
    """w2 tanh(CLN(w1 inp + b1)) + b2 with conditional_layer_norm as the CLN."""
    p = model.params
    e = np.zeros(model.speaker_dim) if unconditional else cond.speaker_embedding
    fixed = np.concatenate([model.time_embedding(t), cond.summary()])
    inp = np.concatenate(
        [x_t, np.broadcast_to(fixed, x_t.shape[:-1] + fixed.shape)], axis=-1)
    h = inp @ p["w1"].T + p["b1"]
    cln = CLNParams(*(p[name] for name in CLN_PARAM_NAMES))
    return np.tanh(conditional_layer_norm(h, e, cln)) @ p["w2"].T + p["b2"]


def test_predict_eps_matches_reference_composition():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cond = _cond(seed=seed, speaker_dim=4)
        model = ToyDenoiser(dim=5, cond_dim=cond.summary().size, speaker_dim=4,
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


def test_forward_checks_shapes():
    model, cond = _toy()
    wrong_speaker = replace(cond, speaker_embedding=pseudo_speaker_embedding(0, 2))
    with pytest.raises(ShapeMismatchError):
        model.predict_eps(np.zeros(4), 3, cond)
    with pytest.raises(ShapeMismatchError):
        model.predict_eps(np.zeros(3), 3, wrong_speaker)
    with pytest.raises(ShapeMismatchError):
        model.l2_loss_and_grads(np.zeros(4), 3, cond, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        model.l2_loss_and_grads(np.zeros(3), 3, wrong_speaker, np.zeros(3))


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
    cond_dim = dataset[0][1].summary().size
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
    cond_dim = dataset[0][1].summary().size
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
    cond_dim = dataset[0][1].summary().size
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


# -- serialization ----------------------------------------------------------------

def test_model_save_load_roundtrip(tmp_path):
    model, cond = _toy(dim=4, seed=9)
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.dim == model.dim and back.hidden == model.hidden
    for name in model.params:
        assert np.array_equal(back.params[name],
                              model.params[name].astype(np.float32).astype(np.float64))
    x = np.arange(4, dtype=float)
    a = model.predict_eps(x, 10, cond)
    b = back.predict_eps(x, 10, cond)
    assert np.allclose(a, b, atol=1e-5)  # float32 storage quantization


def test_model_index_with_malformed_params_rejected(tmp_path):
    model, _ = _toy()
    save_model(model, tmp_path / "m")
    index_path = tmp_path / "m" / "index.json"
    index = json.loads(index_path.read_text())
    index["params"] = sorted(index["params"].values())
    index_path.write_text(json.dumps(index))
    with pytest.raises(ManifestFormatError):
        load_model(tmp_path / "m")
